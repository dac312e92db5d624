"""Planar circle geometry: contact pairs, lens areas, gravity centers, enclosing radii.

``contact_pairs`` searches one layout from scratch with a sort-and-sweep
along x. A ``NeighbourList`` gives a moving layout the same contacts from a
Verlet list of candidate pairs, rebuilt with that search only after large
enough moves.

Points are float64 arrays of shape (2,) and point sets are arrays of shape
(N, 2); the Point2/Disk dataclasses are thin wrappers for single-shape call
sites and convert transparently via ``np.asarray``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np


class InvalidGeometryError(ValueError):
    """Non-finite coordinates, non-positive radii, or mismatched lengths."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __array__(self, dtype=None, copy=None):
        return np.array([self.x, self.y], dtype=dtype or float)


@dataclass(frozen=True)
class Disk:
    center: Point2
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if not (np.all(np.isfinite(c)) and math.isfinite(self.radius)):
            raise InvalidGeometryError(f"disk has non-finite data: {self!r}")
        if self.radius <= 0.0:
            raise InvalidGeometryError(f"disk radius must be positive, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius


def lens_area_from_distance(d, r_a, r_b):
    """Lens areas of overlapping disk pairs, from 1-D arrays with d < r_a + r_b.

    A contained pair (d <= |r_a - r_b|) overlaps in the smaller disk; the
    rest take the two-segment formula, with arccos arguments clipped so
    inputs within rounding of the containment boundary land on it instead
    of going NaN.
    """
    partial = d > np.abs(r_a - r_b)
    out = math.pi * np.minimum(r_a, r_b) ** 2
    out[partial] = _partial_lens(d[partial], r_a[partial], r_b[partial])
    return out


def _partial_lens(d, r_a, r_b):
    # Both disks' circular segments at once, as the rows of (2, E) arrays:
    # row 0 holds disk a's terms, row 1 disk b's. Every element rounds as
    # the one-disk formula r_a^2 arccos((d^2 + r_a^2 - r_b^2) / (2 d r_a))
    # does, and d * d, 2 * d and d + r_a are each formed once.
    r = np.array((r_a, r_b))
    r_sq = r * r
    cos = (d * d + r_sq - r_sq[::-1]) / ((2.0 * d) * r)
    np.minimum(cos, 1.0, out=cos)
    np.maximum(cos, -1.0, out=cos)
    # The arccos comes from libm, one element at a time, not np.arccos.
    # numpy's float64 arccos calls libm too, except on CPUs where it
    # dispatches to its AVX-512 loop, which rounds 7-9% of results
    # differently (numpy 2.4). So with libm a layout's bytes do not depend
    # on the CPU. The kernel runs on few ticks (200-300 calls of 190-260
    # pairs in a full-budget solve), so the Python-level loop costs about
    # 1% of a solve.
    sector = r_sq * np.fromiter(map(math.acos, cos.ravel().tolist()), float, cos.size).reshape(cos.shape)
    # Heron-style product: the sqrt is four times the triangle area
    # spanned by the two centers and an intersection point.
    d_a = d + r_a
    f_a, f_b, f_c, f_d = r_a + r_b - d, d_a - r_b, d - r_a + r_b, d_a + r_b
    # Four lengths multiply past float range for radii above about 1e76,
    # and an inf root would make the area -inf. Only those elements take
    # the product as two square roots; the others keep their bits.
    with np.errstate(over="ignore"):
        tri = f_a * f_b * f_c * f_d
    root = np.sqrt(np.maximum(tri, 0.0))
    over = tri == np.inf
    if over.any():
        root[over] = np.sqrt(np.maximum(f_a[over] * f_b[over], 0.0)) * np.sqrt(np.maximum(f_c[over] * f_d[over], 0.0))
    return sector[0] + sector[1] - 0.5 * root


def lens_area(a: Disk, b: Disk) -> float:
    """Overlap (lens) area of two disks; zero when disjoint or tangent."""
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise InvalidGeometryError("disk centers must be finite")
    d = math.sqrt(dx * dx + dy * dy)
    if d >= a.radius + b.radius:
        return 0.0
    return float(lens_area_from_distance(np.array([d]), np.array([a.radius]), np.array([b.radius]))[0])


def _as_points(positions) -> np.ndarray:
    p = np.asarray(positions, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2:
        raise InvalidGeometryError(f"expected an (N, 2) point array, got shape {p.shape}")
    return p


def _as_radii(radii, p) -> np.ndarray:
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.shape[0] != p.shape[0]:
        raise InvalidGeometryError("positions and radii lengths differ")
    return r


class Contacts(NamedTuple):
    """Overlapping pairs i < j (d < reach) sorted by (i, j).

    ``d`` holds each pair's center distance and ``reach`` its radius sum
    r_i + r_j, bitwise ``radii[i] + radii[j]``.
    """

    i: np.ndarray
    j: np.ndarray
    d: np.ndarray
    reach: np.ndarray


def contact_pairs(positions, radii) -> Contacts:
    """The stateless pair search of one layout.

    Each circle is tested only against the circles whose x lies within its
    own radius plus the largest radius, found by sorting on x and sweeping;
    the result is bitwise what testing every pair gives, because a pair's
    distance is computed the same way.
    ``solve`` gets the same arrays from a NeighbourList, which reruns this
    search only now and then.
    """
    p = _as_points(positions)
    return _sweep_contacts(p, _as_radii(radii, p))


def row_norms(vectors) -> np.ndarray:
    """Euclidean length of every row of an (N, 2) array, as sqrt(x*x + y*y)."""
    sq = vectors * vectors
    return np.sqrt(sq[:, 0] + sq[:, 1])


def _touching(p, iu, ju, reach, skin=0.0) -> Contacts:
    # The candidates i < j with d < reach + skin, where reach holds their
    # radius sums; each contact keeps its sum. take gathers the same rows as
    # p[ju], without fancy indexing's overhead.
    d = row_norms(p.take(ju, 0) - p.take(iu, 0))
    hit = d < (reach + skin if skin else reach)
    return Contacts(iu[hit], ju[hit], d[hit], reach[hit])


def _sweep_contacts(p, r, skin=0.0) -> Contacts:
    # Pairs with d < r_i + r_j + skin, sorted by (i, j), each with its
    # radius sum r_i + r_j (without the skin) as reach. Sort and sweep: with
    # the circles sorted by x, every partner circle i can touch lies in the
    # run of later circles whose x is within its own window
    # w_i = fl(fl(r_i + r_max) + skin), with no rounding margin and no case
    # for NaN or inf; tests/test_exactness.py holds the argument. A window
    # below zero (a negative radius) holds no later circle, so its run
    # length is clamped to zero.
    n = p.shape[0]
    if n < 2:
        return Contacts(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    order = np.argsort(p[:, 0])
    x = p[order, 0]
    window = r[order] + r.max() + skin
    after = np.arange(1, n + 1)
    counts = np.searchsorted(x, x + window, side="right") - after
    np.maximum(counts, 0, out=counts)
    first = np.repeat(after - (np.cumsum(counts) - counts), counts)
    ci = np.repeat(order, counts)
    cj = order[np.arange(first.shape[0]) + first]
    iu, ju = np.minimum(ci, cj), np.maximum(ci, cj)
    found = _touching(p, iu, ju, r[iu] + r[ju], skin)
    by_pair = np.argsort(found.i * n + found.j)
    return Contacts(*(column[by_pair] for column in found))


# Verlet skin of a NeighbourList, in ticks of top-speed travel v_max * dt
# (skin 40 at the defaults). A wider skin rebuilds less often and leaves
# more candidates for every tick to filter. Seed-0 full-budget solves at
# skins of 8 / 16 / 20 / 24 / 32 ticks (BENCH_26.json, 2-vCPU VM, numpy
# 2.4): II2 (N=150) rebuilt 927 / 449 / 354 / 286 / 201 times in 15 000
# ticks, kept 220 / 332 / 385 / 450 / 597 candidates, and ran at a median
# 77.6 / 73.6 / 66.7 / 66.9 / 72.9 us per tick over eight interleaved
# rounds. I1, I10, II1 and II3 stayed within host noise from 8 to 24 ticks
# and slowed at 32.
SKIN_TICKS = 20.0


class NeighbourList:
    """Contacts of one moving layout, from a Verlet list of candidate pairs.

    A rebuild runs the ``contact_pairs`` sweep with every window widened by
    ``skin`` and keeps every pair with d < r_i + r_j + skin, in (i, j)
    order, with its radius sum r_i + r_j and the positions it saw. Each
    ``layout`` call re-filters those candidates against their sums with the
    same distance arithmetic as ``contact_pairs``, so it returns bitwise the
    same Contacts, and the layout's FarEdges from the same pass. The list
    is exact while no circle has moved more than skin / 2 since the
    rebuild: two circles then close at most skin. A call that finds a
    larger displacement, or a non-finite one, rebuilds first. ``travel`` is
    the farthest a circle moves per tick.
    """

    def __init__(self, radii, travel: float):
        self.radii = np.asarray(radii, dtype=float)
        skin = SKIN_TICKS * travel
        self.skin = skin if math.isfinite(skin) and skin > 0.0 else 0.0
        # Rebuild a little before skin / 2. Distances and displacements
        # round with a relative error of a few ulps each, so the margin is
        # 16 eps of the widest reach 2 * r_max + skin; a margin that eats
        # the whole half-skin makes every call rebuild, which stays exact.
        # The limit is a Python float, whose square overflows to inf without
        # a warning; it is held below inf, so that a move whose square
        # overflows still rebuilds.
        widest = 2.0 * float(self.radii.max()) + self.skin if self.radii.size else self.skin
        limit = 0.5 * self.skin - 16.0 * sys.float_info.epsilon * widest
        self._limit_sq = min(limit * limit, sys.float_info.max) if limit > 0.0 else -1.0
        self._anchor: Optional[np.ndarray] = None
        self._i = self._j = self._reach = None
        self.rebuilds = 0

    def layout(self, p: np.ndarray) -> tuple[Contacts, FarEdges]:
        """Bitwise ``(contact_pairs(p, radii), far_edges(p, radii))``, without their checks.

        ``p`` is a non-empty (N, 2) float array, as ``solve`` passes on
        every layout; ``contact_pairs`` and ``far_edges`` are the checked
        entries. One stacked array holds the rows p, the moves p - anchor
        since the last rebuild and the candidates' differences p_j - p_i.
        One square, add and sqrt over it give the origin distances, the
        squared moves of the skin check and the center distances, each
        element rounded as ``row_norms`` rounds it in an array of its own.
        """
        n = p.shape[0]
        sq = None if self._anchor is None else self._squared_rows(p)
        # Written so that NaN, from a NaN or inf position, also rebuilds.
        # Right after a rebuild the moves are not checked: those of a NaN
        # layout stay NaN and would rebuild again.
        if sq is None or not sq[n + sq[n : 2 * n].argmax()] <= self._limit_sq:
            self._anchor = p.copy()
            self._i, self._j, _, self._reach = _sweep_contacts(p, self.radii, self.skin)
            self.rebuilds += 1
            sq = self._squared_rows(p)
        norms = np.sqrt(sq)
        dist = norms[:n]
        far = dist + self.radii
        d = norms[2 * n :]
        hit = d < self._reach
        return (
            Contacts(self._i[hit], self._j[hit], d[hit], self._reach[hit]),
            FarEdges(dist, far, float(far[far.argmax()])),
        )

    def _squared_rows(self, p):
        # x * x + y * y of the rows p, p - anchor and p_j - p_i, stacked in
        # that order; take gathers the same rows as p[j], without fancy
        # indexing's overhead.
        rows = np.concatenate((p, p - self._anchor, p.take(self._j, 0) - p.take(self._i, 0)))
        rows *= rows
        return rows[:, 0] + rows[:, 1]


def total_overlap(positions, radii, *, contacts: Optional[Contacts] = None) -> float:
    """Sum of lens areas over all unordered pairs; zero when all disjoint.

    ``contacts`` is this layout's ``contact_pairs`` result, when the caller
    already has it; otherwise the pair search runs here.
    """
    p = _as_points(positions)
    r = _as_radii(radii, p)
    found = contacts if contacts is not None else contact_pairs(p, r)
    # Most layouts a solve sends here have no contacts, and the lens kernel
    # on empty arrays costs some 40 times this early return.
    return total_overlaps(r, [found])[0] if found[2].shape[0] else 0.0


def total_overlaps(radii, contacts: Sequence[Contacts]) -> list[float]:
    """``total_overlap`` of several layouts of one swarm, from one lens-area call.

    ``contacts`` holds one or more layouts' contact pairs. The lens kernel
    rounds each element alike whatever the array around it, and each
    layout's areas are summed by ``np.add.reduce`` (as ``np.sum``) over its
    own slice (``np.add.reduceat`` and padded 2-D sums round differently).
    """
    r = np.asarray(radii, dtype=float)
    i, j, d, _ = zip(*contacts)
    areas = lens_area_from_distance(np.concatenate(d), r[np.concatenate(i)], r[np.concatenate(j)])
    totals = []
    start = 0
    for layout_d in d:
        end = start + layout_d.shape[0]
        totals.append(float(np.add.reduce(areas[start:end])))
        start = end
    return totals


def center_of_gravity(positions, masses, total: Optional[float] = None) -> np.ndarray:
    """Mass-weighted mean position, as a (2,) array.

    ``total`` is the sum of ``masses``, when the caller has it cached
    (``ProblemInstance.total_mass``); otherwise it is summed here.
    """
    p = _as_points(positions)
    m = np.asarray(masses, dtype=float)
    if m.ndim != 1 or m.shape[0] != p.shape[0] or p.shape[0] == 0:
        raise InvalidGeometryError("positions and masses lengths differ or are empty")
    if total is None:
        total = np.add.reduce(m)
    if not total > 0.0:
        raise InvalidGeometryError("total mass must be positive")
    return np.add.reduce(m[:, None] * p, axis=0) / total


def cg_offset(cg) -> float:
    """Distance of a gravity center ``cg``, a (2,) array, from the origin."""
    x, y = cg.tolist()
    return math.sqrt(x * x + y * y)


def cg_violation(positions, masses) -> float:
    """Distance of the layout's gravity center from the origin."""
    return cg_offset(center_of_gravity(positions, masses))


class FarEdges(NamedTuple):
    """A layout's origin distances |p_i|, far edges |p_i| + r_i and their maximum.

    ``far_max`` is NaN when any far edge is.
    """

    dist: np.ndarray
    far: np.ndarray
    far_max: float


def far_edges(positions, radii) -> FarEdges:
    """The FarEdges of a layout about the origin.

    ``positions`` is a non-empty (N, 2) float array and ``radii`` an (N,)
    one; no checks, as the solver calls this on every layout.
    """
    dist = row_norms(positions)
    far = dist + radii
    return FarEdges(dist, far, float(far[far.argmax()]))


def enclosing_radius(positions, radii, center=(0.0, 0.0)) -> float:
    """Radius of the smallest disk about ``center`` covering every circle."""
    p = _as_points(positions)
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.shape[0] != p.shape[0] or p.shape[0] == 0:
        raise InvalidGeometryError("positions and radii lengths differ or are empty")
    c = np.asarray(center, dtype=float).reshape(2)
    reach = row_norms(p - c)
    reach += r
    return float(reach[reach.argmax()])
