"""Planar circle geometry: contact pairs, lens areas, gravity centers, enclosing radii.

``contact_pairs`` searches one layout from scratch: all pairs for small
swarms, a sort-and-sweep along x for large ones. A ``NeighbourList`` gives
a moving layout the same contacts from a Verlet list of candidate pairs,
rebuilt with that search only after large enough moves.

Points are float64 arrays of shape (2,) and point sets are arrays of shape
(N, 2); the Point2/Disk dataclasses are thin wrappers for single-shape call
sites and convert transparently via ``np.asarray``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

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
    if partial.all():
        # The common case in a packing: no gather, no scatter.
        return _partial_lens(d, r_a, r_b)
    out = math.pi * np.minimum(r_a, r_b) ** 2
    if partial.any():
        out[partial] = _partial_lens(d[partial], r_a[partial], r_b[partial])
    return out


def _partial_lens(d, r_a, r_b):
    cos_a = np.maximum(np.minimum((d * d + r_a * r_a - r_b * r_b) / (2.0 * d * r_a), 1.0), -1.0)
    cos_b = np.maximum(np.minimum((d * d + r_b * r_b - r_a * r_a) / (2.0 * d * r_b), 1.0), -1.0)
    # Heron-style product: the sqrt is four times the triangle area
    # spanned by the two centers and an intersection point.
    tri = (r_a + r_b - d) * (d + r_a - r_b) * (d - r_a + r_b) * (d + r_a + r_b)
    return r_a * r_a * np.arccos(cos_a) + r_b * r_b * np.arccos(cos_b) - 0.5 * np.sqrt(np.maximum(tri, 0.0))


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


@lru_cache(maxsize=32)
def _upper_pairs(n: int):
    # Cached (i, j) index pair arrays for the strict upper triangle.
    return np.triu_indices(n, k=1)


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


# Swarm size from which ``contact_pairs`` and a NeighbourList rebuild use
# the sweep instead of all pairs: the measured crossover. Per search on
# packed II3 subsets (2-vCPU VM, numpy 2.4), all pairs vs sweep took 76 vs
# 78 us at N=52, 90 vs 82 at N=56, 96 vs 82 at N=60 and 143 vs 103 at N=72;
# with a rebuild's skin of 16, 98 vs 98 at N=56 and 113 vs 103 at N=60. On
# the same layouts spread twice as wide the sweep wins from N=48.
GRID_AUTO_THRESHOLD = 56


class Contacts(NamedTuple):
    """Overlapping pairs i < j (d < r_i + r_j) sorted by (i, j), with distances d."""

    i: np.ndarray
    j: np.ndarray
    d: np.ndarray


def contact_pairs(positions, radii) -> Contacts:
    """The stateless pair search of one layout.

    Below GRID_AUTO_THRESHOLD circles every pair is tested; from there up,
    only pairs whose x coordinates lie within the widest reach, found by
    sorting on x and sweeping. Both searches return bitwise-identical
    arrays because the distance of a pair is computed the same way
    whichever search found it. ``solve`` gets the same arrays from a
    NeighbourList, which reruns this search only now and then.
    """
    p = _as_points(positions)
    return _pairs_within(p, _as_radii(radii, p))


def _pairs_within(p, r, skin=0.0) -> Contacts:
    # Pairs with d < r_i + r_j + skin, sorted by (i, j).
    n = p.shape[0]
    if n < GRID_AUTO_THRESHOLD:
        return _touching(p, r, *_upper_pairs(n), skin)
    return _sweep_contacts(p, r, skin)


def _touching(p, r, iu, ju, skin=0.0) -> Contacts:
    diff = p[ju] - p[iu]
    d = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
    reach = r[iu] + r[ju]
    hit = d < (reach + skin if skin else reach)
    return Contacts(iu[hit], ju[hit], d[hit])


def _sweep_contacts(p, r, skin=0.0) -> Contacts:
    # Sort and sweep: with the circles sorted by x, every partner a circle
    # can touch lies in the run of later circles whose x is within
    # reach = fl(2 r_max + skin). No rounding margin is needed. A pair that
    # _touching keeps has fl(d) < fl(fl(r_i + r_j) + skin) <= reach, as
    # rounding is monotone. And fl(d) >= |dx| for dx = fl(x_j - x_i),
    # because fl(sqrt(fl(dx * dx))) == |dx| (barring underflow below
    # 1e-154) and adding fl(dy * dy) >= 0 cannot lower the sum. So
    # fl(x_j - x_i) < reach; by monotone rounding the exact x_j - x_i <
    # reach, and x_j <= fl(x_i + reach). NaN and inf coordinates need no
    # special case: a pair with one never hits, wherever the sort puts it.
    n = p.shape[0]
    reach = 2.0 * float(r.max()) + skin if n else 0.0
    if n < 2 or not reach > 0.0:
        # A non-positive reach would give negative run lengths.
        return _touching(p, r, *_upper_pairs(n), skin)
    order = np.argsort(p[:, 0])
    x = p[order, 0]
    after = np.arange(1, n + 1)
    counts = np.searchsorted(x, x + reach, side="right") - after
    first = np.repeat(after - (np.cumsum(counts) - counts), counts)
    ci = np.repeat(order, counts)
    cj = order[np.arange(first.shape[0]) + first]
    found = _touching(p, r, np.minimum(ci, cj), np.maximum(ci, cj), skin)
    by_pair = np.argsort(found.i * n + found.j)
    return Contacts(found.i[by_pair], found.j[by_pair], found.d[by_pair])


# Verlet skin of a NeighbourList, in ticks of top-speed travel v_max * dt
# (skin 16 at the defaults). Measured on full-budget II2 solves (2-vCPU VM,
# numpy 2.4): 8 ticks rebuilt 927 times in 15 000 ticks at 72-89 us/tick,
# 2 ticks rebuilt 3 468 times at 81-82 us/tick, and 4, 6 or 12 ticks ran
# within host noise of 8.
SKIN_TICKS = 8.0


class NeighbourList:
    """Contacts of one moving layout, from a Verlet list of candidate pairs.

    A rebuild runs the ``contact_pairs`` search with the reach widened by
    ``skin`` and keeps every pair with d < r_i + r_j + skin, in (i, j)
    order, along with the positions it saw. Each call re-filters those
    candidates with the same distance arithmetic as ``contact_pairs``, so it
    returns bitwise the same Contacts. The list is exact while no circle has
    moved more than skin / 2 since the rebuild: two circles then close at
    most skin. A call that finds a larger displacement, or a non-finite one,
    rebuilds first. ``travel`` is the farthest a circle moves per tick.
    """

    def __init__(self, radii, travel: float):
        self.radii = np.asarray(radii, dtype=float)
        skin = SKIN_TICKS * travel
        self.skin = skin if math.isfinite(skin) and skin > 0.0 else 0.0
        # Rebuild a little before skin / 2. Distances and displacements
        # round with a relative error of a few ulps each, so the margin is
        # 16 eps of the widest reach 2 * r_max + skin; a margin that eats
        # the whole half-skin makes every call rebuild, which stays exact.
        widest = 2.0 * float(self.radii.max()) + self.skin if self.radii.size else self.skin
        limit = 0.5 * self.skin - 16.0 * np.finfo(float).eps * widest
        self._limit_sq = limit * limit if limit > 0.0 else -1.0
        self._anchor: Optional[np.ndarray] = None
        self._i = self._j = None
        self.rebuilds = 0

    def contacts(self, positions) -> Contacts:
        p = _as_points(positions)
        r = _as_radii(self.radii, p)
        if self._anchor is None or self._moved_past_skin(p):
            self._anchor = p.copy()
            self._i, self._j, _ = _pairs_within(p, r, self.skin)
            self.rebuilds += 1
        return _touching(p, r, self._i, self._j)

    def _moved_past_skin(self, p) -> bool:
        step = p - self._anchor
        moved = step[:, 0] ** 2 + step[:, 1] ** 2
        # Written so that NaN, from a NaN or inf position, also rebuilds.
        return moved.size > 0 and not moved.max() <= self._limit_sq


def total_overlap(positions, radii, *, contacts: Optional[Contacts] = None) -> float:
    """Sum of lens areas over all unordered pairs; zero when all disjoint.

    ``contacts`` is this layout's ``contact_pairs`` result, when the caller
    already has it; otherwise the pair search runs here.
    """
    p = _as_points(positions)
    r = _as_radii(radii, p)
    i, j, d = contacts if contacts is not None else contact_pairs(p, r)
    if d.shape[0] == 0:
        return 0.0
    return float(lens_area_from_distance(d, r[i], r[j]).sum())


def center_of_gravity(positions, masses) -> np.ndarray:
    """Mass-weighted mean position, as a (2,) array."""
    p = _as_points(positions)
    m = np.asarray(masses, dtype=float)
    if m.ndim != 1 or m.shape[0] != p.shape[0] or p.shape[0] == 0:
        raise InvalidGeometryError("positions and masses lengths differ or are empty")
    total = m.sum()
    if not total > 0.0:
        raise InvalidGeometryError("total mass must be positive")
    return (m[:, None] * p).sum(axis=0) / total


def cg_offset(cg) -> float:
    """Distance of a gravity center ``cg`` from the origin."""
    return math.sqrt(cg[0] * cg[0] + cg[1] * cg[1])


def cg_violation(positions, masses) -> float:
    """Distance of the layout's gravity center from the origin."""
    return cg_offset(center_of_gravity(positions, masses))


def enclosing_radius(positions, radii, center=(0.0, 0.0)) -> float:
    """Radius of the smallest disk about ``center`` covering every circle."""
    p = _as_points(positions)
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.shape[0] != p.shape[0] or p.shape[0] == 0:
        raise InvalidGeometryError("positions and radii lengths differ or are empty")
    c = np.asarray(center, dtype=float).reshape(2)
    diff = p - c
    return float((np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2) + r).max())
