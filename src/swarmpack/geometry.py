"""Planar circle geometry: contact pairs, lens areas, gravity centers, enclosing radii.

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
    out = math.pi * np.minimum(r_a, r_b) ** 2
    partial = d > np.abs(r_a - r_b)
    if np.any(partial):
        dp, rap, rbp = d[partial], r_a[partial], r_b[partial]
        cos_a = np.clip((dp * dp + rap * rap - rbp * rbp) / (2.0 * dp * rap), -1.0, 1.0)
        cos_b = np.clip((dp * dp + rbp * rbp - rap * rap) / (2.0 * dp * rbp), -1.0, 1.0)
        # Heron-style product: the sqrt is four times the triangle area
        # spanned by the two centers and an intersection point.
        tri = (rap + rbp - dp) * (dp + rap - rbp) * (dp - rap + rbp) * (dp + rap + rbp)
        out[partial] = (
            rap * rap * np.arccos(cos_a)
            + rbp * rbp * np.arccos(cos_b)
            - 0.5 * np.sqrt(np.maximum(tri, 0.0))
        )
    return out


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


# Swarm size from which ``contact_pairs`` uses the cell list instead of the
# all-pairs sweep: the measured crossover. Per contact pass on packed II3
# subsets (2-vCPU VM, numpy 2.4), all-pairs vs cell list took 28 vs 33 us at
# N=56, 33 vs 35 at N=64, 42 vs 36 at N=72 and 74 vs 40 at N=100; on the
# same layouts spread twice as wide the cell list wins from N=60.
GRID_AUTO_THRESHOLD = 64


class Contacts(NamedTuple):
    """Overlapping pairs i < j (d < r_i + r_j) sorted by (i, j), with distances d."""

    i: np.ndarray
    j: np.ndarray
    d: np.ndarray


def contact_pairs(positions, radii) -> Contacts:
    """The one pair search per layout; overlap sums and force triggers filter it.

    Below GRID_AUTO_THRESHOLD circles every pair is tested; from there up,
    only pairs from neighboring cells of a cell list. Both searches return
    bitwise-identical arrays because the distance of a pair is computed the
    same way whichever search found it.
    """
    p = _as_points(positions)
    r = _as_radii(radii, p)
    n = p.shape[0]
    if n < GRID_AUTO_THRESHOLD:
        return _touching(p, r, *_upper_pairs(n))
    return _cell_list_contacts(p, r)


def _touching(p, r, iu, ju) -> Contacts:
    diff = p[ju] - p[iu]
    d = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
    hit = d < r[iu] + r[ju]
    return Contacts(iu[hit], ju[hit], d[hit])


def _cell_list_contacts(p, r) -> Contacts:
    # Sort-based cell list: a pair within reach sits in the same or adjacent
    # cells, so each circle scans three ranges of sorted cell keys, one per
    # neighboring column, each covering three rows.
    n = p.shape[0]
    reach = 2.0 * float(np.max(r)) if n else 0.0
    scale = float(np.max(np.abs(p))) if n else 0.0
    if n < 2 or not (reach > 0.0 and math.isfinite(reach + scale)):
        # No cell grid to build; all pairs gives the same answer.
        return _touching(p, r, *_upper_pairs(n))
    # p / cell rounds with an error that grows with |p| / cell; the margin
    # keeps a pair just inside reach from landing two cells apart.
    cell = reach * (1.0 + 16.0 * np.finfo(float).eps * (1.0 + scale / reach))
    cells = np.floor(p / cell)
    cells -= cells.min(axis=0) - 1.0
    if (cells[:, 0].max() + 2.0) * (cells[:, 1].max() + 2.0) >= 2.0**62:
        # A flattened cell key would overflow int64: renumber the occupied
        # columns and rows, keeping neighbors adjacent and gaps two wide.
        cells = np.stack([_squeeze_axis(cells[:, 0]), _squeeze_axis(cells[:, 1])], axis=1)
    cells = cells.astype(np.int64)
    height = int(cells[:, 1].max()) + 2
    key = cells[:, 0] * height + cells[:, 1]
    order = np.argsort(key)
    sorted_key = key[order]

    column = (key[:, None] + np.array([-height, 0, height])).ravel()
    lo = np.searchsorted(sorted_key, column - 1, side="left")
    hi = np.searchsorted(sorted_key, column + 1, side="right")
    counts = hi - lo
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    ci = np.repeat(np.repeat(np.arange(n), 3), counts)
    cj = order[np.arange(first.shape[0]) + first]
    upper = ci < cj
    found = _touching(p, r, ci[upper], cj[upper])
    by_pair = np.argsort(found.i * n + found.j)
    return Contacts(found.i[by_pair], found.j[by_pair], found.d[by_pair])


def _squeeze_axis(c):
    values, inverse = np.unique(c, return_inverse=True)
    steps = np.minimum(np.diff(values), 2.0)
    return np.concatenate(([1.0], 1.0 + np.cumsum(steps)))[inverse]


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
    return float(np.sum(lens_area_from_distance(d, r[i], r[j])))


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
    return float(np.max(np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2) + r))
