"""Virtual forces steering the circle swarm.

Each circle receives three contributions: a separation push away from every
overlapping partner, a constant-magnitude pull that drags the swarm's
gravity center onto the container center (the origin), and a containment
push toward that center when the circle pokes out of the current target
disk. The push terms subtract the circle's own velocity, so under repeated
triggering the velocity converges onto the push direction at v_max instead
of winding up without bound.

Contributions accumulate per circle in a fixed order (partners by ascending
index, then the gravity term, then the containment term) and the resultant
is capped at f_max, so identical states give bitwise-identical forces no
matter how the overlapping pairs were found. Two steps are skipped when
they cannot change a bit. A tick with every circle inside the target disk
skips the containment term, which would add only zeros. And a tick whose
force-cap bound stays below f_max skips the cap, norms included: every
push has norm at most 2 v_max, since speeds are at most v_max, and the pull
at most alpha times the largest mass share. A circle has at most H
partners when the layout has H overlapping pairs, so no row exceeds
2 v_max (H + 1) plus that pull. The pair push divides by the pair's
center distance from ``contacts``, bitwise the norm of either push vector
(fl(a - b) is -fl(b - a), so both square alike). The containment test and
push take the layout's origin distances and far edges from ``far_edges``.
The solver's evaluation has already computed both for the same layout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import Contacts, FarEdges, center_of_gravity, cg_offset, far_edges, row_norms
from .model import Hyperparameters, ProblemInstance

# A pair triggers the separation push when the centers are closer than the
# radius sum minus this slack; a circle counts as contained when its far
# edge is within this slack of the target radius. Both margins keep exact
# tangency from flapping between branches.
OVERLAP_TRIGGER_EPS = 1e-12
CONTAINMENT_EPS = 1e-12
# Added to every distance a push divides by, so coincident centers give a
# finite push; a gravity center closer than this to the origin gets no pull.
EPSILON = 1e-9


def find_overlap_pairs(radii, contacts: Contacts) -> np.ndarray:
    """Directed overlapping pairs as an (E, 2) int array of (source, partner) rows.

    A pair overlaps when its center distance is below the radius sum minus
    OVERLAP_TRIGGER_EPS; the candidates are ``contacts``, the layout's
    ``contact_pairs`` result, in (i, j) order, which carries each radius sum
    as ``reach``. ``radii`` are the swarm's radii; the test reads only the
    sums, and perfbench's pair probe reads the swarm size from ``radii``.
    The (j, i) row of every overlapping pair i < j comes first, in that
    order, then its (i, j) row, in the same order. So each source's partners
    come in ascending order: first those below it, then those above.
    """
    i, j, d, reach = contacts
    hit = d < reach - OVERLAP_TRIGGER_EPS
    pairs = np.array((i[hit], j[hit])).T
    return np.concatenate((pairs[:, ::-1], pairs))


def assemble_forces(
    positions: np.ndarray,
    velocities: np.ndarray,
    instance: ProblemInstance,
    target_radius: float,
    hp: Hyperparameters,
    contacts: Contacts,
    cg: np.ndarray,
    edges: Optional[FarEdges] = None,
    cgv: Optional[float] = None,
) -> np.ndarray:
    """Capped resultant force on every circle, as an (N, 2) array.

    ``positions`` and ``velocities`` are (N, 2) arrays, with every speed at
    most ``hp.v_max`` as ``integrate_step`` leaves them (the force-cap bound
    relies on it); ``contacts`` and ``cg`` are the layout's
    ``contact_pairs`` result and gravity center, and ``edges`` its
    ``far_edges`` and ``cgv`` its ``cg_offset``, each computed here when not
    given. The container is centered on the origin.
    """
    p, v, r = positions, velocities, instance.radii

    total = np.zeros(p.shape)

    pairs = find_overlap_pairs(r, contacts)
    if pairs.shape[0]:
        # The center distances of find_overlap_pairs' hits, once for the
        # (j, i) rows and once for the (i, j) rows. Unpacked by position: a
        # plain (i, j, d, reach) tuple serves as contacts too.
        _, _, d, reach = contacts
        d = d[d < reach - OVERLAP_TRIGGER_EPS]
        dist = np.concatenate((d, d))
        dist += EPSILON
        src = pairs[:, 0]
        push = p.take(pairs[:, 1], 0) - p.take(src, 0)
        push /= dist[:, None]
        push *= -hp.v_max
        push -= v.take(src, 0)
        # np.add.at applies the rows in array order, which holds each
        # source's partners in ascending order.
        np.add.at(total, src, push)

    toward = _unit_toward(cg, cgv)
    if toward is not None:
        total -= hp.alpha * (instance.mass_share * toward)

    # Containment: p / |p| points away from the origin, so the push toward
    # it is that direction times -v_max. With every circle inside (the
    # largest far edge within the bar; a NaN one is not), the push is all
    # zeros and is skipped. That is exact: adding +0.0 changes no element
    # but -0.0, and total never holds -0.0. It starts at +0.0, and a sum or
    # difference rounds to -0.0 only from a -0.0 operand on the left
    # (-0.0 + -0.0, -0.0 - +0.0); exact cancellation gives +0.0.
    edges = edges if edges is not None else far_edges(p, r)
    bar = target_radius + CONTAINMENT_EPS
    if not edges.far_max <= bar:
        inside = edges.far <= bar
        push = p / (edges.dist + EPSILON)[:, None]
        push *= -hp.v_max
        push -= v
        np.copyto(push, 0.0, where=inside[:, None])
        total += push

    if _cap_cannot_bind(pairs.shape[0] // 2, instance, hp):
        return total
    norms = row_norms(total)
    # Written so that a NaN norm also takes the branch, which then scales
    # exactly the rows at or above the cap.
    if not np.maximum.reduce(norms) < hp.f_max:
        over = norms >= hp.f_max
        total[over] *= (hp.f_max / norms[over])[:, None]
    return total


def _cap_cannot_bind(n_pairs: int, instance: ProblemInstance, hp: Hyperparameters) -> bool:
    # True when no row of a force total can reach f_max. A row sums at most
    # n_pairs pair pushes and one containment push, each of norm at most
    # 2 v_max (v_max times a unit vector, less a velocity of speed at most
    # v_max), and one pull of norm alpha times its mass share. The factor
    # covers the rounding of those sums and of the norms, a few ulps per
    # term: 1e-12 per term is far above it.
    bound = 2.0 * hp.v_max * (n_pairs + 1) + hp.alpha * instance.max_mass_share
    return bound * (1.0 + 1e-12 * (n_pairs + 2)) < hp.f_max


def _unit_toward(cg, norm=None):
    # The unit vector toward the gravity center, or None inside the EPSILON
    # ball around the origin; norm is cg_offset(cg) when given.
    norm = cg_offset(cg) if norm is None else norm
    return None if norm < EPSILON else cg / norm


def cg_gradient(i: int, positions, masses) -> np.ndarray:
    """Derivative of the gravity-center distance with respect to p_i.

    The distance is m_i/sum(m) times the unit vector toward the gravity
    center; inside the EPSILON ball around the origin the gradient is taken
    as zero (the distance has no derivative at its cone point).
    """
    m = np.asarray(masses, dtype=float)
    toward = _unit_toward(center_of_gravity(positions, m))
    return np.zeros(2) if toward is None else (m[i] / m.sum()) * toward
