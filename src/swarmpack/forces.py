"""Virtual forces steering the circle swarm.

Each circle receives three contributions: a separation push away from every
overlapping partner, a constant-magnitude pull that drags the swarm's
gravity center onto the container center (the origin), and a containment
push toward that center when the circle pokes out of the current target
disk. The push terms subtract the circle's own velocity, so under repeated
triggering the velocity converges onto the push direction at v_max instead
of winding up without bound.

The pull on each circle is alpha times its mass share, the instance's
``mass_share``: (N, 2) rows shaped like the positions, so that scaling the
unit vector takes no (N, 1) broadcast.

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
2 v_max (H + 1) plus that pull. Each pair push divides by its own norm,
bitwise the pair's contact distance. The containment test and push take
the layout's origin distances and far edges from the FarEdges that
``NeighbourList.layout`` returned with its contacts.
"""

from __future__ import annotations

import numpy as np

from .geometry import Contacts, FarEdges, center_of_gravity, cg_offset, row_norms
from .model import Hyperparameters, ProblemInstance, scalar_operand

# A pair triggers the separation push when the centers are closer than the
# radius sum minus this slack; a circle counts as contained when its far
# edge is within this slack of the target radius. Both margins keep exact
# tangency from flapping between branches.
OVERLAP_TRIGGER_EPS = 1e-12
CONTAINMENT_EPS = 1e-12
# Added to every distance a push divides by, so coincident centers give a
# finite push; a gravity center closer than this to the origin gets no pull.
EPSILON = 1e-9
# The 0-d twins the per-tick array ops take (model.scalar_operand).
_TRIGGER_EPS = scalar_operand(OVERLAP_TRIGGER_EPS)
_EPSILON = scalar_operand(EPSILON)
_ZERO = scalar_operand(0.0)


def find_overlap_pairs(radii, contacts: Contacts) -> np.ndarray:
    """Directed overlapping pairs as an (E, 2) int array of (source, partner) rows.

    A pair overlaps when its center distance is below the radius sum minus
    OVERLAP_TRIGGER_EPS; the candidates are ``contacts``, the layout's
    ``contact_pairs`` result, in (i, j) order, which carries each radius sum
    as ``reach``. ``radii`` are the swarm's radii; the test reads only the
    sums, and perfbench's pair probe reads the swarm size from ``radii``.
    The (j, i) row of every overlapping pair i < j comes first, in that
    order, then its (i, j) row, in the same order. So each source's partners
    come in ascending order: first those below it, then those above. The
    rows are a transposed view of one (2, 2E) array, so each column is
    contiguous.
    """
    i, j, d, reach = contacts
    hit = d < reach - _TRIGGER_EPS
    ih, jh = i[hit], j[hit]
    return np.concatenate((jh, ih, ih, jh)).reshape(2, -1).T


def assemble_forces(
    positions: np.ndarray,
    velocities: np.ndarray,
    instance: ProblemInstance,
    target_radius: float,
    hp: Hyperparameters,
    contacts: Contacts,
    cg: np.ndarray,
    edges: FarEdges,
    cgv: float,
) -> np.ndarray:
    """Capped resultant force on every circle, as an (N, 2) array.

    ``positions`` and ``velocities`` are (N, 2) arrays, with every speed at
    most ``hp.v_max`` as ``integrate_step`` leaves them (the force-cap bound
    relies on it); ``contacts``, ``cg``, ``edges`` and ``cgv`` are the
    layout's ``contact_pairs`` result, gravity center, ``far_edges`` and
    ``cg_offset``. The container is centered on the origin.
    """
    p, v, r = positions, velocities, instance.radii
    ops = hp.operands

    total = np.zeros(p.shape)

    pairs = find_overlap_pairs(r, contacts)
    if pairs.shape[0]:
        src = pairs[:, 0]
        push = p.take(pairs[:, 1], 0) - p.take(src, 0)
        # The norm of a (j, i) row squares -fl(p_j - p_i), so it is bitwise
        # the contact distance d, as is that of its (i, j) row.
        dist = row_norms(push)
        dist += _EPSILON
        push /= dist[:, None]
        push *= ops.neg_v_max
        push -= v.take(src, 0)
        # np.add.at applies the rows in array order, which holds each
        # source's partners in ascending order.
        np.add.at(total, src, push)

    toward = _unit_toward(cg, cgv)
    if toward is not None:
        total -= ops.alpha * (instance.mass_share * toward)

    # Containment: p / |p| points away from the origin, so the push toward
    # it is that direction times -v_max. With every circle inside (the
    # largest far edge within the bar; a NaN one is not), the push is all
    # zeros and is skipped. That is exact: adding +0.0 changes no element
    # but -0.0, and total never holds -0.0. It starts at +0.0, and a sum or
    # difference rounds to -0.0 only from a -0.0 operand on the left
    # (-0.0 + -0.0, -0.0 - +0.0); exact cancellation gives +0.0.
    bar = target_radius + CONTAINMENT_EPS
    if not edges.far_max <= bar:
        inside = edges.far <= bar
        push = p / (edges.dist + _EPSILON)[:, None]
        push *= ops.neg_v_max
        push -= v
        # Through the (2, N) view, inside broadcasts along its rows.
        np.copyto(push.T, _ZERO, where=inside)
        total += push

    if _cap_cannot_bind(pairs.shape[0] // 2, instance, hp):
        return total
    norms = row_norms(total)
    # Written so that a NaN norm also takes the branch (argmax finds the
    # first NaN), which then scales exactly the rows at or above the cap.
    if not norms[norms.argmax()] < hp.f_max:
        over = norms >= hp.f_max
        wide = norms == np.inf
        if wide.any():
            # A row of finite components whose norm overflows would be
            # zeroed by f_max / inf. It is divided by its largest component
            # first, which leaves a norm between 1 and sqrt(2) to cap.
            wide &= np.isfinite(total).all(axis=1)
            over &= ~wide
            rows = total[wide]
            rows /= np.abs(rows).max(axis=1)[:, None]
            rows *= (hp.f_max / row_norms(rows))[:, None]
            total[wide] = rows
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


def _unit_toward(cg, norm):
    # The unit vector toward the gravity center, or None inside the EPSILON
    # ball around the origin; norm is cg_offset(cg).
    return None if norm < EPSILON else cg / norm


def cg_gradient(i: int, positions, masses) -> np.ndarray:
    """Derivative of the gravity-center distance with respect to p_i.

    The distance is m_i/sum(m) times the unit vector toward the gravity
    center; inside the EPSILON ball around the origin the gradient is taken
    as zero (the distance has no derivative at its cone point).
    """
    m = np.asarray(masses, dtype=float)
    cg = center_of_gravity(positions, m)
    toward = _unit_toward(cg, cg_offset(cg))
    return np.zeros(2) if toward is None else (m[i] / m.sum()) * toward
