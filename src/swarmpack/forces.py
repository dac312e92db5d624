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
matter how the overlapping pairs were found. A tick with every circle inside
the target disk skips the containment term, which would add only zeros.
"""

from __future__ import annotations

import numpy as np

from .geometry import Contacts, center_of_gravity, cg_offset, row_norms
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
    ``contact_pairs`` result, in (i, j) order. The (j, i) row of every
    overlapping pair i < j comes first, in that order, then its (i, j) row,
    in the same order. So each source's partners come in ascending order:
    first those below it, then those above.
    """
    i, j, d = contacts
    hit = d < radii[i] + radii[j] - OVERLAP_TRIGGER_EPS
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
) -> np.ndarray:
    """Capped resultant force on every circle, as an (N, 2) array.

    ``positions`` and ``velocities`` are (N, 2) arrays; ``contacts`` and
    ``cg`` are the layout's ``contact_pairs`` result and gravity center. The
    container is centered on the origin.
    """
    p, v, r = positions, velocities, instance.radii

    total = np.zeros(p.shape)

    pairs = find_overlap_pairs(r, contacts)
    if pairs.shape[0]:
        src = pairs[:, 0]
        push = p.take(pairs[:, 1], 0) - p.take(src, 0)
        dist = row_norms(push)
        dist += EPSILON
        push /= dist[:, None]
        push *= -hp.v_max
        push -= v.take(src, 0)
        # np.add.at applies the rows in array order, which holds each
        # source's partners in ascending order.
        np.add.at(total, src, push)

    toward = _unit_toward(cg)
    if toward is not None:
        total -= hp.alpha * (instance.mass_share * toward)

    # Containment: p / |p| points away from the origin, so the push toward
    # it is that direction times -v_max. With every circle inside, the push
    # is all zeros and is skipped. That is exact: adding +0.0 changes no
    # element but -0.0, and total never holds -0.0. It starts at +0.0, and
    # a sum or difference rounds to -0.0 only from a -0.0 operand on the
    # left (-0.0 + -0.0, -0.0 - +0.0); exact cancellation gives +0.0.
    dist = row_norms(p)
    inside = dist + r <= target_radius + CONTAINMENT_EPS
    if not inside.all():
        push = p / (dist + EPSILON)[:, None]
        push *= -hp.v_max
        push -= v
        push[inside] = 0.0
        total += push

    norms = row_norms(total)
    # Written so that a NaN norm also takes the branch, which then scales
    # exactly the rows at or above the cap.
    if not norms.max() < hp.f_max:
        over = norms >= hp.f_max
        total[over] *= (hp.f_max / norms[over])[:, None]
    return total


def _unit_toward(cg):
    # The unit vector toward the gravity center, or None inside the EPSILON
    # ball around the origin.
    norm = cg_offset(cg)
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
