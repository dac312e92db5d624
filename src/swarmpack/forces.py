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
matter how the overlapping pairs were found.
"""

from __future__ import annotations

import numpy as np

from .geometry import Contacts, center_of_gravity, cg_offset
from .model import Hyperparameters, ProblemInstance, SwarmState

# A pair triggers the separation push when the centers are closer than the
# radius sum minus this slack; a circle counts as contained when its far
# edge is within this slack of the target radius. Both margins keep exact
# tangency from flapping between branches.
OVERLAP_TRIGGER_EPS = 1e-12
CONTAINMENT_EPS = 1e-12


def find_overlap_pairs(radii, contacts: Contacts) -> np.ndarray:
    """Directed overlapping pairs as an (E, 2) int array sorted by (i, j).

    A pair overlaps when its center distance is below the radius sum minus
    OVERLAP_TRIGGER_EPS; the candidates are ``contacts``, the layout's
    ``contact_pairs`` result.
    """
    i, j, d = contacts
    hit = d < radii[i] + radii[j] - OVERLAP_TRIGGER_EPS
    return _directed_sorted(i[hit], j[hit], radii.shape[0])


def _directed_sorted(i, j, n):
    # Both directions of each pair i < j, as the sorted unique keys src * n + dst.
    key = np.concatenate((i * n + j, j * n + i))
    key.sort()
    src, dst = np.divmod(key, n)
    pairs = np.empty((key.shape[0], 2), dtype=np.int64)
    pairs[:, 0] = src
    pairs[:, 1] = dst
    return pairs


def assemble_forces(
    state: SwarmState,
    instance: ProblemInstance,
    target_radius: float,
    hp: Hyperparameters,
    contacts: Contacts,
    cg: np.ndarray,
) -> np.ndarray:
    """Capped resultant force on every circle, as an (N, 2) array.

    ``contacts`` and ``cg`` are the layout's ``contact_pairs`` result and
    gravity center; the container is centered on the origin.
    """
    p = state.positions
    v = state.velocities
    r = instance.radii
    n = p.shape[0]

    total = np.zeros((n, 2))

    pairs = find_overlap_pairs(r, contacts)
    if pairs.shape[0]:
        src, dst = pairs[:, 0], pairs[:, 1]
        delta = p[dst] - p[src]
        dist = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
        push = -(delta / (dist + hp.epsilon)[:, None]) * hp.v_max - v[src]
        # np.add.at applies the rows in array order, i.e. ascending (i, j).
        np.add.at(total, src, push)

    total += _cg_force_all(p, cg, instance.masses, hp)
    total += _radius_force_all(p, v, r, target_radius, hp)

    norms = np.sqrt(total[:, 0] ** 2 + total[:, 1] ** 2)
    over = norms >= hp.f_max
    if over.any():
        total[over] *= (hp.f_max / norms[over])[:, None]
    return total


def _cg_gradient_all(cg, masses, epsilon):
    # cg_gradient for every circle at once, as (N, 2); None where it is zero.
    norm = cg_offset(cg)
    if norm < epsilon or norm == 0.0:
        return None
    return (masses / masses.sum())[:, None] * (cg / norm)[None, :]


def _cg_force_all(p, cg, masses, hp):
    grad = _cg_gradient_all(cg, masses, hp.epsilon)
    if grad is None:
        return np.zeros_like(p)
    return -hp.alpha * grad


def _radius_force_all(p, v, r, target_radius, hp):
    delta = -p
    dist = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
    force = (delta / (dist + hp.epsilon)[:, None]) * hp.v_max - v
    inside = dist + r <= target_radius + CONTAINMENT_EPS
    force[inside] = 0.0
    return force


def cg_gradient(i: int, positions, masses, epsilon: float = 0.0) -> np.ndarray:
    """Derivative of the gravity-center distance with respect to p_i.

    The distance is m_i/sum(m) times the unit vector toward the gravity
    center; inside the epsilon ball around the origin the gradient is taken
    as zero (the distance has no derivative at its cone point).
    """
    m = np.asarray(masses, dtype=float)
    grad = _cg_gradient_all(center_of_gravity(positions, m), m, epsilon)
    return np.zeros(2) if grad is None else grad[i]
