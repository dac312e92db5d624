"""Virtual forces steering the circle swarm.

Each circle receives three contributions: a separation push away from every
overlapping partner, a constant-magnitude pull that drags the swarm's
gravity center onto the container center, and a containment push toward the
container center when the circle pokes out of the current target disk. The
push terms subtract the circle's own velocity, so under repeated triggering
the velocity converges onto the push direction at v_max instead of winding
up without bound.

Contributions accumulate per circle in a fixed order (partners by ascending
index, then the gravity term, then the containment term) and the resultant
is capped at f_max, so identical states give bitwise-identical forces no
matter how the overlapping pairs were found.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .geometry import Contacts, center_of_gravity, contact_pairs
from .model import Hyperparameters, InvalidInputError, ProblemInstance, SwarmState

# A pair triggers the separation push when the centers are closer than the
# radius sum minus this slack; a circle counts as contained when its far
# edge is within this slack of the target radius. Both margins keep exact
# tangency from flapping between branches.
OVERLAP_TRIGGER_EPS = 1e-12
CONTAINMENT_EPS = 1e-12


def find_overlap_pairs(
    positions, radii, method: str = "auto", *, contacts: Optional[Contacts] = None
) -> np.ndarray:
    """Directed overlapping pairs as an (E, 2) int array sorted by (i, j).

    A pair overlaps when its center distance is below the radius sum minus
    OVERLAP_TRIGGER_EPS. The candidates are ``contacts``, this layout's
    ``contact_pairs`` result, when the caller already has it; otherwise the
    pair search runs here with ``method`` (``naive``, ``grid`` or ``auto``).
    """
    p = np.asarray(positions, dtype=float)
    r = np.asarray(radii, dtype=float)
    i, j, d = contacts if contacts is not None else contact_pairs(p, r, method)
    hit = d < r[i] + r[j] - OVERLAP_TRIGGER_EPS
    return _directed_sorted(i[hit], j[hit])


def _directed_sorted(i, j):
    if i.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    src = np.concatenate([i, j])
    dst = np.concatenate([j, i])
    order = np.lexsort((dst, src))
    return np.stack([src[order], dst[order]], axis=1)


def assemble_forces(
    state: SwarmState,
    instance: ProblemInstance,
    container_center,
    target_radius: float,
    hp: Hyperparameters,
    method: str = "auto",
    *,
    contacts: Optional[Contacts] = None,
) -> np.ndarray:
    """Capped resultant force on every circle, as an (N, 2) array.

    ``contacts`` and ``method`` pass through to ``find_overlap_pairs``.
    """
    p = state.positions
    v = state.velocities
    r = instance.radii
    n = p.shape[0]
    c = np.asarray(container_center, dtype=float).reshape(2)

    total = np.zeros((n, 2))

    pairs = find_overlap_pairs(p, r, method, contacts=contacts)
    if pairs.shape[0]:
        src, dst = pairs[:, 0], pairs[:, 1]
        delta = p[dst] - p[src]
        dist = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
        push = -(delta / (dist + hp.epsilon)[:, None]) * hp.v_max - v[src]
        # np.add.at applies the rows in array order, i.e. ascending (i, j).
        np.add.at(total, src, push)

    total += _cg_force_all(p, instance.masses, hp)
    total += _radius_force_all(p, v, r, c, target_radius, hp)

    norms = np.sqrt(total[:, 0] ** 2 + total[:, 1] ** 2)
    over = norms >= hp.f_max
    if np.any(over):
        total[over] *= (hp.f_max / norms[over])[:, None]
    return total


def _cg_force_all(p, masses, hp):
    cg = center_of_gravity(p, masses)
    norm = math.sqrt(cg[0] * cg[0] + cg[1] * cg[1])
    if norm < hp.epsilon:
        return np.zeros_like(p)
    grad = (masses / masses.sum())[:, None] * (cg / norm)[None, :]
    return -hp.alpha * grad


def _radius_force_all(p, v, r, center, target_radius, hp):
    delta = center[None, :] - p
    dist = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
    force = (delta / (dist + hp.epsilon)[:, None]) * hp.v_max - v
    inside = dist + r <= target_radius + CONTAINMENT_EPS
    force[inside] = 0.0
    return force


def overlap_force(i: int, j: int, state: SwarmState, instance: ProblemInstance, hp: Hyperparameters) -> np.ndarray:
    """Separation push on circle i from partner j; zero unless they overlap."""
    if i == j:
        raise InvalidInputError("a circle does not repel itself")
    delta = state.positions[j] - state.positions[i]
    dist = math.sqrt(delta[0] * delta[0] + delta[1] * delta[1])
    if not dist < instance.radii[i] + instance.radii[j] - OVERLAP_TRIGGER_EPS:
        return np.zeros(2)
    return -(delta / (dist + hp.epsilon)) * hp.v_max - state.velocities[i]


def cg_gradient(i: int, positions, masses, epsilon: float = 0.0) -> np.ndarray:
    """Derivative of the gravity-center distance with respect to p_i.

    The distance is m_i/sum(m) times the unit vector toward the gravity
    center; inside the epsilon ball around the origin the gradient is taken
    as zero (the distance has no derivative at its cone point).
    """
    p = np.asarray(positions, dtype=float)
    m = np.asarray(masses, dtype=float)
    cg = center_of_gravity(p, m)
    norm = math.sqrt(cg[0] * cg[0] + cg[1] * cg[1])
    if norm < epsilon or norm == 0.0:
        return np.zeros(2)
    return (m[i] / m.sum()) * (cg / norm)


def cg_force(i: int, state: SwarmState, instance: ProblemInstance, hp: Hyperparameters) -> np.ndarray:
    """Constant-magnitude pull steering the gravity center onto the origin."""
    return -hp.alpha * cg_gradient(i, state.positions, instance.masses, epsilon=hp.epsilon)


def radius_force(
    i: int,
    state: SwarmState,
    instance: ProblemInstance,
    container_center,
    target_radius: float,
    hp: Hyperparameters,
) -> np.ndarray:
    """Containment push on circle i; zero while it sits inside the target disk."""
    c = np.asarray(container_center, dtype=float).reshape(2)
    delta = c - state.positions[i]
    dist = math.sqrt(delta[0] * delta[0] + delta[1] * delta[1])
    if dist + instance.radii[i] <= target_radius + CONTAINMENT_EPS:
        return np.zeros(2)
    return (delta / (dist + hp.epsilon)) * hp.v_max - state.velocities[i]


def resultant_force(contributions, hp: Hyperparameters) -> np.ndarray:
    """Sum the contributions in the order given and cap the norm at f_max."""
    total = np.zeros(2)
    for f in contributions:
        total = total + np.asarray(f, dtype=float)
    norm = math.sqrt(total[0] * total[0] + total[1] * total[1])
    if norm >= hp.f_max:
        total = total * (hp.f_max / norm)
    return total
