"""Initial container sizing and Latin-Hypercube seeding of the swarm."""

from __future__ import annotations

import math

import numpy as np

from .model import Hyperparameters, InvalidInputError, ProblemInstance, SwarmState, validate_instance
from .schedule import ContainerSchedule

# The starting container is sized so the circles cover 15% of its area.
INITIAL_OCCUPATION = 0.15


def initial_container_radius(instance: ProblemInstance) -> float:
    r = instance.radii
    return math.sqrt(float(np.sum(r * r)) / INITIAL_OCCUPATION)


def initial_positions(instance: ProblemInstance, container_radius: float, seed: int) -> np.ndarray:
    """Mass-stratified Latin-Hypercube scatter over the inscribed square.

    Circles are sorted by mass (stable, ascending) and split into
    ceil(sqrt(N)) contiguous groups; each group gets its own Latin-Hypercube
    sample of the square, and the sample's cells are dealt to the group's
    circles in shuffled order. Light and heavy circles therefore spread over
    the whole square instead of clustering by draw order, which keeps the
    initial gravity center near the middle.

    One generator seeded with ``seed`` drives everything, consumed per group
    as: x strata permutation, x jitter, y strata permutation, y jitter,
    cell assignment permutation.
    """
    if not (math.isfinite(container_radius) and container_radius > 0.0):
        raise InvalidInputError(f"container radius must be positive, got {container_radius!r}")
    rng = np.random.default_rng(seed)
    n = instance.n
    half = container_radius / math.sqrt(2.0)
    side = 2.0 * half
    order = np.argsort(instance.masses, kind="stable")
    positions = np.zeros((n, 2))
    for group in np.array_split(order, math.ceil(math.sqrt(n))):
        g = group.shape[0]
        cells = np.empty((g, 2))
        for axis in range(2):
            strata = rng.permutation(g)
            cells[:, axis] = (strata + rng.random(g)) / g * side - half
        positions[group] = cells[rng.permutation(g)]
    return positions


def initial_state(instance: ProblemInstance, hp: Hyperparameters) -> tuple[SwarmState, ContainerSchedule]:
    """Swarm at rest on its Latin-Hypercube scatter, schedule at the 15% radius."""
    problems = validate_instance(instance)
    if problems:
        raise InvalidInputError("; ".join(problems))
    radius = initial_container_radius(instance)
    state = SwarmState(positions=initial_positions(instance, radius, hp.seed), velocities=np.zeros((instance.n, 2)))
    return state, ContainerSchedule(target_radius=radius)
