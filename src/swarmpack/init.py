"""Initial container sizing and Latin-Hypercube seeding of the swarm."""

from __future__ import annotations

import math

import numpy as np

from .model import Hyperparameters, InvalidInputError, ProblemInstance
from .schedule import ContainerSchedule

# The starting container is sized so the circles cover 15% of its area.
INITIAL_OCCUPATION = 0.15


def container_bounds(instance: ProblemInstance) -> tuple[float, float]:
    """The starting radius and the proven floor of the container, from one sum of r^2.

    The circles cover INITIAL_OCCUPATION of the starting container's area.
    No container radius below the floor ``max(sqrt(sum r^2), r_1 + r_2)``
    holds the circles without overlap: its area must hold theirs, and its
    diameter the two largest side by side (r_2 = 0 at N = 1).
    """
    r = instance.radii
    squares = float((r * r).sum())
    floor = max(math.sqrt(squares), sum(sorted(r.tolist())[-2:]))
    return math.sqrt(squares / INITIAL_OCCUPATION), floor


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


def initial_state(
    instance: ProblemInstance, hp: Hyperparameters
) -> tuple[np.ndarray, np.ndarray, ContainerSchedule]:
    """Positions on the Latin-Hypercube scatter, zero velocities, schedule at the 15% radius.

    The schedule is bound to ``hp`` and to the instance's floor.
    """
    radius, floor = container_bounds(instance)
    positions = initial_positions(instance, radius, hp.seed)
    return positions, np.zeros((instance.n, 2)), ContainerSchedule(radius, hp, floor)
