"""Problem data, tunables, and run records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np


class InvalidInputError(ValueError):
    """Instance or hyperparameter data that fails validation."""


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A named set of weighted circles to pack; invalid data raises InvalidInputError."""

    name: str
    radii: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        r = np.array(self.radii, dtype=float)
        m = np.array(self.masses, dtype=float)
        r.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "masses", m)
        problems = validate_instance(self)
        if problems:
            raise InvalidInputError("; ".join(problems))

    @property
    def n(self) -> int:
        return int(self.radii.shape[0])

    def circles(self) -> list[tuple[float, float]]:
        return list(zip(self.radii.tolist(), self.masses.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, ProblemInstance)
            and self.name == other.name
            and np.array_equal(self.radii, other.radii)
            and np.array_equal(self.masses, other.masses)
        )

    def __hash__(self):
        return hash((self.name, self.radii.tobytes(), self.masses.tobytes()))


def validate_instance(instance: ProblemInstance) -> list[str]:
    """Collect human-readable problems; an empty list means valid."""
    problems = []
    name = instance.name
    if not isinstance(name, str) or not name or any(ch.isspace() for ch in name):
        problems.append(f"instance name must be non-empty without whitespace, got {name!r}")
    r, m = instance.radii, instance.masses
    if r.ndim != 1 or m.ndim != 1 or r.shape[0] != m.shape[0]:
        problems.append(f"radii ({r.shape}) and masses ({m.shape}) must be 1-D of equal length")
        return problems
    if r.shape[0] < 1:
        problems.append("instance must contain at least one circle")
        return problems
    if not np.all(np.isfinite(r)) or not np.all(np.isfinite(m)):
        problems.append("radii and masses must be finite")
    else:
        if np.any(r <= 0.0):
            problems.append("every radius must be positive")
        if np.any(m <= 0.0):
            problems.append("every mass must be positive")
    return problems


@dataclass(frozen=True)
class Hyperparameters:
    """Solver tunables.

    ``overlap_tol=None`` resolves per instance to 1e-6 times the smallest
    circle area, so "no overlap" scales with the finest feature present.
    Building one with an invalid value raises InvalidInputError.
    """

    f_max: float = 50.0
    v_max: float = 2.0
    alpha: float = 40.0
    s_max: float = 1.0
    s_min: float = 0.01
    c: float = 10.0
    n_it: int = 20000
    dt: float = 1.0
    epsilon: float = 1e-9
    overlap_tol: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        problems = validate_hyperparameters(self)
        if problems:
            raise InvalidInputError("; ".join(problems))

    def resolved_overlap_tol(self, instance: ProblemInstance) -> float:
        if self.overlap_tol is not None:
            return self.overlap_tol
        smallest = float(np.min(instance.radii))
        return 1e-6 * math.pi * smallest * smallest

    def tunables(self) -> dict:
        """Every field except the seed, by name, as the reports write them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "seed"}


def validate_hyperparameters(hp: Hyperparameters) -> list[str]:
    problems = []
    for name in ("f_max", "v_max", "alpha", "s_max", "s_min", "c", "dt", "epsilon"):
        value = getattr(hp, name)
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
            problems.append(f"{name} must be a positive finite number, got {value!r}")
    if isinstance(hp.s_min, (int, float)) and isinstance(hp.s_max, (int, float)):
        if math.isfinite(hp.s_min) and math.isfinite(hp.s_max) and hp.s_min > hp.s_max:
            problems.append(f"s_min ({hp.s_min}) must not exceed s_max ({hp.s_max})")
    if not (isinstance(hp.n_it, int) and not isinstance(hp.n_it, bool) and hp.n_it >= 1):
        problems.append(f"n_it must be a positive integer, got {hp.n_it!r}")
    if not (isinstance(hp.seed, int) and not isinstance(hp.seed, bool) and hp.seed >= 0):
        problems.append(f"seed must be a non-negative integer, got {hp.seed!r}")
    tol = hp.overlap_tol
    if tol is not None and not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol >= 0.0):
        problems.append(f"overlap_tol must be non-negative, got {tol!r}")
    return problems


@dataclass
class SwarmState:
    """Positions and velocities of the swarm, as (N, 2) arrays."""

    positions: np.ndarray
    velocities: np.ndarray


@dataclass(frozen=True)
class IterationRecord:
    """One row of the convergence trace.

    ``target_radius`` is the container target in force during the iteration;
    ``actual_radius`` is the enclosing radius about the gravity center and is
    only present when the iteration was feasible.
    """

    iteration: int
    target_radius: float
    actual_radius: Optional[float]
    overlap: float
    cg_violation: float
    feasible: bool


@dataclass
class SolveResult:
    instance: ProblemInstance
    hyperparameters: Hyperparameters
    feasible: bool
    best_radius: Optional[float]
    best_iteration: Optional[int]
    best_positions: Optional[np.ndarray]
    history: list[IterationRecord] = field(default_factory=list)


def occupation_rate(instance: ProblemInstance, container_radius: float) -> float:
    """Fraction of the container disk covered by circle area (may exceed 1)."""
    if not (math.isfinite(container_radius) and container_radius > 0.0):
        raise InvalidInputError(f"container radius must be positive, got {container_radius!r}")
    r = instance.radii
    return float(np.sum(r * r)) / (container_radius * container_radius)
