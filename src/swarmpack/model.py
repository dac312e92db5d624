"""Problem data, tunables, and run records."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np


class InvalidInputError(ValueError):
    """Instance or hyperparameter data that fails validation."""


def scalar_operand(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, a scalar operand for per-tick array ops.

    An array op takes a 0-d float64 operand with less overhead than a Python
    float (about 380 against 580 ns at numpy 2.4), and with float64 arrays
    the result has the same bits.
    """
    operand = np.array(value, dtype=float)
    operand.setflags(write=False)
    return operand


_FLOAT64 = np.dtype(float)


def as_floats(values, what: str) -> np.ndarray:
    """``values`` as a float64 array; anything but numbers raises InvalidInputError naming ``what``.

    A float64 ndarray is returned as it is, without a NumPy call, as the
    solver passes its arrays to checked entries on every tick. Anything else
    is scanned first: the float conversion alone would read a bool as 0 or 1
    and a string as the number it spells.
    """
    if type(values) is np.ndarray and values.dtype is _FLOAT64:
        return values
    try:
        if any(isinstance(v, (bool, np.bool_, str, bytes)) for v in np.asarray(values, dtype=object).flat):
            raise TypeError
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"{what} must be numbers in float range") from None


class TickOperands(NamedTuple):
    """The scalar operands of the tick's array ops, each a ``scalar_operand``."""

    neg_v_max: np.ndarray
    alpha: np.ndarray
    dt: np.ndarray


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A named set of weighted circles to pack; invalid data raises InvalidInputError."""

    name: str
    radii: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        for key in ("radii", "masses"):
            raw = getattr(self, key)
            values = as_floats(raw, key)
            if values is raw:
                values = values.copy()
            values.setflags(write=False)
            object.__setattr__(self, key, values)
        problems = validate_instance(self)
        if problems:
            raise InvalidInputError("; ".join(problems))

    @property
    def n(self) -> int:
        return int(self.radii.shape[0])

    @cached_property
    def total_mass(self) -> np.ndarray:
        """The sum of ``masses``, as ``center_of_gravity`` would sum them, as a ``scalar_operand``."""
        return scalar_operand(np.add.reduce(self.masses))

    @cached_property
    def mass_rows(self) -> np.ndarray:
        """Each circle's mass in both columns, a read-only (N, 2) array shaped like the positions.

        The tick's per-circle factors come as such rows, so that they
        multiply and divide (N, 2) arrays without an (N, 1) broadcast,
        which costs 2-3 times a same-shape op at numpy 2.4.
        """
        rows = np.repeat(self.masses[:, None], 2, axis=1)
        rows.setflags(write=False)
        return rows

    @cached_property
    def mass_share(self) -> np.ndarray:
        """Each circle's fraction of the total mass, as read-only (N, 2) rows like ``mass_rows``."""
        share = self.mass_rows / self.total_mass
        share.setflags(write=False)
        return share

    @cached_property
    def max_mass_share(self) -> float:
        """The largest entry of ``mass_share``."""
        return float(self.mass_share.max())

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
    """Solver tunables; building one with an invalid value raises InvalidInputError."""

    f_max: float = 50.0
    v_max: float = 2.0
    alpha: float = 40.0
    s_max: float = 1.0
    s_min: float = 0.01
    c: float = 10.0
    n_it: int = 20000
    dt: float = 1.0
    seed: int = 0

    def __post_init__(self):
        problems = validate_hyperparameters(self)
        if problems:
            raise InvalidInputError("; ".join(problems))

    def tunables(self) -> dict:
        """Every field except the seed, by name, as the reports write them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "seed"}

    @cached_property
    def operands(self) -> TickOperands:
        """-v_max, alpha and dt as the tick passes them to array ops.

        Not a field: it is cached on the instance, takes no part in eq,
        hash or the reports, and ``dataclasses.replace`` builds a new
        instance that computes its own.
        """
        return TickOperands(scalar_operand(-self.v_max), scalar_operand(self.alpha), scalar_operand(self.dt))


def finite_number(value) -> Optional[float]:
    """``value`` as a finite float if it is a real number and not a bool, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        return None
    return number if math.isfinite(number) else None


def validate_hyperparameters(hp: Hyperparameters) -> list[str]:
    problems = []
    for name in ("f_max", "v_max", "alpha", "s_max", "s_min", "c", "dt"):
        value = finite_number(getattr(hp, name))
        if value is None or value <= 0.0:
            problems.append(f"{name} must be a positive finite number, got {getattr(hp, name)!r}")
    s_min, s_max = finite_number(hp.s_min), finite_number(hp.s_max)
    if s_min is not None and s_max is not None and s_min > s_max:
        problems.append(f"s_min ({hp.s_min}) must not exceed s_max ({hp.s_max})")
    # bool subclasses int, but True is no count.
    if isinstance(hp.n_it, bool) or not (isinstance(hp.n_it, int) and hp.n_it >= 1):
        problems.append(f"n_it must be a positive integer, got {hp.n_it!r}")
    if isinstance(hp.seed, bool) or not (isinstance(hp.seed, int) and hp.seed >= 0):
        problems.append(f"seed must be a non-negative integer, got {hp.seed!r}")
    return problems


class History(NamedTuple):
    """The convergence trace as float64 columns; row k is iteration k+1.

    ``target_radius`` is the container target in force during the iteration;
    ``actual_radius`` is the enclosing radius about the gravity center on
    feasible rows and NaN on infeasible ones.
    """

    target_radius: np.ndarray
    actual_radius: np.ndarray
    overlap: np.ndarray
    cg_violation: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return ~np.isnan(self.actual_radius)


@dataclass
class SolveResult:
    instance: ProblemInstance
    hyperparameters: Hyperparameters
    feasible: bool
    best_radius: Optional[float]
    best_iteration: Optional[int]
    best_positions: Optional[np.ndarray]
    history: History


def occupation_rate(instance: ProblemInstance, container_radius: float) -> float:
    """Fraction of the container disk covered by circle area (may exceed 1)."""
    if not (math.isfinite(container_radius) and container_radius > 0.0):
        raise InvalidInputError(f"container radius must be positive, got {container_radius!r}")
    r = instance.radii
    return float(np.sum(r * r)) / (container_radius * container_radius)
