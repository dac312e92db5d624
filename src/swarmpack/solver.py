"""Shrinking-container solve loop and its feasibility bookkeeping.

One iteration: assemble forces against the current target radius (container
anchored at the origin), step the dynamics, then judge the new layout. Each
layout gets its contacts from the run's one NeighbourList, which reruns the
pair search only when some circle has moved past half its skin, and one
gravity center; both serve the evaluation that judges the layout and the
forces of the next iteration. A layout is feasible when its total overlap
is inside tolerance and the enclosing radius measured about its own gravity
center fits the target. Each feasible layout ratchets the target down via
the schedule; the smallest feasible radius seen is kept, translated so the
gravity center lands on the origin.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import integrate_step
from .forces import assemble_forces
from .geometry import Contacts, NeighbourList, center_of_gravity, cg_offset, enclosing_radius, total_overlap
from .init import initial_state
from .model import (
    Hyperparameters,
    InvalidInputError,
    IterationRecord,
    ProblemInstance,
    SolveResult,
    SwarmState,
    validate_hyperparameters,
    validate_instance,
)

# Slack on the enclosing-radius comparison; keeps a ratchet step of exactly
# target == actual from reading as infeasible through rounding.
FEASIBLE_RADIUS_EPS = 1e-9

# Milestone thresholds the result JSON and the bench report write: fractions
# above the final radius, loosest first.
MILESTONE_THRESHOLDS = (0.10, 0.05, 0.01, 0.005, 0.001)


class NoMilestonesError(RuntimeError):
    """Milestones were requested for a run that never became feasible."""


def _evaluate(
    state: SwarmState,
    instance: ProblemInstance,
    target_radius: float,
    overlap_tol: float,
    contacts: Contacts,
):
    overlap = total_overlap(state.positions, instance.radii, contacts=contacts)
    cg = center_of_gravity(state.positions, instance.masses)
    cgv = cg_offset(cg)
    encl = enclosing_radius(state.positions, instance.radii, cg)
    feasible = overlap <= overlap_tol and encl <= target_radius + FEASIBLE_RADIUS_EPS
    return overlap, cg, cgv, encl, feasible


def solve(
    instance: ProblemInstance,
    hp: Optional[Hyperparameters] = None,
    *,
    trace: Optional[Callable[[IterationRecord], None]] = None,
) -> SolveResult:
    """Run the full iteration budget and return the best layout found.

    ``trace`` receives every IterationRecord as it is produced, in addition
    to the history kept on the result. The run is deterministic in
    (instance, hp): identical inputs give bitwise-identical results. A speed
    or a layout that turns non-finite (hyperparameters scaled past float
    range) raises InvalidInputError naming the iteration.
    """
    hp = hp if hp is not None else Hyperparameters()
    problems = validate_instance(instance) + validate_hyperparameters(hp)
    if problems:
        raise InvalidInputError("; ".join(problems))

    state, schedule = initial_state(instance, hp)
    overlap_tol = hp.resolved_overlap_tol(instance)
    masses = instance.masses
    neighbours = NeighbourList(instance.radii, hp.v_max * hp.dt)
    contacts = neighbours.contacts(state.positions)
    cg = center_of_gravity(state.positions, masses)

    history: list[IterationRecord] = []
    best_radius: Optional[float] = None
    best_iteration: Optional[int] = None
    best_positions: Optional[np.ndarray] = None

    for t in range(1, hp.n_it + 1):
        target = schedule.target_radius
        forces = assemble_forces(state, instance, target, hp, contacts, cg)
        try:
            state = integrate_step(state, forces, masses, hp)
        except InvalidInputError as exc:
            raise InvalidInputError(f"iteration {t}: {exc}") from None
        contacts = neighbours.contacts(state.positions)
        overlap, cg, cgv, encl, feasible = _evaluate(state, instance, target, overlap_tol, contacts)
        if not (math.isfinite(encl) and math.isfinite(cgv)):
            raise InvalidInputError(
                f"layout turned non-finite at iteration {t} (enclosing radius {encl!r}, "
                f"gravity-center offset {cgv!r}); check the hyperparameter scales"
            )
        record = IterationRecord(
            iteration=t,
            target_radius=target,
            actual_radius=encl if feasible else None,
            overlap=overlap,
            cg_violation=cgv,
            feasible=feasible,
        )
        history.append(record)
        if trace is not None:
            trace(record)
        if feasible:
            if best_radius is None or encl < best_radius:
                best_radius = encl
                best_iteration = t
                best_positions = state.positions - cg
            schedule.on_feasible(encl, t, hp)
        else:
            schedule.on_infeasible(hp)

    return SolveResult(
        instance=instance,
        hyperparameters=hp,
        feasible=best_positions is not None,
        best_radius=best_radius,
        best_iteration=best_iteration,
        best_positions=best_positions,
        history=history,
    )


def convergence_milestones(history: Sequence[IterationRecord], final_radius: float) -> dict[str, Optional[int]]:
    """First iteration whose best-so-far radius is within each of MILESTONE_THRESHOLDS.

    A threshold p is reached at the first iteration where the smallest
    feasible radius seen so far drops to (1+p) times ``final_radius``.
    Against the run's own final radius every threshold resolves; against a
    foreign reference a threshold may stay unreached (None). Keyed by
    threshold string (``"0.1"``), as the result JSON and bench report write.
    """
    if not (math.isfinite(final_radius) and final_radius > 0.0):
        raise InvalidInputError(f"final radius must be positive, got {final_radius!r}")
    if not any(rec.feasible for rec in history):
        raise NoMilestonesError("run never reached a feasible layout")
    out: dict[str, Optional[int]] = {}
    for p in MILESTONE_THRESHOLDS:
        bar = (1.0 + p) * final_radius
        best = math.inf
        hit: Optional[int] = None
        for rec in history:
            if rec.feasible and rec.actual_radius < best:
                best = rec.actual_radius
            if best <= bar:
                hit = rec.iteration
                break
        out[str(float(p))] = hit
    return out
