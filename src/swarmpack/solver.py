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
from typing import Optional

import numpy as np

from .dynamics import integrate_step
from .forces import assemble_forces
from .geometry import Contacts, NeighbourList, center_of_gravity, cg_offset, enclosing_radius, total_overlap
from .init import initial_state
from .model import (
    Hyperparameters,
    History,
    InvalidInputError,
    ProblemInstance,
    SolveResult,
    SwarmState,
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


def solve(instance: ProblemInstance, hp: Optional[Hyperparameters] = None) -> SolveResult:
    """Run the full iteration budget and return the best layout found.

    The result's ``history`` holds one row per iteration (see History). The
    run is deterministic in (instance, hp): identical inputs give
    bitwise-identical results. A speed or a layout that turns non-finite
    (hyperparameters scaled past float range) raises InvalidInputError
    naming the iteration.
    """
    hp = hp if hp is not None else Hyperparameters()

    state, schedule = initial_state(instance, hp)
    overlap_tol = hp.resolved_overlap_tol(instance)
    masses = instance.masses
    neighbours = NeighbourList(instance.radii, hp.v_max * hp.dt)
    contacts = neighbours.contacts(state.positions)
    cg = center_of_gravity(state.positions, masses)

    history = History(*np.full((4, hp.n_it), np.nan))
    target_col, actual_col, overlap_col, cgv_col = history
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
        target_col[t - 1] = target
        overlap_col[t - 1] = overlap
        cgv_col[t - 1] = cgv
        if feasible:
            actual_col[t - 1] = encl
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


def convergence_milestones(history: History, final_radius: float) -> dict[str, Optional[int]]:
    """First iteration whose best-so-far radius is within each of MILESTONE_THRESHOLDS.

    A threshold p is reached at the first iteration where the smallest
    feasible radius seen so far drops to (1+p) times ``final_radius``.
    Against the run's own final radius every threshold resolves; against a
    foreign reference a threshold may stay unreached (None). Keyed by
    threshold string (``"0.1"``), as the result JSON and bench report write.
    """
    if not (math.isfinite(final_radius) and final_radius > 0.0):
        raise InvalidInputError(f"final radius must be positive, got {final_radius!r}")
    # fmin skips the NaN of infeasible rows, so best stays NaN only until
    # the first feasible row and never rises after it.
    best = np.fmin.accumulate(history.actual_radius)
    if np.isnan(best).all():
        raise NoMilestonesError("run never reached a feasible layout")
    out: dict[str, Optional[int]] = {}
    for p in MILESTONE_THRESHOLDS:
        reached = best <= (1.0 + p) * final_radius
        out[str(float(p))] = int(np.argmax(reached)) + 1 if reached[-1] else None
    return out
