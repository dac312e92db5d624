"""Shrinking-container solve loop and its feasibility bookkeeping.

One iteration: assemble forces against the current target radius (container
anchored at the origin), step the dynamics, then judge the new layout. Each
layout gets its contacts and its ``far_edges`` (origin distances |p_i| and
far edges |p_i| + r_i) from one ``layout`` pass of the run's NeighbourList,
which reruns the pair search only when some circle has moved past half its
skin, and one gravity center. The gravity center and ``integrate_step`` take
the masses as the instance's ``mass_rows``, (N, 2) rows shaped like the
positions, and the gravity center divides by the 0-d ``total_mass``, so
neither broadcasts an (N, 1) column. The contacts, far edges and gravity
center serve the evaluation that judges the layout and the forces of the
next iteration. There the contacts select the pair pushes, the far edges
the containment push, and the force-cap bound of ``forces`` (2 v_max per
pair push and per containment push, plus the pull) skips the cap's norms
on ticks where no circle can reach f_max. A layout is feasible when the enclosing radius measured about
its own gravity center fits the target and its total overlap is inside
tolerance. The evaluation runs in this order, each step only when the ones
before leave the verdict open: contacts, far edges and gravity center, the
deepest contact, the enclosing radius, then the total overlap. A layout with
a contact at least ``certain_overlap_depth`` deep is infeasible whatever its
radius, since that one lens alone exceeds the tolerance, and a layout that
does not fit is infeasible whatever its overlap. Only the layouts that pass
both pay for ``total_overlap``, and only a feasible one carries a radius. A
run stops once a layout's farthest edge or gravity center turns non-finite.
The initial layout goes through the same evaluation, against the starting
target, and serves the first tick's forces; its verdict is not recorded.
A layout judged without its overlap still gets its overlap row in the
history: its contacts are queued and their lens areas computed in batches
of about OVERLAP_FLUSH_PAIRS pairs, each row bitwise what ``total_overlap``
gives. Each feasible layout ratchets the target down via the schedule, no
lower than the instance's floor; the smallest feasible radius seen is kept,
translated so the gravity center lands on the origin.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .dynamics import integrate_step
from .forces import assemble_forces
from .geometry import (
    Contacts,
    NeighbourList,
    center_of_gravity,
    cg_offset,
    enclosing_radius,
    total_overlap,
    total_overlaps,
)
from .init import initial_state
from .model import Hyperparameters, History, InvalidInputError, ProblemInstance, SolveResult

# Slack on the enclosing-radius comparison; keeps a ratchet step of exactly
# target == actual from reading as infeasible through rounding.
FEASIBLE_RADIUS_EPS = 1e-9

# Milestone thresholds the result JSON and the bench report write: fractions
# above the final radius, loosest first.
MILESTONE_THRESHOLDS = (0.10, 0.05, 0.01, 0.005, 0.001)

# Queued contact pairs of layouts judged without their overlap, run through
# the lens kernel in one call once this many are pending. Small, so the
# queue stays a few kB: 8192 pairs raised small-batch peak RSS by 7.8%
# (BENCH_18.json).
OVERLAP_FLUSH_PAIRS = 256


def overlap_tolerance(instance: ProblemInstance) -> float:
    """Total overlap that counts as none: 1e-6 times the smallest circle's area."""
    smallest = float(np.min(instance.radii))
    return 1e-6 * math.pi * smallest * smallest


def certain_overlap_depth(instance: ProblemInstance) -> float:
    """Contact depth r_i + r_j - d at which a pair's lens alone exceeds the tolerance.

    At a fixed depth the lens area grows with either radius (a larger
    circle, internally tangent to the smaller at its deepest point, contains
    it) and with the depth. So the two smallest circles bound every pair
    from below. Their lens at depth delta <= r_min contains the kite spanned
    by the two points where the circles cross and the lens's two ends on
    the line of centers, of area delta * sqrt(r_min * delta - delta^2 / 4)
    >= sqrt(0.75 r_min) * delta^1.5. The depth returned, about 5.9e-4 r_min,
    makes that at least four times ``overlap_tolerance``, far above the
    rounding of the lens kernel and of the distances.
    """
    smallest = float(np.min(instance.radii))
    tol = overlap_tolerance(instance)
    return min(smallest, (4.0 * tol / math.sqrt(0.75 * smallest)) ** (2.0 / 3.0))


def _evaluate(
    positions: np.ndarray,
    instance: ProblemInstance,
    target_radius: float,
    overlap_tol: float,
    certain_depth: float,
    neighbours: NeighbourList,
):
    # Returns (contacts, cg, cgv, edges, overlap, radius): radius is the
    # enclosing radius of a feasible layout and None on every other, overlap
    # the total overlap where it was computed and None otherwise. The deepest
    # contact settles the verdict first: a contact at least certain_depth
    # deep overlaps past the tolerance on its own. A NaN depth fails the
    # comparison and falls through to enclosing_radius, and a NaN radius
    # fails the radius test.
    contacts, edges = neighbours.layout(positions)
    cg = center_of_gravity(positions, instance.mass_rows, instance.total_mass)
    cgv = cg_offset(cg)
    if contacts.d.shape[0]:
        gap = contacts.reach - contacts.d
        if gap[gap.argmax()] >= certain_depth:
            return contacts, cg, cgv, edges, None, None
    radius = enclosing_radius(positions, instance.radii, cg)
    if not radius <= target_radius + FEASIBLE_RADIUS_EPS:
        return contacts, cg, cgv, edges, None, None
    overlap = total_overlap(positions, instance.radii, contacts=contacts)
    return contacts, cg, cgv, edges, overlap, radius if overlap <= overlap_tol else None


class _OverlapQueue:
    # History overlap rows of layouts judged without their overlap, written
    # in batches through geometry.total_overlaps.

    def __init__(self, radii: np.ndarray, column: np.ndarray):
        self.radii = radii
        self.column = column
        self.rows: list[int] = []
        self.contacts: list[Contacts] = []
        self.pending = 0

    def add(self, row: int, contacts: Contacts) -> None:
        self.rows.append(row)
        self.contacts.append(contacts)
        self.pending += contacts.d.shape[0]
        if self.pending >= OVERLAP_FLUSH_PAIRS:
            self.flush()

    def flush(self) -> None:
        if self.rows:
            self.column[self.rows] = total_overlaps(self.radii, self.contacts)
            self.rows.clear()
            self.contacts.clear()
            self.pending = 0


def solve(instance: ProblemInstance, hp: Optional[Hyperparameters] = None) -> SolveResult:
    """Run the full iteration budget and return the best layout found.

    The result's ``history`` holds one row per iteration (see History). The
    run is deterministic in (instance, hp): identical inputs give
    bitwise-identical results. A speed or a layout that turns non-finite
    (hyperparameters scaled past float range) raises InvalidInputError
    naming the iteration, and so does an ``n_it`` too large for the history.
    """
    hp = hp if hp is not None else Hyperparameters()

    try:
        history = History(*np.full((len(History._fields), hp.n_it), np.nan))
    except (ValueError, MemoryError):
        raise InvalidInputError(f"n_it ({hp.n_it}) is too large to hold the history of every iteration") from None
    positions, velocities, schedule = initial_state(instance, hp)
    overlap_tol = overlap_tolerance(instance)
    certain_depth = certain_overlap_depth(instance)
    masses = instance.mass_rows
    neighbours = NeighbourList(instance.radii, hp.v_max * hp.dt)
    contacts, cg, cgv, edges, *_ = _evaluate(
        positions, instance, schedule.target_radius, overlap_tol, certain_depth, neighbours
    )

    target_col, actual_col, overlap_col, cgv_col = history
    best_radius: Optional[float] = None
    best_iteration: Optional[int] = None
    best_positions: Optional[np.ndarray] = None
    queued = _OverlapQueue(instance.radii, overlap_col)

    # The ticks run with numpy's overflow warnings off, entered once per
    # solve: an errstate in integrate_step would add six calls to every
    # tick. A speed that overflows stops the run with a message naming the
    # masses and scales, and a layout that overflows stops at its
    # non-finite far edge or reads as infeasible.
    with np.errstate(over="ignore"):
        for t in range(1, hp.n_it + 1):
            target = schedule.target_radius
            forces = assemble_forces(positions, velocities, instance, target, hp, contacts, cg, edges, cgv)
            try:
                positions, velocities = integrate_step(positions, velocities, forces, masses, hp)
            except InvalidInputError as exc:
                raise InvalidInputError(f"iteration {t}: {exc}") from None
            contacts, cg, cgv, edges, overlap, radius = _evaluate(
                positions, instance, target, overlap_tol, certain_depth, neighbours
            )
            # far_max is positive and cgv non-negative, so their difference is
            # finite exactly when both are.
            if not -math.inf < edges.far_max - cgv < math.inf:
                raise InvalidInputError(
                    f"layout turned non-finite at iteration {t} (farthest edge {edges.far_max!r}, "
                    f"gravity-center offset {cgv!r}); check the hyperparameter scales"
                )
            target_col[t - 1] = target
            cgv_col[t - 1] = cgv
            if overlap is not None:
                overlap_col[t - 1] = overlap
            elif contacts.d.shape[0]:
                queued.add(t - 1, contacts)
            else:
                overlap_col[t - 1] = 0.0
            if radius is not None:
                actual_col[t - 1] = radius
                if best_radius is None or radius < best_radius:
                    best_radius = radius
                    best_iteration = t
                    best_positions = positions - cg
                schedule.on_feasible(radius, t)
            else:
                schedule.on_infeasible()
    queued.flush()

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
    foreign reference a threshold may stay unreached (None), and a history
    that never reaches a feasible layout reaches no threshold. Keyed by
    threshold string (``"0.1"``), as the result JSON and bench report write.
    """
    if not (math.isfinite(final_radius) and final_radius > 0.0):
        raise InvalidInputError(f"final radius must be positive, got {final_radius!r}")
    # fmin skips the NaN of infeasible rows, so best stays NaN only until
    # the first feasible row and never rises after it; a NaN reaches no bar.
    best = np.fmin.accumulate(history.actual_radius)
    out: dict[str, Optional[int]] = {}
    for p in MILESTONE_THRESHOLDS:
        reached = best <= (1.0 + p) * final_radius
        out[str(float(p))] = int(np.argmax(reached)) + 1 if reached[-1] else None
    return out
