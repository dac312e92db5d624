import math

import numpy as np
import pytest

from swarmpack import forces, geometry, solver
from swarmpack.corpus import CORPUS
from swarmpack.geometry import cg_violation, contact_pairs, enclosing_radius, total_overlap
from swarmpack.init import initial_container_radius
from swarmpack.instance_io import format_result_json
from swarmpack.model import Hyperparameters, InvalidInputError, IterationRecord, ProblemInstance, SwarmState
from swarmpack.solver import NoMilestonesError, convergence_milestones, solve

from oracles import all_pairs_contacts


def state_of(positions):
    p = np.asarray(positions, dtype=float)
    return SwarmState(positions=p, velocities=np.zeros_like(p))


def record_of(iteration, actual, feasible=True, target=None):
    return IterationRecord(
        iteration=iteration,
        target_radius=actual if target is None else target,
        actual_radius=actual if feasible else None,
        overlap=0.0,
        cg_violation=0.0,
        feasible=feasible,
    )


# A pair of radius-10 circles that seed 6 drops almost on top of each other
# (center distance 8.9); one tick at v_max=2 cannot clear the overlap, so a
# single-iteration run is infeasible by construction.
DEEP_PAIR = ProblemInstance("deeppair", radii=[10.0, 10.0], masses=[1.0, 1.0])
DEEP_PAIR_SEED = 6


def is_feasible(state, instance, target_radius, hp):
    # The per-layout evaluation solve runs after every tick.
    tol = hp.resolved_overlap_tol(instance)
    contacts = contact_pairs(state.positions, instance.radii)
    return solver._evaluate(state, instance, target_radius, tol, contacts)[-1]


def test_is_feasible_judges_fit_about_the_gravity_center():
    inst = ProblemInstance("duo", radii=[1.0, 1.0], masses=[1.0, 1.0])
    hp = Hyperparameters()
    apart = state_of([[-1.5, 0.0], [1.5, 0.0]])
    assert is_feasible(apart, inst, 2.5, hp)
    assert not is_feasible(apart, inst, 2.4, hp)
    overlapping = state_of([[-0.5, 0.0], [0.5, 0.0]])
    assert not is_feasible(overlapping, inst, 10.0, hp)

    lopsided = ProblemInstance("lop", radii=[1.0, 1.0], masses=[3.0, 1.0])
    state = state_of([[0.0, 0.0], [3.0, 0.0]])
    # Gravity center sits at x=0.75, so the fit radius is 3.25, not the
    # origin-centered 4.
    assert is_feasible(state, lopsided, 3.25, hp)
    assert not is_feasible(state, lopsided, 3.2, hp)


def test_single_circle_solves_exactly():
    # Power-of-two mass keeps the gravity-center arithmetic exact.
    inst = ProblemInstance("one", radii=[2.0], masses=[4.0])
    result = solve(inst, Hyperparameters(n_it=50, seed=3))
    assert result.feasible
    assert result.best_radius == 2.0
    assert result.best_iteration == 1
    assert result.best_positions.tolist() == [[0.0, 0.0]]
    assert len(result.history) == 50


def test_history_covers_every_iteration_and_starts_at_the_seed_radius():
    inst = ProblemInstance("trio", radii=[2.0, 1.0, 1.5], masses=[4.0, 1.0, 2.0])
    hp = Hyperparameters(n_it=120, seed=1)
    result = solve(inst, hp)
    assert [rec.iteration for rec in result.history] == list(range(1, 121))
    assert result.history[0].target_radius == initial_container_radius(inst)
    targets = [rec.target_radius for rec in result.history]
    assert all(b <= a for a, b in zip(targets, targets[1:]))


def test_best_tracks_the_smallest_feasible_radius():
    inst = ProblemInstance("quad", radii=[1.0, 1.2, 0.8, 1.1], masses=[1.0, 2.0, 3.0, 4.0])
    result = solve(inst, Hyperparameters(n_it=400, seed=2))
    assert result.feasible
    feasible_radii = [(rec.actual_radius, rec.iteration) for rec in result.history if rec.feasible]
    assert feasible_radii
    best_radius = min(r for r, _ in feasible_radii)
    assert result.best_radius == best_radius
    assert result.best_iteration == min(i for r, i in feasible_radii if r == best_radius)
    for rec in result.history:
        if not rec.feasible:
            assert rec.actual_radius is None


def test_best_layout_is_centered_and_consistent():
    inst = ProblemInstance("five", radii=[1.0, 1.5, 0.7, 1.2, 0.9], masses=[5.0, 4.0, 3.0, 2.0, 1.0])
    hp = Hyperparameters(n_it=600, seed=4)
    result = solve(inst, hp)
    assert result.feasible
    pos = result.best_positions
    assert cg_violation(pos, inst.masses) <= 1e-9
    assert total_overlap(pos, inst.radii) <= hp.resolved_overlap_tol(inst)
    assert enclosing_radius(pos, inst.radii) == pytest.approx(result.best_radius, abs=1e-9)
    assert result.best_radius >= math.sqrt(float(np.sum(inst.radii ** 2)))


def test_solve_is_deterministic():
    inst = ProblemInstance("det", radii=[1.0, 1.3, 0.9], masses=[2.0, 1.0, 3.0])
    hp = Hyperparameters(n_it=150, seed=9)
    a = solve(inst, hp)
    b = solve(inst, hp)
    assert a.best_radius == b.best_radius
    assert a.best_iteration == b.best_iteration
    assert a.best_positions.tobytes() == b.best_positions.tobytes()
    assert a.history == b.history


@pytest.mark.parametrize("name", ["I1", "II1"])
def test_sweep_solve_serializes_like_the_all_pairs_reference(monkeypatch, name):
    inst = CORPUS.get(name)
    hp = Hyperparameters(n_it=300)
    swept = format_result_json(solve(inst, hp))
    monkeypatch.setattr(geometry, "_sweep_contacts", all_pairs_contacts)
    assert format_result_json(solve(inst, hp)) == swept


class StatelessSearch:
    # NeighbourList stand-in that runs the full pair search on every layout.
    def __init__(self, radii, travel):
        self.radii = radii

    def contacts(self, positions):
        return contact_pairs(positions, self.radii)


@pytest.mark.parametrize("name, n_it", [("I1", 2000), ("II1", 600)])
def test_neighbour_list_solve_matches_a_search_per_layout(monkeypatch, name, n_it):
    inst = CORPUS.get(name)
    hp = Hyperparameters(n_it=n_it, seed=3)
    listed = solve(inst, hp)
    monkeypatch.setattr(solver, "NeighbourList", StatelessSearch)
    searched = solve(inst, hp)
    assert format_result_json(listed) == format_result_json(searched)
    assert listed.history == searched.history


def test_gravity_center_is_computed_once_per_layout(monkeypatch):
    calls = {"solver": 0, "forces": 0}

    def counting(module, key):
        original = module.center_of_gravity

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "center_of_gravity", wrapper)

    counting(solver, "solver")
    counting(forces, "forces")
    hp = Hyperparameters(n_it=60, seed=1)
    result = solve(ProblemInstance("trio", radii=[2.0, 1.0, 1.5], masses=[4.0, 1.0, 2.0]), hp)
    assert result.feasible
    # The initial layout and the layout after each tick; the best layout is
    # re-centered with the gravity center of its own tick.
    assert calls == {"solver": hp.n_it + 1, "forces": 0}


def test_speed_overflow_stops_the_run():
    # Each force is finite, but dt scales the velocity past float range: the
    # clamp has no direction left and would freeze the swarm at zero speed.
    seen = []
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="iteration 1: speed overflowed"):
        solve(CORPUS.get("I1"), Hyperparameters(dt=1e200, n_it=50), trace=seen.append)
    assert seen == []


def test_trace_sees_every_record_in_order():
    inst = ProblemInstance("traced", radii=[1.0, 1.0], masses=[1.0, 1.0])
    seen = []
    result = solve(inst, Hyperparameters(n_it=40, seed=5), trace=seen.append)
    assert seen == result.history


def test_infeasible_run_reports_nothing():
    result = solve(DEEP_PAIR, Hyperparameters(n_it=1, seed=DEEP_PAIR_SEED))
    assert not result.feasible
    assert result.best_radius is None
    assert result.best_iteration is None
    assert result.best_positions is None
    assert len(result.history) == 1
    assert not result.history[0].feasible


def test_bad_input_is_rejected_when_built():
    # solve never sees bad input: the constructors refuse to build it.
    with pytest.raises(InvalidInputError, match="n_it"):
        Hyperparameters(n_it=0)
    for radii, masses in (([-1.0], [1.0]), ([1.0], [0.0]), ([1.0], [-1.0])):
        with pytest.raises(InvalidInputError, match="must be positive"):
            ProblemInstance("bad", radii=radii, masses=masses)


def test_solve_stops_when_the_layout_turns_non_finite():
    # v_max near the float limit passes validation, but the first push
    # overflows and every coordinate turns NaN: the run stops at once.
    seen = []
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError, match="non-finite at iteration 1 "):
        solve(CORPUS.get("I1"), Hyperparameters(v_max=1e308), trace=seen.append)
    assert seen == []


def test_milestones_walk_the_best_so_far():
    history = [
        record_of(10, 110.0),
        record_of(30, 150.0, feasible=False),
        record_of(50, 103.0),
        record_of(200, 100.05),
        record_of(900, 100.0),
    ]
    got = convergence_milestones(history, 100.0)
    assert list(got.items()) == [("0.1", 10), ("0.05", 50), ("0.01", 200), ("0.005", 200), ("0.001", 200)]


def test_milestones_against_a_foreign_reference_may_stay_open():
    history = [record_of(10, 110.0), record_of(20, 104.0)]
    got = convergence_milestones(history, 100.0)
    assert list(got.items()) == [("0.1", 10), ("0.05", 20), ("0.01", None), ("0.005", None), ("0.001", None)]


def test_milestones_require_a_feasible_run_and_sane_reference():
    history = [record_of(1, None, feasible=False, target=50.0)]
    with pytest.raises(NoMilestonesError):
        convergence_milestones(history, 100.0)
    with pytest.raises(InvalidInputError):
        convergence_milestones([record_of(1, 10.0)], 0.0)
    with pytest.raises(InvalidInputError):
        convergence_milestones([record_of(1, 10.0)], math.nan)
