import math

import numpy as np
import pytest

from swarmpack import forces, geometry, solver
from swarmpack.corpus import CORPUS
from swarmpack.geometry import cg_violation, contact_pairs, enclosing_radius, total_overlap
from swarmpack.init import initial_container_radius
from swarmpack.instance_io import format_result_json
from swarmpack.model import History, Hyperparameters, InvalidInputError, ProblemInstance, SwarmState
from swarmpack.solver import (
    FEASIBLE_RADIUS_EPS,
    MILESTONE_THRESHOLDS,
    NoMilestonesError,
    convergence_milestones,
    solve,
)

from oracles import all_pairs_contacts, milestones_by_walk


def state_of(positions):
    p = np.asarray(positions, dtype=float)
    return SwarmState(positions=p, velocities=np.zeros_like(p))


def history_of(actual_radius):
    # Milestones read only actual_radius, where NaN rows are infeasible.
    actual = np.asarray(actual_radius, dtype=float)
    zeros = np.zeros_like(actual)
    return History(target_radius=zeros, actual_radius=actual, overlap=zeros, cg_violation=zeros)


def history_with(feasible_rows, n=900):
    # A history of n iterations, feasible only at the listed {iteration: radius}.
    actual = np.full(n, np.nan)
    for iteration, radius in feasible_rows.items():
        actual[iteration - 1] = radius
    return history_of(actual)


def columns_bytes(history):
    return [column.tobytes() for column in history]


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
    assert result.history.target_radius.shape == (50,)


def test_history_covers_every_iteration_and_starts_at_the_seed_radius():
    inst = ProblemInstance("trio", radii=[2.0, 1.0, 1.5], masses=[4.0, 1.0, 2.0])
    hp = Hyperparameters(n_it=120, seed=1)
    result = solve(inst, hp)
    assert [column.shape for column in result.history] == [(120,)] * 4
    assert not np.isnan(result.history.target_radius).any()
    assert result.history.target_radius[0] == initial_container_radius(inst)
    assert np.all(np.diff(result.history.target_radius) <= 0.0)


def test_best_tracks_the_smallest_feasible_radius():
    inst = ProblemInstance("quad", radii=[1.0, 1.2, 0.8, 1.1], masses=[1.0, 2.0, 3.0, 4.0])
    result = solve(inst, Hyperparameters(n_it=400, seed=2))
    assert result.feasible
    history = result.history
    feasible = history.feasible
    assert feasible.any() and not feasible.all()
    radii = history.actual_radius[feasible]
    assert result.best_radius == radii.min()
    assert result.best_iteration == int(np.flatnonzero(history.actual_radius == radii.min())[0]) + 1
    # A row is feasible only where its radius fits the target in force.
    assert np.all(radii <= history.target_radius[feasible] + FEASIBLE_RADIUS_EPS)


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
    assert columns_bytes(a.history) == columns_bytes(b.history)


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
    assert columns_bytes(listed.history) == columns_bytes(searched.history)


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
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="iteration 1: speed overflowed"):
        solve(CORPUS.get("I1"), Hyperparameters(dt=1e200, n_it=50))


def test_history_is_four_float_columns():
    inst = ProblemInstance("traced", radii=[1.0, 1.0], masses=[1.0, 1.0])
    history = solve(inst, Hyperparameters(n_it=40, seed=5)).history
    assert history._fields == ("target_radius", "actual_radius", "overlap", "cg_violation")
    assert all(column.dtype == np.float64 and column.shape == (40,) for column in history)
    assert history.feasible.tolist() == [not math.isnan(r) for r in history.actual_radius.tolist()]
    assert np.isfinite(history.overlap).all() and np.isfinite(history.cg_violation).all()


def test_infeasible_run_reports_nothing():
    result = solve(DEEP_PAIR, Hyperparameters(n_it=1, seed=DEEP_PAIR_SEED))
    assert not result.feasible
    assert result.best_radius is None
    assert result.best_iteration is None
    assert result.best_positions is None
    assert result.history.feasible.tolist() == [False]


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
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError, match="non-finite at iteration 1 "):
        solve(CORPUS.get("I1"), Hyperparameters(v_max=1e308))


def test_milestones_walk_the_best_so_far():
    history = history_with({10: 110.0, 50: 103.0, 200: 100.05, 900: 100.0})
    got = convergence_milestones(history, 100.0)
    assert list(got.items()) == [("0.1", 10), ("0.05", 50), ("0.01", 200), ("0.005", 200), ("0.001", 200)]


def test_milestones_against_a_foreign_reference_may_stay_open():
    history = history_with({10: 110.0, 20: 104.0})
    got = convergence_milestones(history, 100.0)
    assert list(got.items()) == [("0.1", 10), ("0.05", 20), ("0.01", None), ("0.005", None), ("0.001", None)]


def test_milestones_require_a_feasible_run_and_sane_reference():
    with pytest.raises(NoMilestonesError):
        convergence_milestones(history_with({}), 100.0)
    with pytest.raises(InvalidInputError):
        convergence_milestones(history_with({1: 10.0}), 0.0)
    with pytest.raises(InvalidInputError):
        convergence_milestones(history_with({1: 10.0}), math.nan)


def random_radii(rng):
    # A noisy descent to a final radius of 100 with a NaN prefix and NaN
    # gaps, on a coarse grid so that equal radii (ties) are common, plus one
    # row exactly on a threshold bar.
    n = int(rng.integers(2, 400))
    radii = np.maximum(np.round(120.0 - np.cumsum(rng.random(n)) * rng.uniform(0.01, 0.1), 1), 100.1)
    radii[rng.random(n) < rng.uniform(0.0, 0.9)] = np.nan
    radii[: rng.integers(0, n)] = np.nan
    radii[rng.integers(0, n - 1)] = (1.0 + rng.choice(MILESTONE_THRESHOLDS)) * 100.0
    radii[-1] = 100.0
    return radii


def test_vectorised_milestones_match_the_record_walk():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        radii = random_radii(rng)
        # The run's own final radius, and a foreign one that leaves the
        # tighter thresholds unreached.
        for reference, open_thresholds in ((100.0, 0), (99.5, 2)):
            want = milestones_by_walk(radii.tolist(), reference, MILESTONE_THRESHOLDS)
            assert convergence_milestones(history_of(radii), reference) == want
            assert list(want.values()).count(None) >= open_thresholds
