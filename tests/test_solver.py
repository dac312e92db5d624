import math

import numpy as np
import pytest

from swarmpack import forces, geometry, solver
from swarmpack.corpus import CORPUS
from swarmpack.geometry import center_of_gravity, cg_violation, contact_pairs, enclosing_radius, total_overlap
from swarmpack.init import initial_container_radius
from swarmpack.instance_io import format_result_json
from swarmpack.model import History, Hyperparameters, InvalidInputError, ProblemInstance
from swarmpack.solver import (
    FEASIBLE_RADIUS_EPS,
    MILESTONE_THRESHOLDS,
    NoMilestonesError,
    certain_overlap_depth,
    convergence_milestones,
    overlap_tolerance,
    solve,
)

from oracles import all_pairs_contacts, milestones_by_walk


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


def evaluate(positions, instance, target_radius):
    # The per-layout evaluation solve runs on every layout, returning
    # (contacts, cg, cgv, edges, overlap, radius). Without a skin the
    # NeighbourList searches every call, giving contact_pairs' bytes.
    positions = np.asarray(positions, dtype=float)
    neighbours = geometry.NeighbourList(instance.radii, 0.0)
    tol, depth = overlap_tolerance(instance), certain_overlap_depth(instance)
    return solver._evaluate(positions, instance, target_radius, tol, depth, neighbours)


def is_feasible(positions, instance, target_radius):
    return evaluate(positions, instance, target_radius)[-1] is not None


def test_is_feasible_judges_fit_about_the_gravity_center():
    inst = ProblemInstance("duo", radii=[1.0, 1.0], masses=[1.0, 1.0])
    apart = [[-1.5, 0.0], [1.5, 0.0]]
    assert is_feasible(apart, inst, 2.5)
    assert not is_feasible(apart, inst, 2.4)
    overlapping = [[-0.5, 0.0], [0.5, 0.0]]
    assert not is_feasible(overlapping, inst, 10.0)

    lopsided = ProblemInstance("lop", radii=[1.0, 1.0], masses=[3.0, 1.0])
    positions = [[0.0, 0.0], [3.0, 0.0]]
    # Gravity center sits at x=0.75, so the fit radius is 3.25, not the
    # origin-centered 4.
    assert is_feasible(positions, lopsided, 3.25)
    assert not is_feasible(positions, lopsided, 3.2)


def test_is_feasible_covers_all_four_verdicts():
    # The radius test runs first, then the deepest contact, and the overlap
    # only for a layout that fits without a contact of certain overlap;
    # every verdict must equal the one both tests together give, and only a
    # feasible one carries a radius.
    inst = ProblemInstance("duo", radii=[1.0, 1.0], masses=[1.0, 1.0])
    tol = overlap_tolerance(inst)
    overlapping = [[-0.5, 0.0], [0.5, 0.0]]
    # Depth 3e-4, below the certain depth, yet a lens past the tolerance.
    shallow = [[-0.99985, 0.0], [0.99985, 0.0]]
    apart = [[-1.5, 0.0], [1.5, 0.0]]
    cases = (
        (overlapping, 1.4, None, None),  # radius and overlap both fail
        (apart, 2.4, None, None),  # only the radius fails
        (overlapping, 10.0, None, None),  # only the overlap fails, settled by depth
        (shallow, 10.0, total_overlap(shallow, inst.radii), None),  # only the overlap fails
        (apart, 2.5, 0.0, 2.5),  # both pass
    )
    for layout, target, want_overlap, want_radius in cases:
        positions = np.asarray(layout, dtype=float)
        *_, overlap, radius = evaluate(positions, inst, target)
        assert (overlap, radius) == (want_overlap, want_radius)
        exact = enclosing_radius(positions, inst.radii, center_of_gravity(positions, inst.masses))
        fits = exact <= target + FEASIBLE_RADIUS_EPS
        assert (radius is not None) == (fits and total_overlap(positions, inst.radii) <= tol)


def test_overlap_tolerance_scales_with_smallest_circle():
    inst = ProblemInstance("toy", radii=[3.0, 4.0], masses=[1.0, 2.0])
    assert overlap_tolerance(inst) == pytest.approx(1e-6 * math.pi * 9.0, rel=1e-12)


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
    assert total_overlap(pos, inst.radii) <= overlap_tolerance(inst)
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

    def layout(self, positions):
        return contact_pairs(positions, self.radii), geometry.far_edges(positions, self.radii)


@pytest.mark.parametrize("name, n_it", [("I1", 2000), ("II1", 600)])
def test_neighbour_list_solve_matches_a_search_per_layout(monkeypatch, name, n_it):
    inst = CORPUS.get(name)
    hp = Hyperparameters(n_it=n_it, seed=3)
    listed = solve(inst, hp)
    monkeypatch.setattr(solver, "NeighbourList", StatelessSearch)
    searched = solve(inst, hp)
    assert format_result_json(listed) == format_result_json(searched)
    assert columns_bytes(listed.history) == columns_bytes(searched.history)


@pytest.mark.parametrize("name, n_it", [("I1", 3000), ("II1", 1000)])
def test_overlap_rows_do_not_depend_on_the_flush_size(monkeypatch, name, n_it):
    # Layouts that fail the radius test queue their overlap rows. Flushing
    # after every queued layout, or only once after the last tick, must
    # give the default run's bytes; neither budget is a multiple of the
    # default size, and a missing final flush leaves NaN rows.
    inst = CORPUS.get(name)
    hp = Hyperparameters(n_it=n_it, seed=2)
    assert n_it % solver.OVERLAP_FLUSH_PAIRS != 0
    default = solve(inst, hp)
    # More pairs than any run of n_it ticks can queue: one flush at the end.
    for size in (1, n_it * inst.n * inst.n):
        monkeypatch.setattr(solver, "OVERLAP_FLUSH_PAIRS", size)
        flushed = solve(inst, hp)
        assert columns_bytes(flushed.history) == columns_bytes(default.history)
        assert not np.isnan(flushed.history.overlap).any()
    assert not np.isnan(default.history.overlap).any()
    assert (default.history.overlap > 0.0).any()


def pair_at_depth(rng, r_a, r_b, depth):
    # Two circles whose centers lie r_a + r_b - depth apart, in a random
    # direction from a random point, so the distance carries rounding.
    a = rng.uniform(-50.0, 50.0, 2)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    gap = max(r_a + r_b - depth, 0.0)
    return np.array([a, a + gap * np.array([math.cos(angle), math.sin(angle)])])


def test_a_contact_at_the_certain_depth_overlaps_past_the_tolerance():
    # Every pair whose depth, as the solver computes it, reaches the
    # certain depth has a lens area past the tolerance: equal pairs of the
    # smallest radius, very unequal pairs and random pairs, at depths from
    # the certain depth itself up to full containment.
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(60):
        r_min = float(10.0 ** rng.uniform(-2.0, 2.0))
        for r_a, r_b in (
            (r_min, r_min),
            (r_min, r_min * 1000.0),
            (r_min * rng.uniform(1.0, 3.0), r_min * rng.uniform(1.0, 50.0)),
        ):
            inst = ProblemInstance("pair", radii=[r_min, r_a, r_b], masses=[1.0, 1.0, 1.0])
            tol = overlap_tolerance(inst)
            certain = certain_overlap_depth(inst)
            assert 5e-4 * r_min < certain < 7e-4 * r_min
            full = r_a + r_b
            depths = [certain, np.nextafter(certain, np.inf), np.nextafter(certain, 0.0), abs(r_b - r_a) + certain]
            depths += list(certain * np.logspace(0.0, math.log10(full / certain), 12))
            for depth in depths:
                positions = pair_at_depth(rng, r_a, r_b, depth)
                d = contact_pairs(positions, [r_a, r_b]).d
                if not (d.shape[0] and r_a + r_b - d[0] >= certain):
                    continue
                checked += 1
                # The kite bound gives at least 4 * tol; the lens is larger.
                assert total_overlap(positions, [r_a, r_b]) > 4.0 * tol
    assert checked > 2000


def test_an_overlap_of_huge_circles_is_not_feasible():
    # Depth 3e-4 r: past the overlap tolerance, short of the certain depth,
    # so the verdict rests on total_overlap, whose lens product overflows
    # at this scale.
    r = 2.0**266
    inst = ProblemInstance("huge", radii=[r, r], masses=[1.0, 1.0])
    half = (2.0 - 3e-4) / 2.0 * r
    assert 3e-4 * r < certain_overlap_depth(inst)
    _, _, _, _, overlap, radius = evaluate([[-half, 0.0], [half, 0.0]], inst, 3.0 * r)
    assert overlap > overlap_tolerance(inst)
    assert radius is None


def test_the_depth_rule_gives_the_verdict_of_the_total_overlap():
    # Random layouts with one contact pushed to about the certain depth (a
    # tenth to ten times it): the verdict with the rule equals the one the
    # total overlap alone gives, an overlap the evaluation returns is
    # total_overlap's and a radius it returns enclosing_radius's.
    rng = np.random.default_rng(1919)
    settled = deferred = feasible = 0
    for _ in range(300):
        n = int(rng.integers(2, 25))
        radii = rng.uniform(1.0, float(rng.choice([1.5, 10.0, 50.0])), n)
        # On a line, spaced apart, then one neighbour moved into its partner.
        x = np.cumsum(radii[:-1] + radii[1:] + rng.uniform(0.0, 0.5, n - 1))
        positions = np.stack([np.concatenate(([0.0], x)), rng.uniform(-0.01, 0.01, n)], axis=1)
        inst = ProblemInstance("line", radii=radii, masses=rng.uniform(1.0, 5.0, n))
        certain = certain_overlap_depth(inst)
        k = int(rng.integers(0, n - 1))
        depth = certain * float(10.0 ** rng.uniform(-1.0, 1.0))
        positions[k + 1 :, 0] -= positions[k + 1, 0] - positions[k, 0] - (radii[k] + radii[k + 1] - depth)
        target = float(rng.choice([1e9, 1.0]))
        *_, overlap, radius = evaluate(positions, inst, target)
        fits = target == 1e9
        whole = total_overlap(positions, radii)
        verdict = fits and whole <= overlap_tolerance(inst)
        exact = enclosing_radius(positions, radii, center_of_gravity(positions, inst.masses))
        assert radius == (exact if verdict else None)
        if fits:
            if overlap is None:
                settled += 1
            else:
                deferred += 1
                assert overlap == whole
                feasible += verdict
    assert settled > 50 and deferred > 50 and 0 < feasible < deferred


@pytest.mark.parametrize("name, n_it", [("I1", 3000), ("II1", 1000), ("II2", 1500)])
def test_overlap_rows_do_not_depend_on_the_depth_rule(monkeypatch, name, n_it):
    # Layouts that fit but hold a contact of certain overlap queue their
    # overlap rows. A depth no contact reaches turns the rule off; the run
    # must give the default run's bytes, with every overlap row filled.
    inst = CORPUS.get(name)
    hp = Hyperparameters(n_it=n_it, seed=2)
    calls = []
    counted = solver.total_overlap

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(solver, "total_overlap", counting)
    default = solve(inst, hp)
    with_rule = len(calls)
    monkeypatch.setattr(solver, "certain_overlap_depth", lambda instance: math.inf)
    without = solve(inst, hp)
    assert format_result_json(default) == format_result_json(without)
    assert columns_bytes(default.history) == columns_bytes(without.history)
    assert not np.isnan(default.history.overlap).any()
    # The rule fired: some layout that fit skipped total_overlap.
    assert 0 < with_rule < len(calls) - with_rule


@pytest.mark.parametrize("name, n_it", [("I1", 3000), ("II1", 1000), ("II2", 1500)])
def test_the_depth_rule_before_the_enclosing_radius_changes_no_verdict(monkeypatch, name, n_it):
    # Every layout a solve judges is judged again with the rule off (a
    # depth no contact reaches), where enclosing_radius runs on every layout:
    # the radius, None unless feasible, and any overlap the evaluation
    # returns are the same.
    # Some layouts skip enclosing_radius only through the rule. The result
    # and History bytes of a run without the rule are compared by
    # test_overlap_rows_do_not_depend_on_the_depth_rule.
    inst = CORPUS.get(name)
    hp = Hyperparameters(n_it=n_it, seed=2)
    reference = geometry.NeighbourList(inst.radii, 0.0)
    radius_calls = []
    enclosing = solver.enclosing_radius
    evaluate = solver._evaluate
    early = 0

    def counting(*args):
        radius_calls.append(1)
        return enclosing(*args)

    def comparing(positions, instance, target, overlap_tol, certain_depth, neighbours):
        nonlocal early
        start = len(radius_calls)
        judged = evaluate(positions, instance, target, overlap_tol, certain_depth, neighbours)
        *_, overlap, radius = judged
        middle = len(radius_calls)
        *_, want_overlap, want_radius = evaluate(positions, instance, target, overlap_tol, math.inf, reference)
        assert radius == want_radius
        assert overlap in (None, want_overlap)
        early += start == middle < len(radius_calls)
        return judged

    monkeypatch.setattr(solver, "enclosing_radius", counting)
    monkeypatch.setattr(solver, "_evaluate", comparing)
    solve(inst, hp)
    assert early > 0


def test_an_overflowing_gravity_center_stops_the_run(monkeypatch):
    # A layout with a deep contact whose gravity center overflows: the heavy
    # circle's m * p passes float range, the total mass does not. The far
    # edges stay finite; the run stops on the gravity-center offset.
    inst = ProblemInstance("heavy", radii=[1.0, 1.0, 1.0], masses=[1e308, 1.0, 1.0])
    layout = np.array([[1e3, 1e3], [0.0, 0.0], [0.5, 0.0]])
    monkeypatch.setattr(solver, "integrate_step", lambda positions, velocities, *args: (layout.copy(), velocities))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError) as raised:
        solve(inst, Hyperparameters(n_it=5))
    assert str(raised.value) == (
        "layout turned non-finite at iteration 1 (farthest edge 1415.213562373095, gravity-center offset inf); "
        "check the hyperparameter scales"
    )


def count_verdicts(monkeypatch, module, name):
    # Wrap a bound helper so that each verdict it gives is counted.
    counts = {True: 0, False: 0}
    original = getattr(module, name)

    def counting(*args):
        verdict = original(*args)
        counts[verdict] += 1
        return verdict

    monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize(
    "name, n_it, seed, tunables",
    [
        ("I1", 3000, 2, {}),
        ("II1", 1000, 2, {}),
        # The cap bound settles about a third of the ticks here, and the cap
        # scales some rows on 11 others (at the defaults it settles every I1
        # tick).
        ("I1", 3000, 0, {"alpha": 1.0, "f_max": 4.5}),
    ],
)
def test_the_bounds_never_change_a_result(monkeypatch, name, n_it, seed, tunables):
    # The force-cap bound only skips work: with the helper patched to settle
    # nothing, every History column and the result JSON keep their bytes.
    inst = CORPUS.get(name)
    hp = Hyperparameters(n_it=n_it, seed=seed, **tunables)
    cap = count_verdicts(monkeypatch, forces, "_cap_cannot_bind")
    capped = []
    assemble = solver.assemble_forces

    def noting_the_cap(*args):
        total = assemble(*args)
        capped.append(bool((np.hypot(*total.T) >= hp.f_max * (1.0 - 1e-12)).any()))
        return total

    monkeypatch.setattr(solver, "assemble_forces", noting_the_cap)
    bounded = solve(inst, hp)
    monkeypatch.setattr(forces, "_cap_cannot_bind", lambda *args: False)
    exact = solve(inst, hp)
    assert format_result_json(bounded) == format_result_json(exact)
    assert columns_bytes(bounded.history) == columns_bytes(exact.history)
    # Both branches of the bound ran, except on I1 at the defaults, where no
    # tick comes near f_max.
    assert cap[True] and (cap[False] or (name == "I1" and not tunables))
    assert any(capped) == bool(tunables)


def test_an_overflowing_enclosing_radius_reads_as_infeasible(monkeypatch):
    # |p| and |cg| stay below the float limit, but the gravity center on the
    # other side puts |p - cg| past it. enclosing_radius is inf, so the
    # layout does not fit, and the run, whose state is finite, goes on.
    inst = ProblemInstance("far", radii=[1.0, 1.0], masses=[1.0, 1000.0])
    layout = np.array([[1.3e154, 0.0], [-1.3e154, 0.0]])
    with np.errstate(over="ignore"):
        assert enclosing_radius(layout, inst.radii, center_of_gravity(layout, inst.masses)) == math.inf
    monkeypatch.setattr(solver, "integrate_step", lambda positions, velocities, *args: (layout.copy(), velocities))
    with np.errstate(over="ignore", invalid="ignore"):
        result = solve(inst, Hyperparameters(n_it=3))
    assert result.history.feasible.tolist() == [False] * 3
    assert np.isfinite(result.history.cg_violation).all()


def test_solve_stops_when_the_layout_overflows():
    # Speeds stay finite, but a tick's step (speed times dt) overflows: the
    # far edges turn inf and the run stops at once.
    hp = Hyperparameters(v_max=1e200, dt=1e160, f_max=1e-10)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError, match="non-finite at iteration 1 "):
        solve(CORPUS.get("I1"), hp)


def test_gravity_center_is_computed_once_per_layout(monkeypatch):
    calls = {"solver": 0, "forces": 0, "evaluate": 0, "layout": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(solver, "center_of_gravity", "solver")
    counting(forces, "center_of_gravity", "forces")
    counting(solver, "_evaluate", "evaluate")
    counting(geometry.NeighbourList, "layout", "layout")
    hp = Hyperparameters(n_it=60, seed=1)
    result = solve(ProblemInstance("trio", radii=[2.0, 1.0, 1.5], masses=[4.0, 1.0, 2.0]), hp)
    assert result.feasible
    # The initial layout and the layout after each tick, each judged by one
    # evaluation; the best layout is re-centered with the gravity center of
    # its own tick.
    n = hp.n_it + 1
    assert calls == {"solver": n, "forces": 0, "evaluate": n, "layout": n}


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
