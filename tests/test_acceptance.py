"""End-to-end acceptance gate.

Every test checks one numbered criterion and prints one verdict line;
the conftest hook replays those lines after the pytest summary. Budgets,
seeds, and gate literals are frozen: a red line here means the solver,
the geometry kernel, or the embedded corpus changed behavior.

The benchmark instances beyond I1-I3 take minutes each at full budget,
so they run under the ``nightly`` marker (deselected by default) and
only track their gap against the reference radii without gating.
"""

import math
import time

import numpy as np
import pytest

from swarmpack.corpus import CORPUS
from swarmpack.forces import assemble_forces, cg_gradient
from swarmpack.geometry import (
    Disk,
    Point2,
    center_of_gravity,
    cg_offset,
    cg_violation,
    contact_pairs,
    enclosing_radius,
    far_edges,
    lens_area,
    total_overlap,
)
from swarmpack.instance_io import format_result_json
from swarmpack.model import Hyperparameters, ProblemInstance
from swarmpack.schedule import step_size
from swarmpack.solver import overlap_tolerance, solve

from oracles import SCHEDULE_T1000_REFERENCE, all_pairs_contacts, fd_cg_gradient, mc_lens_area

REPORT: list[str] = []

GATE_SEEDS = range(20)
I1_GATE = 61.05  # 2% over the embedded reference radius, frozen as a literal
GATE_FACTOR = 1.03  # I2/I3 gate: 3% over their reference radii
INVARIANT_SEEDS = range(4)
# Short budgets for the invariant sweep; the larger instances need a few
# hundred iterations before the first feasible layout appears (worst
# observed over these seeds: II3 at iteration 547).
SUITE1_INVARIANT_ITERS = 400
SUITE2_INVARIANT_ITERS = 800

# Two touching unit circles want gentler dynamics than the benchmark
# defaults: per-tick travel has to stay well inside the feasibility
# window around radius 2.0, or the balance force ping-pongs the pair
# across it forever. Every scale comes down accordingly.
PAIR_HP = dict(f_max=5.0, v_max=0.005, alpha=0.01, s_max=0.02, s_min=0.001, n_it=5000)

NIGHTLY_BUDGETS = {
    "I4": 20000,
    "I5": 20000,
    "I6": 20000,
    "I7": 20000,
    "I8": 20000,
    "I9": 20000,
    "I10": 20000,
    "II1": 15000,
    "II2": 15000,
    "II3": 15000,
}

# Counts and extrema recomputed from the embedded data and frozen here
# as a transcription guard.
EXPECTED_RANGES = {
    "I1": (10, (5.0, 23.0), (20.0, 93.0)),
    "I2": (15, (6.0, 24.0), (12.0, 98.0)),
    "I3": (20, (5.0, 24.0), (11.0, 94.0)),
    "I4": (25, (6.0, 24.0), (11.0, 96.0)),
    "I5": (30, (6.0, 24.0), (12.0, 97.0)),
    "I6": (35, (7.0, 24.0), (10.0, 99.0)),
    "I7": (40, (6.0, 23.0), (12.0, 99.0)),
    "I8": (45, (6.0, 24.0), (11.0, 99.0)),
    "I9": (50, (5.0, 24.0), (10.0, 99.0)),
    "I10": (55, (6.0, 24.0), (13.0, 99.0)),
    "II1": (100, (10.0, 40.0), (10.0, 40.0)),
    "II2": (150, (10.0, 50.0), (10.0, 50.0)),
    "II3": (300, (10.0, 50.0), (10.0, 50.0)),
}


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT.append(line)
    print(line)
    assert ok, line


def _layout_invariants_ok(result, inst) -> bool:
    """Feasible layouts must be overlap-free, balanced, and above the area bound."""
    bound = math.sqrt(float(np.sum(inst.radii**2)))
    return (
        total_overlap(result.best_positions, inst.radii) <= overlap_tolerance(inst)
        and cg_violation(result.best_positions, inst.masses) <= 1e-9
        and result.best_radius >= bound
        and math.isclose(
            enclosing_radius(result.best_positions, inst.radii),
            result.best_radius,
            rel_tol=1e-9,
        )
    )


def _gate_runs(name: str, n_it: int):
    """Best feasible radius, per-run wall times, and invariant status over the gate seeds."""
    inst = CORPUS.get(name)
    feasible, times = [], []
    invariants = True
    for seed in GATE_SEEDS:
        hp = Hyperparameters(n_it=n_it, seed=seed)
        start = time.perf_counter()
        result = solve(inst, hp)
        times.append(time.perf_counter() - start)
        if result.feasible:
            feasible.append(result.best_radius)
            invariants = invariants and _layout_invariants_ok(result, inst)
    best = min(feasible) if feasible else math.inf
    return best, len(feasible), times, invariants


def test_c01_lens_area_matches_monte_carlo():
    rng = np.random.default_rng(20260818)
    start = time.perf_counter()
    worst_ratio = 0.0
    failures = 0
    for k in range(100):
        ra, rb = rng.uniform(0.5, 3.0, 2)
        if k < 70:  # genuine partial overlap
            lo, hi = abs(ra - rb), ra + rb
            d = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        elif k < 85:  # one disk inside the other
            d = rng.uniform(0.0, 0.9) * abs(ra - rb)
        else:  # disjoint
            d = (ra + rb) * (1.0 + rng.uniform(0.05, 1.0))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        ax, ay = rng.uniform(-5.0, 5.0, 2)
        a = Disk(Point2(ax, ay), ra)
        b = Disk(Point2(ax + d * math.cos(theta), ay + d * math.sin(theta)), rb)
        got = lens_area(a, b)
        ref = mc_lens_area(d, ra, rb, seed=1000 + k)
        tol = max(1e-3 * ref, 1e-9)
        worst_ratio = max(worst_ratio, abs(got - ref) / tol)
        failures += abs(got - ref) > tol
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report(1, ok, f"100 disk pairs vs 1e7-sample MC, worst error at {worst_ratio:.2f} of tolerance, {elapsed:.1f}s")


def test_c02_cg_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 51))
        # The imbalance norm has a cone at zero; keep the finite-difference
        # reference well conditioned by demanding a visible imbalance.
        while True:
            positions = rng.uniform(-10.0, 10.0, (n, 2))
            masses = rng.uniform(10.0, 99.0, n)
            if cg_violation(positions, masses) >= 0.3:
                break
        for i in range(n):
            got = cg_gradient(i, positions, masses)
            ref = fd_cg_gradient(i, positions, masses, step=1e-6)
            worst = max(worst, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    ok = worst <= 1e-5
    _report(2, ok, f"100 configurations of 3-50 circles, worst relative error {worst:.2e} <= 1e-5")


def test_c03_schedule_law():
    base = dict(s_max=10.0, s_min=0.1, n_it=1000)
    cs = (5, 10, 15, 20, 30, 50)
    start_exact = all(step_size(0, Hyperparameters(c=float(c), **base)) == 10.0 for c in cs)
    end_err = abs(step_size(1000, Hyperparameters(c=5.0, **base)) - SCHEDULE_T1000_REFERENCE)
    curves = {
        c: np.array([step_size(t, Hyperparameters(c=float(c), **base)) for t in range(1001)])
        for c in cs
    }
    ordered = all(
        np.all(curves[lo][1:] >= curves[hi][1:]) and curves[lo][1] > curves[hi][1]
        for lo, hi in zip(cs, cs[1:])
    )
    ok = start_exact and end_err <= 1e-9 and ordered
    _report(3, ok, f"step(0) == s_max exactly, |step(1000) - reference| = {end_err:.1e}, c-curves pointwise ordered")


def test_c04_feasibility_invariants_across_corpus():
    runs = [(inst, SUITE1_INVARIANT_ITERS) for inst in CORPUS.suite1]
    runs += [(inst, SUITE2_INVARIANT_ITERS) for inst in CORPUS.suite2]
    bad = []
    total = 0
    for inst, n_it in runs:
        for seed in INVARIANT_SEEDS:
            hp = Hyperparameters(n_it=n_it, seed=seed)
            result = solve(inst, hp)
            total += 1
            if not result.feasible:
                bad.append(f"{inst.name}/{seed}: no feasible layout")
                continue
            if not _layout_invariants_ok(result, inst):
                bad.append(f"{inst.name}/{seed}: invariant violated")
    ok = not bad and total >= 50
    detail = f"{total} runs over all 13 instances, every layout balanced, overlap-free, above the area bound"
    _report(4, ok, detail if ok else "; ".join(bad[:4]))


def test_c05_benchmark_i1_within_two_percent():
    best, n_feasible, times, invariants = _gate_runs("I1", 20000)
    ok = n_feasible == 20 and invariants and best <= I1_GATE and max(times) < 120.0
    _report(5, ok, f"I1 best {best:.4f} <= {I1_GATE} over 20 seeds, slowest run {max(times):.1f}s")


def test_c06_benchmarks_i2_i3_within_three_percent():
    ok = True
    details = []
    for name in ("I2", "I3"):
        gate = GATE_FACTOR * CORPUS.reference_radii[name]
        best, n_feasible, _, invariants = _gate_runs(name, 20000)
        ok = ok and n_feasible == 20 and invariants and best <= gate
        details.append(f"{name} best {best:.4f} <= {gate:.4f}")
    _report(6, ok, "; ".join(details) + " over 20 seeds")


def test_c07_unit_pair_reaches_tangent_optimum():
    inst = ProblemInstance("unitpair", radii=[1.0, 1.0], masses=[1.0, 1.0])
    worst = 0.0
    hits = 0
    for seed in range(10):
        hp = Hyperparameters(seed=seed, **PAIR_HP)
        result = solve(inst, hp)
        if result.feasible and result.best_radius <= 2.02 and _layout_invariants_ok(result, inst):
            hits += 1
            worst = max(worst, result.best_radius)
    ok = hits == 10
    _report(7, ok, f"{hits}/10 seeds reach best <= 2.02 within 5000 iterations, worst {worst:.4f}")


def test_c08_identical_runs_serialize_identically():
    hp = Hyperparameters(n_it=2000, seed=0)
    first = format_result_json(solve(CORPUS.get("I1"), hp)).encode()
    second = format_result_json(solve(CORPUS.get("I1"), hp)).encode()
    ok = first == second
    _report(8, ok, f"two identical runs produce byte-identical JSON ({len(first)} bytes)")


def test_c09_grid_and_naive_forces_bitwise_equal():
    rng = np.random.default_rng(99)
    mismatches = 0
    for k in range(20):
        radii = rng.uniform(0.5, 3.0, 100)
        masses = rng.uniform(1.0, 10.0, 100)
        inst = ProblemInstance(f"rand{k}", radii=radii, masses=masses)
        spread = math.sqrt(float(np.sum(radii**2)))
        positions = rng.uniform(-spread, spread, (100, 2))
        velocities = rng.uniform(-1.0, 1.0, (100, 2))
        target = 0.8 * enclosing_radius(positions, radii)
        hp = Hyperparameters()
        cg = center_of_gravity(positions, masses)
        layout = (cg, far_edges(positions, radii), cg_offset(cg))
        # Naive: the all-pairs reference contacts; grid: the library's sweep.
        naive = assemble_forces(positions, velocities, inst, target, hp, all_pairs_contacts(positions, radii), *layout)
        grid = assemble_forces(positions, velocities, inst, target, hp, contact_pairs(positions, radii), *layout)
        mismatches += naive.tobytes() != grid.tobytes()
    ok = mismatches == 0
    _report(9, ok, "20 random 100-circle states, grid forces bitwise equal to naive")


def test_c10_corpus_counts_and_extrema():
    bad = []
    for name, (count, (rlo, rhi), (mlo, mhi)) in EXPECTED_RANGES.items():
        inst = CORPUS.get(name)
        if (
            inst.n != count
            or (float(inst.radii.min()), float(inst.radii.max())) != (rlo, rhi)
            or (float(inst.masses.min()), float(inst.masses.max())) != (mlo, mhi)
        ):
            bad.append(name)
    for inst in CORPUS.suite2:
        if not np.array_equal(inst.radii, inst.masses):
            bad.append(f"{inst.name} masses != radii")
    ok = not bad
    _report(10, ok, "all 13 instances match frozen counts and extrema" if ok else "mismatch: " + ", ".join(bad))


@pytest.mark.nightly
def test_nightly_larger_benchmarks_track_references():
    """Non-gating: record each gap to the reference radius, fail only on broken runs."""
    bad = []
    for name, n_it in NIGHTLY_BUDGETS.items():
        inst = CORPUS.get(name)
        bound = math.sqrt(float(np.sum(inst.radii**2)))
        feasible = []
        for seed in GATE_SEEDS:
            result = solve(inst, Hyperparameters(n_it=n_it, seed=seed))
            if result.feasible and result.best_radius >= bound:
                feasible.append(result.best_radius)
            else:
                bad.append(f"{name}/{seed}")
        best = min(feasible) if feasible else math.inf
        reference = CORPUS.reference_radii[name]
        gap = best / reference - 1.0
        marker = "" if gap <= 0.03 else ", above 3% target"
        line = f"nightly {name}: best {best:.4f} vs reference {reference} ({gap:+.2%}{marker})"
        REPORT.append(line)
        print(line)
    assert not bad, f"infeasible or sub-bound runs: {bad}"
