"""swarmpack benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it imports swarmpack from ``src/`` next to this directory.
``--trace 0`` runs the workload untraced in a closed loop with one client for
about S seconds and reports the end-to-end metrics, its times scaled to a
host of fixed speed (``hostspeed.py``); ``--trace 1`` runs one
traced unit of the workload plus a memory pass and reports the per-layer
metrics. Every returned layout goes through the benchmark's own
check (``check.py``). A human-readable report comes first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Details, including the sha256 of
every result JSON, go to ``.perfbench_out/``. The exit code is 1 when any
solve fails, 2 on bad usage or a missing source tree.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "swarmpack" / "__init__.py").is_file():
    print(f"error: no swarmpack sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from swarmpack import bench, cli, instance_io, model, solver  # noqa: E402
from swarmpack.corpus import CORPUS  # noqa: E402

import check  # noqa: E402
from hostspeed import NOMINAL_START_S, Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_TRIALS = 11
# The generated cli-output instance: suite1-like integer radii and masses.
CLI_CIRCLES = 40
CLI_RADII = (5, 24)
CLI_MASSES = (11, 98)

# Layers every workload calls; each workload adds its own.
COMMON_SPANS = {
    "solver.solve",
    "init.initial_state",
    "forces.assemble_forces",
    "forces.find_overlap_pairs",
    "dynamics.integrate_step",
    "geometry.total_overlap",
    "geometry.center_of_gravity",
    "geometry.enclosing_radius",
    "schedule.on_feasible",
    "schedule.on_infeasible",
    "solver.convergence_milestones",
    "instance_io.format_result_json",
}


class Solve(NamedTuple):
    """One timed solve whose outputs still have to be checked."""

    wall_s: float
    ref_s: float  # wall_s in reference seconds (hostspeed.py)
    iterations: int
    verify: Callable[[], dict]


def json_record(text: str, instance) -> dict:
    """Check a result JSON document against the instance that was fed in."""
    data = json.loads(text)
    problems = [] if data["feasible"] else ["solver returned no feasible layout"]
    problems += check.check_layout(
        data["positions"], data["radii"], data["masses"], data["best_radius"],
        instance.radii.tolist(), instance.masses.tolist(),
    )
    return {
        "instance": data["instance"],
        "seed": data["seed"],
        "best_radius": data["best_radius"],
        "density": model.occupation_rate(instance, data["best_radius"]) if data["best_radius"] else None,
        "sha256": check.digest(text),
        "problems": problems,
    }


def result_record(result, instance) -> dict:
    return json_record(instance_io.format_result_json(result), instance)


class SmallBatch:
    """run_bench over I1-I3 at the suite1 budget, one repetition each."""

    name = "small-batch"
    spans = COMMON_SPANS | {"bench.run_bench"}

    def __init__(self, seed: int):
        # run_bench numbers its repetitions 0..reps-1 and takes no seed
        # offset, so the workload seed cannot reach the solver here.
        self.instances = [CORPUS.get(n) for n in ("I1", "I2", "I3")]
        self.hp = model.Hyperparameters(n_it=cli.SUITE_ITERATIONS["suite1"])

    def setup_argv(self):
        return [str(self.hp.n_it), *(inst.name for inst in self.instances)]

    def memory_case(self):
        return self.instances[0], self.hp

    def unit(self, clock: Sampler) -> list[Solve]:
        captured = []
        real = bench.solve

        # One call per solve: keeps the result and its times so the
        # layout can be checked, since run_bench returns summaries only.
        def capture(instance, hp, **kwargs):
            started = clock.mark()
            result = real(instance, hp, **kwargs)
            captured.append((result, clock.since(started)))
            return result

        bench.solve = capture
        try:
            summaries, _ = bench.run_bench(self.instances, 1, self.hp, jobs=1)
        finally:
            bench.solve = real
        if len(captured) != len(summaries):
            raise RuntimeError(f"run_bench made {len(captured)} solves for {len(summaries)} summaries")
        return [
            Solve(wall, ref, self.hp.n_it, partial(self.verify, res, s))
            for (res, (wall, ref)), s in zip(captured, summaries)
        ]

    def verify(self, result, summary) -> dict:
        fed = next(inst for inst in self.instances if inst.name == summary.instance)
        rec = result_record(result, fed)
        if summary.best_radius != result.best_radius:
            rec["problems"].append("run_bench summary disagrees with the solve result")
        return rec


class LargeII2:
    """solver.solve on II2 at the suite2 budget, a fresh derived seed per solve."""

    name = "large-II2"
    spans = COMMON_SPANS

    def __init__(self, seed: int):
        self.instance = CORPUS.get("II2")
        self.rng = random.Random(f"{self.name}/{seed}")
        self.n_it = cli.SUITE_ITERATIONS["suite2"]

    def setup_argv(self):
        return [str(self.n_it), self.instance.name]

    def memory_case(self):
        return None

    def unit(self, clock: Sampler) -> list[Solve]:
        hp = model.Hyperparameters(n_it=self.n_it, seed=self.rng.randrange(2**31))
        started = clock.mark()
        result = solver.solve(self.instance, hp)
        wall, ref = clock.since(started)
        return [Solve(wall, ref, hp.n_it, lambda: result_record(result, self.instance))]


class CliOutput:
    """cli.main solve on a generated file, writing JSON, trace CSV and SVG."""

    name = "cli-output"
    spans = COMMON_SPANS | {
        "cli.main",
        "instance_io.load_instance",
        "instance_io.trace_row",
        "svg.export_svg",
    }

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        radii = [rng.randint(*CLI_RADII) for _ in range(CLI_CIRCLES)]
        masses = [rng.randint(*CLI_MASSES) for _ in range(CLI_CIRCLES)]
        self.instance = model.ProblemInstance(f"gen{seed}", radii, masses)
        self.solver_seed = rng.randrange(2**31)
        self.n_it = 20000  # the CLI default budget
        self.dir = OUT / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / f"gen{seed}.txt"
        lines = [f"gen{seed} {CLI_CIRCLES}"] + [f"{r} {m}" for r, m in zip(radii, masses)]
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def setup_argv(self):
        return [str(self.n_it), str(self.path)]

    def memory_case(self):
        return self.instance, model.Hyperparameters(n_it=self.n_it, seed=self.solver_seed)

    def unit(self, clock: Sampler) -> list[Solve]:
        out_json, out_csv, out_svg = (self.dir / f"result.{ext}" for ext in ("json", "csv", "svg"))
        argv = ["solve", str(self.path), "--seed", str(self.solver_seed), "--out-json", str(out_json),
                "--trace-csv", str(out_csv), "--out-svg", str(out_svg)]
        started = clock.mark()
        code = cli.main(argv)
        wall, ref = clock.since(started)

        def verify():
            rec = json_record(out_json.read_text(encoding="utf-8"), self.instance)
            if code != cli.EXIT_OK:
                rec["problems"].append(f"cli exited with {code}")
            with open(out_csv, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != self.n_it:
                rec["problems"].append(f"trace CSV has {rows} rows, expected {self.n_it}")
            if not out_svg.read_bytes().startswith(b"<svg"):
                rec["problems"].append("SVG output is not an SVG document")
            return rec

        return [Solve(wall, ref, self.n_it, verify)]


WORKLOADS = {cls.name: cls for cls in (SmallBatch, LargeII2, CliOutput)}


def start_time(argv) -> float:
    """Seconds from starting ``argv`` until it printed ``time.monotonic()``."""
    started = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - started


def measure_setup(wl) -> tuple[float, float]:
    """Medians over fresh interpreters of the time until iteration 1 could start.

    Returns (wall seconds, reference seconds). Each start of the set-up probe
    follows a start of a bare interpreter that only imports NumPy; the
    probe's time over that start's time, times ``NOMINAL_START_S``, is the
    figure in reference seconds.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *wl.setup_argv()]
    bare = [sys.executable, "-c", "import time, numpy; print(repr(time.monotonic()))"]
    walls, ratios = [], []
    for trial in range(SETUP_TRIALS + 1):
        bare_s = start_time(bare)
        probe_s = start_time(probe)
        if trial:  # the first starts warm the page cache and bytecode cache
            walls.append(probe_s)
            ratios.append(probe_s / bare_s)
    return statistics.median(walls), statistics.median(ratios) * NOMINAL_START_S


def attempt(wl, clock: Sampler, log: list) -> list[Solve]:
    """One unit; a unit that raises is logged as one failed solve."""
    try:
        return wl.unit(clock)
    except Exception:
        log.append({"problems": ["solve raised:\n" + traceback.format_exc()]})
        return []


def timed_unit(wl, clock: Sampler, log: list) -> tuple[list[Solve], float]:
    """One unit, checked; its results are freed on return, before the next unit."""
    mark = clock.mark()
    solves = attempt(wl, clock, log)
    unit_ref_s = clock.since(mark)[1]
    log.extend(checked(s) for s in solves)
    return [s._replace(verify=None) for s in solves], unit_ref_s


def run_units(wl, seconds: float, log: list) -> tuple[list[Solve], float]:
    """Closed loop: start the next unit only while it should end within ``seconds``.

    Returns the solves and the units' summed time in reference seconds.
    """
    solves, busy_ref_s = [], 0.0
    with Sampler() as clock:
        started = time.perf_counter()
        while True:
            unit_started = time.perf_counter()
            unit, unit_ref_s = timed_unit(wl, clock, log)
            solves += unit
            busy_ref_s += unit_ref_s
            now = time.perf_counter()
            if not unit or now - started + (now - unit_started) > seconds:
                return solves, busy_ref_s


def checked(solve: Solve) -> dict:
    try:
        rec = solve.verify()
    except Exception:
        rec = {"problems": ["check raised:\n" + traceback.format_exc()]}
    rec["wall_s"] = solve.wall_s
    rec["ref_s"] = solve.ref_s
    return rec


def end_to_end(wl, seconds: float, log: list) -> dict:
    setup_wall, setup_ref = measure_setup(wl)
    solves, busy_ref_s = run_units(wl, seconds, log)
    # Repeats of one (instance, seed) must serialise to the same bytes.
    digests = {}
    for rec in log:
        if "sha256" in rec and digests.setdefault((rec["instance"], rec["seed"]), rec["sha256"]) != rec["sha256"]:
            rec["problems"].append("result JSON differs from an earlier solve of the same input")
    passed = [rec for rec in log if not rec["problems"]]
    densities = [rec["density"] for rec in passed]
    print(f"{wl.name}: {len(solves)} solves, {len(passed)} passed the layout check")
    if solves:
        walls = [s.wall_s for s in solves]
        refs = [s.ref_s for s in solves]
        print(
            f"wall time: set-up {setup_wall:.4f} s, solve median {statistics.median(walls):.3f} s; "
            f"host speed {sum(refs) / sum(walls):.3f} of nominal"
        )
    return {
        "setup_s": (setup_ref, "s"),
        "solve_s_p50": (statistics.median(s.ref_s for s in solves) if solves else None, "s"),
        "iters_per_s": (sum(s.iterations for s in solves) / busy_ref_s if solves else None, "iter/s"),
        "density_p50": (statistics.median(densities) if densities else None, "fraction"),
        "pass_ratio": (len(passed) / len(log), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def history_mb(instance, hp) -> float:
    """Bytes freed by dropping SolveResult.history, under tracemalloc."""
    tracemalloc.start()
    try:
        result = solver.solve(instance, hp)
        held = tracemalloc.get_traced_memory()[0]
        result.history = []
        return (held - tracemalloc.get_traced_memory()[0]) / 1e6
    finally:
        tracemalloc.stop()


def traced(wl, log: list) -> dict:
    """One traced full-budget unit, then the memory pass."""
    with Tracer() as tr:
        solves = attempt(wl, Sampler(), log)  # inactive: a plain wall clock
        spans = tr.count()
        log.extend(checked(s) for s in solves)  # format_result_json runs traced here
    if not solves:
        return {}
    # Timing traced and untraced runs against each other drowns in the
    # host's drift; charge each recorded span its measured cost instead.
    traced_s = sum(s.wall_s for s in solves)
    added_s = spans * Tracer.span_cost_ns() / 1e9
    overhead = 100.0 * added_s / (traced_s - added_s)
    iterations = sum(s.iterations for s in solves)
    case = wl.memory_case()
    hist = history_mb(*case) if case else None
    tr.save(str(OUT / f"{wl.name}-spans"))
    return layer_metrics(tr, wl, overhead, iterations, hist)


def layer_metrics(tr: Tracer, wl, overhead: float, iterations: int, hist) -> dict:
    summary = tr.summarise()
    absent = []

    def stat(span):
        return summary.get(span, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})

    def per_call(spans, field, scale, unit):
        spans = spans if isinstance(spans, tuple) else (spans,)
        calls = sum(stat(s)["calls"] for s in spans)
        if calls == 0:
            if spans[0] in wl.spans:
                absent.append(spans[0])
                return (None, unit)
            return (0, unit)
        return (sum(stat(s)[field] for s in spans) / calls / scale, unit)

    out = {}

    def timing(metric, spans, field="total_ns", scale=1e3, unit="us", calls=None):
        out[metric] = per_call(spans, field, scale, unit)
        spans = spans if isinstance(spans, tuple) else (spans,)
        out[calls or spans[0] + ".calls"] = (sum(stat(s)["calls"] for s in spans), "count")

    timing("forces.find_overlap_pairs.us", "forces.find_overlap_pairs")
    timing("geometry.total_overlap.us", "geometry.total_overlap")
    timing("forces.assemble_forces.self_us", "forces.assemble_forces", field="self_ns")
    timing("geometry.center_of_gravity.us", "geometry.center_of_gravity")
    timing("geometry.enclosing_radius.us", "geometry.enclosing_radius")
    timing("dynamics.integrate_step.us", "dynamics.integrate_step")
    timing("schedule.update.us", ("schedule.on_feasible", "schedule.on_infeasible"), calls="schedule.update.calls")
    timing("solver.convergence_milestones.ms", "solver.convergence_milestones", scale=1e6, unit="ms")
    timing("instance_io.trace_row.us", "instance_io.trace_row")
    timing("instance_io.format_result_json.ms", "instance_io.format_result_json", scale=1e6, unit="ms")
    timing("instance_io.load_instance.ms", "instance_io.load_instance", scale=1e6, unit="ms")
    timing("svg.export_svg.ms", "svg.export_svg", scale=1e6, unit="ms")
    timing("cli.self_ms", "cli.main", field="self_ns", scale=1e6, unit="ms")
    timing("init.initial_state.ms", "init.initial_state", scale=1e6, unit="ms")

    solve = stat("solver.solve")
    out["solver.solve.calls"] = (solve["calls"], "count")
    if solve["calls"]:
        broad = stat("forces.find_overlap_pairs")["total_ns"] + stat("geometry.total_overlap")["total_ns"]
        out["solver.broad_phase_share"] = (broad / solve["total_ns"], "fraction")
        out["solver.self_us_per_iter"] = (solve["self_ns"] / iterations / 1e3, "us")
    else:
        absent.append("solver.solve")
        out["solver.broad_phase_share"] = (None, "fraction")
        out["solver.self_us_per_iter"] = (None, "us")

    run = stat("bench.run_bench")
    out["bench.run_bench.calls"] = (run["calls"], "count")
    if run["calls"]:
        outside_solves = run["total_ns"] - tr.child_ns("bench.run_bench", "solver.solve")
        out["bench.overhead_ms"] = (outside_solves / run["calls"] / 1e6, "ms")
    else:
        out["bench.overhead_ms"] = per_call("bench.run_bench", "total_ns", 1e6, "ms")

    pairs = tr.samples.get("forces.find_overlap_pairs", [])
    if pairs:
        hits = sum(p for p, _ in pairs)
        out["forces.overlap_pairs_per_tick"] = (hits / len(pairs), "count")
        out["forces.pair_hit_ratio"] = (hits / sum(a for _, a in pairs), "fraction")
    else:
        out["forces.overlap_pairs_per_tick"] = (None, "count")
        out["forces.pair_hit_ratio"] = (None, "fraction")

    feasible = stat("schedule.on_feasible")["calls"]
    ticks = feasible + stat("schedule.on_infeasible")["calls"]
    out["schedule.feasible_ratio"] = (feasible / ticks if ticks else None, "fraction")
    out["schedule.stagnation_ticks"] = (sum(tr.samples.get("schedule.on_infeasible", [])), "count")

    out["solver.history_mb"] = (hist if hist is not None else 0, "MB")
    out["trace.overhead_pct"] = (overhead, "%")

    if tr.missing:
        print("patch targets not found: " + ", ".join(tr.missing))
    for span in absent:
        print(f"ABSENT: {span} recorded no calls on {wl.name}")
    # Spans that run outside solver.solve; every other span nests inside it.
    outer = ("bench.run_bench", "cli.main", "instance_io.load_instance", "instance_io.format_result_json",
             "svg.export_svg", "solver.convergence_milestones")
    inside = {k: v["self_ns"] for k, v in summary.items() if k not in outer and v["calls"]}
    print(f"{wl.name}: self time inside the traced solves, {solve['total_ns'] / 1e9:.3f} s in all")
    for span, ns in sorted(inside.items(), key=lambda kv: -kv[1]):
        print(f"  {span:32s} {ns / 1e9:8.3f} s {100 * ns / solve['total_ns']:6.2f}%")
    print(
        f"  {'sum':32s} {sum(inside.values()) / 1e9:8.3f} s; untraced the same solves would take about "
        f"{solve['total_ns'] / 1e9 / (1 + overhead / 100):.3f} s (tracing overhead {overhead:.2f}%)"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    log: list[dict] = []
    metrics = traced(wl, log) if args.trace else end_to_end(wl, args.seconds, log)

    failed = sum(1 for rec in log if rec["problems"])
    for rec in log:
        for problem in rec["problems"]:
            print(f"FAILED {rec.get('instance')} seed {rec.get('seed')}: {problem}")
    side = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps({"solves": log, "metrics": metrics}, indent=2) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {'absent' if value is None else value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(log),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
