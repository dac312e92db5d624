import argparse
import csv
import io
import json
from dataclasses import fields, replace
from xml.dom import minidom

import pytest

from swarmpack import bench, cli
from swarmpack.bench import run_bench
from swarmpack.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from swarmpack.corpus import CORPUS
from swarmpack.instance_io import format_instance, format_json
from swarmpack.model import Hyperparameters, InvalidInputError, ProblemInstance
from swarmpack.solver import MILESTONE_THRESHOLDS


def run(*argv):
    return main(list(argv))


def test_solve_writes_every_requested_artifact(tmp_path, capsys):
    out_json = tmp_path / "run.json"
    out_svg = tmp_path / "run.svg"
    out_csv = tmp_path / "trace.csv"
    code = run(
        "solve", "I1", "--iters", "400", "--seed", "0",
        "--out-json", str(out_json), "--out-svg", str(out_svg), "--trace-csv", str(out_csv),
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "I1" in stdout and "packed into radius" in stdout

    data = json.loads(out_json.read_text(encoding="utf-8"))
    assert data["instance"] == "I1"
    assert data["feasible"] is True
    assert data["hyperparameters"]["n_it"] == 400
    assert len(data["positions"]) == 10

    assert out_svg.read_bytes().startswith(b"<svg")

    with open(out_csv, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 401
    assert rows[0][0] == "iteration"


def test_solve_results_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert run("solve", "I2", "--iters", "300", "--out-json", str(path)) == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_solve_accepts_instance_files(tmp_path, monkeypatch, capsys):
    inst = ProblemInstance("filecase", radii=[1.0, 1.5], masses=[2.0, 1.0])
    path = tmp_path / "filecase.txt"
    path.write_text(format_instance(inst), encoding="utf-8")
    assert run("solve", str(path), "--iters", "200") == EXIT_OK
    assert "filecase" in capsys.readouterr().out
    # A file named like an embedded instance is read instead of the instance.
    (tmp_path / "I1").write_text(format_instance(inst), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run("solve", "I1", "--iters", "200") == EXIT_OK
    assert "filecase" in capsys.readouterr().out


def test_a_file_named_like_an_embedded_instance_is_quoted_no_reference(tmp_path, monkeypatch, capsys):
    # Both files solve feasibly but are not I1 or II1: no published radius
    # applies, and the II1 file takes the suite1 default budget.
    monkeypatch.chdir(tmp_path)
    for name in ("I1", "II1"):
        inst = ProblemInstance(name, radii=[1.0, 1.5], masses=[2.0, 1.0])
        (tmp_path / name).write_text(format_instance(inst), encoding="utf-8")
    assert run("solve", "I1", "--iters", "200") == EXIT_OK
    out = capsys.readouterr().out
    assert "packed into radius" in out and "published best" not in out
    assert run("bench", "I1", "--reps", "1", "--iters", "50") == EXIT_OK
    out = capsys.readouterr().out
    assert "I1: best" in out and " vs " not in out
    assert run("bench", "II1", "--reps", "1", "--out-dir", "out") == EXIT_OK
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["hyperparameters"]["n_it"] == 20000
    assert report["instances"]["II1"]["reference_radius"] is None


def test_bench_budget_defaults_to_the_suite_of_the_instance(monkeypatch, capsys):
    budgets = []

    def no_runs(instances, reps, hp, jobs=1):
        budgets.append(hp.n_it)
        return [], {"instances": {}}

    monkeypatch.setattr(cli, "run_bench", no_runs)
    for selector in ("I10", "II1", "suite1", "suite2"):
        assert run("bench", selector, "--reps", "1") == EXIT_INFEASIBLE
    assert budgets == [20000, 15000, 20000, 15000]
    capsys.readouterr()


def test_bench_gap_is_signed(monkeypatch, capsys):
    # 59.80 beats I1's published 59.85; 62.8425 is 5% above it.
    def two_entries(instances, reps, hp, jobs=1):
        entries = {
            name: {"best_radius": best, "median_radius": best, "feasible_runs": 1, "reference_radius": 59.85}
            for name, best in (("below", 59.80), ("above", 62.8425))
        }
        return [], {"instances": entries}

    monkeypatch.setattr(cli, "run_bench", two_entries)
    assert run("bench", "I1", "--reps", "1") == EXIT_OK
    below, above = capsys.readouterr().out.splitlines()
    assert below.endswith("  (-0.08% vs 59.85)")
    assert above.endswith("  (+5.00% vs 59.85)")


def test_solve_reports_infeasible_runs(tmp_path, capsys):
    inst = ProblemInstance("deeppair", radii=[10.0, 10.0], masses=[1.0, 1.0])
    path = tmp_path / "deeppair.txt"
    path.write_text(format_instance(inst), encoding="utf-8")
    out_json = tmp_path / "failed.json"
    out_svg = tmp_path / "failed.svg"
    code = run(
        "solve", str(path), "--iters", "1", "--seed", "6",
        "--out-json", str(out_json), "--out-svg", str(out_svg),
    )
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "no feasible layout" in err
    # The result JSON still documents the failed run; the SVG is skipped.
    assert json.loads(out_json.read_text(encoding="utf-8"))["feasible"] is False
    assert not out_svg.exists()


def test_solve_rejects_unknown_instances(capsys):
    assert run("solve", "nosuch") == EXIT_USAGE
    assert "neither a readable file nor an embedded instance" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_usage_errors_exit_with_2(tmp_path, capsys):
    assert run("solve") == EXIT_USAGE
    assert run("nosuchcommand") == EXIT_USAGE
    assert run("solve", "I1", "--iters", "0") == EXIT_USAGE
    broken = tmp_path / "broken.txt"
    broken.write_text("not a header\n", encoding="utf-8")
    assert run("solve", str(broken)) == EXIT_USAGE
    capsys.readouterr()
    # v_max near the float limit passes validation; the first tick overflows.
    assert run("solve", "I1", "--vmax", "1e308") == EXIT_USAGE
    assert "non-finite at iteration 1 " in capsys.readouterr().err
    assert run("solve", "I1", "--vmax", "-1", "--iters", "0") == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: v_max must be a positive finite number, got -1.0; n_it must be a positive integer, got 0\n"
    )
    # A history of 10**23 rows fails on its shape, before any memory is touched.
    assert run("solve", "I1", "--iters", str(10**23)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: n_it ")


def test_every_tunable_is_a_flag():
    parser = argparse.ArgumentParser()
    cli._add_hp_flags(parser)
    flags = [action.option_strings[0] for action in parser._actions if action.dest != "help"]
    # 3 differs from every default, and 3 <= 3 keeps s_min <= s_max.
    hp = cli._hyperparameters(parser.parse_args([token for flag in flags for token in (flag, "3")]))
    default = Hyperparameters()
    unset = [f.name for f in fields(hp) if f.name != "seed" and getattr(hp, f.name) == getattr(default, f.name)]
    assert unset == []


@pytest.mark.parametrize("flags", [("--vmax", "-1"), ("--iters", "0")])
def test_rejected_flags_leave_no_trace_file(tmp_path, capsys, flags):
    trace = tmp_path / "t.csv"
    assert run("solve", "I1", *flags, "--trace-csv", str(trace)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not trace.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_stopped_run_writes_no_trace_file(tmp_path, capsys):
    # The layout turns non-finite at the first tick; the CSV is written
    # only after a run completes.
    trace = tmp_path / "t.csv"
    assert run("solve", "I1", "--vmax", "1e308", "--trace-csv", str(trace)) == EXIT_USAGE
    assert "non-finite at iteration 1 " in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_speed_overflow_exits_with_2(capsys):
    # Finite forces times dt=1e200 overflow the speed; the run stops at once
    # instead of freezing the swarm and reporting no feasible layout.
    assert run("solve", "I1", "--dt", "1e200", "--iters", "50") == EXIT_USAGE
    assert "error: iteration 1: speed overflowed to inf" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_far_edge_overflow_exits_with_2(capsys):
    # Speeds and the gravity center stay finite, but the swarm drifts until
    # a circle's origin distance overflows: the run stops on its far edge.
    assert run("solve", "I1", "--fmax", "1e300", "--vmax", "5e154", "--iters", "300") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "non-finite at iteration 34 (farthest edge inf, gravity-center offset 1.3" in err


def test_instances_list_and_show(capsys):
    assert run("instances", "list") == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("I1")
    assert run("instances", "show", "I1") == EXIT_OK
    assert capsys.readouterr().out == format_instance(CORPUS.get("I1"))
    assert run("instances", "show", "I99") == EXIT_USAGE
    known = ", ".join(CORPUS.names())
    assert capsys.readouterr().err == f"error: unknown instance 'I99' (known: {known})\n"


def test_bench_writes_report_and_runs(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code = run(
        "bench", "I1", "--reps", "2", "--iters", "300",
        "--out-dir", str(out_dir),
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "I1: best" in stdout

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["repetitions"] == 2
    hp = report["hyperparameters"]
    assert set(hp) == {"f_max", "v_max", "alpha", "s_max", "s_min", "c", "n_it", "dt"}
    assert hp["n_it"] == 300
    entry = report["instances"]["I1"]
    assert entry["circles"] == 10
    assert entry["reference_radius"] == 59.85
    assert entry["feasible_runs"] == 2
    assert entry["best_radius"] <= entry["median_radius"]
    assert set(entry["robustness"]) == {"0.1", "0.05", "0.01", "0.005"}
    assert entry["robustness"]["0.1"] >= 1
    assert len(entry["runs"]) == 2
    assert {r["seed"] for r in entry["runs"]} == {0, 1}

    with open(out_dir / "runs.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[0][0] == "instance"
    assert {row[1] for row in rows[1:]} == {"0", "1"}


def test_runs_csv_agrees_with_the_report_run_by_run(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    assert run("bench", "I1", "--reps", "2", "--iters", "400", "--out-dir", str(out_dir)) == EXIT_OK
    capsys.readouterr()
    runs = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["instances"]["I1"]["runs"]
    with open(out_dir / "runs.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(runs) == 2
    for row, entry in zip(rows, runs):
        assert row["instance"] == "I1"
        assert row["seed"] == str(entry["seed"])
        assert row["feasible"] == "true" and entry["feasible"] is True
        assert row["best_radius"] == repr(entry["best_radius"])
        assert row["best_iteration"] == str(entry["best_iteration"])
        assert [row[f"milestone_{key}"] for key in entry["milestones"]] == [
            str(value) for value in entry["milestones"].values()
        ]


def test_bench_seed_offsets_the_repetitions(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    assert run("bench", "I1", "--reps", "2", "--iters", "300", "--seed", "5", "--out-dir", str(out_dir)) == EXIT_OK
    capsys.readouterr()
    runs = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["instances"]["I1"]["runs"]
    assert [entry["seed"] for entry in runs] == [5, 6]
    with open(out_dir / "runs.csv", encoding="utf-8") as fh:
        assert [row["seed"] for row in csv.DictReader(fh)] == ["5", "6"]


def test_runs_csv_columns_follow_run_summary():
    # A threshold a run never reached (possible against a foreign radius) is None.
    milestones = {**dict.fromkeys(map(str, MILESTONE_THRESHOLDS)), "0.1": 10}
    summary = bench.RunSummary("I1", 3, True, 61.5, 900, milestones, 0.25)
    buffer = io.StringIO()
    bench.write_runs_csv(buffer, [summary])
    header, row = buffer.getvalue().splitlines()
    spread = [f"milestone_{p}" for p in MILESTONE_THRESHOLDS]
    assert header.split(",") == ["instance", "seed", "feasible", "best_radius", "best_iteration", *spread, "wall_time"]
    assert row.split(",")[:7] == ["I1", "3", "true", "61.5", "900", "10", ""]
    assert row.split(",")[-1] == "0.25"


def test_bench_starts_no_more_workers_than_runs(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
    summaries, _ = run_bench([CORPUS.get("I1")], 2, Hyperparameters(n_it=50), jobs=64)
    assert started == [2]
    assert [s.seed for s in summaries] == [0, 1]


def test_run_bench_rejects_repeated_names(monkeypatch):
    solves = []
    monkeypatch.setattr(bench, "solve", lambda *args: solves.append(args))
    twins = [
        ProblemInstance("dup", radii=[1.0, 2.0], masses=[1.0, 1.0]),
        ProblemInstance("dup", radii=[1.0, 2.0, 3.0], masses=[1.0, 1.0, 1.0]),
    ]
    with pytest.raises(InvalidInputError, match="repeated: dup"):
        run_bench(twins, 2, Hyperparameters(n_it=50))
    assert solves == []


def test_bench_report_is_seed_deterministic(tmp_path):
    reports = []
    for case in ("x", "y"):
        out_dir = tmp_path / case
        assert run("bench", "I1", "--reps", "2", "--iters", "200", "--out-dir", str(out_dir)) == EXIT_OK
        data = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        for entry in data["instances"].values():
            for row in entry["runs"]:
                row.pop("wall_time")
        reports.append(data)
    assert reports[0] == reports[1]


def test_bench_jobs_match_the_serial_run():
    # The process pool must give the serial summaries and report, wall times aside.
    outputs = []
    for jobs in (1, 2):
        summaries, report = run_bench([CORPUS.get("I1")], 2, Hyperparameters(n_it=400), jobs=jobs)
        for entry in report["instances"].values():
            for row in entry["runs"]:
                row["wall_time"] = 0.0
        outputs.append(([replace(s, wall_time=0.0) for s in summaries], format_json(report)))
    assert outputs[0] == outputs[1]


def test_bench_rejects_bad_reps(capsys):
    assert run("bench", "I1", "--reps", "0") == EXIT_USAGE
    capsys.readouterr()


def test_bench_rejects_bad_jobs(capsys):
    for jobs in ("0", "-3"):
        assert run("bench", "I1", "--reps", "1", "--jobs", jobs) == EXIT_USAGE
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err


def test_export_round_trips_a_result(tmp_path, capsys):
    result_path = tmp_path / "run.json"
    svg_path = tmp_path / "run.svg"
    assert run("solve", "I1", "--iters", "300", "--out-json", str(result_path)) == EXIT_OK
    assert run("export", "--result", str(result_path), "--svg", str(svg_path)) == EXIT_OK
    assert svg_path.read_bytes().startswith(b"<svg")
    capsys.readouterr()


def test_svg_escapes_the_instance_name(tmp_path, capsys):
    inst = ProblemInstance("A<b&c", radii=[1.0, 1.5, 2.0], masses=[2.0, 1.0, 3.0])
    inst_path = tmp_path / "markup.txt"
    inst_path.write_text(format_instance(inst), encoding="utf-8")
    svg_path = tmp_path / "markup.svg"
    assert run("solve", str(inst_path), "--iters", "300", "--out-svg", str(svg_path)) == EXIT_OK
    title = minidom.parse(str(svg_path)).getElementsByTagName("title")[0]
    assert title.firstChild.data == "A<b&c"
    capsys.readouterr()


def test_export_refuses_infeasible_results(tmp_path, capsys):
    inst = ProblemInstance("deeppair", radii=[10.0, 10.0], masses=[1.0, 1.0])
    inst_path = tmp_path / "deeppair.txt"
    inst_path.write_text(format_instance(inst), encoding="utf-8")
    result_path = tmp_path / "failed.json"
    svg_path = tmp_path / "failed.svg"
    assert run("solve", str(inst_path), "--iters", "1", "--seed", "6", "--out-json", str(result_path)) == EXIT_INFEASIBLE
    assert run("export", "--result", str(result_path), "--svg", str(svg_path)) == EXIT_INFEASIBLE
    assert not svg_path.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, document, fragment",
    [
        ("solve", {"name": "x", "circles": [{"radius": "abc", "mass": 1}]}, "circle 0: radius"),
        ("solve", {"name": "x", "circles": [{"radius": True, "mass": 1}]}, "circle 0: radius"),
        ("solve", {"name": "x", "circles": [{"radius": 10**400, "mass": 1}]}, "circle 0: radius"),
        ("export", {"best_radius": "abc"}, "best_radius"),
        ("export", {"positions": [[0]]}, "position 0"),
        ("solve", {"name": None, "circles": [{"radius": 1, "mass": 1}]}, "'name'"),
        ("export", {"feasible": "no"}, "feasible"),
        ("export", {"instance": {"k": [1]}}, "instance"),
        ("export", {"radii": [-5.0]}, "radius"),
        ("export", {"masses": [0.0]}, "mass"),
        ("export", {"instance": "two words"}, "name"),
        ("export", {"instance": ""}, "name"),
    ],
)
def test_malformed_json_inputs_exit_with_2(tmp_path, capsys, command, document, fragment):
    path = tmp_path / "input.json"
    if command == "solve":
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = ("solve", str(path), "--iters", "1")
    else:
        result = {"instance": "x", "radii": [1.0], "masses": [1.0], "feasible": True,
                  "best_radius": 1.0, "positions": [[0.0, 0.0]], **document}
        path.write_text(json.dumps(result), encoding="utf-8")
        argv = ("export", "--result", str(path), "--svg", str(tmp_path / "x.svg"))
    assert run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and len(err.splitlines()) == 1
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("command", ["solve", "export"])
@pytest.mark.parametrize(
    "suffix, payload",
    [pytest.param(".txt", b"\xff", id="not-utf8"), pytest.param(".json", b"[" * 200000, id="deep-json")],
)
def test_unreadable_inputs_exit_with_2(tmp_path, capsys, command, suffix, payload):
    # Bytes that are not UTF-8, and JSON nested past the parser's recursion limit.
    path = tmp_path / f"input{suffix}"
    path.write_bytes(payload)
    if command == "solve":
        argv = ("solve", str(path), "--iters", "1")
    else:
        argv = ("export", "--result", str(path), "--svg", str(tmp_path / "x.svg"))
    assert run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "x.svg").exists()


def test_missing_result_file_is_a_usage_error(tmp_path, capsys):
    assert run("export", "--result", str(tmp_path / "absent.json"), "--svg", str(tmp_path / "x.svg")) == EXIT_USAGE
    capsys.readouterr()
