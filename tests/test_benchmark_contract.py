"""The benchmark's per-layer trace keeps working against this library.

``perfbench/tracer.py`` wraps library functions at the names their callers
look them up by (``PATCHES``). A renamed or removed name leaves its layer
without calls, and the benchmark then reports it absent. This test reads
the tracer by path and edits nothing under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from swarmpack import bench, cli
from swarmpack.corpus import CORPUS
from swarmpack.instance_io import format_instance
from swarmpack.model import Hyperparameters

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_called(tmp_path):
    tracer = load_tracer()
    instance = CORPUS.get("I1")
    path = tmp_path / "I1.txt"
    path.write_text(format_instance(instance), encoding="utf-8")
    # 400 iterations: I1 is still infeasible after 50, and only a feasible
    # run reaches the milestone, ratchet and SVG layers.
    with tracer.Tracer() as tr:
        summaries, _ = bench.run_bench([instance], 1, Hyperparameters(n_it=400), jobs=1)
        code = cli.main([
            "solve", str(path), "--iters", "400",
            "--out-json", str(tmp_path / "run.json"),
            "--trace-csv", str(tmp_path / "trace.csv"),
            "--out-svg", str(tmp_path / "run.svg"),
        ])
    assert tr.missing == []
    assert summaries[0].feasible and code == cli.EXIT_OK
    calls = {span: stat["calls"] for span, stat in tr.summarise().items()}
    uncalled = sorted({span for _, _, span in tracer.PATCHES if not calls.get(span)})
    assert uncalled == []
    # The pair probe reads N from the first positional argument.
    assert all(total == 45 for _, total in tr.samples["forces.find_overlap_pairs"])
