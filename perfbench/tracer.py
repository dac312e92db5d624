"""Outside-in span tracer for swarmpack.

Every public function of interest is replaced, for the duration of a
``with Tracer() as tr:`` block, by a wrapper installed at the name its
caller looks up (``swarmpack.solver.total_overlap``, not
``swarmpack.geometry.total_overlap``), so no library code changes. Each call
records one span (name, start, end, parent) into flat arrays kept in memory;
``save`` writes them out and ``summarise`` derives per-layer figures.

A name that no longer exists where it is looked up is skipped, and the layer
then reports zero calls: the benchmark prints such a layer as absent.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute looked up there, span name). Class attributes are
# written "Class.method". Order only matters for readability.
PATCHES = (
    ("swarmpack.cli", "main", "cli.main"),
    ("swarmpack.cli", "load_instance", "instance_io.load_instance"),
    ("swarmpack.cli", "format_result_json", "instance_io.format_result_json"),
    ("swarmpack.cli", "export_svg", "svg.export_svg"),
    ("swarmpack.cli", "solve", "solver.solve"),
    ("swarmpack.instance_io", "TraceCsvWriter.__call__", "instance_io.trace_row"),
    ("swarmpack.instance_io", "format_result_json", "instance_io.format_result_json"),
    ("swarmpack.instance_io", "convergence_milestones", "solver.convergence_milestones"),
    ("swarmpack.bench", "run_bench", "bench.run_bench"),
    ("swarmpack.bench", "solve", "solver.solve"),
    ("swarmpack.bench", "convergence_milestones", "solver.convergence_milestones"),
    ("swarmpack.solver", "solve", "solver.solve"),
    ("swarmpack.solver", "initial_state", "init.initial_state"),
    ("swarmpack.solver", "assemble_forces", "forces.assemble_forces"),
    ("swarmpack.solver", "integrate_step", "dynamics.integrate_step"),
    ("swarmpack.solver", "total_overlap", "geometry.total_overlap"),
    ("swarmpack.solver", "center_of_gravity", "geometry.center_of_gravity"),
    ("swarmpack.solver", "enclosing_radius", "geometry.enclosing_radius"),
    ("swarmpack.forces", "find_overlap_pairs", "forces.find_overlap_pairs"),
    ("swarmpack.forces", "center_of_gravity", "geometry.center_of_gravity"),
    ("swarmpack.schedule", "ContainerSchedule.on_feasible", "schedule.on_feasible"),
    ("swarmpack.schedule", "ContainerSchedule.on_infeasible", "schedule.on_infeasible"),
)


def _pair_count(args, result):
    # Directed (i, j) rows come in both orders; count unordered pairs.
    n = args[0].shape[0]
    return result.shape[0] // 2, n * (n - 1) // 2


def _stagnating(args, result):
    return args[0].stagnation_active


# Values sampled from a call's arguments and result, kept per span name.
PROBES = {
    "forces.find_overlap_pairs": _pair_count,
    "schedule.on_infeasible": _stagnating,
}


class Tracer:
    """Span recorder; install with ``with``, read after the block."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.samples: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, span in PATCHES:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(f"{module}.{attr}")
                continue
            original = getattr(owner, leaf)
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()
        return False

    def _wrap(self, fn, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        probe = PROBES.get(span)
        samples = self.samples[span]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                samples.append(probe(args, result))
            return result

        return traced

    def count(self) -> int:
        """Spans recorded so far."""
        return len(self.start)

    @staticmethod
    def span_cost_ns(calls: int = 20000, blocks: int = 15) -> float:
        """Median extra nanoseconds one traced call costs over a plain call.

        Plain and traced blocks of a three-argument no-op alternate, so the
        host's speed drift hits both alike.
        """
        def noop(a, b, c):
            return a

        traced = Tracer()._wrap(noop, "calibration")
        clock = time.perf_counter_ns
        extra = []
        for _ in range(blocks):
            per_call = []
            for fn in (noop, traced):
                started = clock()
                for i in range(calls):
                    fn(i, None, None)
                per_call.append((clock() - started) / calls)
            extra.append(per_call[1] - per_call[0])
        return statistics.median(extra)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path_stem: str) -> None:
        """Write the spans as ``<stem>.npz`` and the span names as ``<stem>.json``."""
        np.savez_compressed(path_stem + ".npz", **self.columns())
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "missing_patches": self.missing}, fh, indent=2)

    def summarise(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total inclusive and self nanoseconds.

        Self time is the span minus its direct children; spans nest
        strictly because the benchmark runs on one thread.
        """
        cols = self.columns()
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        out = {}
        for nid, span in enumerate(self.names):
            mask = cols["name"] == nid
            out[span] = {
                "calls": int(mask.sum()),
                "total_ns": float(dur[mask].sum()),
                "self_ns": float((dur[mask] - child[mask]).sum()),
            }
        return out

    def child_ns(self, parent_span: str, span: str) -> float:
        """Summed duration of ``span`` calls made directly by a ``parent_span`` call."""
        aid, sid = self._ids.get(parent_span), self._ids.get(span)
        if aid is None or sid is None:
            return 0.0
        cols = self.columns()
        names, parent = cols["name"], cols["parent"]
        mask = (names == sid) & (parent >= 0)
        mask[mask] = names[parent[mask]] == aid
        return float((cols["end_ns"] - cols["start_ns"])[mask].sum())
