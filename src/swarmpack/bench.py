"""Repeated-seed benchmark harness with milestone and robustness statistics.

Runs one instance (or a whole suite) over seeds S..S+reps-1, S being the
hyperparameters' seed, then aggregates: best/median radius, how many runs
landed within 10/5/1/0.5 percent of the best run, and the mean iteration at
which each convergence milestone fell.
Everything except wall times is deterministic in (instances, reps, hp).
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import IO, Optional, Sequence

from .corpus import CORPUS
from .model import Hyperparameters, InvalidInputError, ProblemInstance
from .solver import MILESTONE_THRESHOLDS, convergence_milestones, solve

ROBUSTNESS_THRESHOLDS = (0.10, 0.05, 0.01, 0.005)


@dataclass(frozen=True)
class RunSummary:
    instance: str
    seed: int
    feasible: bool
    best_radius: Optional[float]
    best_iteration: Optional[int]
    milestones: Optional[dict]
    wall_time: float


def run_single(instance: ProblemInstance, hp: Hyperparameters) -> RunSummary:
    started = time.perf_counter()
    result = solve(instance, hp)
    wall = time.perf_counter() - started
    return RunSummary(
        instance=instance.name,
        seed=hp.seed,
        feasible=result.feasible,
        best_radius=result.best_radius,
        best_iteration=result.best_iteration,
        milestones=convergence_milestones(result.history, result.best_radius) if result.feasible else None,
        wall_time=wall,
    )


def run_bench(
    instances: Sequence[ProblemInstance],
    reps: int,
    hp: Hyperparameters,
    jobs: int = 1,
) -> tuple[list[RunSummary], dict]:
    """All (instance, seed) runs plus an aggregate report.

    Each instance's entry quotes its published best radius from the corpus,
    or null for an instance that is not an embedded one (a file that only
    shares an embedded name included).

    Tasks are dispatched to a process pool when jobs > 1; summaries come
    back in (instance, seed) order either way. Instances that share a name
    raise InvalidInputError before any run, since the report keys by name.
    """
    names = [inst.name for inst in instances]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InvalidInputError(f"instance names must be distinct in one bench, repeated: {', '.join(repeated)}")
    task_instances = [inst for inst in instances for _ in range(reps)]
    task_hps = [replace(hp, seed=hp.seed + k) for _ in instances for k in range(reps)]
    if jobs > 1 and len(task_hps) > 1:
        # Imported here: multiprocessing would otherwise load into every
        # process that imports the CLI, serial runs included.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all max_workers at the first submit: no more than there are runs.
        with ProcessPoolExecutor(max_workers=min(jobs, len(task_hps))) as pool:
            summaries = list(pool.map(run_single, task_instances, task_hps))
    else:
        summaries = list(map(run_single, task_instances, task_hps))

    report: dict = {"repetitions": reps, "hyperparameters": hp.tunables(), "instances": {}}
    for k, inst in enumerate(instances):
        rows = summaries[k * reps : (k + 1) * reps]
        feasible = [s for s in rows if s.feasible]
        radii = [s.best_radius for s in feasible]
        entry: dict = {
            "circles": inst.n,
            "reference_radius": CORPUS.reference_radius(inst),
            "feasible_runs": len(feasible),
            "best_radius": min(radii) if radii else None,
            "median_radius": statistics.median(radii) if radii else None,
            "robustness": None,
            "milestone_mean_iterations": None,
            # Each run is its RunSummary but the instance, which keys this entry.
            "runs": [{key: value for key, value in asdict(s).items() if key != "instance"} for s in rows],
        }
        if radii:
            best = min(radii)
            entry["robustness"] = {
                str(p): sum(1 for value in radii if value <= (1.0 + p) * best)
                for p in ROBUSTNESS_THRESHOLDS
            }
            entry["milestone_mean_iterations"] = {
                key: statistics.fmean(s.milestones[key] for s in feasible) for key in feasible[0].milestones
            }
        report["instances"][inst.name] = entry
    return summaries, report


def _spread(name: str, value) -> dict:
    # A runs.csv column per RunSummary field; milestones takes one per threshold.
    if name != "milestones":
        return {name: value}
    return {f"milestone_{p}": None if value is None else value[str(p)] for p in MILESTONE_THRESHOLDS}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def write_runs_csv(fh: IO[str], summaries: Sequence[RunSummary]) -> None:
    """A header and one row per summary, in field order: None empty, bools true/false, numbers repr."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(column for f in fields(RunSummary) for column in _spread(f.name, None))
    for s in summaries:
        writer.writerow(
            _csv_cell(value) for f in fields(RunSummary) for value in _spread(f.name, getattr(s, f.name)).values()
        )
