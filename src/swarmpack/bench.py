"""Repeated-seed benchmark harness with milestone and robustness statistics.

Runs one instance (or a whole suite) over seeds 0..reps-1, then aggregates:
best/median radius, how many runs landed within 10/5/1/0.5 percent of the
best run, and the mean iteration at which each convergence milestone fell.
Everything except wall times is deterministic in (instances, reps, hp).
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import IO, Optional, Sequence

from .corpus import CORPUS
from .model import Hyperparameters, ProblemInstance
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
    or null for an instance the corpus does not know.

    Tasks are dispatched to a process pool when jobs > 1; summaries come
    back in (instance, seed) order either way.
    """
    task_instances = [inst for inst in instances for _ in range(reps)]
    task_hps = [replace(hp, seed=seed) for _ in instances for seed in range(reps)]
    if jobs > 1 and len(task_hps) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(run_single, task_instances, task_hps))
    else:
        summaries = list(map(run_single, task_instances, task_hps))

    report: dict = {"repetitions": reps, "hyperparameters": hp.tunables(), "instances": {}}
    for inst in instances:
        rows = [s for s in summaries if s.instance == inst.name]
        feasible = [s for s in rows if s.feasible]
        radii = [s.best_radius for s in feasible]
        entry: dict = {
            "circles": inst.n,
            "reference_radius": CORPUS.reference_radii.get(inst.name),
            "feasible_runs": len(feasible),
            "best_radius": min(radii) if radii else None,
            "median_radius": statistics.median(radii) if radii else None,
            "robustness": None,
            "milestone_mean_iterations": None,
            "runs": [
                {
                    "seed": s.seed,
                    "feasible": s.feasible,
                    "best_radius": s.best_radius,
                    "best_iteration": s.best_iteration,
                    "milestones": s.milestones,
                    "wall_time": s.wall_time,
                }
                for s in rows
            ],
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


def format_report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


CSV_COLUMNS = (
    "instance",
    "seed",
    "feasible",
    "best_radius",
    "best_iteration",
    *(f"milestone_{p}" for p in MILESTONE_THRESHOLDS),
    "wall_time",
)


def write_runs_csv(fh: IO[str], summaries: Sequence[RunSummary]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in summaries:
        writer.writerow(
            (
                s.instance,
                s.seed,
                "true" if s.feasible else "false",
                "" if s.best_radius is None else repr(s.best_radius),
                "" if s.best_iteration is None else s.best_iteration,
                *(s.milestones.values() if s.milestones else [""] * len(MILESTONE_THRESHOLDS)),
                f"{s.wall_time:.3f}",
            )
        )
