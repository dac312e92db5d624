"""Command-line interface: solve, bench, export, instances.

Exit codes: 0 on success, 1 when the solver finds no feasible layout (or an
export is asked for one), 2 for usage and parse errors and for a layout that
turns non-finite.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Optional

from .bench import run_bench, write_runs_csv
from .corpus import CORPUS, UnknownInstanceError
from .instance_io import (
    ParseError,
    TraceCsvWriter,
    format_instance,
    format_json,
    format_result_json,
    load_instance,
    parse_result,
    read_text,
)
from .model import Hyperparameters, InvalidInputError, ProblemInstance
from .solver import solve
from .svg import export_svg, render_svg

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2

# Iteration budgets the benchmarks are quoted at.
SUITE_ITERATIONS = {"suite1": 20000, "suite2": 15000}


def _add_hp_flags(parser: argparse.ArgumentParser) -> None:
    # Each flag stores under its Hyperparameters field; one left unset keeps the library default.
    parser.add_argument("--iters", dest="n_it", type=int, help="iteration budget (n_it)")
    parser.add_argument("--seed", type=int, help="run seed (default 0)")
    parser.add_argument("--fmax", dest="f_max", type=float, help="resultant force cap")
    parser.add_argument("--vmax", dest="v_max", type=float, help="speed cap / push magnitude")
    parser.add_argument("--alpha", type=float, help="gravity-center pull weight")
    parser.add_argument("--smax", dest="s_max", type=float, help="largest container shrink step")
    parser.add_argument("--smin", dest="s_min", type=float, help="smallest container shrink step")
    parser.add_argument("--c", type=float, help="shrink-step decay rate")
    parser.add_argument("--dt", type=float, help="integration time step")


def _hyperparameters(args, **defaults) -> Hyperparameters:
    """Hyperparameters from every flag that was set, over ``defaults`` and then the library's."""
    given = {f.name: getattr(args, f.name) for f in fields(Hyperparameters) if getattr(args, f.name) is not None}
    return Hyperparameters(**{**defaults, **given})


def _resolve_instance(token: str) -> ProblemInstance:
    if os.path.exists(token):
        return load_instance(token)
    try:
        return CORPUS.get(token)
    except UnknownInstanceError:
        raise ParseError(
            f"{token!r} is neither a readable file nor an embedded instance "
            f"(known: {', '.join(CORPUS.names())})"
        ) from None


def _cmd_solve(args) -> int:
    instance = _resolve_instance(args.instance)
    hp = _hyperparameters(args)

    result = solve(instance, hp)

    if args.trace_csv:
        with open(args.trace_csv, "w", encoding="utf-8", newline="") as fh:
            TraceCsvWriter(fh)(result.history)

    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(format_result_json(result))

    if result.feasible:
        reference = CORPUS.reference_radius(instance)
        against = f"  (published best {reference})" if reference is not None else ""
        print(
            f"{instance.name}: {instance.n} circles packed into radius "
            f"{result.best_radius:.6f} at iteration {result.best_iteration}{against}"
        )
        if args.out_svg:
            with open(args.out_svg, "wb") as fh:
                fh.write(export_svg(result))
        return EXIT_OK

    print(f"{instance.name}: no feasible layout within {hp.n_it} iterations", file=sys.stderr)
    if args.out_svg:
        print(f"skipping {args.out_svg}: nothing to render", file=sys.stderr)
    return EXIT_INFEASIBLE


def _cmd_bench(args) -> int:
    if args.selector in SUITE_ITERATIONS:
        instances = list(CORPUS.suite(args.selector))
        default_iters = SUITE_ITERATIONS[args.selector]
    else:
        instances = [_resolve_instance(args.selector)]
        default_iters = SUITE_ITERATIONS["suite2"] if instances[0] in CORPUS.suite2 else SUITE_ITERATIONS["suite1"]
    if args.reps < 1:
        raise ParseError(f"--reps must be at least 1, got {args.reps}")
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, got {args.jobs}")
    hp = _hyperparameters(args, n_it=default_iters)

    summaries, report = run_bench(instances, args.reps, hp, jobs=args.jobs)

    any_feasible = False
    for name, entry in report["instances"].items():
        if entry["best_radius"] is None:
            print(f"{name}: no feasible run in {args.reps} repetitions")
            continue
        any_feasible = True
        reference = entry["reference_radius"]
        gap = "" if reference is None else f"  ({(entry['best_radius'] / reference - 1) * 100:+.2f}% vs {reference})"
        print(
            f"{name}: best {entry['best_radius']:.4f}  median {entry['median_radius']:.4f}  "
            f"feasible {entry['feasible_runs']}/{args.reps}{gap}"
        )

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        report_path = os.path.join(args.out_dir, "report.json")
        csv_path = os.path.join(args.out_dir, "runs.csv")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(format_json(report))
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            write_runs_csv(fh, summaries)
        print(f"wrote {report_path} and {csv_path}")

    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def _cmd_export(args) -> int:
    layout = parse_result(read_text(args.result))
    if layout is None:
        print(f"{args.result}: result is infeasible, nothing to render", file=sys.stderr)
        return EXIT_INFEASIBLE
    payload = render_svg(*layout)
    with open(args.svg, "wb") as fh:
        fh.write(payload)
    print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_instances(args) -> int:
    if args.action == "list":
        for inst in CORPUS.all_instances:
            reference = CORPUS.reference_radius(inst)
            print(f"{inst.name:<5} {inst.n:>3} circles   published best {reference}")
        return EXIT_OK
    # show
    instance = CORPUS.get(args.name)
    sys.stdout.write(format_instance(instance))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmpack",
        description="Pack weighted circles into the smallest balanced container.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver on one instance")
    p_solve.add_argument("instance", help="instance file path or embedded name (e.g. I1); a file wins over a name")
    _add_hp_flags(p_solve)
    p_solve.add_argument("--out-json", default=None, help="write the result as JSON")
    p_solve.add_argument("--out-svg", default=None, help="render the packed layout as SVG")
    p_solve.add_argument("--trace-csv", default=None, help="write per-iteration records to CSV after the run")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="repeated-seed benchmark over a suite or instance")
    p_bench.add_argument("selector", help="suite1, suite2, an embedded name, or a file path; a file wins over a name")
    p_bench.add_argument("--reps", type=int, required=True, help="repetitions (seeds S..S+K-1 from --seed S)")
    p_bench.add_argument("--jobs", type=int, default=1, help="parallel worker processes (at most one per run)")
    _add_hp_flags(p_bench)
    p_bench.add_argument("--out-dir", default=None, help="directory for report.json and runs.csv")
    p_bench.set_defaults(func=_cmd_bench)

    p_export = sub.add_parser("export", help="render a stored result JSON as SVG")
    p_export.add_argument("--result", required=True, help="result JSON path")
    p_export.add_argument("--svg", required=True, help="output SVG path")
    p_export.set_defaults(func=_cmd_export)

    p_inst = sub.add_parser("instances", help="inspect the embedded benchmark instances")
    inst_sub = p_inst.add_subparsers(dest="action", required=True)
    inst_list = inst_sub.add_parser("list", help="list embedded instances")
    inst_list.set_defaults(func=_cmd_instances, action="list")
    inst_show = inst_sub.add_parser("show", help="print one instance in the text format")
    inst_show.add_argument("name")
    inst_show.set_defaults(func=_cmd_instances, action="show")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
