"""Reading and writing instances, results, and iteration traces.

Instance text format: a header line ``name N`` followed by N lines of
``radius mass``. The JSON alternative mirrors it as
``{"name": ..., "circles": [{"radius": ..., "mass": ...}, ...]}``. Result
JSON captures everything needed to re-render or re-run a layout. All float
formatting round-trips exactly (shortest repr), and writers emit keys in
sorted order so identical runs serialize to identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from typing import IO, Optional

from .model import InvalidInputError, ProblemInstance, SolveResult
from .solver import convergence_milestones


class ParseError(InvalidInputError):
    """Malformed instance or result data; the message points at the spot."""


def _format_number(x: float) -> str:
    # Integral values print bare (20, not 20.0); everything else uses the
    # shortest representation that parses back to the same float.
    value = float(x)
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _parse_number(token: str, what: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: {what} {token!r} is not a number") from None
    if not math.isfinite(value) or value <= 0.0:
        raise ParseError(f"line {line_no}: {what} must be positive and finite, got {token}")
    return value


def _finite_number(value) -> Optional[float]:
    # A JSON number as a finite float; None for anything else, bools included.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        return None
    return number if math.isfinite(number) else None


def _checked_instance(name, radii, masses) -> ProblemInstance:
    try:
        return ProblemInstance(name=name, radii=radii, masses=masses)
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from None


def parse_instance(text: str) -> ProblemInstance:
    """Parse the ``name N`` + ``radius mass`` text format."""
    lines = text.splitlines()
    header_no = None
    header = None
    for idx, raw in enumerate(lines, start=1):
        if raw.strip():
            header_no, header = idx, raw.split()
            break
    if header is None:
        raise ParseError("line 1: empty input, expected a 'name N' header")
    if len(header) != 2:
        raise ParseError(f"line {header_no}: header must be 'name N', got {' '.join(header)!r}")
    name, count_token = header
    try:
        count = int(count_token)
    except ValueError:
        raise ParseError(f"line {header_no}: circle count {count_token!r} is not an integer") from None
    if count < 1:
        raise ParseError(f"line {header_no}: circle count must be at least 1, got {count}")

    radii = []
    masses = []
    for idx in range(header_no, len(lines)):
        raw = lines[idx]
        line_no = idx + 1
        fields = raw.split()
        if not fields:
            continue
        if len(radii) == count:
            raise ParseError(f"line {line_no}: expected {count} circle lines, found more")
        if len(fields) != 2:
            raise ParseError(f"line {line_no}: expected 'radius mass', got {raw.strip()!r}")
        radii.append(_parse_number(fields[0], "radius", line_no))
        masses.append(_parse_number(fields[1], "mass", line_no))
    if len(radii) != count:
        raise ParseError(f"header declares {count} circles but {len(radii)} lines follow")

    return ProblemInstance(name=name, radii=radii, masses=masses)


def format_instance(instance: ProblemInstance) -> str:
    lines = [f"{instance.name} {instance.n}"]
    for radius, mass in instance.circles():
        lines.append(f"{_format_number(radius)} {_format_number(mass)}")
    return "\n".join(lines) + "\n"


def parse_instance_json(text: str) -> ProblemInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "name" not in data or "circles" not in data:
        raise ParseError("instance JSON must be an object with 'name' and 'circles'")
    circles = data["circles"]
    if not isinstance(circles, list) or not circles:
        raise ParseError("'circles' must be a non-empty list")
    radii = []
    masses = []
    for pos, entry in enumerate(circles):
        if not isinstance(entry, dict) or "radius" not in entry or "mass" not in entry:
            raise ParseError(f"circle {pos}: expected an object with 'radius' and 'mass'")
        for key, values in (("radius", radii), ("mass", masses)):
            value = _finite_number(entry[key])
            if value is None:
                raise ParseError(f"circle {pos}: {key} must be a finite number, got {entry[key]!r}")
            values.append(value)
    name = data["name"]
    if not isinstance(name, str):
        raise ParseError(f"'name' must be a string, got {name!r}")
    return _checked_instance(name, radii, masses)


def load_instance(path: str) -> ProblemInstance:
    """Parse a file, dispatching on the .json suffix."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        return parse_instance_json(text)
    return parse_instance(text)


def result_to_dict(result: SolveResult) -> dict:
    hp = result.hyperparameters
    instance = result.instance
    return {
        "instance": instance.name,
        "radii": instance.radii.tolist(),
        "masses": instance.masses.tolist(),
        "seed": hp.seed,
        "hyperparameters": {**hp.tunables(), "overlap_tol": hp.resolved_overlap_tol(instance)},
        "feasible": result.feasible,
        "best_radius": result.best_radius,
        "best_iteration": result.best_iteration,
        "positions": None if result.best_positions is None else result.best_positions.tolist(),
        "milestones": convergence_milestones(result.history, result.best_radius) if result.feasible else None,
    }


def format_result_json(result: SolveResult) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True, indent=2) + "\n"


def parse_result_dict(text: str) -> dict:
    """Light validation of a result JSON document, for re-rendering.

    ``instance`` must be a string and ``feasible`` a JSON bool. A feasible
    result must carry a positive finite ``best_radius``, two finite numbers
    per position, and circles and a name that make a valid ProblemInstance;
    whether the layout is a valid packing is not checked.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("result JSON must be an object")
    for key in ("instance", "radii", "masses", "feasible", "best_radius", "positions"):
        if key not in data:
            raise ParseError(f"result JSON is missing {key!r}")
    radii = data["radii"]
    masses = data["masses"]
    if not isinstance(radii, list) or not isinstance(masses, list) or len(radii) != len(masses):
        raise ParseError("radii and masses must be lists of equal length")
    if not isinstance(data["instance"], str):
        raise ParseError(f"instance must be a string, got {data['instance']!r}")
    if not isinstance(data["feasible"], bool):
        raise ParseError(f"feasible must be true or false, got {data['feasible']!r}")
    if data["feasible"]:
        best = _finite_number(data["best_radius"])
        if best is None or best <= 0.0:
            raise ParseError(f"best_radius must be a positive finite number, got {data['best_radius']!r}")
        positions = data["positions"]
        if not isinstance(positions, list) or len(positions) != len(radii):
            raise ParseError("positions must list one [x, y] per circle")
        for k, point in enumerate(positions):
            if not (isinstance(point, list) and len(point) == 2 and all(_finite_number(x) is not None for x in point)):
                raise ParseError(f"position {k} must be two finite numbers, got {point!r}")
        for k, (radius, mass) in enumerate(zip(radii, masses)):
            if _finite_number(radius) is None or _finite_number(mass) is None:
                raise ParseError(f"circle {k}: radius and mass must be finite numbers, got {radius!r} and {mass!r}")
        _checked_instance(data["instance"], radii, masses)
    return data


TRACE_COLUMNS = ("iteration", "target_radius", "actual_radius", "overlap", "cg_violation", "feasible")


class TraceCsvWriter:
    """Writes a run's history to CSV, one call and one row per iteration.

    A row is the History columns at that iteration, as Python floats; an
    infeasible row (NaN ``actual_radius``) leaves that cell empty.
    """

    def __init__(self, fh: IO[str]):
        self._writer = csv.writer(fh, lineterminator="\n")
        self._writer.writerow(TRACE_COLUMNS)

    def __call__(
        self, iteration: int, target_radius: float, actual_radius: float, overlap: float, cg_violation: float
    ) -> None:
        feasible = not math.isnan(actual_radius)
        self._writer.writerow(
            (
                iteration,
                repr(target_radius),
                repr(actual_radius) if feasible else "",
                repr(overlap),
                repr(cg_violation),
                "true" if feasible else "false",
            )
        )
