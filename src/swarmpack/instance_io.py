"""Reading and writing instances, results, and iteration traces.

Instance text format: a header line ``name N`` followed by N lines of
``radius mass``. The JSON alternative mirrors it as
``{"name": ..., "circles": [{"radius": ..., "mass": ...}, ...]}``. Result
JSON captures everything needed to re-render or re-run a layout. All float
formatting round-trips exactly (shortest repr), and writers emit keys in
sorted order so identical runs serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import IO, Optional

import numpy as np

from .forces import EPSILON
from .model import History, InvalidInputError, ProblemInstance, SolveResult, finite_number
from .solver import convergence_milestones, overlap_tolerance


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


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _circles_instance(name_key: str, name, radii: list, masses: list) -> ProblemInstance:
    """The instance a document spells out; ``name_key`` labels a name that is not a string."""
    if not isinstance(name, str):
        raise ParseError(f"{name_key} must be a string, got {name!r}")
    for pos, circle in enumerate(zip(radii, masses)):
        for key, value in zip(("radius", "mass"), circle):
            if finite_number(value) is None:
                raise ParseError(f"circle {pos}: {key} must be a finite number, got {value!r}")
    try:
        return ProblemInstance(name=name, radii=radii, masses=masses)
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from None


def parse_instance_json(text: str) -> ProblemInstance:
    data = _parse_json(text)
    if not isinstance(data, dict) or "name" not in data or "circles" not in data:
        raise ParseError("instance JSON must be an object with 'name' and 'circles'")
    circles = data["circles"]
    if not isinstance(circles, list) or not circles:
        raise ParseError("'circles' must be a non-empty list")
    for pos, entry in enumerate(circles):
        if not isinstance(entry, dict) or "radius" not in entry or "mass" not in entry:
            raise ParseError(f"circle {pos}: expected an object with 'radius' and 'mass'")
    radii = [entry["radius"] for entry in circles]
    masses = [entry["mass"] for entry in circles]
    return _circles_instance("'name'", data["name"], radii, masses)


def read_text(path: str) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 raise ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_instance(path: str) -> ProblemInstance:
    """Parse a file, dispatching on the .json suffix."""
    text = read_text(path)
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
        "hyperparameters": {**hp.tunables(), "epsilon": EPSILON, "overlap_tol": overlap_tolerance(instance)},
        "feasible": result.feasible,
        "best_radius": result.best_radius,
        "best_iteration": result.best_iteration,
        "positions": None if result.best_positions is None else result.best_positions.tolist(),
        "milestones": convergence_milestones(result.history, result.best_radius) if result.feasible else None,
    }


def format_json(document) -> str:
    """The JSON dialect of every file swarmpack writes: sorted keys, indent 2, final newline."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def format_result_json(result: SolveResult) -> str:
    return format_json(result_to_dict(result))


def parse_result(text: str) -> Optional[tuple[ProblemInstance, np.ndarray, float]]:
    """The layout a result JSON document records, for re-rendering.

    Returns ``(instance, positions, best_radius)``, positions as an (N, 2)
    float array, or None for an infeasible result. Every result must name
    circles that make a valid ProblemInstance and give ``feasible`` as a JSON
    bool. A feasible result must also carry a positive finite
    ``best_radius`` and two finite numbers per position; whether the layout
    is a valid packing is not checked.
    """
    data = _parse_json(text)
    if not isinstance(data, dict):
        raise ParseError("result JSON must be an object")
    for key in ("instance", "radii", "masses", "feasible", "best_radius", "positions"):
        if key not in data:
            raise ParseError(f"result JSON is missing {key!r}")
    radii = data["radii"]
    masses = data["masses"]
    if not isinstance(radii, list) or not isinstance(masses, list) or len(radii) != len(masses):
        raise ParseError("radii and masses must be lists of equal length")
    instance = _circles_instance("instance", data["instance"], radii, masses)
    if not isinstance(data["feasible"], bool):
        raise ParseError(f"feasible must be true or false, got {data['feasible']!r}")
    if not data["feasible"]:
        return None
    best = finite_number(data["best_radius"])
    if best is None or best <= 0.0:
        raise ParseError(f"best_radius must be a positive finite number, got {data['best_radius']!r}")
    positions = data["positions"]
    if not isinstance(positions, list) or len(positions) != len(radii):
        raise ParseError("positions must list one [x, y] per circle")
    for k, point in enumerate(positions):
        if not (isinstance(point, list) and len(point) == 2 and all(finite_number(x) is not None for x in point)):
            raise ParseError(f"position {k} must be two finite numbers, got {point!r}")
    return instance, np.array(positions, dtype=float), best


TRACE_COLUMNS = ("iteration", *History._fields, "feasible")
_ACTUAL_CELL = History._fields.index("actual_radius")
# Rows formatted and written per fh.write: the writer's memory is one
# block's strings, whatever the number of iterations.
TRACE_BLOCK = 1024


class TraceCsvWriter:
    """Writes a run's history to CSV, one row per iteration.

    A row is the iteration and its History values as Python floats, in
    field order; a NaN value (``actual_radius`` on an infeasible row) leaves
    its cell empty, and ``feasible`` says whether ``actual_radius`` is set.
    Each call takes a History, or a slice of one (every column sliced
    alike), and writes its rows TRACE_BLOCK at a time; the iteration numbers
    continue from the previous call, so a run can be written in pieces.
    """

    def __init__(self, fh: IO[str]):
        self._fh = fh
        self._iteration = 1
        fh.write(",".join(TRACE_COLUMNS) + "\n")

    def __call__(self, history: History) -> None:
        rows = len(history[0])
        for start in range(0, rows, TRACE_BLOCK):
            stop = start + TRACE_BLOCK
            # v != v holds only for NaN. Each value is formatted on its own:
            # -0.0 == 0.0, so a cache keyed on the value would lose the sign.
            # No float repr holds a comma or a quote, so no cell needs quoting.
            cells = [["" if v != v else repr(v) for v in column[start:stop].tolist()] for column in history]
            feasible = ["true" if cell else "false" for cell in cells[_ACTUAL_CELL]]
            first = self._iteration + start
            iterations = map(str, range(first, first + len(feasible)))
            self._fh.write("\n".join(map(",".join, zip(iterations, *cells, feasible))) + "\n")
        self._iteration += rows
