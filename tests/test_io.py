import io
import json
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from swarmpack.corpus import CORPUS
from swarmpack.instance_io import (
    TRACE_BLOCK,
    TRACE_COLUMNS,
    ParseError,
    TraceCsvWriter,
    format_instance,
    format_result_json,
    load_instance,
    parse_instance,
    parse_instance_json,
    parse_result,
    result_to_dict,
)
from swarmpack.model import History, Hyperparameters, ProblemInstance
from swarmpack.solver import overlap_tolerance, solve
from swarmpack.svg import export_svg

from oracles import trace_csv_by_rows


def tiny_result(feasible=True):
    if feasible:
        inst = ProblemInstance("tiny", radii=[1.0, 1.3, 0.8], masses=[2.0, 1.0, 3.0])
        return solve(inst, Hyperparameters(n_it=200, seed=1))
    # Seed 6 drops this pair almost concentric; one tick cannot fix that.
    inst = ProblemInstance("deeppair", radii=[10.0, 10.0], masses=[1.0, 1.0])
    return solve(inst, Hyperparameters(n_it=1, seed=6))


# ----------------------------------------------------------------- text format

def test_embedded_instances_round_trip_through_text():
    for inst in CORPUS.all_instances:
        assert parse_instance(format_instance(inst)) == inst


def test_format_writes_integers_bare():
    inst = ProblemInstance("toy", radii=[2.5, 3.0], masses=[1.0, 4.25])
    assert format_instance(inst) == "toy 2\n2.5 1\n3 4.25\n"


def test_parse_reads_the_embedded_header_format():
    text = format_instance(CORPUS.get("I1"))
    inst = parse_instance(text)
    assert inst.name == "I1"
    assert inst.n == 10
    assert inst.circles()[0] == (20.0, 35.0)


def test_parse_tolerates_blank_lines():
    inst = parse_instance("\n\ntoy 2\n\n1.5 2\n3 4\n\n")
    assert inst.n == 2
    assert inst.circles() == [(1.5, 2.0), (3.0, 4.0)]


def test_fractional_values_survive_a_round_trip():
    inst = ProblemInstance("frac", radii=[0.1, 1.0 / 3.0], masses=[2.5, 7e-3])
    assert parse_instance(format_instance(inst)) == inst


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("   \n\n", "line 1"),
        ("toy", "header"),
        ("toy x", "not an integer"),
        ("toy 0", "at least 1"),
        ("toy 2\n1 1\n", "declares 2"),
        ("toy 1\n1 1\n2 2\n", "line 3"),
        ("toy 1\n1 2 3\n", "radius mass"),
        ("toy 1\na b\n", "not a number"),
        ("toy 1\n-1 1\n", "positive"),
    ],
)
def test_parse_rejects_malformed_text(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


# ----------------------------------------------------------------- json format

def instance_json(instance):
    circles = [{"radius": r, "mass": m} for r, m in instance.circles()]
    return json.dumps({"name": instance.name, "circles": circles})


def test_instance_json_round_trip():
    inst = ProblemInstance("jtoy", radii=[1.5, 2.0], masses=[3.0, 0.25])
    assert parse_instance_json(instance_json(inst)) == inst


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{\"name\": \"x\"}",
        "{\"name\": \"x\", \"circles\": []}",
        "{\"name\": \"x\", \"circles\": [{\"radius\": 1}]}",
        "{\"name\": \"x\", \"circles\": [{\"radius\": 1, \"mass\": -1}]}",
        "{not json",
        "{\"name\": \"x\", \"circles\": [{\"radius\": \"abc\", \"mass\": 1}]}",
        "{\"name\": \"x\", \"circles\": [{\"radius\": true, \"mass\": 1}]}",
        "{\"name\": \"x\", \"circles\": [{\"radius\": 1, \"mass\": null}]}",
        "{\"name\": null, \"circles\": [{\"radius\": 1, \"mass\": 1}]}",
        "{\"name\": \"\", \"circles\": [{\"radius\": 1, \"mass\": 1}]}",
        "{\"name\": \"two words\", \"circles\": [{\"radius\": 1, \"mass\": 1}]}",
        "{\"name\": 7, \"circles\": [{\"radius\": 1, \"mass\": 1}]}",
    ],
)
def test_instance_json_rejects_malformed_documents(text):
    with pytest.raises(ParseError):
        parse_instance_json(text)


def test_load_instance_dispatches_on_suffix(tmp_path):
    inst = ProblemInstance("disk", radii=[1.0, 2.0], masses=[3.0, 4.0])
    text_path = tmp_path / "disk.txt"
    json_path = tmp_path / "disk.json"
    text_path.write_text(format_instance(inst), encoding="utf-8")
    json_path.write_text(instance_json(inst), encoding="utf-8")
    assert load_instance(str(text_path)) == inst
    assert load_instance(str(json_path)) == inst


# ---------------------------------------------------------------- result json

def test_result_dict_carries_the_run():
    result = tiny_result()
    data = result_to_dict(result)
    assert data["instance"] == "tiny"
    assert data["feasible"] is True
    assert data["best_radius"] == result.best_radius
    assert data["seed"] == 1
    assert data["hyperparameters"]["n_it"] == 200
    # The fixed distance guard and overlap bar are written beside the tunables.
    assert data["hyperparameters"]["epsilon"] == 1e-9
    assert data["hyperparameters"]["overlap_tol"] == overlap_tolerance(result.instance)
    assert len(data["positions"]) == 3
    assert set(data["milestones"]) == {"0.1", "0.05", "0.01", "0.005", "0.001"}
    # The document reads back as the layout the render path takes.
    instance, positions, best_radius = parse_result(format_result_json(result))
    assert instance == result.instance
    assert positions.shape == (3, 2) and positions.dtype == float
    assert np.array_equal(positions, result.best_positions)
    assert best_radius == result.best_radius


def test_result_json_is_deterministic():
    assert format_result_json(tiny_result()) == format_result_json(tiny_result())


def test_infeasible_result_serializes_with_nulls():
    result = tiny_result(feasible=False)
    data = result_to_dict(result)
    assert data["feasible"] is False
    assert data["best_radius"] is None
    assert data["positions"] is None
    assert data["milestones"] is None
    assert parse_result(format_result_json(result)) is None


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("instance"),
        lambda d: d.pop("positions"),
        lambda d: d.update(radii=[1.0]),
        lambda d: d.update(positions=None),
        lambda d: d.update(best_radius="abc"),
        lambda d: d.update(best_radius=-1.0),
        lambda d: d["positions"].__setitem__(0, [0]),
        lambda d: d["positions"].__setitem__(2, [1.0, None]),
        lambda d: d["radii"].__setitem__(1, "abc"),
        lambda d: d.update(feasible="no"),
        lambda d: d.update(feasible=1),
        lambda d: d.update(feasible=None),
        lambda d: d.update(instance={"k": [1]}),
        # An infeasible result still names a valid instance.
        lambda d: d.update(feasible=False, radii=[1.0, -1.3, 0.8]),
    ],
)
def test_result_parse_rejects_broken_documents(mangle):
    data = result_to_dict(tiny_result())
    mangle(data)
    with pytest.raises(ParseError):
        parse_result(json.dumps(data))


def test_result_parse_rejects_non_objects():
    with pytest.raises(ParseError):
        parse_result("[1, 2]")
    with pytest.raises(ParseError):
        parse_result("{broken")


# ------------------------------------------------------------------ trace csv

def test_trace_csv_streams_one_row_per_iteration():
    inst = ProblemInstance("traced", radii=[1.0, 1.2], masses=[1.0, 2.0])
    result = solve(inst, Hyperparameters(n_it=30, seed=2))
    buffer = io.StringIO()
    TraceCsvWriter(buffer)(result.history)
    rows = list(zip(range(1, 31), *(column.tolist() for column in result.history)))
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 31
    assert "np." not in buffer.getvalue()
    feasible = result.history.feasible.tolist()
    assert any(feasible) and not all(feasible)
    for (iteration, target, actual, overlap, cgv), is_feasible, line in zip(rows, feasible, lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == iteration
        assert float(fields[1]) == target
        if is_feasible:
            assert float(fields[2]) == actual
            assert fields[5] == "true"
        else:
            assert fields[2] == ""
            assert fields[5] == "false"
        assert float(fields[3]) == overlap
        assert float(fields[4]) == cgv


# Values whose cells the writer must not merge or lose: NaN (an empty cell),
# infinities, -0.0 right after 0.0, runs of one value, integral floats,
# subnormals and values whose shortest repr switches to an exponent.
AWKWARD = [0.0, -0.0, math.nan, math.inf, 3.5, 3.5, 3.5, -math.inf, 20.0, 1e16, 1e22, 0.1, 5e-324, -0.0, 0.0, math.nan]


def awkward_history(rows, seed=0):
    # Random floats with AWKWARD tiled over every column, shifted per
    # column so each value meets every other column's; actual_radius also
    # gets NaN runs, as infeasible stretches give it.
    rng = np.random.default_rng(seed)
    columns = rng.uniform(0.0, 50.0, (len(History._fields), rows))
    for k, column in enumerate(columns):
        picked = rng.random(rows) < 0.5
        column[picked] = np.resize(np.roll(AWKWARD, 3 * k), rows)[picked]
    columns[History._fields.index("actual_radius"), (np.arange(rows) // 37) % 3 == 0] = math.nan
    return History(*columns)


def reference_trace(history):
    return trace_csv_by_rows(TRACE_COLUMNS, history, History._fields.index("actual_radius"))


@pytest.mark.parametrize("rows", [0, 1, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1, 2 * TRACE_BLOCK + 3])
def test_trace_csv_blocks_give_the_bytes_of_one_row_at_a_time(rows):
    history = awkward_history(rows, seed=rows)
    buffer = io.StringIO()
    TraceCsvWriter(buffer)(history)
    assert buffer.getvalue() == reference_trace(history)


def test_trace_csv_memory_does_not_grow_with_the_rows():
    class Sink:
        def write(self, text):
            pass

    def peak(rows):
        history = awkward_history(rows)
        tracemalloc.start()
        try:
            TraceCsvWriter(Sink())(history)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4_000), peak(40_000)
    assert large <= small + 64 * 1024
    assert large < 1_000_000


# ------------------------------------------------------------------------ svg

def test_render_svg_is_well_formed_and_complete():
    demo = ProblemInstance("demo", radii=[1.0, 0.5], masses=[1.0, 9.0])
    payload = export_svg(demo, [[0.0, 0.0], [1.5, 0.0]], 2.0)
    root = ET.fromstring(payload.decode("utf-8"))
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(circles) == 3
    assert len(lines) == 2
    assert circles[0].get("stroke-dasharray")
    text = payload.decode("utf-8")
    assert "rgb(255,255,255)" in text
    assert "rgb(255,0,0)" in text
    assert "<title>demo</title>" in text


def test_uniform_masses_render_saturated():
    flat = ProblemInstance("flat", radii=[1.0], masses=[5.0])
    payload = export_svg(flat, [[0.0, 0.0]], 1.0).decode("utf-8")
    assert "rgb(255,0,0)" in payload


def test_svg_numbers_are_the_layout_floats():
    result = tiny_result()
    root = ET.fromstring(export_svg(result.instance, result.best_positions, result.best_radius).decode("utf-8"))
    container, *circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert float(container.get("r")) == result.best_radius
    drawn = [[float(el.get(key)) for key in ("cx", "cy", "r")] for el in circles]
    expected = [[x, y, r] for (x, y), r in zip(result.best_positions.tolist(), result.instance.radii.tolist())]
    assert drawn == expected


def test_svg_keeps_a_tiny_container_visible():
    tiny = ProblemInstance("tiny", radii=[1e-5], masses=[1.0])
    root = ET.fromstring(export_svg(tiny, [[0.0, 0.0]], 2e-5).decode("utf-8"))
    assert float(root.get("viewBox").split()[2]) == pytest.approx(4.24e-5)
    assert all(float(el.get("stroke-width")) > 0.0 for el in root.iter() if el.get("stroke-width"))
