"""Calls per tick of a seed-0 solve, pinned as a ceiling.

A tick's cost at N = 10-100 is set by how many small calls it makes, not by
its arithmetic, and that count does not drift with the host the way wall
time does. ``sys.setprofile`` sees one ``call`` event per Python call and one
``c_call`` event per C function or method call; array operators (``a * b``)
raise none. The count depends on the interpreter and on numpy's Python
wrappers, so the test runs only on the versions the ceilings were taken
with. A change that raises the count re-pins MEASURED and says why.
"""

import sys

import numpy as np
import pytest

from swarmpack.corpus import CORPUS
from swarmpack.model import Hyperparameters
from swarmpack.solver import solve

PINNED_PYTHON = (3, 11)
PINNED_NUMPY = "2.4"

# Python + C calls per tick, counted over a whole seed-0 solve of (instance,
# ticks) and divided by the ticks.
MEASURED = {("I1", 2000): 45.67, ("II1", 1000): 50.29}
# The ceiling's headroom over MEASURED.
SLACK = 1.015


def calls_per_tick(name, n_it):
    instance = CORPUS.get(name)
    # A warm-up solve first: a cold one also counts lazy imports.
    solve(instance, Hyperparameters(n_it=50, seed=0))
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        solve(instance, Hyperparameters(n_it=n_it, seed=0))
    finally:
        sys.setprofile(None)
    return counts["call"] / n_it, counts["c_call"] / n_it


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != PINNED_PYTHON,
    reason=f"call counts pinned under CPython {'.'.join(map(str, PINNED_PYTHON))}",
)
@pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != PINNED_NUMPY, reason=f"call counts pinned under numpy {PINNED_NUMPY}"
)
@pytest.mark.parametrize("name, n_it", list(MEASURED))
def test_calls_per_tick_stay_under_the_ceiling(name, n_it):
    python_calls, c_calls = calls_per_tick(name, n_it)
    ceiling = MEASURED[name, n_it] * SLACK
    assert python_calls + c_calls <= ceiling, (
        f"{name} at {n_it} ticks: {python_calls:.2f} Python + {c_calls:.2f} C calls per tick, "
        f"ceiling {ceiling:.2f}"
    )
