import math

import numpy as np
import pytest

from swarmpack.model import (
    Hyperparameters,
    InvalidInputError,
    ProblemInstance,
    occupation_rate,
    validate_hyperparameters,
    validate_instance,
)


def small_instance(name="toy"):
    return ProblemInstance(name, radii=[3.0, 4.0], masses=[1.0, 2.0])


def test_instance_arrays_are_float_and_read_only():
    inst = ProblemInstance("a", radii=[1, 2], masses=[3, 4])
    assert inst.radii.dtype == np.float64
    assert inst.masses.dtype == np.float64
    with pytest.raises(ValueError):
        inst.radii[0] = 9.0
    with pytest.raises(ValueError):
        inst.masses[0] = 9.0


def test_instance_equality_and_circles_round_trip():
    a = small_instance()
    b = ProblemInstance("toy", radii=(3.0, 4.0), masses=(1.0, 2.0))
    assert a == b
    assert hash(a) == hash(b)
    assert a != ProblemInstance("toy", radii=(3.0, 4.0), masses=(1.0, 3.0))
    assert list(a.circles()) == [(3.0, 1.0), (4.0, 2.0)]
    assert a.n == 2


def test_validate_instance_accepts_good_input():
    assert validate_instance(small_instance()) == []


def test_validate_instance_flags_each_defect():
    # validate_instance runs when the instance is built, so a bad one never exists.
    cases = [
        ("", [1.0], [1.0], "name"),
        ("two words", [1.0], [1.0], "name"),
        (7, [1.0], [1.0], "name"),
        ("a", [1.0, 2.0], [1.0], "equal length"),
        ("a", [0.0], [1.0], "radius"),
        ("a", [1.0], [-2.0], "mass"),
        ("a", [math.nan], [1.0], "finite"),
        ("a", np.ones((2, 2)), np.ones(4), "1-D"),
        ("a", [], [], "at least one"),
        # Not numpy's bare ValueError or TypeError from the conversion.
        ("a", ["x"], [1.0], "^radii"),
        ("a", [[1, 2], [3]], [1.0, 1.0], "^radii"),
        ("a", [1.0], ["heavy"], "^masses"),
        ("a", [1.0], [1j], "^masses"),
    ]
    for name, radii, masses, fragment in cases:
        with pytest.raises(InvalidInputError, match=fragment):
            ProblemInstance(name, radii=radii, masses=masses)


def test_invalid_input_lists_every_problem():
    with pytest.raises(InvalidInputError, match=r"^instance name .*; every radius must be positive; every mass"):
        ProblemInstance("", radii=[-1.0], masses=[0.0])
    with pytest.raises(InvalidInputError, match=r"^v_max must .*; n_it must"):
        Hyperparameters(v_max=-1.0, n_it=0)


def test_occupation_rate_examples():
    inst = small_instance()
    # Circle areas sum to pi*(9+16); a container of radius 5 is filled exactly.
    assert occupation_rate(inst, 5.0) == pytest.approx(1.0, rel=1e-15)
    assert occupation_rate(inst, 10.0) == pytest.approx(0.25, rel=1e-15)


def test_occupation_rate_monotone_in_container_radius():
    inst = small_instance()
    radii = np.linspace(2.0, 40.0, 30)
    rates = [occupation_rate(inst, float(r)) for r in radii]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_occupation_rate_rejects_nonpositive_container():
    with pytest.raises(InvalidInputError):
        occupation_rate(small_instance(), 0.0)
    with pytest.raises(InvalidInputError):
        occupation_rate(small_instance(), -1.0)


def test_hyperparameters_defaults_validate():
    hp = Hyperparameters()
    assert validate_hyperparameters(hp) == []
    assert hp.n_it == 20000
    assert hp.s_min < hp.s_max


def test_resolved_overlap_tol_scales_with_smallest_circle():
    hp = Hyperparameters()
    inst = small_instance()
    assert hp.resolved_overlap_tol(inst) == pytest.approx(1e-6 * math.pi * 9.0, rel=1e-12)
    explicit = Hyperparameters(overlap_tol=0.5)
    assert explicit.resolved_overlap_tol(inst) == 0.5
    # Zero is a valid explicit tolerance, not a missing one.
    assert Hyperparameters(overlap_tol=0.0).resolved_overlap_tol(inst) == 0.0


def test_validate_hyperparameters_flags_bad_values():
    # validate_hyperparameters runs when the tunables are built.
    cases = [
        ({"v_max": 0.0}, "^v_max"),
        ({"f_max": -1.0}, "^f_max"),
        ({"s_max": 0.5, "s_min": 0.7}, "^s_min"),
        ({"n_it": 0}, "^n_it"),
        ({"n_it": 2.5}, "^n_it"),
        ({"n_it": True}, "^n_it"),
        ({"seed": -1}, "^seed"),
        ({"dt": 0.0}, "^dt"),
        ({"epsilon": 0.0}, "^epsilon"),
        ({"overlap_tol": -1e-9}, "^overlap_tol"),
        ({"overlap_tol": "0.1"}, "^overlap_tol"),
        ({"alpha": -5.0}, "^alpha"),
        ({"c": 0.0}, "^c must"),
        ({"v_max": True}, "^v_max"),
        ({"overlap_tol": False}, "^overlap_tol"),
    ]
    for overrides, fragment in cases:
        with pytest.raises(InvalidInputError, match=fragment):
            Hyperparameters(**overrides)
