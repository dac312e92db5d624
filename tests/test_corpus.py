import numpy as np
import pytest

from swarmpack.corpus import CORPUS, UnknownInstanceError
from swarmpack.model import validate_instance

EXPECTED_NAMES = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9", "I10", "II1", "II2", "II3")
EXPECTED_COUNTS = (10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 100, 150, 300)


def test_names_and_counts():
    assert CORPUS.names() == EXPECTED_NAMES
    assert tuple(inst.n for inst in CORPUS.all_instances) == EXPECTED_COUNTS


def test_every_embedded_instance_validates():
    for inst in CORPUS.all_instances:
        assert validate_instance(inst) == []
        assert np.all(inst.radii == np.round(inst.radii))
        assert np.all(inst.masses == np.round(inst.masses))


def test_fixed_suite_spot_values():
    i1 = CORPUS.get("I1")
    assert i1.circles()[0] == (20.0, 35.0)
    assert i1.radii[8] == 23.0
    assert CORPUS.get("I9").masses[-1] == 16.0
    assert CORPUS.get("I10").masses[0] == 97.0
    assert CORPUS.get("I2").radii.max() == 24.0


def test_graded_suite_masses_equal_radii():
    tiers = {
        "II1": {10.0: 40, 20.0: 30, 30.0: 20, 40.0: 10},
        "II2": {10.0: 50, 20.0: 40, 30.0: 30, 40.0: 20, 50.0: 10},
        "II3": {10.0: 100, 20.0: 80, 30.0: 60, 40.0: 40, 50.0: 20},
    }
    for inst in CORPUS.suite2:
        assert np.array_equal(inst.radii, inst.masses)
        values, counts = np.unique(inst.radii, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == tiers[inst.name]


def test_reference_radii_table():
    expected = {
        "I1": 59.85, "I2": 67.07, "I3": 82.58, "I4": 82.84, "I5": 98.77,
        "I6": 101.52, "I7": 113.53, "I8": 117.99, "I9": 124.30, "I10": 135.99,
        "II1": 247.93, "II2": 357.97, "II3": 504.11,
    }
    assert CORPUS.reference_radii == expected


def test_lookup_and_selection():
    assert CORPUS.get("I3").name == "I3"
    assert len(CORPUS.suite("suite2")) == 3
    with pytest.raises(UnknownInstanceError):
        CORPUS.get("I99")
    with pytest.raises(UnknownInstanceError):
        CORPUS.suite("suite3")
