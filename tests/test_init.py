import math

import numpy as np
import pytest

from swarmpack.init import INITIAL_OCCUPATION, container_bounds, initial_positions, initial_state
from swarmpack.model import Hyperparameters, InvalidInputError, ProblemInstance, occupation_rate


def random_instance(rng, n):
    return ProblemInstance(
        f"rand{n}",
        radii=rng.uniform(1.0, 25.0, n),
        masses=rng.uniform(1.0, 100.0, n),
    )


def test_initial_container_hits_the_seed_occupation():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 30):
        inst = random_instance(rng, n)
        radius = container_bounds(inst)[0]
        assert occupation_rate(inst, radius) == pytest.approx(INITIAL_OCCUPATION, rel=1e-12)
        assert radius == pytest.approx(math.sqrt(float(np.sum(inst.radii ** 2)) / 0.15), rel=1e-15)


def test_initial_container_scales_linearly_with_circle_size():
    inst = ProblemInstance("a", radii=[2.0, 3.0], masses=[1.0, 1.0])
    doubled = ProblemInstance("b", radii=[4.0, 6.0], masses=[1.0, 1.0])
    assert container_bounds(doubled)[0] == pytest.approx(2 * container_bounds(inst)[0], rel=1e-12)


def test_floor_is_the_area_bound_or_the_two_largest_side_by_side():
    # (radii, floor): one circle, the unit pair, nine unit circles (the area
    # bound 3 beats the pair sum 2), and a large circle whose pair sum 6
    # beats the area bound sqrt(27).
    cases = (([1.0], 1.0), ([1.0, 1.0], 2.0), ([1.0] * 9, 3.0), ([1.0, 5.0, 1.0], 6.0))
    for radii, floor in cases:
        start, got = container_bounds(ProblemInstance("f", radii=radii, masses=[1.0] * len(radii)))
        assert got == floor
        assert start > floor


def test_positions_stay_in_the_inscribed_square():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 16, 41):
        inst = random_instance(rng, n)
        radius = container_bounds(inst)[0]
        half = radius / math.sqrt(2.0)
        for seed in range(5):
            pos = initial_positions(inst, radius, seed)
            assert pos.shape == (n, 2)
            assert np.all(np.abs(pos) <= half * (1 + 1e-12))


def test_positions_are_seed_deterministic():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 12)
    radius = container_bounds(inst)[0]
    a = initial_positions(inst, radius, 7)
    b = initial_positions(inst, radius, 7)
    c = initial_positions(inst, radius, 8)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_each_mass_group_is_a_latin_hypercube_sample():
    # Rebuild the grouping and check every group occupies each stratum of
    # each axis exactly once.
    rng = np.random.default_rng(3)
    for n in (4, 9, 10, 23, 50):
        inst = random_instance(rng, n)
        radius = container_bounds(inst)[0]
        half = radius / math.sqrt(2.0)
        side = 2.0 * half
        pos = initial_positions(inst, radius, seed=11)
        order = np.argsort(inst.masses, kind="stable")
        for group in np.array_split(order, math.ceil(math.sqrt(n))):
            g = group.shape[0]
            for axis in range(2):
                strata = np.floor((pos[group, axis] + half) / side * g).astype(int)
                assert sorted(strata.tolist()) == list(range(g))


def test_initial_state_is_at_rest_at_the_seed_radius():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, 9)
    hp = Hyperparameters(seed=3)
    positions, velocities, schedule = initial_state(inst, hp)
    assert velocities.shape == (9, 2) and not velocities.any()
    assert (schedule.target_radius, schedule.floor) == container_bounds(inst)
    assert schedule.hp is hp and schedule.stagnation_counter == 0
    assert occupation_rate(inst, schedule.target_radius) == pytest.approx(0.15, rel=1e-12)
    assert positions.tobytes() == initial_positions(inst, schedule.target_radius, 3).tobytes()


def test_initial_state_rejects_invalid_instances():
    with pytest.raises(InvalidInputError):
        initial_positions(ProblemInstance("y", radii=[1.0], masses=[1.0]), 0.0, 0)
