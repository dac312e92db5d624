import pytest

from swarmpack.model import Hyperparameters
from swarmpack.schedule import STAGNATION_FRACTION, ContainerSchedule, step_size

from oracles import SCHEDULE_T1000_REFERENCE, schedule_step_reference


def test_first_step_is_exactly_s_max():
    for s_max, s_min in ((10.0, 0.1), (2.0, 0.01), (1.0, 0.01), (0.37, 0.002)):
        hp = Hyperparameters(s_max=s_max, s_min=s_min, c=5.0, n_it=1000)
        assert step_size(0, hp) == s_max


def test_step_matches_power_form_reference():
    hp = Hyperparameters(s_max=10.0, s_min=0.1, c=5.0, n_it=1000)
    assert abs(step_size(1000, hp) - SCHEDULE_T1000_REFERENCE) <= 1e-9
    for t in (0, 1, 17, 250, 999, 1000, 5000):
        expected = schedule_step_reference(t, 1000, 10.0, 0.1, 5.0)
        assert step_size(t, hp) == pytest.approx(expected, rel=1e-12)


def test_step_decreases_strictly_within_bounds():
    hp = Hyperparameters(s_max=2.0, s_min=0.01, c=10.0, n_it=500)
    values = [step_size(t, hp) for t in range(0, 2000, 7)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(hp.s_min < v <= hp.s_max for v in values)


def test_larger_c_decays_faster():
    curves = []
    for c in (5.0, 10.0, 20.0, 50.0):
        hp = Hyperparameters(s_max=10.0, s_min=0.1, c=c, n_it=1000)
        curves.append([step_size(t, hp) for t in range(0, 1001, 50)])
    for slow, fast in zip(curves, curves[1:]):
        assert slow[0] == fast[0]
        assert all(a > b for a, b in zip(slow[1:], fast[1:]))


def test_stagnation_forces_finest_step():
    hp = Hyperparameters(s_max=2.0, s_min=0.01, c=10.0, n_it=500)
    for t in (0, 3, 400):
        schedule = ContainerSchedule(target_radius=100.0, stagnation_counter=99, stagnation_active=True)
        schedule.on_feasible(80.0, t, hp)
        assert schedule.target_radius == 80.0 - hp.s_min


def test_on_feasible_ratchets_below_actual():
    hp = Hyperparameters(s_max=2.0, s_min=0.01, c=10.0, n_it=500)
    schedule = ContainerSchedule(target_radius=100.0)
    schedule.on_feasible(80.0, 0, hp)
    assert schedule.target_radius == 80.0 - hp.s_max
    assert schedule.stagnation_counter == 0
    assert not schedule.stagnation_active


def test_on_feasible_clamps_tiny_targets_to_s_min():
    hp = Hyperparameters(s_max=2.0, s_min=0.01, c=10.0, n_it=500)
    schedule = ContainerSchedule(target_radius=1.0)
    schedule.on_feasible(0.005, 0, hp)
    assert schedule.target_radius == hp.s_min


def test_recovery_from_stagnation_steps_by_s_min():
    hp = Hyperparameters(s_max=2.0, s_min=0.01, c=10.0, n_it=500)
    schedule = ContainerSchedule(target_radius=50.0, stagnation_counter=99, stagnation_active=True)
    schedule.on_feasible(50.0, 3, hp)
    # The step is computed before the flag clears, so it is the finest one.
    assert schedule.target_radius == pytest.approx(50.0 - hp.s_min, rel=1e-15)
    assert not schedule.stagnation_active
    assert schedule.stagnation_counter == 0


def test_stagnation_activates_after_consecutive_failures():
    hp = Hyperparameters(n_it=50)
    threshold = STAGNATION_FRACTION * hp.n_it
    assert threshold == 5.0
    schedule = ContainerSchedule(target_radius=10.0)
    for _ in range(4):
        schedule.on_infeasible(hp)
    assert not schedule.stagnation_active
    schedule.on_infeasible(hp)
    assert schedule.stagnation_active


def test_feasible_iteration_resets_the_failure_streak():
    hp = Hyperparameters(n_it=50)
    schedule = ContainerSchedule(target_radius=10.0)
    for _ in range(4):
        schedule.on_infeasible(hp)
    schedule.on_feasible(9.0, 10, hp)
    for _ in range(4):
        schedule.on_infeasible(hp)
    assert not schedule.stagnation_active
    assert schedule.stagnation_counter == 4
