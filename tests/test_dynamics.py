import numpy as np
import pytest

from swarmpack.dynamics import integrate_step
from swarmpack.model import Hyperparameters, InvalidInputError, SwarmState


def state_of(positions, velocities=None):
    p = np.asarray(positions, dtype=float)
    v = np.zeros_like(p) if velocities is None else np.asarray(velocities, dtype=float)
    return SwarmState(positions=p, velocities=v)


def test_single_step_from_rest():
    state = state_of([[1.0, 1.0]])
    forces = np.array([[4.0, 0.0]])
    out = integrate_step(state, forces, np.array([2.0]), Hyperparameters(v_max=5.0, dt=1.0))
    assert out.velocities.tolist() == [[2.0, 0.0]]
    assert out.positions.tolist() == [[3.0, 1.0]]


def test_position_moves_by_the_updated_velocity():
    rng = np.random.default_rng(20)
    hp = Hyperparameters(v_max=5.0, dt=0.25)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        state = state_of(rng.uniform(-5, 5, (n, 2)), rng.uniform(-2, 2, (n, 2)))
        forces = rng.uniform(-10, 10, (n, 2))
        masses = rng.uniform(0.5, 10.0, n)
        out = integrate_step(state, forces, masses, hp)
        assert np.array_equal(out.positions, state.positions + out.velocities * hp.dt)


def test_speed_clamp_preserves_direction():
    state = state_of([[0.0, 0.0]])
    hp = Hyperparameters(v_max=5.0, dt=1.0)
    out = integrate_step(state, np.array([[30.0, 40.0]]), np.array([1.0]), hp)
    speed = np.hypot(*out.velocities[0])
    assert speed == pytest.approx(hp.v_max, rel=1e-12)
    assert out.velocities[0] == pytest.approx([3.0, 4.0], rel=1e-12)


def test_speeds_never_exceed_v_max():
    rng = np.random.default_rng(21)
    hp = Hyperparameters(v_max=2.0, dt=1.0)
    n = 8
    state = state_of(rng.uniform(-3, 3, (n, 2)))
    masses = rng.uniform(0.5, 3.0, n)
    for _ in range(100):
        forces = rng.uniform(-50, 50, (n, 2))
        state = integrate_step(state, forces, masses, hp)
        speeds = np.sqrt((state.velocities ** 2).sum(axis=1))
        assert np.all(speeds <= hp.v_max * (1 + 1e-12))


def test_below_cap_velocities_are_untouched():
    state = state_of([[0.0, 0.0]], [[0.5, 0.5]])
    hp = Hyperparameters(v_max=5.0, dt=1.0)
    out = integrate_step(state, np.array([[1.0, -1.0]]), np.array([1.0]), hp)
    assert np.array_equal(out.velocities, np.array([[1.5, -0.5]]))


def test_integration_is_deterministic_and_pure():
    rng = np.random.default_rng(22)
    state = state_of(rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (5, 2)))
    before = state.positions.copy()
    forces = rng.uniform(-5, 5, (5, 2))
    masses = rng.uniform(1, 4, 5)
    hp = Hyperparameters()
    a = integrate_step(state, forces, masses, hp)
    b = integrate_step(state, forces, masses, hp)
    assert a.positions.tobytes() == b.positions.tobytes()
    assert a.velocities.tobytes() == b.velocities.tobytes()
    assert state.positions.tobytes() == before.tobytes()


def test_nonpositive_mass_is_rejected():
    state = state_of([[0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        integrate_step(state, np.zeros((1, 2)), np.array([0.0]), Hyperparameters())
    with pytest.raises(InvalidInputError):
        integrate_step(state, np.zeros((1, 2)), np.array([-1.0]), Hyperparameters())


def test_speed_overflow_is_rejected():
    # Each component is finite, but the squared speed overflows: no clamp
    # direction is left, and scaling by v_max / inf would zero the velocity.
    state = state_of([[0.0, 0.0], [1.0, 0.0]])
    forces = np.array([[1e200, 1e200], [0.0, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="speed overflowed"):
        integrate_step(state, forces, np.ones(2), Hyperparameters())
