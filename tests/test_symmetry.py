"""Whole-solve symmetries that hold bitwise, as oracles for the tick.

Two transformations of a run map it exactly onto another run:

- The eight symmetries of the square (the identity, rotations by 90, 180
  and 270 degrees, and the reflections in both axes and both diagonals).
  Each swaps or negates coordinates, which rounds nothing, and every step
  of a tick treats x and y alike. So a solve started from the mapped
  initial layout has every ``History`` column and the best radius bitwise
  equal to the unmapped solve's, and its best layout is the mapped best
  layout. The Latin-hypercube start is not itself symmetric, so the test
  maps the layout ``solver.initial_state`` returns, patched by name.
- Time rescaling: masses x 2^k, dt x 2^k, and v_max, f_max and alpha
  x 2^-k. Speeds and forces scale by 2^-k and no length moves, so the
  ``History`` and the best layout are bitwise those of the unscaled run.

A tick that reduces x and y differently, or holds an absolute constant in
speed or force space, breaks one of them.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpack import solver
from swarmpack.corpus import CORPUS
from swarmpack.model import Hyperparameters, ProblemInstance

# Each map takes an (N, 2) array to its image under one symmetry of the square.
SQUARE_MAPS = {
    "identity": lambda p: p.copy(),
    "rotate-90": lambda p: np.stack((-p[:, 1], p[:, 0]), axis=1),
    "rotate-180": lambda p: -p,
    "rotate-270": lambda p: np.stack((p[:, 1], -p[:, 0]), axis=1),
    "mirror-x": lambda p: np.stack((p[:, 0], -p[:, 1]), axis=1),
    "mirror-y": lambda p: np.stack((-p[:, 0], p[:, 1]), axis=1),
    "diagonal": lambda p: p[:, ::-1].copy(),
    "antidiagonal": lambda p: -p[:, ::-1],
}

# Corpus instances small enough to keep the file within a few seconds.
SMALL_CORPUS = ("I1", "I3", "I7", "II1")


@st.composite
def instances(draw):
    if draw(st.booleans()):
        return CORPUS.get(draw(st.sampled_from(SMALL_CORPUS)))
    n = draw(st.integers(2, 40))
    decades = st.floats(0.0, 2.0)
    radii = [10.0 ** draw(decades) for _ in range(n)]
    masses = [10.0 ** draw(decades) for _ in range(n)]
    return ProblemInstance(f"drawn{n}", radii=radii, masses=masses)


def run_bytes(result):
    # Everything a solve reports, as bytes: History columns, best radius and iteration.
    return [column.tobytes() for column in result.history], result.best_radius, result.best_iteration


def mapped_start(monkeypatch, square_map):
    start = solver.initial_state

    def initial_state(instance, hp):
        positions, velocities, schedule = start(instance, hp)
        return square_map(positions), square_map(velocities), schedule

    monkeypatch.setattr(solver, "initial_state", initial_state)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    instance=instances(),
    name=st.sampled_from(sorted(SQUARE_MAPS)),
    n_it=st.integers(300, 1000),
    seed=st.integers(0, 3),
)
def test_square_symmetries_map_the_solve_bitwise(instance, name, n_it, seed):
    hp = Hyperparameters(n_it=n_it, seed=seed)
    plain = solver.solve(instance, hp)
    with pytest.MonkeyPatch.context() as monkeypatch:
        mapped_start(monkeypatch, SQUARE_MAPS[name])
        mapped = solver.solve(instance, hp)
    assert run_bytes(mapped) == run_bytes(plain)
    if plain.feasible:
        assert SQUARE_MAPS[name](plain.best_positions).tobytes() == mapped.best_positions.tobytes()


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    instance=instances(),
    k=st.integers(-40, 40),
    n_it=st.integers(300, 1000),
    seed=st.integers(0, 3),
)
def test_time_rescaling_leaves_the_solve_bitwise(instance, k, n_it, seed):
    hp = Hyperparameters(n_it=n_it, seed=seed)
    slow, fast = 2.0**k, 2.0**-k
    scaled_instance = ProblemInstance(instance.name, radii=instance.radii, masses=instance.masses * slow)
    scaled_hp = replace(hp, dt=hp.dt * slow, v_max=hp.v_max * fast, f_max=hp.f_max * fast, alpha=hp.alpha * fast)
    plain = solver.solve(instance, hp)
    scaled = solver.solve(scaled_instance, scaled_hp)
    assert run_bytes(scaled) == run_bytes(plain)
    if plain.feasible:
        assert scaled.best_positions.tobytes() == plain.best_positions.tobytes()
