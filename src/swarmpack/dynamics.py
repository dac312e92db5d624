"""Semi-implicit time stepping for the circle swarm."""

from __future__ import annotations

import numpy as np

from .model import Hyperparameters, InvalidInputError, SwarmState


def integrate_step(state: SwarmState, forces, masses, hp: Hyperparameters) -> SwarmState:
    """Advance the swarm one tick and return the new state.

    Velocities update first and positions move with the *new* velocity; the
    speed clamp afterwards keeps any single tick from teleporting a circle
    across the container.
    """
    m = np.asarray(masses, dtype=float)
    if np.any(m <= 0.0):
        raise InvalidInputError("masses must be positive")
    f = np.asarray(forces, dtype=float)
    acc = f / m[:, None]
    vel = state.velocities + acc * hp.dt
    speed = np.sqrt(vel[:, 0] ** 2 + vel[:, 1] ** 2)
    over = speed > hp.v_max
    if np.any(over):
        vel[over] *= (hp.v_max / speed[over])[:, None]
    pos = state.positions + vel * hp.dt
    return SwarmState(positions=pos, velocities=vel)
