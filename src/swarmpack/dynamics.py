"""Semi-implicit time stepping for the circle swarm."""

from __future__ import annotations

import numpy as np

from .model import Hyperparameters, InvalidInputError, SwarmState


def integrate_step(state: SwarmState, forces, masses, hp: Hyperparameters) -> SwarmState:
    """Advance the swarm one tick and return the new state.

    Velocities update first and positions move with the *new* velocity; the
    speed clamp afterwards keeps any single tick from teleporting a circle
    across the container. A speed that overflows to inf has no direction
    left to clamp to and raises InvalidInputError.
    """
    m = np.asarray(masses, dtype=float)
    if (m <= 0.0).any():
        raise InvalidInputError("masses must be positive")
    f = np.asarray(forces, dtype=float)
    acc = f / m[:, None]
    vel = state.velocities + acc * hp.dt
    speed = np.sqrt(vel[:, 0] ** 2 + vel[:, 1] ** 2)
    top = speed.max()
    if top > hp.v_max:
        if top == np.inf:
            raise InvalidInputError("speed overflowed to inf; check the dt, f_max and v_max scales")
        over = speed > hp.v_max
        vel[over] *= (hp.v_max / speed[over])[:, None]
    pos = state.positions + vel * hp.dt
    return SwarmState(positions=pos, velocities=vel)
