"""Semi-implicit time stepping for the circle swarm."""

from __future__ import annotations

import numpy as np

from .geometry import row_norms
from .model import Hyperparameters, InvalidInputError


def integrate_step(
    positions: np.ndarray, velocities: np.ndarray, forces: np.ndarray, masses: np.ndarray, hp: Hyperparameters
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the swarm one tick and return the new (positions, velocities).

    Velocities update first and positions move with the *new* velocity; the
    speed clamp afterwards keeps any single tick from teleporting a circle
    across the container. A speed that overflows to inf has no direction
    left to clamp to and raises InvalidInputError. ``forces`` is an (N, 2)
    array and ``masses`` the instance's positive float array.
    """
    vel = forces / masses[:, None]
    vel *= hp.dt
    vel += velocities
    speed = row_norms(vel)
    top = np.maximum.reduce(speed)
    if top > hp.v_max:
        if top == np.inf:
            raise InvalidInputError("speed overflowed to inf; check the dt, f_max and v_max scales")
        over = speed > hp.v_max
        vel[over] *= (hp.v_max / speed[over])[:, None]
    step = vel * hp.dt
    step += positions
    return step, vel
