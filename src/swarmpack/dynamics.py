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
    left to clamp to and raises InvalidInputError. Masses are inertia too
    (a = F / m), so tiny masses overflow it as a huge dt does; numpy warns
    of the overflow first unless the caller has overflow warnings off, as
    ``solve`` has. ``forces`` is an (N, 2) array and ``masses`` the
    instance's ``mass_rows``: positive masses shaped like ``forces``, each
    in both columns, so that a = F / m is a same-shape divide. Any other
    shape raises InvalidInputError; at N = 2 an (N,) array would otherwise
    divide along the coordinates without a word.
    """
    if masses.shape != forces.shape:
        raise InvalidInputError(f"masses of shape {masses.shape} do not match forces of shape {forces.shape}")
    dt = hp.operands.dt
    vel = forces / masses
    vel *= dt
    vel += velocities
    speed = row_norms(vel)
    top = speed[speed.argmax()]
    if top > hp.v_max:
        if top == np.inf:
            raise InvalidInputError(
                "speed overflowed to inf; check the mass scale (a = F / m) and the dt, f_max and v_max scales"
            )
        over = speed > hp.v_max
        vel[over] *= (hp.v_max / speed[over])[:, None]
    step = vel * dt
    step += positions
    return step, vel
