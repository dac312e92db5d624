"""Container-radius schedule: exponential step decay with a stagnation fallback."""

from __future__ import annotations

import math
from dataclasses import dataclass
from .model import Hyperparameters

# Fraction of the iteration budget of *consecutive* infeasible iterations
# after which the schedule falls back to its finest step.
STAGNATION_FRACTION = 0.10


def step_size(t: int, hp: Hyperparameters) -> float:
    """Shrink step applied after a feasible iteration.

    Decays from s_max at t=0 toward s_min as t grows. Arranged as a lerp so
    t=0 yields s_max exactly.
    """
    decay = math.exp(t * math.log(1.0 / (1.0 + hp.c / hp.n_it)))
    return hp.s_max * decay + hp.s_min * (1.0 - decay)


@dataclass
class ContainerSchedule:
    """Mutable ratchet for the container target radius, owned by one run."""

    target_radius: float
    stagnation_counter: int = 0
    stagnation_active: bool = False

    def on_feasible(self, actual_radius: float, t: int, hp: Hyperparameters) -> None:
        """Ratchet the target below the latest feasible radius.

        The step is s_min while stagnation is active, else ``step_size``; the
        flag still holds its old value here, so the first success after a
        stagnation episode advances by s_min before the decay curve resumes.
        """
        step = hp.s_min if self.stagnation_active else step_size(t, hp)
        new_target = actual_radius - step
        self.target_radius = new_target if new_target > 0.0 else hp.s_min
        self.stagnation_counter = 0
        self.stagnation_active = False

    def on_infeasible(self, hp: Hyperparameters) -> None:
        self.stagnation_counter += 1
        if self.stagnation_counter >= STAGNATION_FRACTION * hp.n_it:
            self.stagnation_active = True
