"""Container-radius schedule: exponential step decay with a stagnation fallback.

One ratchet owns the target: each feasible layout moves it one step below
that layout's radius, but never below the proven floor of the instance,
``max(sqrt(sum r^2), r_1 + r_2)``, where no layout can fit.
"""

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
    """Mutable ratchet for the container target radius, owned by one run.

    Built with the run's hyperparameters and the instance's positive
    ``floor``. The only state besides the target is the count of
    consecutive infeasible iterations; stagnation is that count reaching
    STAGNATION_FRACTION of the budget.
    """

    target_radius: float
    hp: Hyperparameters
    floor: float
    stagnation_counter: int = 0

    @property
    def stagnation_active(self) -> bool:
        return self.stagnation_counter >= STAGNATION_FRACTION * self.hp.n_it

    def on_feasible(self, actual_radius: float, t: int) -> None:
        """Ratchet the target to ``min(actual, max(actual - step, floor))``.

        The step is s_min while stagnation is active, else ``step_size``; the
        counter still holds its streak here, so the first success after a
        stagnation episode advances by s_min before the decay curve resumes.
        A radius already at or below the floor (a layout inside the overlap
        tolerance can be) becomes the target itself.
        """
        hp = self.hp
        # stagnation_active, inline: the property would add a call per tick.
        step = hp.s_min if self.stagnation_counter >= STAGNATION_FRACTION * hp.n_it else step_size(t, hp)
        target = actual_radius - step
        if target < self.floor:
            target = self.floor if self.floor < actual_radius else actual_radius
        self.target_radius = target
        self.stagnation_counter = 0

    def on_infeasible(self) -> None:
        self.stagnation_counter += 1
