"""Host-speed reference for the end-to-end timings.

The benchmark's host is a shared VM whose speed drifts by ±20% within
seconds and by more over minutes, so raw wall times of whole solves spread
past any useful bound. While a workload runs untraced, a ``Sampler`` runs a
fixed reference kernel in short slices from a ``SIGALRM`` handler, one slice
every ``PERIOD_S``. The kernel shares no code with swarmpack; it is the same
mix of work as a solver tick: small NumPy pairwise sweeps plus Python
bookkeeping.

A timed interval is then reported in *reference seconds*: its wall time less
the slices that ran inside it, times ``NOMINAL_SLICE_S`` over the mean slice
time inside it. When the host runs at the speed where a slice takes
``NOMINAL_SLICE_S``, a reference second is a wall second; when the host
slows down, program and slices slow down together and the figure holds.
A change to swarmpack moves the program's time but not the slices'.

Set-up time is mostly process start-up and imports, which the slices do not
track. It is scaled instead by the start of a bare interpreter that only
imports NumPy, measured next to it: ``NOMINAL_START_S`` is that start's
time on the same VM.
"""

from __future__ import annotations

import signal
import time
from typing import NamedTuple

import numpy as np

# One slice every PERIOD_S of program time, re-armed after each slice, so a
# slow host cannot make slices run back to back.
PERIOD_S = 0.25
SLICE_STEPS = 200
SLICE_CIRCLES = 40
# Median times on the 2-vCPU VM the benchmark was tuned on.
NOMINAL_SLICE_S = 0.022
NOMINAL_START_S = 0.18


def reference_slice() -> float:
    """Run one slice of the reference kernel and return its wall time."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    p = rng.random((SLICE_CIRCLES, 2)) * 100.0
    r = rng.random(SLICE_CIRCLES) * 10.0 + 5.0
    iu, ju = np.triu_indices(SLICE_CIRCLES, 1)
    acc = 0.0
    records = []
    for t in range(SLICE_STEPS):
        d = p[iu] - p[ju]
        dist = np.hypot(d[:, 0], d[:, 1])
        hit = dist < r[iu] + r[ju]
        f = np.zeros((SLICE_CIRCLES, 2))
        np.add.at(f, iu[hit], d[hit] * 0.01)
        p = p + f * 0.1 - p.mean(axis=0) * 0.001
        acc += float(hit.sum()) + float(np.sqrt((p * p).sum(axis=1)).max())
        records.append((t, acc, acc > 0.0))
    return time.perf_counter() - started


class Mark(NamedTuple):
    wall: float
    slice_s: float
    slices: int


class Sampler:
    """Runs reference slices on a timer while active (``with Sampler() as s:``).

    Only the main thread may use it, because Python runs signal handlers
    there. Do not start child processes while it is active: a slice would
    run alongside them.
    """

    def __init__(self):
        self.slice_s = 0.0
        self.slices = 0
        self.last = NOMINAL_SLICE_S
        self._previous = None

    def __enter__(self) -> "Sampler":
        reference_slice()  # warm-up: first-call costs stay out of the figures
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        took = reference_slice()
        self.slice_s += took
        self.slices += 1
        self.last = took
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def mark(self) -> Mark:
        # Retry when a slice lands between the reads, so that a slice is
        # either wholly before the mark or wholly after it.
        while True:
            slices = self.slices
            mark = Mark(time.perf_counter(), self.slice_s, slices)
            if self.slices == slices:
                return mark

    def since(self, start: Mark) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the program since ``start``."""
        end = self.mark()
        slice_s = end.slice_s - start.slice_s
        slices = end.slices - start.slices
        program_s = end.wall - start.wall - slice_s
        mean_slice = slice_s / slices if slices else self.last
        return program_s, program_s * NOMINAL_SLICE_S / mean_slice
