"""Machine-speed calibration: a fixed slice of work timed beside the program.

The benchmark runs on shared machines whose speed changes by 20-40 % within
minutes, and which change speed within seconds too.  The program's CPU time
moves with its wall time, so neither can be compared across runs.  Instead,
each worker times a fixed *slice* of Python and numpy work, which uses no
prodsurf code, at regular intervals during the span it measures, and scales
the span to the reference speed::

    reference seconds = measured seconds * CAL_REF_S / mean slice seconds

where in a pass each slice is weighted by the time since the previous one.

Slices taken between the items of a pass see the same machine as the items,
so the scaled time follows the program and not the machine.  A change to
prodsurf changes the measured seconds and not the slices.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

CAL_REF_S = 0.02        # one slice at the reference speed, seconds
INTERVAL_S = 0.25       # a pass takes a slice after an item once this has passed
SETUP_SLICES = 10       # slices taken right after set-up, to scale it

_LOOP = 120_000         # the slice: a Python loop, then numpy on small frames
_FRAMES = 8192
_REPS = 24


class Calibrator:
    """Times slices, each weighted by the span of time it stands for."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((_FRAMES, 3, 3))
        self._b = rng.standard_normal((_FRAMES, 3))
        self.times: list[float] = []
        self.weights: list[float] = []
        self._last = perf_counter()

    def slice(self, weight: float = 1.0) -> None:
        """Run one slice and record its duration with ``weight``."""
        t0 = perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i % 7
        for _ in range(_REPS):
            c = np.einsum("nij,nj->ni", self._a, self._b)
            acc += float((np.sqrt(np.abs(c) + 1.0) * c).sum())
        self._last = perf_counter()
        self.times.append(self._last - t0)
        self.weights.append(weight)

    def tick(self) -> None:
        """Run a slice if ``INTERVAL_S`` has passed since the last one.

        Items differ in length, so the slice is weighted by the time since
        the last one: a long item stands for more of the pass.
        """
        elapsed = perf_counter() - self._last
        if elapsed >= INTERVAL_S:
            self.slice(elapsed)

    def final(self) -> None:
        """Run a slice for the time since the last one, so that even a short
        pass has one."""
        self.slice(perf_counter() - self._last)

    def scale(self, seconds: float) -> float:
        """``seconds`` measured beside the recorded slices, at the reference
        speed."""
        mean = sum(w * t for w, t in zip(self.weights, self.times)) \
            / sum(self.weights)
        return seconds * CAL_REF_S / mean
