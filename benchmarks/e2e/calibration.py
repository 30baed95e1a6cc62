"""Box-speed calibration: how slow is this machine *right now*?

The sandbox this benchmark was written on is a 2-vCPU microVM whose speed
wanders by 30-100% over seconds to minutes with CPU time tracking wall
time (neighbour contention, not descheduling), so whole 8 s runs land in
a slow phase and best-of-rounds cannot see past it.  A fixed numpy kernel
that shares no code with the program, timed right before and after every
timed region, moves with that wander: dividing a closed-loop time by the
kernel's slowdown took the run-to-run spread of ``tick_ms_p50`` on
``edge_tick`` from 33% to ~10% (README, "Noise").

The kernel is small-array numpy work (ufunc dispatch, a partition, a
cumulative sum, two reductions) on one window-sized block: the same mix of
interpreter overhead and cache-resident numerics the tick path runs.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's time on this box class when nothing else contends; times
#: are reported as if the kernel always took this long.
KERNEL_REFERENCE_S = 4.9e-3
KERNEL_REPEATS = 3
#: Back-to-back timed regions share the kernel sample between them.
FRESH_S = 0.01


class BoxSpeed:
    def __init__(self) -> None:
        self._block = np.random.default_rng(0).standard_normal((120, 22))
        self._last = (float("-inf"), 0.0)  # (when, kernel seconds)

    def kernel(self) -> float:
        """Seconds the fixed kernel takes now (best of a few repeats)."""
        when, sample = self._last
        if time.perf_counter() - when > FRESH_S:
            sample = min(self._once() for _ in range(KERNEL_REPEATS))
            self._last = (time.perf_counter(), sample)
        return sample

    def timed(self) -> "Timed":
        return Timed(self)

    def _once(self) -> float:
        block = self._block
        start = time.perf_counter()
        for _ in range(150):
            x = block * 1.0001
            np.partition(x, 60, axis=0)
            np.cumsum(x, axis=0)
            x.std(axis=0)
            np.abs(x).max(axis=0)
        return time.perf_counter() - start


class Timed:
    """``with speed.timed() as t:`` — wall seconds of the block, and the
    box's slowdown over it (kernel before and after; 1.0 = quiet box)."""

    def __init__(self, speed: BoxSpeed) -> None:
        self._speed = speed
        self.seconds = 0.0
        self.slowdown = 1.0

    def __enter__(self) -> "Timed":
        self._before = self._speed.kernel()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        after = self._speed.kernel()
        self.slowdown = (self._before + after) / 2 / KERNEL_REFERENCE_S
