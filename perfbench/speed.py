"""Machine-speed probe that puts wall times on a steady scale.

On a shared two-core box the same code runs up to 1.5x slower for
stretches of 5-20 s while other tenants load the core, so the median
op time of a 20 s run moves by 15-30% between runs.  A fixed kernel
with the instruction mix of the package's inner loops is timed between ops;
an op's wall time is rescaled by REFERENCE_S / (kernel time around it).
The kernel never calls the package, so a program change moves the
rescaled time as much as the wall time.  On the reference machine
(Intel Xeon, 2 vCPUs, unloaded) the kernel takes about REFERENCE_S, so
rescaled seconds read close to wall seconds there.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

REFERENCE_S = 0.003
REPEATS = 3
EVERY_S = 0.2

_MATRIX = np.linspace(-1.0, 1.0, 100 * 100).reshape(100, 100) * (1 + 1j)
_ROWS = np.linspace(-1.0, 1.0, 60 * 2001).reshape(60, 2001) * (1 - 1j)
_COEFFS = np.ones(60, dtype=complex)


def kernel() -> int:
    """About 3 ms of fixed work in four parts, each close to one kind of
    inner loop in the package: a Python integer loop, updates of a short
    complex vector, row and column updates of a 100 x 100 complex matrix,
    and contractions over 60 x 2001 complex rows."""
    total = 0
    for i in range(12000):
        total += i * i
    a = np.zeros(64, dtype=complex)
    for _ in range(400):
        a = a * 1.0000001 + 1.0
    A = _MATRIX.copy()
    for k in range(60):
        row = A[k, :].copy()
        A[k, :] = 0.6 * row + 0.8 * A[k + 1, :]
        A[: k + 2, k] = 0.6 * A[: k + 2, k] - 0.8 * A[: k + 2, k + 1]
    for _ in range(4):
        np.tensordot(_COEFFS, _ROWS, axes=(0, 0))
    return total


class SpeedProbe:
    """Kernel timings in time order; ``scale`` maps wall to rescaled seconds."""

    def __init__(self):
        self.at = []
        self.cost = []

    def sample(self):
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.cost.append(best)

    def maybe_sample(self):
        """Sample unless the last sample is under EVERY_S old (short ops)."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Rescaled seconds of the interval [start, end], by the samples
        just before and just after it."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        near = [self.cost[i] for i in (before, after) if 0 <= i < len(self.cost)]
        return (end - start) * REFERENCE_S * len(near) / sum(near)
