"""Host-speed calibration of the end-to-end timings.

The benchmark shares the cores of its host with other work, and the host's
speed drifts: the same fixed loop takes up to twice as long from one minute
to the next.  Wall times of runs made minutes apart then differ by more than
a regression bound, whatever the program does.

So the untraced run also times a fixed kernel that does not call the
program.  It does the four kinds of work the program's ops do, for about
the same time each: a pure-Python loop, a numpy pass over a 1 MiB array,
many numpy calls on 8 x 8 complex matrices, and a fresh 16 MB array.  It
runs between ops, outside their timed region, at most every
`SAMPLE_EVERY_S`.  Each op's wall time is scaled by `REFERENCE_S` over the
median kernel time near the op.  A change in host speed moves the op and the
kernel alike and cancels; a change in the program moves only the op.  The
scaled times are in seconds on a host where the kernel takes `REFERENCE_S`.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# About the kernel's median time on the 2-vCPU Xeon (2.1 GHz) host the
# benchmark was sized on; it sets the unit of the scaled times only.
REFERENCE_S = 0.01
SAMPLE_EVERY_S = 0.1
# Kernel samples within this distance of an op count as near it; at least
# NEAREST samples are used.
WINDOW_S = 0.5
NEAREST = 4
PYTHON_LOOPS = 30_000
ARRAY_LENGTH = 131_072
MATRIX_STEPS = 300
FRESH_LENGTH = 2_000_000


class HostSpeed:
    """Kernel samples taken during a run, and the scale they give each op."""

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        rng = numpy.random.default_rng(0)
        self._array = rng.standard_normal(ARRAY_LENGTH)
        self._matrix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.times: list[float] = []  # midpoints, increasing
        self.durations: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> None:
        total = 0
        for i in range(PYTHON_LOOPS):
            total += i * i % 7
        self._numpy.sin(self._array) * self._array
        matrix = self._matrix
        for _ in range(MATRIX_STEPS):
            matrix = self._numpy.abs(matrix @ self._matrix) * 0.1 + self._matrix
        self._numpy.ones(FRESH_LENGTH).sum()

    def sample(self) -> None:
        start = perf_counter()
        self._kernel()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self._last = end

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def near(self, start: float, end: float) -> list[float]:
        """Kernel times within WINDOW_S of [start, end], or the NEAREST nearest ones."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo >= NEAREST:
            return self.durations[lo:hi]
        middle = (start + end) / 2
        order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - middle))
        return [self.durations[i] for i in order[:NEAREST]]

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """Wall time `seconds` of work done in [start, end], at the reference speed."""
        return seconds * REFERENCE_S / statistics.median(self.near(start, end))
