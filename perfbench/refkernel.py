"""Reference kernel that measures the speed of the host, not of rakns.

The machines this benchmark runs on switch between speed regimes for
seconds at a time (see NOTES.md).  Every timed rakns operation is
bracketed by samples of this kernel, and its time is rescaled to what it
would have taken had the kernel run at ``NOMINAL_MS``.  The kernel is
plain numpy FFTs plus a Python loop, the same mix of work the rakns
numerical layer does, and contains no rakns code, so no change to rakns
can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Bound at import: the traced run rebinds numpy.fft.fft/ifft, and the
# kernel must neither be counted nor slowed by that.
from numpy.fft import fft, ifft

# Median kernel time on the 2-core reference VM in its fast regime.
# Normalised times are seconds on a host whose kernel takes this long.
NOMINAL_MS = 0.8

_N = 1024
_ROUNDS = 20
_LOOP = 150
_CALLS_PER_SAMPLE = 3


class RefKernel:
    """Times the kernel and keeps every sample (ms) for the host.* metrics."""

    def __init__(self):
        rng = np.random.default_rng(20260917)
        self._v0 = rng.normal(size=_N) + 1j * rng.normal(size=_N)
        self._mult = np.exp(1j * np.linspace(0.0, 1.0, _N))
        self.samples_ms: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        v = self._v0
        acc = 0.0
        for _ in range(_ROUNDS):
            v = ifft(fft(v) * self._mult)
            for j in range(_LOOP):
                acc += j * 0.5
        if not (np.isfinite(v[0]) and acc > 0):
            raise RuntimeError("reference kernel produced a non-finite value")
        return (time.perf_counter() - t0) * 1e3

    def sample(self) -> float:
        """Median of a few back-to-back kernel calls, in ms."""
        ms = statistics.median(self._once() for _ in range(_CALLS_PER_SAMPLE))
        self.samples_ms.append(ms)
        return ms

    @staticmethod
    def factor(before_ms: float, after_ms: float) -> float:
        """Rescaling for an operation bracketed by two kernel samples."""
        return NOMINAL_MS / (0.5 * (before_ms + after_ms))

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)
