"""A fixed reference computation that tracks how fast the host runs now.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over minutes, for reasons outside the process: the same operation
can take 99 ms in one run and 188 ms in the next.  A run therefore also times
:func:`kernel`, a fixed piece of work of the kinds the package does (exact
fractions, small Python containers, small Hermitian eigenproblems), between
its operations, and rescales each operation by the kernel's time around it:

    normalized ms = measured ms * REF_MS / kernel ms measured nearby

That is the operation's time on a host where the kernel takes exactly
``REF_MS``.  The kernel is part of the benchmark, not of the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

REF_MS = 1.0          # the kernel's time on the nominal host
SHARE = 0.1           # kernel time kept at this share of operation time
WINDOW_S = 0.05       # kernel samples within this much of an operation count
MIN_SAMPLES = 8       # ... and at least this many of the nearest ones

_rng = np.random.default_rng(20020601)
_A = _rng.standard_normal((12, 4, 4)) + 1j * _rng.standard_normal((12, 4, 4))
_HERMITIAN = [a @ a.conj().T for a in _A]


def kernel() -> tuple[Fraction, int, float]:
    """The reference work, about 1 ms on a 2020s server core: exact
    fractions, a small dict keyed by tuples, and 4x4 Hermitian eigenproblems."""
    acc = Fraction(0)
    for k in range(1, 80):
        acc += Fraction(k, k + 7) * Fraction(3, k + 1)
    table: dict[tuple[int, int], int] = {}
    for k in range(800):
        key = (k % 31, k % 7)
        table[key] = table.get(key, 0) + k
    low = 0.0
    for h in _HERMITIAN:
        low += float(np.linalg.eigh(h)[0][0])
    return acc, len(table), low


class Reference:
    """Timed runs of :func:`kernel`, with when each started."""

    def __init__(self):
        self.at_ns: list[int] = []
        self.ms: list[float] = []
        self._busy_ns = 0
        self._ref_ns = 0

    def add(self, at_ns: int, ms: float) -> None:
        self.at_ns.append(at_ns)
        self.ms.append(ms)
        self._ref_ns += round(ms * 1e6)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter_ns()
            kernel()
            self.add(t0, (time.perf_counter_ns() - t0) / 1e6)

    def keep_up(self, busy_ns: int) -> None:
        """Count ``busy_ns`` of operation time, then run the kernel until it
        has had SHARE of all operation time counted so far."""
        self._busy_ns += busy_ns
        while self._ref_ns < SHARE * self._busy_ns:
            self.sample()

    def local_ms(self, start_ns: int, end_ns: int) -> float:
        """Median kernel time over the samples started within WINDOW_S of
        [start_ns, end_ns], widened to the MIN_SAMPLES nearest if fewer."""
        n = len(self.ms)
        window = round(WINDOW_S * 1e9)
        lo = bisect_left(self.at_ns, start_ns - window)
        hi = bisect_right(self.at_ns, end_ns + window)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < min(MIN_SAMPLES, n):
                hi += 1
        return statistics.median(self.ms[lo:hi])

    def normalize(self, starts_ns, latencies_ms) -> list[float]:
        """Each latency (ms) rescaled to the host where the kernel takes REF_MS."""
        return [
            lat * REF_MS / self.local_ms(t, t + round(lat * 1e6))
            for t, lat in zip(starts_ns, latencies_ms)
        ]
