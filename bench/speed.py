"""Rescale measured times to a fixed interpreter speed.

The machine this benchmark was built on shares its cores with other
tenants, and the speed of pure-Python code on one vCPU swings by up to
1.6x in episodes lasting from a second to a minute, with the two vCPUs
swinging independently.  Raw times of one job then spread by a quarter
between runs, more than any regression bound worth having.

So the benchmark measures the speed it runs at: :func:`kernel` is a
fixed pure-Python loop shaped like the workbench's own scans (method
calls into a Cayley table, tuple indexing, comparisons), independent of
the program under test.  :class:`Sampler` runs it from a timer signal
every PERIOD_S seconds in the main thread, on the same vCPU as the
jobs, and a job's time is reported as

    measured time (minus the samples inside it) × NOMINAL_KERNEL_S / mean kernel time around it

that is, in seconds at the speed where the kernel takes NOMINAL_KERNEL_S.
A faster program still reads faster; a slower machine no longer does.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

NOMINAL_KERNEL_S = 0.0004   # about the kernel's time on an idle core here
PERIOD_S = 0.02
NEAREST = 4                 # samples that set the scale of a job shorter than that


class _Table:
    def __init__(self, n: int):
        self.rows = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))

    def op(self, i: int, j: int) -> int:
        return self.rows[i][j]


_TABLE = _Table(16)


def kernel() -> int:
    """An associativity scan over part of a 16-element table (~0.4 ms)."""
    op = _TABLE.op
    misses = 0
    for i in range(16):
        for j in range(16):
            for k in range(0, 16, 4):
                if op(op(i, j), k) != op(i, op(j, k)):
                    misses += 1
    return misses


def kernel_time(repeats: int) -> float:
    """Mean kernel time over ``repeats`` back-to-back runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - start) / repeats


class Sampler:
    """Kernel samples taken from SIGALRM while the job loop runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, start: float, end: float) -> tuple[float, float]:
        """(raw, rescaled) duration of the interval [start, end].

        Raw is the interval less the samples taken inside it.  The scale
        comes from those samples, or from the NEAREST samples around the
        midpoint when fewer fell inside: the speed changes within a second,
        so samples from further away only add error.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        raw = end - start - sum(self.durations[lo:hi])
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = min(len(self.starts), lo + NEAREST)
        if hi <= lo:
            raise RuntimeError("no speed sample was taken")
        return raw, raw * NOMINAL_KERNEL_S / statistics.fmean(self.durations[lo:hi])
