"""Host speed, for reporting times in reference seconds.

On the 2-vCPU virtual machine this benchmark was written on, the speed of
all work changes by up to a third over tens of seconds: a fixed
pure-Python loop takes from 14 to 20 ms per pass, and ecount's
operations slow down with it, short ones by more than the loop.
Starting a process sometimes slows down by twice as much as arithmetic
does.  A 30 s run cannot average such stretches out, so the raw timings
of one run spread across runs by about as much as the bounds allow.

Each run therefore samples a fixed kernel, between operations and outside
their timers, and records its slowdown: the kernel's time over its time
on the reference machine.  Each end-to-end time is divided by the mean
slowdown of the NEAREST samples taken closest to it in time (factors()).
A time so scaled reads as it would on the reference machine at its usual
speed.  A change to ecount cannot move a kernel, so it moves the scaled
times exactly as it moves the raw ones.

Two kernels exist, one per kind of work that is timed:

- ARITHMETIC, for operations run inside the workload child: sums of
  small fractions, which run the interpreted code of `fractions`, and
  sums of big-integer fractions, the two kinds of work ecount does.  One
  sample is the faster of two passes, so that a single interruption does
  not count as a slow host.
- SPAWN, for cold_cli calls: starting and ending a bare interpreter,
  `python3 -S -c pass`, which is the part of a cold call that slows down
  most.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

NEAREST = 8

_F = Fraction(3**900, 7**800)
_G = Fraction(5**700, 11**600)


def _arithmetic_pass_s() -> float:
    clock = time.perf_counter
    t0 = clock()
    h = Fraction(0)
    for i in range(1, 40):
        h += Fraction(1, i)
    x = _F
    for _ in range(4):
        x += _G
    return clock() - t0


def arithmetic_s() -> float:
    return min(_arithmetic_pass_s(), _arithmetic_pass_s())


def spawn_s() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


class Kernel(NamedTuple):
    run: Callable[[], float]
    ref_s: float  # mean time on the reference machine (2-vCPU x86-64, CPython 3.11.7)
    every_s: float  # least time between two samples


ARITHMETIC = Kernel(arithmetic_s, 0.00043, 0.2)
SPAWN = Kernel(spawn_s, 0.0140, 0.5)


class Sampler:
    """Slowdowns of one kernel, sampled at most every kernel.every_s seconds."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        # [time.monotonic() after the sample, slowdown]; the monotonic clock
        # is shared by all processes, so parent and child samples mix
        self.samples: list[list[float]] = []
        self._next = 0.0

    def sample(self) -> None:
        slowdown = self.kernel.run() / self.kernel.ref_s
        self.samples.append([time.monotonic(), slowdown])
        self._next = time.perf_counter() + self.kernel.every_s

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()


def factors(samples: list[list[float]], times: list[float]) -> list[float]:
    """Scale from measured to reference seconds at each of the given times.

    Each factor uses the NEAREST samples closest in time, not the whole
    run: the host's slow stretches last seconds, and an operation should be
    corrected for the speed the host had while it ran.  The mean, not the
    median, because a slow stretch lengthens operations in proportion to
    its length.  samples is sorted by time.
    """
    at = [t for t, _ in samples]
    want = min(NEAREST, len(at))
    out = []
    for t in times:
        lo = hi = bisect.bisect_left(at, t)
        while hi - lo < want:
            if hi == len(at) or (lo > 0 and t - at[lo - 1] <= at[hi] - t):
                lo -= 1
            else:
                hi += 1
        out.append(1 / statistics.fmean(s for _, s in samples[lo:hi]))
    return out
