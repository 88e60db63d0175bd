"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent over seconds to minutes, with no steal time reported. Each timing
is therefore scaled by ``reference time / measured time`` of a fixed
calibration kernel timed alongside it, which gives seconds at the
reference host speed. On a quiet host the scaled time reads about the same
as wall time. The wall time and the kernel time are kept next to it.

- Rounds, which are compute-bound, use ``kernel``: a pure-Python loop,
  small ``Fraction`` sums and big-integer products, the kinds of work
  cfraj's exact code does. On this kind of host the three parts slow down
  by different amounts, and their sum tracks the workloads better than
  any one part. The kernel is timed before, during and after the round;
  during it, ``SIGALRM`` runs it between bytecodes every ``interval``
  seconds, and its time is taken out of the round.
- Set-up in a fresh interpreter is bound by page faults and cold caches,
  which that kernel does not feel. It uses ``page_touch``, which faults in
  fresh memory, timed before and after the set-up.

The kernels are part of the benchmark, not of cfraj: a change to cfraj
moves the timed work but not the kernels.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter

KERNEL_LOOPS = 4_000
KERNEL_FRACTIONS = 130
KERNEL_PRODUCTS = 150
KERNEL_BASE = 3**3000
KERNEL_MODULUS = 7**2900
# about the kernel's median time with Python 3.11 on a quiet 2.1 GHz Xeon
# KVM guest
REFERENCE_KERNEL_S = 1.2e-3
BURST = 5
# above glibc's largest mmap threshold (32 MiB), so every call faults in
# freshly mapped pages
PAGE_TOUCH_BYTES = 40 << 20
# about page_touch's median time on the same host
REFERENCE_PAGE_TOUCH_S = 30e-3


def kernel() -> None:
    s = 0
    for i in range(KERNEL_LOOPS):
        s += (i * i) % 7
    total = Fraction(0)
    for i in range(1, KERNEL_FRACTIONS):
        total += Fraction(i, 7)
    x = KERNEL_BASE
    for _ in range(KERNEL_PRODUCTS):
        x = x * 12345678901234567 % KERNEL_MODULUS


def page_touch() -> float:
    """Seconds to allocate, zero and free ``PAGE_TOUCH_BYTES`` of fresh
    memory."""
    t0 = perf_counter()
    buf = bytearray(PAGE_TOUCH_BYTES)
    del buf
    return perf_counter() - t0


def _timed_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class SpeedSampler:
    """Samples host speed around and inside a ``with`` block.

    Inside the block the kernel runs on a timer signal; the time its
    handler takes is counted in ``spent`` and left out of ``wall_s``.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._start = self._end = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(_timed_kernel())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self.samples.extend(_timed_kernel() for _ in range(BURST))
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(_timed_kernel() for _ in range(BURST))

    @property
    def wall_s(self) -> float:
        return self._end - self._start - self.spent

    @property
    def kernel_s(self) -> float:
        return statistics.fmean(self.samples)

    def scaled(self, seconds: float) -> float:
        """``seconds`` of work, at the reference host speed."""
        return seconds * REFERENCE_KERNEL_S / self.kernel_s
