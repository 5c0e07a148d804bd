"""A clock that reads in seconds at a fixed reference speed of the CPU.

The machines this benchmark runs on share their cores with other tenants,
and the speed of one core drifts by up to a factor of two over seconds to
minutes.  Raw wall times of the same pass then spread far more than the
changes the benchmark must detect.  The drift hits a fixed pure-Python loop
that runs right beside the program about as hard as the program itself, so
the clock times such a loop (a calibration slice) every ``TICK_S`` seconds,
from a ``SIGALRM`` handler that interrupts the program between bytecodes.
Program time between two ticks is scaled by ``REF_SLICE_S`` divided by the
median of the last ``WINDOW`` slice times.  Time spent in the slices is not
counted.  The program never sees the slices: they touch none of its state.

A reading of this clock is the time the program would have taken on a core
where one slice takes ``REF_SLICE_S``.
"""

import gc
import signal
from collections import deque
from fractions import Fraction
from statistics import median
from time import perf_counter

TICK_S = 0.05
WINDOW = 9
REF_SLICE_S = 0.0018


def calibration_slice():
    """Fixed work like the library's: small rationals, integer dot products
    over generators, and sets of frozensets."""
    total = Fraction(0)
    for i in range(1, 125):
        total += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i % 5 + 1, 3)
    rows = [tuple((i * j) % 17 - 8 for j in range(6)) for i in range(23)]
    dots = 0
    for u in rows:
        for v in rows:
            dots += sum(a * b for a, b in zip(u, v)) > 0
    seen = set()
    for i in range(500):
        seen.add(frozenset((i, i * 7 % 101, i % 13)) & frozenset(range(0, 128, 3)))
    return total, dots, len(seen)


def time_slice():
    """Seconds one slice takes, with the garbage collector held off so that
    the program's heap does not enter the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        calibration_slice()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrated_seconds(wall_s):
    """Scale a wall time measured just before to the reference speed."""
    return wall_s * REF_SLICE_S / median(time_slice() for _ in range(2 * WINDOW))


class SpeedClock:
    """Calibrated seconds since ``start()``; stop with ``stop()``."""

    def __init__(self):
        self.recent = deque(maxlen=WINDOW)
        # (calibrated seconds up to mark, perf_counter at mark, scale), swapped
        # as one object so that a tick between two reads cannot tear it
        self.state = (0.0, perf_counter(), 1.0)

    def start(self):
        for _ in range(WINDOW):
            self.recent.append(time_slice())
        self.state = (0.0, perf_counter(), REF_SLICE_S / median(self.recent))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        acc, mark, _ = self.state
        program_s = perf_counter() - mark
        self.recent.append(time_slice())
        scale = REF_SLICE_S / median(self.recent)
        self.state = (acc + program_s * scale, perf_counter(), scale)

    def now(self):
        acc, mark, scale = self.state
        return acc + (perf_counter() - mark) * scale
