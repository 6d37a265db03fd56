"""Timing corrected for the host's drifting speed.

On a shared virtual machine the same Python work can run 30% slower for
seconds to minutes at a time, on every core at once, which swamps the
differences a benchmark exists to show. The clock here runs a short fixed
reference computation every ``INTERVAL_S`` of measured work and scales
the wall time that follows by ``NOMINAL_REF_S / reference time``. Timings
are thus seconds at the speed at which the reference takes
``NOMINAL_REF_S``. The reference's own time is left out of both the
corrected and the raw time, and the raw wall time is kept alongside.

The reference does no I/O and touches no program state, so an interval
timer may run it between any two bytecodes of the measured code. It is
never run while pool workers are busy, because it would then measure
its own contention with them.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

NOMINAL_REF_S = 0.024
INTERVAL_S = 0.25

_BASE = np.random.default_rng(0).standard_normal((20, 20)) / 20.0


def reference() -> float:
    """Fixed mix of interpreted loops and small dense linear algebra."""
    total = 0
    for i in range(80_000):
        total += i * i % 7
    a = _BASE
    for _ in range(140):
        a = a @ _BASE + _BASE
        np.linalg.eigh(a + a.T)
    return total + float(a[0, 0])


class SpeedClock:
    """Accumulates corrected and raw seconds between calibrations.

    ``calibrate`` may run from a signal handler; it only appends to
    ``calibrations`` (one append is atomic), and ``now`` folds the new
    entries in from the main code. The factor uses the median of the
    last three reference times, so one disturbed reference moves little.
    """

    def __init__(self):
        self.calibrations: list[tuple[float, float, float]] = []
        self._seen = 0
        self._mark = time.perf_counter()
        self._factor = 1.0
        self._corrected = 0.0
        self._raw = 0.0

    def calibrate(self) -> None:
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        recent = [e - s for s, e, _ in self.calibrations[-2:]] + [end - start]
        factor = NOMINAL_REF_S / sorted(recent)[len(recent) // 2]
        self.calibrations.append((start, end, factor))

    def _fold(self) -> float:
        while True:
            while self._seen < len(self.calibrations):
                start, end, factor = self.calibrations[self._seen]
                self._corrected += (start - self._mark) * self._factor
                self._raw += start - self._mark
                self._mark, self._factor = end, factor
                self._seen += 1
            t = time.perf_counter()
            if self._seen == len(self.calibrations):
                return t

    def now(self) -> float:
        """Corrected seconds since the clock was made."""
        t = self._fold()
        return self._corrected + (t - self._mark) * self._factor

    def raw_now(self) -> float:
        """Wall seconds since the clock was made, references left out."""
        t = self._fold()
        return self._raw + (t - self._mark)

    def maybe_calibrate(self) -> None:
        """Calibrate if ``INTERVAL_S`` has passed since the last one."""
        last = self.calibrations[-1][1] if self.calibrations else 0.0
        if time.perf_counter() - last >= INTERVAL_S:
            self.calibrate()

    @contextlib.contextmanager
    def ticking(self):
        """Calibrate every ``INTERVAL_S`` from an interval timer."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
