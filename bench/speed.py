"""Machine-speed calibration for the worker's timings.

On a shared machine the interpreter's speed drifts: on a 2-core one the
reference kernel below (the rank of a fixed 10x10 rational matrix,
computed with exact.py, which never changes with chtoucakit) took from
2.7 to 4.8 ms, for minutes at a time, so raw times of identical work
differ by as much between runs. The kernel is run on a timer every
PERIOD_S seconds, in the main thread between bytecodes. An interval's
calibrated time is its raw time, less the kernel's own runs inside it,
times the mean of REFERENCE_S / kernel time over the samples around it:
seconds at the speed where the kernel takes REFERENCE_S. Drifts on the
scale of a sampling period or longer cancel out. The set-up, which starts
before any Python code of the worker runs, is scaled by the median of
SETUP_SAMPLES kernel runs made right after it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

from exact import RationalOps, rank

PERIOD_S = 0.2
REFERENCE_S = 0.004
SETUP_SAMPLES = 15
_QQ = RationalOps()
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(10)]
           for i in range(10)]


def reference_kernel() -> int:
    return rank(_QQ, _MATRIX)


class SpeedProbe:
    def __init__(self, on_sample=None):
        self.samples: list[tuple[float, float]] = []  # (start, end), time.monotonic()
        self.on_sample = on_sample  # called with each kernel run's duration
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.monotonic()
        reference_kernel()
        end = time.monotonic()
        self.samples.append((start, end))
        if self.on_sample:
            self.on_sample(end - start)
        self._busy = False

    def factor_now(self) -> float:
        """Speed factor from SETUP_SAMPLES kernel runs made now."""
        for _ in range(SETUP_SAMPLES):
            self.sample()
        recent = sorted(e - s for s, e in self.samples[-SETUP_SAMPLES:])
        return REFERENCE_S / recent[len(recent) // 2]

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def calibrate(self, a: float, b: float) -> float:
        """Calibrated seconds of the interval [a, b] (time.monotonic())."""
        kernel = sum(e - s for s, e in self.samples if a <= s < b)
        near = [e - s for s, e in self.samples
                if a - 1.5 * PERIOD_S <= s <= b + 1.5 * PERIOD_S]
        if not near:
            raise RuntimeError("no speed samples around the interval")
        factor = sum(REFERENCE_S / k for k in near) / len(near)
        return (b - a - kernel) * factor

    def reference_ms(self) -> float:
        ks = sorted(e - s for s, e in self.samples)
        return ks[len(ks) // 2] * 1000
