"""Interleaved calibration that scales timings to a reference core speed.

The benchmark runs on a shared two-core machine whose effective speed for
one process swings by tens of percent over seconds, as neighbours load the
other hardware thread. A run that happens to meet a slow period would
read tens of percent worse with no change to the program. So the loop
times a fixed calibration kernel between calls, at least every
``EVERY_S`` seconds, and each call's wall time is scaled by
``REFERENCE_S / (mean of the kernel times just before and after it)``:
the time the call would have taken on a core where the kernel takes
``REFERENCE_S``. The kernel mixes the work the program itself does,
interpreter arithmetic, float parsing and formatting and small numpy and
LAPACK calls, so both slow down alike. Raw wall times are reported next
to the scaled ones.

The kernel runs while the program is idle between calls. A program that
left threads or processes running between calls would slow the kernel and
flatter the scaled times; the raw figures show that case.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

#: kernel time on the reference core, the fast state of the machine the
#: benchmark was defined on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4)
REFERENCE_S = 0.0035
#: longest stretch of calls between two kernel runs, seconds
EVERY_S = 0.1

_TEXT = [repr(math.sin(i) * 1e3) for i in range(3000)]
_VALUES = [math.cos(i) for i in range(600)]
_MATRIX = np.eye(4) * 2.0 + 0.1
_OMEGA = 1j * np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def kernel() -> float:
    """A fixed mix of interpreter, parsing and small-matrix work."""
    acc = 0.0
    for i in range(25000):
        acc += i * 0.5
    for text in _TEXT:
        acc += float(text)
    acc += len(",".join(repr(v) for v in _VALUES))
    for _ in range(40):
        acc += float(np.linalg.eigvalsh(_MATRIX + _OMEGA).min())
        acc += float(np.linalg.det(_MATRIX[0:2, 0:2]))
    return acc


class Speed:
    """Kernel timings over a run, and the scale factor they imply."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.total_s = 0.0

    def measure(self) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.seconds.append(dt)
        self.total_s += dt

    def due(self) -> bool:
        return not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S

    def factor(self, t_start: float, t_end: float) -> float:
        """Scale for a call that ran from t_start to t_end: reference time
        over the mean of the last kernel before and first after it."""
        before = bisect.bisect_right(self.starts, t_start) - 1
        after = bisect.bisect_left(self.starts, t_end)
        picks = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        return REFERENCE_S / (sum(picks) / len(picks))
