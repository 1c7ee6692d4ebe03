"""Machine-speed calibration.

CPU speed on a shared host can swing by 2x for seconds at a time, which
moves every timing of a run together.  The harness therefore runs a fixed
kernel, owned by the benchmark and independent of fblsec, at least every
INTERVAL_S between operations.  Each operation's time is divided by the
mean kernel time just before and just after it, and multiplied by
NOMINAL_S: the result is the operation's time on a machine where the kernel
takes NOMINAL_S, still in seconds.  A change to fblsec leaves the kernel
unchanged, so calibrated times compare across commits on one machine.
Operations that run several threads are not scaled: the single-thread kernel
does not track them.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np
from scipy.special import erfc

NOMINAL_S = 0.03
INTERVAL_S = 0.5
SCALAR_STEPS = 1500          # 0-d numpy arithmetic, like the scalar kernels
VECTOR_SIZE = 256_000        # one oracle chunk: 512 blocklengths x 500 powers
VECTOR_REPEATS = 4
FORMAT_ROWS = 1500           # CSV-style float formatting, like the commands


class Calibrator:
    """Runs the kernel on demand and scales operation times by it."""

    def __init__(self):
        self._grid = np.linspace(-6.0, 6.0, VECTOR_SIZE)
        self.stamps = []     # end time of each kernel run
        self.times = []      # its duration

    def kernel(self) -> float:
        t0 = perf_counter()
        x = np.float64(1.0)
        for i in range(SCALAR_STEPS):
            x = np.sqrt(x + np.float64(i)) * 0.5
        for _ in range(VECTOR_REPEATS):
            erfc(self._grid)
        "\n".join(",".join(format(v * k, ".17g") for v in (0.1, 0.2, 0.3, 0.4))
                  for k in range(FORMAT_ROWS))
        t1 = perf_counter()
        self.stamps.append(t1)
        self.times.append(t1 - t0)
        return t1 - t0

    def maybe(self) -> None:
        """Run the kernel when the last run is older than the interval."""
        if not self.stamps or perf_counter() - self.stamps[-1] >= INTERVAL_S:
            self.kernel()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time around [start, end]."""
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        near = [self.times[i] for i in (before, after) if 0 <= i < len(self.times)]
        return NOMINAL_S / (sum(near) / len(near))
