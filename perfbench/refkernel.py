"""Fixed reference kernel for within-run ratios (``wall_rel``, ``setup_s``).

A pure-Python max-recursion loop over a linear congruential sequence plus
a numpy sort of fixed data.  It imports nothing from ``armax_extremes``,
so no change to the package can move it; only the machine's speed does.

It is timed in two ways.  In process, one pass takes about 15-25 ms,
short enough to run between library calls.  As a cold process
(``python3 perfbench/refkernel.py``: interpreter start, numpy import and
10 passes) it costs what a CLI call's start-up costs, and slows down with
it when the machine is busy.
"""

from __future__ import annotations

import time

import numpy as np

_N_LOOP = 60_000
_N_SORT = 200_000
COLD_PASSES = 10

# The cold process's time on an idle core of the machine the benchmark was
# defined on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6).  A ratio
# to the cold process times it gives seconds at that machine's idle speed.
NOMINAL_COLD_S = 0.28


def make_data() -> np.ndarray:
    return np.random.default_rng(12345).random(_N_SORT)


def run(data: np.ndarray) -> float:
    """One pass of the kernel; returns a checksum so no work is skipped."""
    state = 12345
    prev = 0.0
    acc = 0.0
    for _ in range(_N_LOOP):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        y = state * 4.656612873077393e-10
        decayed = 0.5 * prev
        prev = y if y > decayed else decayed
        acc += prev
    return acc + float(np.sort(data)[_N_SORT // 2])


def timed(data: np.ndarray) -> float:
    """Wall time of one kernel pass, in seconds."""
    t0 = time.perf_counter()
    run(data)
    return time.perf_counter() - t0


class RelativeClock:
    """Work time in units of the reference timed right before and after it.

    ``measure()`` times the reference once.  Call `add` after each piece of
    work with its wall time; the piece is divided by the mean of the
    reference times on either side of it.
    """

    def __init__(self, measure):
        self.measure = measure
        self.references = [measure()]
        self.relative = 0.0

    def add(self, work_s: float) -> float:
        """Add one piece of work; return it in units of the reference."""
        before = self.references[-1]
        after = self.measure()
        self.references.append(after)
        relative = work_s / ((before + after) / 2.0)
        self.relative += relative
        return relative


if __name__ == "__main__":
    _data = make_data()
    for _ in range(COLD_PASSES):
        run(_data)
