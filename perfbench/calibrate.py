"""Machine-speed calibration for the end-to-end times.

The CPU speed this benchmark sees changes with the load on the rest of the
host. On the 2-core Xeon box the benchmark was defined on, the same
sim_study op took 0.065 s or 0.12 s depending on the spell it ran in, and
the share of slow spells differed from run to run, so wall times of runs
made minutes apart spread by 15-30%. A fixed kernel timed just before and
just after each op samples the speed of the spell the op ran in; each op's
time is reported scaled to the kernel's reference speed:

    reported seconds = wall seconds * REFERENCE_KERNEL_S / kernel time around the op

where the kernel time around the op is the mean of the two samples. Over
sets of ten 30-second runs, this cut the spread (interquartile distance /
median) of op_s_p50 from 9-19% to 2-3% on sim_study and from 6-15% to 3-6%
on scoring_long. It follows cli_milk only roughly (31% to 14% in one set,
6-16% to 7-16% in two others): a CLI process's start-up and imports do not
slow down with the host's load in step with the kernel.
The kernel is the benchmark's own fixed code (a small nearest-neighbor scan
in numpy plus a Python loop, close to cpwnn's mix), so a change to cpwnn
does not change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Median kernel time on the box above; it only sets the scale of the
# reported seconds.
REFERENCE_KERNEL_S = 1.2e-3


_VALUES = np.random.default_rng(0).standard_normal(300)


def _kernel() -> float:
    total = 0.0
    for t in range(150, 300, 10):
        windows = sliding_window_view(_VALUES[:t], 12)[: t - 14]
        diff = windows - _VALUES[t - 12 : t]
        d2 = np.einsum("ij,ij->i", diff, diff)
        order = np.argsort(d2, kind="stable")
        total += float((1.0 / (d2[order[:5]] + 1e-8)).sum())
    for i in range(2000):
        total += i * i
    return total


def kernel_time(budget_s: float = 0.0) -> float:
    """Time the kernel once, then again until budget_s has passed; return the median."""
    times = []
    until = time.perf_counter() + budget_s
    while True:
        start = time.perf_counter()
        _kernel()
        now = time.perf_counter()
        times.append(now - start)
        if now >= until:
            return statistics.median(times)


def scaled(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Wall seconds at the reference speed, from the kernel times around them."""
    return wall_s * REFERENCE_KERNEL_S / (0.5 * (kernel_before_s + kernel_after_s))
