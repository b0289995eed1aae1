"""A fixed reference workload that the benchmark's timings are divided by.

Other load on a shared host slows the whole CPU for seconds to minutes at a
time: the fastest of 17 repeats of one deterministic call moved by 30% between
runs a minute apart. That load slows this loop too. The loop runs just before
and just after every timed operation, and a run reports each operation's
median time divided by the loop's median time in the same rounds. Multiplying
by the loop's median on a quiet 2-vCPU host (CALIBRATION_S) turns that ratio
back into seconds at that host's speed. The loop does not touch onoffgraph, so
a change to the package moves calibrated times as it moves raw ones.
"""

from __future__ import annotations

import time

import numpy as np

CALIBRATION_S = 0.007
_DATA = np.random.default_rng(0).random(100_000)


def calibration_loop():
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    np.sort(_DATA)
    np.cumsum(_DATA)
    return time.perf_counter() - t0


def calibrated(seconds, reference):
    """A time measured next to a calibration loop, in seconds at the nominal speed."""
    return CALIBRATION_S * seconds / reference
