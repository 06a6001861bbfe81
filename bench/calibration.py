"""A fixed calibration kernel that gauges the CPU speed a run gets.

On a shared machine the speed one process gets drifts by up to +-25%
over tens of seconds, so raw wall times of identical work differ more
between runs than any useful regression bound (see README.md).  The
kernel mixes the kinds of work the package spends its time in:
contractions of small complex arrays, Python loops and object churn,
and seeded multinomial draws.  It calls nothing from the package, so
no change to the package changes its cost.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time in ms at the reference speed: the median of 2,000
# measure() calls on the reference machine (README.md, "Reference machine").
REFERENCE_MS = 2.2

_UNIFORM = np.full(16, 1.0 / 16.0)
_EYE = np.eye(2, dtype=complex)


def kernel():
    amps = np.ones((2, 2, 2, 2), dtype=complex)
    for _ in range(30):
        amps = np.moveaxis(
            np.tensordot(_EYE, np.moveaxis(amps, 1, 0), axes=(1, 0)), 0, 1)
    total = 0
    for i in range(4000):
        total += i * i
    rows = sorted(({"k": i, "v": (i, str(i))} for i in range(400)),
                  key=lambda row: -row["k"])
    for i in range(20):
        np.random.default_rng([i, 1]).multinomial(100, _UNIFORM)
    return total, rows[0]


def measure(passes=3):
    """Median wall time of a few kernel passes, in ms.

    The median keeps one pass that meets a scheduling hiccup from
    rescaling a whole job.
    """
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def scale(*cal_ms):
    """Factor taking a wall time to the reference speed, from the
    measure() results around it (None where there is none)."""
    cal = [c for c in cal_ms if c is not None]
    return REFERENCE_MS / statistics.fmean(cal)
