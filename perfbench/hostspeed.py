"""Host speed, measured by a fixed reference kernel run between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
itself: a fixed pure-Python loop and a fixed dense solve, timed in turn for
150 s, ranged over a factor of 1.5 and 1.7 between the medians of 25 s
windows, while they moved together (correlation 0.99 between windows) and
the quartile spread of their ratio was 0.11.  Times of the same operations
therefore spread more between runs than the program's own variation does.

The reference kernel below is the benchmark's own code and never calls the
package under test.  It mixes the three kinds of work the workloads do:
interpreter-bound loops over dicts and lists (``dp``, argument parsing,
JSON), many calls into numpy on tiny arrays (``derivatives``, ``optimize``)
and a dense solve (``eval``).  An operation's normalized time is its CPU
time scaled by REF_MS over the kernel's CPU time measured around it, that
is, the time it would have taken on a host where the kernel takes REF_MS.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time in ms on the machine the benchmark was written on
# (2 vCPUs of a shared Intel Xeon host, numpy 2.4 with single-threaded
# OpenBLAS) at the fast end of its drift, 1.0-1.1 ms; over 2 ms in slow
# spells.  Only a unit: any fixed value gives the same spreads and ratios.
REF_MS = 1.0
REPEATS = 3  # the median drops a pass that an interrupt or a page fault lengthened

_RNG = np.random.default_rng(20160826)
_DENSE = _RNG.random((100, 100)) + 100.0 * np.eye(100)
_DENSE_RHS = np.eye(100)
_SMALL = _RNG.random((4, 4)) + 4.0 * np.eye(4)
_SMALL_RHS = np.ones(4)


def kernel() -> float:
    """One pass of the reference work, about a third of its time in each
    kind; returns a value that depends on all three."""
    acc = 0
    table = {}
    for i in range(3500):
        acc += (i * i) % 7
        table[i & 127] = acc
    x = _SMALL_RHS
    for _ in range(50):
        x = np.linalg.solve(_SMALL, x)
        x = x / x.sum()
    y = np.linalg.solve(_DENSE, _DENSE_RHS)
    return float(acc + x[0] + y[0, 0] + len(table))


def sample() -> float:
    """Median CPU time in ms of REPEATS passes of the kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]
