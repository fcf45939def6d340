"""Machine-speed correction for the benchmark's timings.

The shared 2-vCPU Xeon host the baseline was measured on switches between
two speeds up to 1.5x apart within milliseconds, on both CPUs at once and in
CPU time as in wall time, and the share of a run spent in the slow state
changes from run to run.  A short fixed pure-Python kernel is therefore timed
between stretches of the measured work, and each stretch is scaled by
REFERENCE_NS over the mean kernel time around it: timings read as they would
at the speed where the kernel takes REFERENCE_NS.  The kernel does the kinds
of work the library does per tick (dict updates, small tuples, integer
hashing, float logarithms).
"""

from __future__ import annotations

import math
import time

REFERENCE_NS = 100_000
# tick time measured between two kernel timings; the speed switches within
# milliseconds, so the kernel is short and timed often
STRETCH_NS = 1_000_000


def kernel() -> float:
    table: dict[int, tuple] = {}
    acc = 0.0
    for i in range(300):
        table[i & 255] = (i, acc)
        acc += math.log1p((i * 2654435761 & 0xFFFF) / 65536.0)
    return acc


def kernel_ns() -> int:
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


def scale(before_ns: int, after_ns: int) -> float:
    """Factor turning a time measured between two kernel timings into reference time."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)
