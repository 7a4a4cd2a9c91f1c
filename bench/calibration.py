"""A fixed reference load that measures how fast the host runs right now.

The shared host this benchmark was built on changes speed by up to 2x over
seconds and 1.5x over minutes, and the change shows in CPU time as well as
wall time, so no statistic taken inside one run removes it. The worker
therefore times `reference_work()` between passes, and run.py scales each
pass's op latencies by REFERENCE_NOMINAL_S / (reference time around that
pass): the calibrated figures are what the op would take on the host at its
nominal speed. The reference uses only the standard library, never orbinv,
so a change to the program cannot change it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# median of reference_seconds() on the 2-vCPU host (Python 3.11.7) where the
# benchmark's recorded numbers were taken; only ratios to it matter
REFERENCE_NOMINAL_S = 0.030


def reference_work() -> int:
    """About 30 ms of the kinds of work the workloads do: Fraction matrix
    products, small-integer number theory loops, big-integer products, and
    dict and str handling."""
    m = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 7) for j in range(4)]
         for i in range(4)]
    checksum = 0
    for _ in range(3):
        a = m
        for _ in range(12):
            a = [[sum((a[i][k] * m[k][j] for k in range(4)), Fraction(0)) for j in range(4)]
                 for i in range(4)]
            a = [[x.limit_denominator(10**9) for x in row] for row in a]
        checksum += sum(x.numerator for row in a for x in row)
    for n in range(1, 4000):
        # Jacobi symbol (n / 10007)
        a, b, sign = n, 10007, 1
        while a:
            while a % 2 == 0:
                a //= 2
                if b % 8 in (3, 5):
                    sign = -sign
            a, b = b, a
            if a % 4 == 3 and b % 4 == 3:
                sign = -sign
            a %= b
        checksum += sign
    big = 1
    for i in range(1, 400):
        big *= 2 * i - 1
    checksum += big % 1_000_003
    table: dict[str, int] = {}
    for i in range(12000):
        key = f"k{i % 257}"
        table[key] = table.get(key, 0) + i
    return checksum + len(table)


def reference_seconds() -> float:
    """Time one run of reference_work() with the garbage collector off, so the
    heap the program under test leaves behind cannot change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
