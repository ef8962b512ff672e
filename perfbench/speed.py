"""The machine-speed reference: a fixed stdlib loop timed between instances.

The benchmark's host is a shared virtual machine whose cores run a plain
Python loop up to 1.8 times slower for stretches of seconds to minutes, so
wall times of the same code spread by more than the benchmark's bounds from
one run to the next.  ``reference_loop`` does a fixed amount of work shaped
like the package's inner loops (integer row operations on lists, products
of sparse polynomials stored as dicts of exponent tuples with big integer
coefficients, sums of products of fractions with large numerators and
denominators) and uses none of the package's code, so a change to the
package cannot change its time; only the machine can.  Timing it between
instances gives the speed of the core at that moment, and a pass's wall
time divided by it, times ``REFERENCE_S``, is the pass's time at the speed
the reference loop was measured at (its fastest time on the baseline
machine).
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The reference loop's fastest time on the baseline machine (5.2 ms on
# CPython 3.11.7, a 2-vCPU Intel Xeon virtual machine at 2.1 GHz), rounded;
# a fixed scale, so that normalised times read as seconds.
REFERENCE_S = 0.005

_ROWS = [list(range(k, k + 40)) for k in range(60)]
_A = {
    (i, j, 6 - i - j): (i * 7919 + j * 104729 + 1) * 10**18 + 3
    for i in range(7)
    for j in range(7 - i)
}
_B = {
    (i, j, 3 - i - j): (j * 31337 + i * 65537 + 5) * 10**12 - 7
    for i in range(4)
    for j in range(4 - i)
}

_Q = [Fraction(3**k * 7**(40 - k) + 1, 5**k * 11**(30 - k // 2) - 1) for k in range(1, 41)]


def _work() -> int:
    rows = [r[:] for r in _ROWS]
    for i in range(40):
        pivot = rows[i]
        for r in rows[i + 1 : i + 12]:
            f = r[i]
            r[:] = [(3 * x - f * y) % 1000003 for x, y in zip(r, pivot)]
    product: dict = {}
    for _ in range(4):
        product = {}
        for ma, ca in _A.items():
            for mb, cb in _B.items():
                key = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                product[key] = product.get(key, 0) + ca * cb
    total = Fraction(0)
    for a in _Q:
        for b in _Q[:4]:
            total += a * b
    return rows[-1][-1] + len(product) + total.denominator.bit_length()


def reference_loop() -> float:
    """Seconds the fixed loop takes now.  The cyclic garbage collector is
    off while it runs, so the package's heap cannot change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
