"""A fixed reference computation that tracks the speed of the machine.

On a shared virtual machine the same call can take twice as long from one
minute to the next, because the host, not the program, changes speed: over
200 s on the 2-core VM this benchmark was written on, the kernel below took
from 11 ms to 37 ms, and the program's calls slowed and sped up with it.  The
benchmark therefore times this kernel before and after every call and
reports each call's time at the reference speed, at which the kernel takes
``REF_S``:

    reported = measured * REF_S / (mean of the two adjacent kernel times)

The kernel is the kind of work the program does: exact fraction-free
elimination on two fixed integer matrices, one with small entries that grow
to ~150 bits and one whose entries grow to ~6000 bits, like the program's
kernel lattices.  It never changes, so a change to the program moves the
reported time exactly as much as it moves the measured one.
"""

from __future__ import annotations

import time

# The kernel's median time on the reference machine (2-core Intel Xeon VM,
# 2.1 GHz, Python 3.11), so reported times read close to wall-clock seconds.
REF_S = 0.022


def _lcg_matrix(n, bits, seed):
    x, rows = seed, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (6364136223846793005 * x + 1442695040888963407) % (1 << 64)
            row.append((x >> (64 - bits)) - (1 << (bits - 1)) if bits < 64
                       else (x << (bits - 64)) + x)
        rows.append(row)
    return rows


_SMALL = _lcg_matrix(36, 5, 12345)
_LARGE = _lcg_matrix(12, 512, 987654321)


def _bareiss(rows):
    a = [r[:] for r in rows]
    prev = 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def kernel_seconds():
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _bareiss(_SMALL)
    _bareiss(_SMALL)
    _bareiss(_LARGE)
    return time.perf_counter() - t0
