"""A fixed reference kernel that measures the machine's current speed.

On a shared machine the same pure-Python work runs at speeds that differ by
a quarter or more for tens of seconds at a time, so a run's wall times move
with the machine as much as with the program.  The runner times this kernel
right after every timed op and reports the op's time as a multiple of the
kernel's mean time right before the op (after the previous timed op) and
right after it.  The kernel does the kind of interpreter work
char2forms does (bit-packed GF(2)[t] products and gcds, small integer
matrix products) but uses nothing from char2forms, so a change to the
program cannot change the kernel.
"""

from __future__ import annotations

from time import perf_counter

SHARE = 0.05     # kernel time after an op, as a share of the op's time
MIN_CALLS = 4    # about 1 ms, so that one sample is not a single short call


def _poly_mod(a: int, b: int) -> int:
    """a mod b for binary polynomials packed into ints."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def kernel() -> int:
    acc = 0
    for i in range(1, 25):
        x, y, product = 0x1B3F5 ^ (i * 0x9E37), 0x2D1 ^ i, 0
        while y:
            if y & 1:
                product ^= x
            x <<= 1
            y >>= 1
        u, v = product, 0x3A7 ^ i | 1
        while v:
            u, v = v, _poly_mod(u, v)
        acc ^= u
    m = [[(i * j + acc) & 7 for j in range(6)] for i in range(6)]
    for _ in range(3):
        m = [[sum(m[i][k] * m[k][j] for k in range(6)) & 0xFFFF for j in range(6)]
             for i in range(6)]
    return acc ^ m[0][0]


def speed_sample(op_seconds: float) -> float:
    """Mean seconds of one kernel call, over calls that add up to SHARE of
    `op_seconds` (at least MIN_CALLS calls)."""
    total, calls = 0.0, 0
    while calls < MIN_CALLS or total < SHARE * op_seconds:
        start = perf_counter()
        kernel()
        total += perf_counter() - start
        calls += 1
    return total / calls
