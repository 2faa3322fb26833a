"""Exact scattering data of a constant barrier, in the standard library's decimal.

The window holds N sites n = 0, ..., N - 1 with b(n) = b0 and a = w = 1,
on the limits (1, 0, 1).  A state (f(n), f(n - 1)) crosses one barrier
site by the step M = [[d - b0, -1], [1, 0]], with d the drive, so
P = M^N, by binary powering, takes the state at n = 0 to the state at
n = N.  Outside the barrier a solution is a plane-wave pair
alpha z^n + beta z^-n, whose state at n is B(n) (alpha, beta) with
B(n) = [[z^n, z^-n], [z^(n-1), z^(1-n)]].  So A = B(N)^-1 P B(0) maps
the left amplitudes to the right ones and, as det A = 1,

    1/T = A[1][1],   L/T = -A[1][0],   R/T = A[0][1].

d is the exact value of the float64 drive the package computes,
1.0 * (z + 1.0 / z) + 0.0, not z + 1/z.  So a gap to these values
measures the recursion and the tail fit, not the rounding of lambda.

Complex numbers are (real, imaginary) pairs of Decimals.  The values
that matter cancel by about N log10(|b0| + 3) digits, the growth of M^N,
so barrier_scattering works at that many digits plus a margin and
rounds each result to float64 once, at the end.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

ONE = (Decimal(1), Decimal(0))
ZERO = (Decimal(0), Decimal(0))


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _neg(x):
    return (-x[0], -x[1])


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _div(x, y):
    size = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / size, (x[1] * y[0] - x[0] * y[1]) / size)


def _matmul(p, q):
    return [[_add(_mul(p[i][0], q[0][j]), _mul(p[i][1], q[1][j])) for j in (0, 1)]
            for i in (0, 1)]


def _power(m, k: int, times):
    """m to the power k >= 1, by binary powering under the product times."""
    result = None
    while k:
        if k & 1:
            result = m if result is None else times(result, m)
        k >>= 1
        if k:
            m = times(m, m)
    return result


def _pair(value: complex):
    return (Decimal(value.real), Decimal(value.imag))


def _point(z: complex, drive: complex, b0: float, n: int) -> tuple[complex, complex, complex]:
    """(T, R, L) at one point, at the context's precision, rounded to float64."""
    zd = _pair(z)
    step = [[_add(_pair(drive), (-Decimal(b0), Decimal(0))), _neg(ONE)], [ONE, ZERO]]
    z_inv = _div(ONE, zd)
    moved = _matmul(_power(step, n, _matmul), [[ONE, ONE], [z_inv, zd]])  # P B(0)
    zn = _power(zd, n, _mul)
    zn_inv = _div(ONE, zn)
    det = _add(zd, _neg(z_inv))  # of B(N)
    back = [[_mul(zd, zn_inv), _neg(zn_inv)], [_neg(_mul(zn, z_inv)), zn]]
    amp = [[_div(entry, det) for entry in row] for row in _matmul(back, moved)]
    t = _div(ONE, amp[1][1])
    r = _mul(amp[0][1], t)
    l = _neg(_mul(amp[1][0], t))
    return tuple(complex(float(v[0]), float(v[1])) for v in (t, r, l))


def digits(b0: float, n: int, margin: int) -> int:
    """margin + ceil(n log10(|b0| + 3)) + 10: the cancellation of an
    n-site barrier of height b0, and margin digits beyond it."""
    return margin + math.ceil(n * math.log10(abs(b0) + 3.0)) + 10


def barrier_scattering(
    b0: float, n: int, zs: np.ndarray, margin: int = 30
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, R, L) arrays over zs of the n-site barrier of height b0, each
    entry exact at digits(b0, n, margin) and rounded to float64."""
    zs = np.asarray(zs, dtype=complex)
    drives = 1.0 * (zs + 1.0 / zs) + 0.0
    with localcontext() as ctx:
        ctx.prec = digits(b0, n, margin)
        values = [_point(z, d, b0, n) for z, d in zip(zs.tolist(), drives.tolist())]
    t, r, l = (np.array(column, dtype=complex) for column in zip(*values))
    return t, r, l
