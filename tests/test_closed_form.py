"""scattering_values against the closed form of a constant barrier.

The barrier holds b = b0 on sites 0 to N - 1, with a = w = 1 on the
limits (1, 0, 1), and its T, R and L come exactly from tests/closed_form.py,
at two precisions that must give the same float64 values.  1/|T| grows
like the N-th power of the barrier's evanescent factor, so these cases
reach the ill-conditioned regime, up to 1/|T| of 1e303, with a known
answer and no referee.

The gaps are taken on the 64-point grid (delta = 1e-3): T's relative to
|T|, R's and L's absolute.  Each bound is four times the gap first
measured, rounded up, and each case also holds the largest 1/|T| it was
measured at, so that it stays in the regime it was chosen for.  Past
1/|T| = 1e308 the solutions overflow: the 450-site barrier raises a
NumericalFault until rows carry their own exponent (ROADMAP item 12).
"""

import functools

import numpy as np
import pytest

from jacobiscatter import Limits, NumericalFault, sample_circle, scattering_values
from closed_form import barrier_scattering
from conftest import bits, make_sequence

GRID = sample_circle(Limits(1.0, 0.0, 1.0), 64, 1e-3).zs

# b0, N, T's relative bound, R's and L's absolute bound, and log10 of the
# largest 1/|T| less 0.05; the comments give the gaps first measured
CASES = (
    (3.0, 10, 6e-15, 1.7e-14, 9.25),  # 1.45e-15, 4.24e-15
    (3.0, 100, 1.5e-13, 4.7e-13, 70.5),  # 3.66e-14, 1.17e-13
    (3.0, 300, 4.7e-12, 1.4e-11, 206.6),  # 1.17e-12, 3.26e-12
    (3.0, 440, 8.2e-13, 2.2e-12, 301.85),  # 2.03e-13, 5.44e-13
    (0.5, 100, 2.5e-13, 6.2e-13, 32.25),  # 6.15e-14, 1.55e-13
    (0.5, 1000, 1e-12, 2.6e-12, 303.2),  # 2.50e-13, 6.43e-13
)

# past the double range the tail fit is not finite; this case keeps the
# 440-site bounds until item 12 lets it be measured
PAST_OVERFLOW = pytest.param(
    3.0, 450, 8.2e-13, 2.2e-12, 308.65,
    marks=pytest.mark.xfail(strict=True, raises=NumericalFault, reason=(
        "1/|T| reaches 5e308 and the tail fit is not finite: "
        "ROADMAP item 12, rows that carry their own exponent"
    )),
)


@functools.lru_cache(maxsize=None)
def closed_form(b0, n, margin=30):
    return barrier_scattering(b0, n, GRID, margin)


def barrier(b0, n):
    return make_sequence(0, [1.0] * n, [b0] * n, [1.0] * n)


@pytest.mark.parametrize("b0, n", [case[:2] for case in CASES] + [(3.0, 450)])
def test_two_precisions_give_the_same_values(b0, n):
    assert bits(*closed_form(b0, n)) == bits(*closed_form(b0, n, margin=60))


@pytest.mark.parametrize("b0, n, t_bound, rl_bound, log10_inv_t", [*CASES, PAST_OVERFLOW])
def test_scattering_values_match_the_closed_form(b0, n, t_bound, rl_bound, log10_inv_t):
    t, r, l = scattering_values(barrier(b0, n), GRID)
    want_t, want_r, want_l = closed_form(b0, n)
    assert np.max(-np.log10(np.abs(want_t))) >= log10_inv_t
    assert np.max(np.abs(t - want_t) / np.abs(want_t)) <= t_bound
    assert np.max(np.abs(r - want_r)) <= rl_bound
    assert np.max(np.abs(l - want_l)) <= rl_bound
