"""Solution construction against a deliberately plain scalar re-derivation.

The brute oracle below recomputes the recursion site by site with dict
storage and no vectorization, sharing nothing with the library path except
the coefficient definition, so agreement is meaningful.
"""

import cmath

import numpy as np
import pytest

from jacobiscatter import (
    NumericalFault,
    coefficient_arrays,
    equation_residual,
    identity_sweep,
    jost_values,
    solution_range,
)
from conftest import default_grid, make_sequence, overflowing_sequence, random_sequence


def brute_solution(seq, z, side, lo, hi):
    lim = seq.limits
    s = lim.a_inf * (z + 1.0 / z) + lim.b_inf

    def abw(n):
        if seq.window.n_min <= n <= seq.window.n_max:
            k = n - seq.window.n_min
            return float(seq.a_values[k]), float(seq.b_values[k]), float(seq.w_values[k])
        return lim.a_inf, lim.b_inf, lim.w_inf

    vals = {}
    if side == "left":
        for n in range(seq.window.n_max, hi + 1):
            vals[n] = z**n
        for n in range(seq.window.n_max, lo, -1):
            a_n, b_n, w_n = abw(n)
            a_up = abw(n + 1)[0]
            vals[n - 1] = (
                (w_n / lim.w_inf) * s * vals[n] - a_up * vals[n + 1] - b_n * vals[n]
            ) / a_n
    else:
        for n in range(lo, seq.window.n_min):
            vals[n] = z ** (-n)
        for n in range(seq.window.n_min - 1, hi):
            a_n, b_n, w_n = abw(n)
            a_up = abw(n + 1)[0]
            vals[n + 1] = (
                (w_n / lim.w_inf) * s * vals[n] - b_n * vals[n] - a_n * vals[n - 1]
            ) / a_up
    return vals


def pairing_row(seq, p, q, lo):
    """W(n) = a(n + 1) (p(n) q(n + 1) - p(n + 1) q(n)) at the sites lo to
    hi - 1 of two jost_values rows over [lo, hi], in plain numpy."""
    a, _, _ = coefficient_arrays(seq, lo + 1, lo + len(p) - 1)
    return a * (p[:-1] * q[1:] - p[1:] * q[:-1])


@pytest.mark.parametrize("side", ["left", "right"])
def test_matches_brute_recursion(mixed_seq, side):
    for theta in (0.4, 2.2, -1.1, -2.9):
        z = cmath.exp(1j * theta)
        (sol,), lo = jost_values(mixed_seq, [z], side)
        hi = lo + len(sol) - 1
        brute = brute_solution(mixed_seq, z, side, lo, hi)
        scale = max(max(abs(v) for v in brute.values()), 1.0)
        for n in range(lo, hi + 1):
            assert abs(sol[n - lo] - brute[n]) <= 1e-12 * scale


def test_free_solutions_are_plane_waves(free_seq):
    z = cmath.exp(0.9j)
    (fl,), lo = jost_values(free_seq, [z], "left")
    (fr,), _ = jost_values(free_seq, [z], "right")
    for k, n in enumerate(range(lo, lo + len(fl))):
        assert abs(fl[k] - z**n) <= 1e-13
        assert abs(fr[k] - z ** (-n)) <= 1e-13


def test_left_tail_is_exact_beyond_support(single_site_seq):
    z = cmath.exp(-0.7j)
    (fl,), lo = jost_values(single_site_seq, [z], "left")
    # seeding, not recursion, fills these sites
    assert fl[0 - lo] == 1.0
    assert abs(fl[1 - lo] - z) <= 1e-15
    assert abs(fl[2 - lo] - z * z) <= 1e-15


def test_single_site_hand_values():
    """One recursion step below / above the support in closed form."""
    seq = make_sequence(0, [1.0], [0.5], [1.0])
    for z in (1j, cmath.exp(0.6j), cmath.exp(-2.4j)):
        (fl,), lo = jost_values(seq, [z], "left")
        (fr,), _ = jost_values(seq, [z], "right")
        expected = 1.0 / z - 0.5
        assert abs(fl[-1 - lo] - expected) <= 1e-14
        assert abs(fr[1 - lo] - expected) <= 1e-14
    # at z = i both become -0.5 - i
    (fl,), lo = jost_values(seq, [1j], "left")
    assert fl[-1 - lo] == pytest.approx(-0.5 - 1j, abs=1e-14)


def test_equation_residual_small_everywhere(mixed_seq):
    grid = default_grid(mixed_seq, count=32)
    for side in ("left", "right"):
        residual = equation_residual(mixed_seq, grid.zs[::5], side)
        assert residual.shape == (7,)
        assert np.max(residual) <= 1e-12


def test_equation_residual_random_sequences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        seq = random_sequence(rng)
        z = cmath.exp(1j * rng.uniform(0.2, 2.9))
        assert equation_residual(seq, [z], "left")[0] <= 1e-12


@pytest.mark.filterwarnings("error")
def test_equation_residual_faults_on_an_overflowing_window():
    """The undamped 10,000-site window overflows from the grid's first
    point on: the residual raises NumericalFault naming that theta, where
    it would be NaN, and numpy warns of nothing."""
    seq = overflowing_sequence()
    zs = default_grid(seq, count=16).zs
    with pytest.raises(NumericalFault) as fault:
        equation_residual(seq, zs, "left")
    assert str(fault.value) == f"equation residual is not finite at theta = {np.angle(zs[0]):.6g}"


def test_solution_range_covers_support_margin(mixed_seq):
    lo, hi = solution_range(mixed_seq)
    assert lo == mixed_seq.window.n_min - 2
    assert hi == mixed_seq.window.n_max + 2


def test_conjugate_solution_equals_entrywise_conjugate(mixed_seq):
    """The companion, the at_inverse mode, is the solution's entrywise
    conjugate on the circle."""
    for theta in (0.8, -1.9, 2.6):
        z = cmath.exp(1j * theta)
        (fl,), _ = jost_values(mixed_seq, [z], "left")
        (gl,), _ = jost_values(mixed_seq, [z], "left", at_inverse=True)
        for k in range(len(fl)):
            assert abs(gl[k] - fl[k].conjugate()) <= 1e-10


def test_at_inverse_mode_flips_seed_exponents(free_seq):
    z = cmath.exp(0.4j)
    vals, lo = jost_values(free_seq, np.array([z]), "left", at_inverse=True)
    for k in range(vals.shape[1]):
        assert abs(vals[0, k] - z ** (-(lo + k))) <= 1e-13


def test_side_argument_is_validated(free_seq):
    with pytest.raises(ValueError):
        jost_values(free_seq, np.array([1j]), "up")
    with pytest.raises(ValueError):
        equation_residual(free_seq, np.array([1j]), "up")


def test_wronskian_free_pair_value(free_seq):
    z = cmath.exp(0.9j)
    (fl,), lo = jost_values(free_seq, [z], "left")
    (gl,), _ = jost_values(free_seq, [z], "left", at_inverse=True)
    w = pairing_row(free_seq, fl, gl, lo)
    want = 1.0 / z - z
    for n in (-2, 0, 1):
        assert abs(w[n - lo] - want) <= 1e-13


def test_wronskian_antisymmetry_and_self(mixed_seq):
    z = cmath.exp(-0.8j)
    (fl,), lo = jost_values(mixed_seq, [z], "left")
    (fr,), _ = jost_values(mixed_seq, [z], "right")
    assert pairing_row(mixed_seq, fl, fl, lo)[0 - lo] == 0
    lhs = pairing_row(mixed_seq, fl, fr, lo)[1 - lo]
    rhs = pairing_row(mixed_seq, fr, fl, lo)[1 - lo]
    assert abs(lhs + rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_wronskian_is_constant_across_sites(mixed_seq):
    z = cmath.exp(0.35j)
    (fl,), lo = jost_values(mixed_seq, [z], "left")
    (fr,), _ = jost_values(mixed_seq, [z], "right")
    w = pairing_row(mixed_seq, fl, fr, lo)
    w_low, w_high = w[-3 - lo], w[3 - lo]
    assert abs(w_low - w_high) <= 1e-12 * max(1.0, abs(w_low))
    assert identity_sweep(mixed_seq, [z])["wronskian_constancy"] <= 1e-12
