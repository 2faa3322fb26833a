"""Solution construction against a deliberately plain scalar re-derivation.

The brute oracle below recomputes the recursion site by site with dict
storage and no vectorization, sharing nothing with the library path except
the coefficient definition, so agreement is meaningful.
"""

import cmath

import numpy as np
import pytest

from jacobiscatter import (
    IndexWindow,
    conjugate_solution,
    equation_residual,
    jost_left,
    jost_right,
    jost_values,
    solution_range,
    wronskian,
    wronskian_constancy_check,
)
from conftest import default_grid, make_sequence, random_sequence


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


@pytest.mark.parametrize("side", ["left", "right"])
def test_matches_brute_recursion(mixed_seq, side):
    for theta in (0.4, 2.2, -1.1, -2.9):
        z = cmath.exp(1j * theta)
        sol = jost_left(mixed_seq, z) if side == "left" else jost_right(mixed_seq, z)
        brute = brute_solution(mixed_seq, z, side, sol.lo, sol.hi)
        scale = max(max(abs(v) for v in brute.values()), 1.0)
        for n in range(sol.lo, sol.hi + 1):
            assert abs(sol.at(n) - brute[n]) <= 1e-12 * scale


def test_free_solutions_are_plane_waves(free_seq):
    z = cmath.exp(0.9j)
    fl = jost_left(free_seq, z)
    fr = jost_right(free_seq, z)
    for n in range(fl.lo, fl.hi + 1):
        assert abs(fl.at(n) - z**n) <= 1e-13
        assert abs(fr.at(n) - z ** (-n)) <= 1e-13


def test_left_tail_is_exact_beyond_support(single_site_seq):
    z = cmath.exp(-0.7j)
    fl = jost_left(single_site_seq, z)
    # seeding, not recursion, fills these sites
    assert fl.at(0) == 1.0
    assert abs(fl.at(1) - z) <= 1e-15
    assert abs(fl.at(2) - z * z) <= 1e-15


def test_single_site_hand_values():
    """One recursion step below / above the support in closed form."""
    seq = make_sequence(0, [1.0], [0.5], [1.0])
    for z in (1j, cmath.exp(0.6j), cmath.exp(-2.4j)):
        fl = jost_left(seq, z)
        fr = jost_right(seq, z)
        expected = 1.0 / z - 0.5
        assert abs(fl.at(-1) - expected) <= 1e-14
        assert abs(fr.at(1) - expected) <= 1e-14
    # at z = i both become -0.5 - i
    fl = jost_left(seq, 1j)
    assert fl.at(-1) == pytest.approx(-0.5 - 1j, abs=1e-14)


def test_equation_residual_small_everywhere(mixed_seq):
    grid = default_grid(mixed_seq, count=32)
    for z in grid.zs[::5]:
        assert equation_residual(mixed_seq, jost_left(mixed_seq, complex(z))) <= 1e-12
        assert equation_residual(mixed_seq, jost_right(mixed_seq, complex(z))) <= 1e-12


def test_equation_residual_random_sequences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        seq = random_sequence(rng)
        z = cmath.exp(1j * rng.uniform(0.2, 2.9))
        assert equation_residual(seq, jost_left(seq, z)) <= 1e-12


def test_solution_range_covers_support_margin(mixed_seq):
    lo, hi = solution_range(mixed_seq)
    assert lo == mixed_seq.window.n_min - 2
    assert hi == mixed_seq.window.n_max + 2


def test_solution_range_honors_cover(mixed_seq):
    lo, hi = solution_range(mixed_seq, IndexWindow(-9, 11))
    assert lo <= -9 and hi >= 11


def test_conjugate_solution_equals_entrywise_conjugate(mixed_seq):
    for theta in (0.8, -1.9, 2.6):
        z = cmath.exp(1j * theta)
        fl = jost_left(mixed_seq, z)
        gl = conjugate_solution(mixed_seq, z, "left")
        for n in range(fl.lo, fl.hi + 1):
            assert abs(gl.at(n) - fl.at(n).conjugate()) <= 1e-10


def test_conjugate_free_solution_swaps_wave_direction(free_seq):
    z = cmath.exp(1.3j)
    gl = conjugate_solution(free_seq, z, "left")
    for n in range(gl.lo, gl.hi + 1):
        assert abs(gl.at(n) - z ** (-n)) <= 1e-13


def test_at_inverse_mode_flips_seed_exponents(free_seq):
    z = cmath.exp(0.4j)
    vals, lo = jost_values(free_seq, np.array([z]), "left", at_inverse=True)
    for k in range(vals.shape[1]):
        assert abs(vals[0, k] - z ** (-(lo + k))) <= 1e-13


def test_side_argument_is_validated(free_seq):
    with pytest.raises(ValueError):
        jost_values(free_seq, np.array([1j]), "up")


def test_wronskian_free_pair_value(free_seq):
    z = cmath.exp(0.9j)
    fl = jost_left(free_seq, z)
    gl = conjugate_solution(free_seq, z, "left")
    want = 1.0 / z - z
    for n in (-2, 0, 1):
        assert abs(wronskian(free_seq, fl, gl, n) - want) <= 1e-13


def test_wronskian_antisymmetry_and_self(mixed_seq):
    z = cmath.exp(-0.8j)
    fl = jost_left(mixed_seq, z)
    fr = jost_right(mixed_seq, z)
    assert wronskian(mixed_seq, fl, fl, 0) == 0
    lhs = wronskian(mixed_seq, fl, fr, 1)
    rhs = wronskian(mixed_seq, fr, fl, 1)
    assert abs(lhs + rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_wronskian_is_constant_across_sites(mixed_seq):
    z = cmath.exp(0.35j)
    fl = jost_left(mixed_seq, z)
    fr = jost_right(mixed_seq, z)
    w_low = wronskian(mixed_seq, fl, fr, -3)
    w_high = wronskian(mixed_seq, fl, fr, 3)
    assert abs(w_low - w_high) <= 1e-12 * max(1.0, abs(w_low))
    assert wronskian_constancy_check(mixed_seq, fl, fr) <= 1e-12


def test_wronskian_constancy_needs_overlap(mixed_seq):
    z = 1j
    fl = jost_left(mixed_seq, z)
    with pytest.raises(ValueError):
        wronskian_constancy_check(mixed_seq, fl, fl.__class__(
            values=fl.values[:2], lo=fl.lo, kind=fl.kind, z=fl.z
        ))
