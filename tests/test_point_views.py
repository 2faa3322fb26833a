"""The one-point functions are views of the grid kernels, to the bit.

extract_scattering, transition_for, factorization_check and jost_left
run the grid kernels on the one-point grid [z].  Each must give the bits
of the matching grid function called on [z], and the bits of z's column
of a wider grid: a point's bits do not depend on the grid it sits in.
The Wronskian row of identity_sweep at [z] is the drift of the pairing
of z's jost_values rows, to the bit.

The column comparison guards the recursion's complex product, which
each step takes out of place.  numpy (2.4) multiplies a one-element
complex array in place by a scalar route that differs from its array
loop in the last bit on about 45% of random products.  With that product
in place, 93 of the 320 points of the fixtures' 32-point grids gave an
extract_scattering (99 with at_inverse), and 72 a jost_left, that
differed from their column of the grid call.
"""

import numpy as np
import pytest

from jacobiscatter import (
    Fragmentation,
    coefficient_arrays,
    extract_scattering,
    factorization_check,
    factorization_residuals,
    identity_sweep,
    jost_left,
    jost_values,
    scattering_values,
    transition_entries,
    transition_for,
)
from conftest import default_grid, hand_fixtures, random_breakpoints, random_sequence


def bits(*values):
    return np.array(values, dtype=complex).tobytes()


def fixtures():
    """The hand fixtures with a breakpoint at 0, then six random draws."""
    cases = [(seq, Fragmentation((0,))) for seq in hand_fixtures()]
    rng = np.random.default_rng(7)
    for _ in range(6):
        seq = random_sequence(rng)
        cases.append((seq, random_breakpoints(rng, seq)))
    return cases


def grids(seq):
    """One-point grids at 1j and at every fourth point of a 32-point grid,
    then that whole grid: each of its points is checked as a column."""
    zs = default_grid(seq, count=32).zs
    return [np.array([z]) for z in [1j, *zs[1::4].tolist()]] + [zs]


def test_extract_scattering_is_a_one_point_grid():
    for seq, _ in fixtures():
        for zs in grids(seq):
            for at_inverse in (False, True):
                t, r, l = scattering_values(seq, zs, at_inverse)
                for i, z in enumerate(zs.tolist()):
                    sd = extract_scattering(seq, z, at_inverse)
                    assert bits(sd.T, sd.R, sd.L) == bits(t[i], r[i], l[i]), (z, at_inverse)


def assert_read_only_2x2(arr):
    assert arr.shape == (2, 2)
    with pytest.raises(ValueError):
        arr[0, 0] = 0.0


def test_transition_for_is_a_one_point_grid():
    for seq, _ in fixtures():
        for zs in grids(seq):
            entries = transition_entries(seq, zs)
            for i, z in enumerate(zs.tolist()):
                lam = transition_for(seq, z)
                assert_read_only_2x2(lam)
                assert lam.tobytes() == entries[i].tobytes(), z


def test_factorization_check_is_a_one_point_grid():
    for seq, frag in fixtures():
        for zs in grids(seq):
            residuals = factorization_residuals(seq, frag, zs)
            entries = transition_entries(seq, zs)
            for i, z in enumerate(zs.tolist()):
                report = factorization_check(seq, frag, z)
                assert bits(report.residual) == bits(residuals[i]), (z, frag)
                assert report.fragment_count == len(frag.breakpoints) + 1
                assert_read_only_2x2(report.whole)
                assert report.whole.tobytes() == entries[i].tobytes(), (z, frag)


def test_jost_left_is_a_one_point_grid():
    for seq, _ in fixtures():
        for zs in grids(seq):
            values, lo = jost_values(seq, zs, "left")
            for i, z in enumerate(zs.tolist()):
                sol = jost_left(seq, z)
                assert sol.lo == lo
                assert sol.values.tobytes() == values[i].tobytes(), z


def reference_wronskian_row(seq, z):
    """max_n |W(n) - W(n0)| / max(1, |W(n0)|) over the solution range, with
    W(n) = a(n + 1) (f_l(n) f_r(n + 1) - f_l(n + 1) f_r(n)) and n0 its
    lowest site, in plain numpy from jost_values' rows."""
    (fl,), lo = jost_values(seq, [z], "left")
    (fr,), _ = jost_values(seq, [z], "right")
    a, _, _ = coefficient_arrays(seq, lo + 1, lo + len(fl) - 1)
    w = a * (fl[:-1] * fr[1:] - fl[1:] * fr[:-1])
    return np.max(np.abs(w - w[0])) / np.maximum(1.0, np.abs(w[0]))


def test_wronskian_row_is_the_pairing_drift_at_one_point():
    for seq, _ in fixtures():
        for z in [1j, *default_grid(seq, count=32).zs.tolist()]:
            row = identity_sweep(seq, [z])["wronskian_constancy"]
            assert bits(row) == bits(reference_wronskian_row(seq, z)), z
