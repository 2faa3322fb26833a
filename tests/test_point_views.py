"""The one-point functions are views of the grid kernels, to the bit.

extract_scattering, transition_for, factorization_check and jost_left
run the grid kernels on the one-point grid [z].  Each must give the bits
of the matching grid function called on [z], and the bits of z's column
of a wider grid: a point's bits do not depend on the grid it sits in.

The column comparison guards the recursion's complex product, which
each step takes out of place.  numpy (2.4) multiplies a one-element
complex array in place by a scalar route that differs from its array
loop in the last bit on about 45% of random products.  With that product
in place, 93 of the 320 points of the fixtures' 32-point grids gave an
extract_scattering (99 with at_inverse), and 72 a jost_left, that
differed from their column of the grid call.
"""

import numpy as np

from jacobiscatter import (
    Fragmentation,
    extract_scattering,
    factorization_check,
    factorization_residuals,
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


def test_transition_for_is_a_one_point_grid():
    for seq, _ in fixtures():
        for zs in grids(seq):
            entries = transition_entries(seq, zs)
            for i, z in enumerate(zs.tolist()):
                assert transition_for(seq, z).entries.tobytes() == entries[i].tobytes(), z


def test_factorization_check_is_a_one_point_grid():
    for seq, frag in fixtures():
        for zs in grids(seq):
            residuals = factorization_residuals(seq, frag, zs)
            for i, z in enumerate(zs.tolist()):
                report = factorization_check(seq, frag, z)
                assert bits(report.residual) == bits(residuals[i]), (z, frag)
                assert report.fragment_count == len(frag.breakpoints) + 1


def test_jost_left_is_a_one_point_grid():
    for seq, _ in fixtures():
        for zs in grids(seq):
            values, lo = jost_values(seq, zs, "left")
            for i, z in enumerate(zs.tolist()):
                sol = jost_left(seq, z)
                assert sol.lo == lo
                assert sol.values.tobytes() == values[i].tobytes(), z
