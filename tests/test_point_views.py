"""The one-point functions are views of the grid kernels, to the bit.

extract_scattering, transition_for and factorization_check run the grid
kernels on the one-point grid [z], so each must equal the matching grid
function called on [z] bit for bit.

The comparison is one point against one point, never against a column
of a wider grid.  numpy (2.4) multiplies a one-element complex array in
place by its scalar route, which differs from its array loop in the last
bit on about a third of random products, and the recursion makes such a
product at every step.  On the fixtures below, 95 of the 320 points of
their 32-point grids give an extract_scattering that differs in the
last bit from its column of the grid call.
"""

import numpy as np

from jacobiscatter import (
    Fragmentation,
    extract_scattering,
    factorization_check,
    factorization_residuals,
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


def points(seq):
    return [1j, *default_grid(seq, count=32).zs[1::4].tolist()]


def test_extract_scattering_is_a_one_point_grid():
    for seq, _ in fixtures():
        for z in points(seq):
            for at_inverse in (False, True):
                sd = extract_scattering(seq, z, at_inverse)
                t, r, l = scattering_values(seq, [z], at_inverse)
                assert bits(sd.T, sd.R, sd.L) == bits(t[0], r[0], l[0]), (z, at_inverse)


def test_transition_for_is_a_one_point_grid():
    for seq, _ in fixtures():
        for z in points(seq):
            entries = transition_for(seq, z).entries
            assert entries.tobytes() == transition_entries(seq, [z])[0].tobytes(), z


def test_factorization_check_is_a_one_point_grid():
    for seq, frag in fixtures():
        for z in points(seq):
            report = factorization_check(seq, frag, z)
            residual = factorization_residuals(seq, frag, [z])[0]
            assert bits(report.residual) == bits(residual), (z, frag)
            assert report.fragment_count == len(frag.breakpoints) + 1
