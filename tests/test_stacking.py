"""Shared work must be exact: stacked recursions and the multi-junction sweep.

Solutions that share coefficients and drive, a solution and its
companion at 1/z, run as column blocks of one recursion, and the junction
sweep shares its whole-sequence work across breakpoints.  Both are pure
reorganizations, so these tests hold them to the bit against the
unshared computation.
"""

import numpy as np

from jacobiscatter import (
    Fragmentation,
    factorization_residuals,
    fragment,
    junction_residual_sweep,
    scattering_amplitudes,
    transition_entries,
)
from conftest import default_grid, hand_fixtures, mixed_sequence, overflowing_sequence
from test_kernel_reference import streamed, sweep_rows

FLAGS = (True, False, True)


def bits(*arrays):
    return [np.ascontiguousarray(x).tobytes() for x in arrays]


def blocks_and_singles(seq, zs, side, store):
    """Stacked blocks and one-mode runs: all rows of the stored recursion,
    or the last two of the tail-fit sweep's side."""
    window = seq.window

    def run(modes):
        if store:
            lo, hi = window.n_min - 4, window.n_max + 3
            return streamed(seq, lo, hi, zs, side, modes)
        rows = sweep_rows(seq, [(seq, window)], zs, modes)[0]
        return rows[("left", "right").index(side)]

    stacked = run(FLAGS)
    m = zs.size
    for j, flag in enumerate(FLAGS):
        yield stacked[:, j * m : (j + 1) * m], run((flag,))


def test_stacked_blocks_equal_single_runs(random_fixtures):
    for seq in hand_fixtures() + random_fixtures[:6]:
        zs = default_grid(seq, count=64).zs
        for side in ("left", "right"):
            for store in (True, False):
                for block, single in blocks_and_singles(seq, zs, side, store):
                    assert block.shape == single.shape
                    assert bits(block) == bits(single)


def test_stacked_blocks_equal_single_runs_through_overflow():
    seq = overflowing_sequence()
    zs = default_grid(seq, count=16).zs
    with np.errstate(over="ignore", invalid="ignore"):
        for side in ("left", "right"):
            for store in (True, False):
                pairs = list(blocks_and_singles(seq, zs, side, store))
                assert not all(np.all(np.isfinite(single)) for _, single in pairs)
                for block, single in pairs:
                    assert np.array_equal(block, single, equal_nan=True)


def test_transition_entries_equal_the_single_mode_fits(random_fixtures):
    for seq in hand_fixtures() + random_fixtures[:6]:
        zs = default_grid(seq, count=64).zs
        lam = transition_entries(seq, zs)
        inv_t, r_over_t, l_over_t = scattering_amplitudes(seq, zs)
        inv_t_conj = scattering_amplitudes(seq, zs, at_inverse=True)[0]
        assert bits(lam[:, 0, 0], lam[:, 0, 1], lam[:, 1, 0], lam[:, 1, 1]) == bits(
            inv_t, -r_over_t, l_over_t, inv_t_conj
        )


def junction_cases(random_fixtures):
    for seq in hand_fixtures() + random_fixtures[:6]:
        n_min, n_max = seq.window.n_min, seq.window.n_max
        # the edge breakpoints' covers reach past the window on both sides
        inner = sorted({n_min, (n_min + n_max) // 2, n_max})
        yield seq, (n_min - 1, *inner, n_max + 1)


def test_multi_breakpoint_sweep_is_the_max_of_single_sweeps(random_fixtures):
    for seq, points in junction_cases(random_fixtures):
        zs = default_grid(seq, count=64).zs
        singles = [junction_residual_sweep(seq, Fragmentation((p,)), zs) for p in points]
        together = junction_residual_sweep(seq, Fragmentation(points), zs)
        assert list(together) == list(singles[0])
        for key, value in together.items():
            assert value == max(single[key] for single in singles)


def test_sweep_reads_breakpoints_as_separate_splits_not_one_product():
    """One Fragmentation, two readings: the product and the junction sweep.

    factorization_residuals multiplies the k + 1 fragments of the
    breakpoints; junction_residual_sweep splits the sequence in two at
    each breakpoint alone.
    """
    seq = mixed_sequence()
    zs = default_grid(seq, count=64).zs
    frag = Fragmentation((0, 1))
    parts = fragment(seq, frag)
    assert len(parts) == 3
    product = transition_entries(parts[0], zs)
    for part in parts[1:]:
        product = product @ transition_entries(part, zs)
    whole = transition_entries(seq, zs)
    expected = np.max(np.abs(product - whole), axis=(-2, -1))
    assert bits(factorization_residuals(seq, frag, zs)) == bits(expected)

    singles = [junction_residual_sweep(seq, Fragmentation((p,)), zs) for p in (0, 1)]
    together = junction_residual_sweep(seq, frag, zs)
    assert together == {key: max(single[key] for single in singles) for key in together}
