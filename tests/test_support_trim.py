"""Tail fits recurse over the effective support only; the trim must be exact.

Sites outside the support carry the limits, so recursing across them
cannot change a fit.  These tests hold that to the bit: padding a window
with limit sites, and reading the fit off jost_values' full arrays
instead of the tail-fit sweep's two rows, must both leave every value
unchanged.
"""

import numpy as np

from jacobiscatter import (
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    effective_support,
    fragment,
    jost_values,
    scattering_amplitudes,
    scattering_values,
    transition_entries,
)
from conftest import (
    coupling_step_sequence,
    default_grid,
    mixed_sequence,
    single_site_sequence,
    two_impurity_sequence,
)
from test_kernel_reference import grid_tail_fit, sweep_rows

PAD = 500
IDENT = np.eye(2, dtype=complex)


def hand_fixtures():
    return [
        single_site_sequence(),
        two_impurity_sequence(),
        mixed_sequence(),
        coupling_step_sequence(),
    ]


def padded(seq, pad=PAD):
    """The same sequence stored on a window pad limit sites wider each side."""
    lim = seq.limits

    def grow(values, limit):
        return np.concatenate([np.full(pad, limit), values, np.full(pad, limit)])

    return CoefficientSequence(
        lim,
        IndexWindow(seq.window.n_min - pad, seq.window.n_max + pad),
        grow(seq.a_values, lim.a_inf),
        grow(seq.b_values, lim.b_inf),
        grow(seq.w_values, lim.w_inf),
    )


def bits(*arrays):
    return [np.ascontiguousarray(x).tobytes() for x in arrays]


def test_limit_padding_changes_no_bit(random_fixtures):
    for seq in hand_fixtures() + random_fixtures[:6]:
        wide = padded(seq)
        assert effective_support(wide).window == effective_support(seq).window
        zs = default_grid(seq, count=64).zs
        assert bits(*scattering_values(wide, zs)) == bits(*scattering_values(seq, zs))
        assert bits(transition_entries(wide, zs)) == bits(transition_entries(seq, zs))


def test_two_row_fit_equals_full_array_fit(random_fixtures):
    for seq in hand_fixtures() + random_fixtures[:6]:
        # every stored site deviates, so the support is the window and the
        # fit sites of both routes coincide
        assert effective_support(seq).window == seq.window
        zs = default_grid(seq, count=64).zs
        n, p = seq.window.n_min - 2, seq.window.n_max + 1
        for at_inverse in (False, True):
            fl, lo = jost_values(seq, zs, "left", at_inverse=at_inverse)
            fr, _ = jost_values(seq, zs, "right", at_inverse=at_inverse)
            assert lo == n
            left, right = sweep_rows(seq, [(seq, seq.window)], zs, (at_inverse,))[0]
            assert bits(left) == bits(fl[:, :2].T)
            assert bits(right) == bits(fr[:, p - lo : p - lo + 2].T)
            sign = -1 if at_inverse else 1
            full = grid_tail_fit(zs, fl[:, :2].T, fr[:, p - lo : p - lo + 2].T, seq.window, sign)
            assert bits(*scattering_amplitudes(seq, zs, at_inverse)) == bits(*full)


def test_limit_only_fragment_is_the_identity():
    seq = mixed_sequence()
    zs = default_grid(seq).zs
    below = fragment(seq, Fragmentation((seq.window.n_min - 3,)))[0]
    above = fragment(seq, Fragmentation((seq.window.n_max + 3,)))[1]
    for part in (below, above):
        assert effective_support(part).free
        assert np.max(np.abs(transition_entries(part, zs) - IDENT)) <= 1e-15
        t, r, l = scattering_values(part, zs)
        assert np.max(np.abs(t - 1.0)) <= 1e-15
        assert np.max(np.abs(r)) <= 1e-15 and np.max(np.abs(l)) <= 1e-15
