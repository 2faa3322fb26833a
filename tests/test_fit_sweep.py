"""The tail-fit sweep gives every job the rows of its own recursion.

_fit_sweep recurses a list of jobs, the run's sequence and its fragments
or anything else sharing its limits, in one two-sided pass that shares
the reference sequence's coefficients.  It is a pure reorganization, so
these tests hold every job's left and right rows to the bit against the
plain complex-row recursion of test_kernel_reference, run on that job
alone.
"""

import numpy as np
import pytest

from jacobiscatter import (
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    Limits,
    effective_support,
    fragment,
)
from jacobiscatter.cli import _corrupted_padding
from jacobiscatter.jost import _fit_sweep
from jacobiscatter.spectral import _GridContext
from conftest import default_grid, hand_fixtures, make_sequence, overflowing_sequence
from test_kernel_reference import reference_recurse
from test_support_trim import padded

MODES = ((False,), (True,), (False, True), (True, False, True))


def window_of(part):
    """The window a tail fit recurses: the support, or all of a free part."""
    support = effective_support(part)
    return part.window if support.free else support.window


def sweep_and_references(seq, parts, zs, modes):
    """(got, want) for each side of each part, the sweep taking seq's lead."""
    jobs = [(part, window_of(part)) for part in parts]
    rows = _fit_sweep(seq, jobs, _GridContext(zs), modes)
    assert len(rows) == len(jobs)
    for (part, window), sides in zip(jobs, rows):
        lo, hi = window.n_min - 2, window.n_max + 2
        for got, side in zip(sides, ("left", "right")):
            yield got, reference_recurse(part, window, lo, hi, zs, side, modes, False)


def assert_same_bits(pairs):
    count = 0
    for got, want in pairs:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        count += 1
    assert count > 0


def breakpoint_sets(seq):
    """Breakpoints inside the window, and outside it on both sides, where
    one fragment is free and the other equals the whole."""
    n_min, n_max = seq.window.n_min, seq.window.n_max
    inside = tuple(sorted({n_min, (n_min + n_max) // 2, n_max}))
    return [inside, (n_min - 3,), (n_max + 3,), (n_min - 1, n_max + 1)]


def job_lists(seq):
    """The whole with each product's fragments, and the single-junction
    fragments of every breakpoint without the whole."""
    for points in breakpoint_sets(seq):
        yield [seq, *fragment(seq, Fragmentation(points))]
        yield [part for n1 in points for part in fragment(seq, Fragmentation((n1,)))]


def test_every_job_gets_its_own_recursion(random_fixtures):
    for seq in hand_fixtures() + random_fixtures[:6]:
        zs = default_grid(seq, count=32).zs
        for parts in job_lists(seq):
            for modes in MODES:
                assert_same_bits(sweep_and_references(seq, parts, zs, modes))


def test_every_job_gets_its_own_recursion_across_the_family(random_fixtures):
    for seq in random_fixtures[6:]:
        zs = default_grid(seq, count=16).zs
        points = breakpoint_sets(seq)[0]
        parts = [seq, *fragment(seq, Fragmentation(points))]
        assert_same_bits(sweep_and_references(seq, parts, zs, (False, True)))


def test_limit_padded_windows_and_one_site_windows():
    one_site = [
        make_sequence(4, [1.3], [0.2], [0.8]),
        make_sequence(-2, [1.0], [0.0], [1.4], Limits(1.0, 0.0, 1.0)),
        make_sequence(0, [0.9], [0.5], [1.0], Limits(0.9, 0.1, 1.0)),
    ]
    for seq in [padded(s, 7) for s in hand_fixtures()] + one_site:
        zs = default_grid(seq, count=32).zs
        for parts in job_lists(seq):
            for modes in MODES:
                assert_same_bits(sweep_and_references(seq, parts, zs, modes))
        # a job recursed over its whole stored window, limit sites and all
        window = seq.window
        for modes in MODES:
            (left, right), = _fit_sweep(seq, [(seq, window)], _GridContext(zs), modes)
            lo, hi = window.n_min - 2, window.n_max + 2
            for got, side in ((left, "left"), (right, "right")):
                want = reference_recurse(seq, window, lo, hi, zs, side, modes, False)
                assert got.tobytes() == want.tobytes()


def test_corrupted_padding_control_reaches_past_the_reference(random_fixtures):
    """The control's first fragment has a window one site wider than the
    whole, with a deviation there, so its rows reach past every site of
    the reference and differ from its coefficients on most steps."""
    for seq in hand_fixtures() + random_fixtures[:6]:
        zs = default_grid(seq, count=32).zs
        for points in breakpoint_sets(seq):
            parts = _corrupted_padding(fragment(seq, Fragmentation(points)))
            assert window_of(parts[0]).n_max == seq.window.n_max + 1
            for modes in MODES:
                assert_same_bits(sweep_and_references(seq, [seq, *parts], zs, modes))


def test_one_point_grid_takes_each_slot_product_alone(random_fixtures):
    """With one column per slot, each slot's complex product must run on
    its own: numpy rounds a one-element in-place product differently from
    its array loop, and the job's own recursion makes exactly that one."""
    for seq in hand_fixtures() + random_fixtures[:6]:
        for z in default_grid(seq, count=8).zs.tolist():
            zs = np.array([z])
            for parts in job_lists(seq):
                for modes in ((False,), (True,), (False, True)):
                    assert_same_bits(sweep_and_references(seq, parts, zs, modes))


def test_overflow_keeps_the_non_finite_entries():
    seq = overflowing_sequence()
    zs = default_grid(seq, count=8).zs
    n_min, n_max = seq.window.n_min, seq.window.n_max
    parts = [seq, *fragment(seq, Fragmentation((n_min + 2_000, (n_min + n_max) // 2)))]
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = list(sweep_and_references(seq, parts, zs, (False, True)))
    assert not all(np.all(np.isfinite(want)) for _, want in pairs)
    for got, want in pairs:
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == want[finite].tobytes()


def test_jobs_must_share_the_limits():
    seq = hand_fixtures()[1]
    lim = seq.limits
    other = CoefficientSequence(
        Limits(lim.a_inf, lim.b_inf + 0.1, lim.w_inf),
        seq.window,
        seq.a_values,
        seq.b_values,
        seq.w_values,
    )
    jobs = [(seq, seq.window), (other, IndexWindow(-1, 1))]
    with pytest.raises(ValueError, match="limits"):
        _fit_sweep(seq, jobs, _GridContext(default_grid(seq, count=8).zs), (False,))
