import math
import warnings

import numpy as np
import pytest

from jacobiscatter import (
    CoefficientError,
    CoefficientSequence,
    CouplingSignWarning,
    Fragmentation,
    IndexWindow,
    Limits,
    coefficient_arrays,
    coefficient_at,
    effective_support,
    fragment,
    validate_sequence,
)
from conftest import (
    free_sequence,
    hand_fixtures,
    make_sequence,
    random_breakpoints,
    two_impurity_sequence,
)


def test_limits_reject_zero_coupling_limit():
    with pytest.raises(CoefficientError):
        Limits(0.0, 0.0, 1.0)


def test_limits_reject_nonpositive_weight_limit():
    with pytest.raises(CoefficientError):
        Limits(1.0, 0.0, 0.0)
    with pytest.raises(CoefficientError):
        Limits(1.0, 0.0, -2.0)


def test_limits_reject_non_finite():
    with pytest.raises(CoefficientError):
        Limits(float("nan"), 0.0, 1.0)


def test_numbers_of_any_numeric_type_but_no_str_or_bool():
    """Library callers may pass ints and numpy scalars; strings and
    booleans, which float() and int() also take, are refused by name."""
    assert Limits(1, 0, 1) == Limits(1.0, 0.0, 1.0)
    assert Limits(np.float64(1.0), np.int64(0), np.float32(1.0)) == Limits(1.0, 0.0, 1.0)
    assert IndexWindow(np.int64(-1), 1.0) == IndexWindow(-1, 1)
    seq = CoefficientSequence(Limits(1, 0, 1), IndexWindow(0, 1), [1, 2], [0, 1], np.ones(2, int))
    assert seq.a_values.tolist() == [1.0, 2.0] and seq.w_values.dtype == float
    for bad in ("1.5", True, np.bool_(True)):
        with pytest.raises(CoefficientError, match="b_inf must be a real number"):
            Limits(1.0, bad, 1.0)
    for bad in ("0", False, np.bool_(False)):
        with pytest.raises(CoefficientError, match="n_min must be an integer"):
            IndexWindow(bad, 1)
    for bad in (["0.3", 0.0], [True, 1.0], np.array([True, False]), np.array(["1", "2"]),
                np.array([1.0, "2"], dtype=object), "1.0"):
        with pytest.raises(CoefficientError, match="b must be an array of numbers"):
            CoefficientSequence(Limits(1, 0, 1), IndexWindow(0, 1), [1, 1], bad, [1, 1])


def test_window_rejects_empty_range():
    with pytest.raises(CoefficientError):
        IndexWindow(3, 1)


def test_window_length_and_membership():
    win = IndexWindow(-2, 4)
    assert win.length == 7
    assert win.contains(-2) and win.contains(4)
    assert not win.contains(5)
    assert list(win.indices()) == list(range(-2, 5))


def test_sequence_rejects_zero_coupling():
    with pytest.raises(CoefficientError, match="a\\(1\\)"):
        make_sequence(0, [1.0, 0.0], [0.0, 0.0], [1.0, 1.0])


def test_sequence_rejects_nonpositive_weight():
    with pytest.raises(CoefficientError, match="w\\(0\\)"):
        make_sequence(0, [1.0], [0.0], [-1.0])


def test_sequence_rejects_length_mismatch():
    with pytest.raises(CoefficientError):
        CoefficientSequence(Limits(1, 0, 1), IndexWindow(0, 1), [1.0], [0.0, 0.0], [1.0, 1.0])


def test_negative_coupling_is_admitted_with_warning():
    with pytest.warns(CouplingSignWarning):
        seq = make_sequence(0, [-1.0], [0.0], [1.0])
    assert seq.a_values[0] == -1.0


def test_stored_arrays_are_frozen_copies():
    src = np.array([1.0])
    seq = make_sequence(0, src, [0.5], [1.0])
    src[0] = 99.0
    assert seq.a_values[0] == 1.0
    with pytest.raises(ValueError):
        seq.b_values[0] = 0.0


def test_coefficient_at_stored_value(single_site_seq):
    assert coefficient_at(single_site_seq, 0) == (1.0, 0.5, 1.0)


def test_coefficient_at_falls_back_to_limits(single_site_seq):
    assert coefficient_at(single_site_seq, 7) == (1.0, 0.0, 1.0)


def test_coefficient_at_far_outside_window():
    with pytest.warns(CouplingSignWarning):
        seq = make_sequence(0, [-1.0], [2.0], [3.0], limits=Limits(-1.0, 2.0, 3.0))
    assert coefficient_at(seq, -(10**6)) == (-1.0, 2.0, 3.0)


def test_coefficient_arrays_match_pointwise(mixed_seq):
    lo, hi = -4, 5
    a, b, w = coefficient_arrays(mixed_seq, lo, hi)
    for k, n in enumerate(range(lo, hi + 1)):
        assert (a[k], b[k], w[k]) == coefficient_at(mixed_seq, n)


def test_coefficient_arrays_reject_empty_range(mixed_seq):
    with pytest.raises(CoefficientError):
        coefficient_arrays(mixed_seq, 2, 1)


def test_validate_sequence_roundtrip():
    raw = {
        "a_inf": 1.0,
        "b_inf": 0.0,
        "w_inf": 1.0,
        "n_min": 0,
        "n_max": 0,
        "a": [1.0],
        "b": [0.5],
        "w": [1.0],
    }
    seq = validate_sequence(raw)
    assert seq.window == IndexWindow(0, 0)
    assert seq.b_values[0] == 0.5


def test_validate_sequence_reports_missing_fields():
    with pytest.raises(CoefficientError, match="missing"):
        validate_sequence({"a_inf": 1.0})


def test_fragmentation_requires_breakpoints():
    """At least one breakpoint, each an integer by IndexWindow's rule:
    a fraction, a NaN, a string or a bool is refused, not truncated."""
    with pytest.raises(CoefficientError):
        Fragmentation(())
    for bad in ((1.5,), (True, 2.9), ("3",), (math.nan,), (0, np.bool_(True))):
        with pytest.raises(CoefficientError, match="breakpoint must be an integer"):
            Fragmentation(bad)
    assert Fragmentation((np.int64(-1), 2.0)).breakpoints == (-1, 2)


def test_fragmentation_requires_strict_increase():
    with pytest.raises(CoefficientError):
        Fragmentation((3, 3))
    with pytest.raises(CoefficientError):
        Fragmentation((5, 2))
    assert Fragmentation((1, 4)).fragment_count == 3


def test_fragment_partitions_two_impurities():
    """A breakpoint at 0 puts b(-1) in part 1 and b(+1) in part 2.

    The slabs are half-open on the left, so site 0 itself belongs to the
    first part.
    """
    seq = two_impurity_sequence()
    parts = fragment(seq, Fragmentation((0,)))
    assert len(parts) == 2
    assert coefficient_at(parts[0], -1)[1] == 0.3
    assert coefficient_at(parts[0], 1)[1] == 0.0
    assert coefficient_at(parts[1], -1)[1] == 0.0
    assert coefficient_at(parts[1], 1)[1] == -0.4


def test_fragment_padding_outside_slab_is_exactly_the_limits(mixed_seq):
    parts = fragment(mixed_seq, Fragmentation((0,)))
    lim = mixed_seq.limits
    for n in range(mixed_seq.window.n_min, mixed_seq.window.n_max + 1):
        whole = coefficient_at(mixed_seq, n)
        first, second = coefficient_at(parts[0], n), coefficient_at(parts[1], n)
        if n <= 0:
            assert first == whole
            assert second == (lim.a_inf, lim.b_inf, lim.w_inf)
        else:
            assert first == (lim.a_inf, lim.b_inf, lim.w_inf)
            assert second == whole


def test_fragments_keep_the_bits_of_the_sites_they_keep():
    """Each fragment's values on its own slab are the sequence's bit for
    bit, -0.0 and subnormals included.  The junction sweep relies on it:
    on a fragment's kept side its solutions are the whole's rows."""
    b = [0.3, -0.0, 5e-324, -2.2250738585072014e-309, 0.0, -0.25]
    seq = make_sequence(-2, [1.1, 0.9, 1.3, 1.0, 0.7, 1.2], b, [1.0, 2.5, 0.8, 1.0, 1.4, 0.6])
    assert np.signbit(seq.b_values[1]) and seq.b_values[2] == 5e-324
    idx = seq.window.indices()
    for points in [(-3,), (-2,), (0,), (3,), (4,), (-1, 1, 2)]:
        bounds = (-math.inf, *points, math.inf)
        for part, low, high in zip(fragment(seq, Fragmentation(points)), bounds, bounds[1:]):
            keep = (idx > low) & (idx <= high)
            for name in ("a_values", "b_values", "w_values"):
                mine, theirs = (getattr(each, name).view(np.int64)[keep] for each in (part, seq))
                assert mine.tolist() == theirs.tolist(), (points, low, name)


def signed_zero_sequence():
    """-0.0 and subnormals stored, and a b_inf of -0.0 against stored 0.0s:
    a copy that loses a zero's sign shows in the bits."""
    b = [0.3, -0.0, 5e-324, -2.2250738585072014e-309, 0.0, -0.25]
    a = [1.1, 0.9, 1.3, 1.0, 0.7, 1.2]
    w = [1.0, 2.5, 0.8, 1.0, 1.4, 0.6]
    return make_sequence(-2, a, b, w, limits=Limits(1.0, -0.0, 1.0))


def negative_coupling_sequence():
    with pytest.warns(CouplingSignWarning):
        return make_sequence(-1, [1.0, -1.0, 1.0], [0.3, 0.0, -0.4], [1.0, 1.0, 1.0])


def validated_parts(seq, frag):
    """The fragments as the validating constructor builds them from masks."""
    idx = seq.window.indices()
    lim = seq.limits
    bounds = (-math.inf, *frag.breakpoints, math.inf)
    parts = []
    for low, high in zip(bounds, bounds[1:]):
        keep = (idx > low) & (idx <= high)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CouplingSignWarning)
            parts.append(CoefficientSequence(
                lim,
                seq.window,
                np.where(keep, seq.a_values, lim.a_inf),
                np.where(keep, seq.b_values, lim.b_inf),
                np.where(keep, seq.w_values, lim.w_inf),
            ))
    return parts


def edge_fragmentations(seq):
    """Breakpoints inside the window, on its edges and past them, and far out."""
    lo, hi = seq.window.n_min, seq.window.n_max
    mid = (lo + hi) // 2
    points = [
        (mid,), (lo - 1,), (lo,), (hi,), (hi + 1,), (lo - 5, hi + 5), (-(10**6), 10**6),
        (lo - 1, mid, hi + 1), (lo, hi), tuple(range(lo - 2, hi + 3)),
    ]
    return [Fragmentation(tuple(sorted(set(p)))) for p in points]


def test_cut_fragments_equal_the_validated_parts(random_fixtures):
    """fragment() cuts its parts from the validated whole without the
    validator; each equals, bit for bit, the part the validating
    constructor builds: its a, b and w as int64 bits, their read-only
    flags, its window and its limits."""
    rng = np.random.default_rng(11)
    hand = [*hand_fixtures(), free_sequence(), signed_zero_sequence(), negative_coupling_sequence()]
    cases = [(seq, frag) for seq in hand for frag in edge_fragmentations(seq)]
    cases += [
        (seq, frag)
        for seq in random_fixtures
        for frag in (*edge_fragmentations(seq), random_breakpoints(rng, seq))
    ]
    for seq, frag in cases:
        got, want = fragment(seq, frag), validated_parts(seq, frag)
        assert len(got) == len(want) == frag.fragment_count
        for mine, theirs in zip(got, want):
            assert mine.window == theirs.window and mine.limits == theirs.limits
            for name in ("a_values", "b_values", "w_values"):
                mine_values, their_values = getattr(mine, name), getattr(theirs, name)
                assert mine_values.dtype == their_values.dtype == np.float64
                assert mine_values.view(np.int64).tolist() == their_values.view(np.int64).tolist()
                assert not mine_values.flags.writeable and not their_values.flags.writeable


def test_fragments_of_a_negative_coupling_warn_no_second_time():
    """The whole's validation warns once; its fragments, cut from it, are
    not validated again and add no CouplingSignWarning of their own."""
    seq = negative_coupling_sequence()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = fragment(seq, Fragmentation((-1, 0, 1)))
    assert parts[1].a_values[1] == -1.0


def index_built_arrays(seq, lo, hi):
    """coefficient_arrays as index arrays and masks build it."""
    idx = np.arange(lo, hi + 1)
    lim = seq.limits
    inside = (idx >= seq.window.n_min) & (idx <= seq.window.n_max)
    stored = idx[inside] - seq.window.n_min
    arrays = []
    for values, limit in zip((seq.a_values, seq.b_values, seq.w_values), (lim.a_inf, lim.b_inf, lim.w_inf)):
        dense = np.full(idx.size, limit)
        dense[inside] = values[stored]
        arrays.append(dense)
    return arrays


def test_coefficient_arrays_by_slices_keep_the_bits_of_index_arrays(random_fixtures):
    """coefficient_arrays copies the stored sites in by slices; its arrays
    are those of index arrays and masks to the bit, -0.0 included, which
    _changed_steps compares: ranges inside the window, straddling either
    edge, wholly outside it on either side, of one site, and wider."""
    for seq in [*hand_fixtures(), signed_zero_sequence(), *random_fixtures[:10]]:
        lo, hi = seq.window.n_min, seq.window.n_max
        ranges = [
            (lo, hi), (lo, lo), (hi, hi), (lo - 1, lo - 1), (hi + 1, hi + 1),
            (lo - 3, lo), (lo - 3, (lo + hi) // 2), ((lo + hi) // 2, hi + 3), (hi, hi + 4),
            (lo - 9, lo - 2), (hi + 2, hi + 9), (lo - 4, hi + 4), (lo + 1, hi - 1),
        ]
        for r0, r1 in ranges:
            if r0 > r1:
                continue
            got = coefficient_arrays(seq, r0, r1)
            want = index_built_arrays(seq, r0, r1)
            for mine, theirs in zip(got, want):
                assert mine.dtype == np.float64 and mine.shape == theirs.shape
                assert mine.view(np.int64).tolist() == theirs.view(np.int64).tolist(), (r0, r1)


def test_fragment_accepts_breakpoints_outside_window(single_site_seq):
    parts = fragment(single_site_seq, Fragmentation((-10, 10)))
    assert len(parts) == 3
    # the whole perturbation lands in the middle slab
    assert coefficient_at(parts[1], 0)[1] == 0.5
    assert coefficient_at(parts[0], 0)[1] == 0.0
    assert coefficient_at(parts[2], 0)[1] == 0.0


def test_effective_support_tight_window(single_site_seq):
    assert effective_support(single_site_seq) == IndexWindow(0, 0)


def test_effective_support_trims_limit_values():
    seq = make_sequence(-3, [1.0] * 9, [0.0, 0.0, 0.0, 0.0, 0.0, 0.7, 0.0, 0.0, 0.0], [1.0] * 9)
    assert effective_support(seq) == IndexWindow(2, 2)


def test_effective_support_free_flag(single_site_seq):
    tail = fragment(single_site_seq, Fragmentation((0,)))[1]
    assert effective_support(tail) is None
