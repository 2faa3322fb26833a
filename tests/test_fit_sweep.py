"""The tail-fit sweep gives every job the rows of its own recursion.

_fit_sweep recurses a list of jobs, the run's sequence and its fragments
or anything else sharing its limits, in one two-sided pass that shares
the reference sequence's coefficients.  It is a pure reorganization, so
these tests hold every job's left and right rows to the bit against the
plain complex-row recursion of test_kernel_reference, run on that job
alone.  Their tail fits run a stack of jobs at a time, and each
stack's fits must equal the jobs' own fits and fault where the first of
them does.
"""

import re
import weakref

import numpy as np
import pytest

from jacobiscatter import (
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    Limits,
    NumericalFault,
    effective_support,
    factorization_residuals,
    fragment,
    jost,
    scattering,
)
from jacobiscatter.cli import _corrupted_padding
from jacobiscatter.jost import _JOB_CHUNK, _most_at_once
from jacobiscatter.lattice import coefficient_arrays
from jacobiscatter.scattering import _amplitude_blocks, _fit_exponents, _tail_fit
from jacobiscatter.spectral import _power_table, wave_pair_det
from jacobiscatter.transition import _identities_report
from conftest import (
    default_grid, free_sequence, hand_fixtures, make_sequence, overflowing_sequence,
)
from test_kernel_reference import reference_recurse, sweep_rows
from test_support_trim import padded

MODES = ((False,), (True,), (False, True), (True, False, True))


def window_of(part):
    """The window a tail fit recurses: the support, or all of a free part."""
    support = effective_support(part)
    return part.window if support is None else support


def sweep_and_references(seq, parts, zs, modes, reference=reference_recurse):
    """(got, want) for each side of each part, the sweep taking seq's lead
    and reference, called as reference_recurse is, giving each want."""
    jobs = [(part, window_of(part)) for part in parts]
    rows = sweep_rows(seq, jobs, zs, modes)
    for (part, window), sides in zip(jobs, rows):
        lo, hi = window.n_min - 2, window.n_max + 2
        for got, side in zip(sides, ("left", "right")):
            yield got, reference(part, window, lo, hi, zs, side, modes, False)


def assert_same_bits(pairs):
    count = 0
    for got, want in pairs:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        count += 1
    assert count > 0


def breakpoint_sets(seq):
    """Breakpoints inside the window and on both of its edges; outside it
    on both sides, where one fragment is free and the other equals the
    whole; next to both edges; two adjacent ones; and two outside each
    edge, which split the whole as the breakpoint next to that edge does."""
    n_min, n_max = seq.window.n_min, seq.window.n_max
    mid = (n_min + n_max) // 2
    inside = tuple(sorted({n_min, mid, n_max}))
    return [
        inside, (n_min - 3,), (n_max + 3,), (n_min - 1, n_max + 1), (mid, mid + 1),
        (n_min - 4, n_min - 1, n_max + 1, n_max + 4),
    ]


def reaching_past(seq):
    """Two jobs that start a side with seq and step past its end: seq on its
    support, the limits on the next three sites above it, or below, and b
    off its limit on the third site.  Each first departs from seq at a step
    seq does not take, so neither may fork from it."""
    support = window_of(seq)
    lim = seq.limits
    jobs = []
    for low, high in ((0, 3), (3, 0)):
        window = IndexWindow(support.n_min - low, support.n_max + high)
        a, b, w = (v.copy() for v in coefficient_arrays(seq, window.n_min, window.n_max))
        b[0 if low else -1] += 0.5
        jobs.append(CoefficientSequence(lim, window, a, b, w))
    return jobs


def job_lists(seq):
    """The whole with each product's fragments; the single-junction
    fragments of every breakpoint without the whole; the whole, its
    fragments and the junction fragments, whose first and last are the
    end fragments themselves; a list that holds one object twice; the
    whole with two jobs that reach past it; and the jobs of all of those
    in one list, up to the second job that deviates past one stack of
    _JOB_CHUNK, so that a run of them spans two stacks."""
    lists = []
    for points in breakpoint_sets(seq):
        parts = fragment(seq, Fragmentation(points))
        junction_parts = [part for n1 in points for part in fragment(seq, Fragmentation((n1,)))]
        lists += [
            [seq, *parts],
            junction_parts,
            [seq, *parts, parts[0], *junction_parts[1:-1], parts[-1]],
            [parts[0], seq, parts[0]],
        ]
    lists.append([seq, *reaching_past(seq)])
    everything = [job for jobs in lists for job in jobs]
    deviating = np.flatnonzero([effective_support(job) is not None for job in everything])
    assert len(deviating) > _JOB_CHUNK + 1
    return [*lists, everything[: deviating[_JOB_CHUNK + 1] + 1]]


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
            (left, right), = sweep_rows(seq, [(seq, window)], zs, modes)
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
    """With one column per slot, every slot's rows still equal its job's
    own recursion: the sweep's complex product spans all busy slots and
    the job's own spans one element, and both run out of place, where
    numpy rounds a one-element product as its array loop does.  A job that
    several lists hold is recursed by the reference once per point, side
    and modes: a one-mode reference may round apart from a two-mode one,
    so modes are never shared."""
    for seq in hand_fixtures() + random_fixtures[:6]:
        lists = job_lists(seq)
        # (job, reference rows) by (id of the job, window, z, side, modes,
        # store); each job stays alive with its rows, so no id is reused
        references = {}

        def reference(part, window, lo, hi, zs, side, modes, store):
            key = (id(part), window, complex(zs[0]), side, modes, store)
            if key not in references:
                references[key] = part, reference_recurse(part, window, lo, hi, zs, side, modes, store)
            return references[key][1]

        for z in default_grid(seq, count=8).zs.tolist():
            zs = np.array([z])
            for parts in lists:
                for modes in ((False,), (True,), (False, True)):
                    assert_same_bits(sweep_and_references(seq, parts, zs, modes, reference))


def test_parts_that_start_a_side_with_the_whole_fork_from_it(monkeypatch):
    """The right single-junction parts of breakpoints far apart start the
    left side with the whole, at its top edge, and take no slot there
    until their first step of their own, a step or two before they end:
    that side needs two slots, the whole's and one part's, where seeding
    every part with the whole would take one per job.  On the right side
    each part starts at its breakpoint, so at the window's top edge every
    job is under way.  The left parts mirror this, and every job keeps
    the rows of its own recursion."""
    rng = np.random.default_rng(32)
    n = 40
    seq = make_sequence(-7, 1.0 + 0.1 * rng.random(n), 0.3 * rng.standard_normal(n),
                        1.0 + 0.1 * rng.random(n))
    zs = default_grid(seq, count=8).zs
    slots = []

    def counting(spans):
        slots.append(_most_at_once(spans))
        return slots[-1]

    monkeypatch.setattr(jost, "_most_at_once", counting)
    splits = [fragment(seq, Fragmentation((n1,))) for n1 in (-2, 8, 18, 28)]
    assert not any(effective_support(part) is None for parts in splits for part in parts)
    for keep, want in ((1, [2, 5]), (0, [5, 2])):
        slots.clear()
        parts = [seq, *(parts[keep] for parts in splits)]
        assert_same_bits(sweep_and_references(seq, parts, zs, (False, True)))
        assert slots == want


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
        sweep_rows(seq, jobs, default_grid(seq, count=8).zs, (False,))


def test_slot_count_equals_the_count_at_every_start():
    """The one-pass count is the brute-force count at each span's start,
    over random closed spans with shared starts, shared ends and one-step
    spans."""
    rng = np.random.default_rng(25)
    for _ in range(500):
        count = int(rng.integers(1, 40))
        starts = rng.integers(0, 30, count)
        spans = [(int(s), int(s + rng.integers(0, 12))) for s in starts]
        brute = max(sum(s <= t <= e for s, e in spans) for t, _ in spans)
        assert _most_at_once(spans) == brute, spans


def counting_sweeps(monkeypatch):
    """Record the job count of every _fit_sweep call _amplitude_blocks makes."""
    counts = []
    sweep = scattering._fit_sweep

    def counting(seq, jobs, zs, modes):
        counts.append(len(jobs))
        return sweep(seq, jobs, zs, modes)

    monkeypatch.setattr(scattering, "_fit_sweep", counting)
    return counts


def test_a_job_given_twice_is_swept_and_fitted_per_item(monkeypatch, random_fixtures):
    """Every item keeps the bits of the job fitted alone, and the sweep
    takes one entry per item that deviates, a job given twice twice."""
    counts = counting_sweeps(monkeypatch)
    for seq in hand_fixtures() + random_fixtures[:6]:
        zs = default_grid(seq, count=32).zs
        for parts in job_lists(seq):
            for modes in ((False,), (False, True)):
                counts.clear()
                got = _amplitude_blocks(seq, parts, zs, modes)
                assert len(got) == len(parts)
                busy = [part for part in parts if effective_support(part) is not None]
                assert counts == ([len(busy)] if busy else [])
                for part, blocks in zip(parts, got):
                    (want,) = _amplitude_blocks(seq, [part], zs, modes)
                    for mine, theirs in zip(blocks, want):
                        assert np.array(mine).tobytes() == np.array(theirs).tobytes()


def test_a_job_given_twice_faults_at_the_call():
    """The overflowing whole faults on the call, though the fragment before
    it in the list fits alone."""
    seq = overflowing_sequence()
    zs = default_grid(seq, count=8).zs
    parts = fragment(seq, Fragmentation((seq.window.n_min + 10,)))
    _amplitude_blocks(seq, [parts[0]], zs, (False,))
    with pytest.raises(NumericalFault, match="tail fit is not finite"):
        _amplitude_blocks(seq, [parts[0], seq, parts[0], seq], zs, (False,))


def test_identities_report_sweeps_the_end_fragments_once(monkeypatch):
    """With k breakpoints inside a window where no fragment is free, the
    report sweeps 3k jobs: the whole, its k + 1 fragments and the 2k
    junction fragments, less the first junction's left part and the last
    one's right part, which are the end fragments."""
    rng = np.random.default_rng(19)
    n = 12
    seq = make_sequence(-4, 1.0 + 0.1 * rng.random(n), 0.3 * rng.standard_normal(n),
                        1.0 + 0.1 * rng.random(n))
    zs = default_grid(seq, count=16).zs
    counts = counting_sweeps(monkeypatch)
    for k in (1, 2, 3):
        points = tuple(seq.window.n_min - 1 + (j * n) // (k + 1) for j in range(1, k + 1))
        frag = Fragmentation(points)
        assert not any(effective_support(part) is None for part in fragment(seq, frag))
        counts.clear()
        _identities_report(seq, frag, zs)
        assert counts == [3 * k], points


def long_window():
    """A damped 100-site window and 40 even breakpoints: 41 fragments that
    all deviate, more than two stacks of _JOB_CHUNK with the whole."""
    rng = np.random.default_rng(33)
    n = 100
    seq = make_sequence(-50, 1.0 + 0.01 * rng.uniform(-1, 1, n), 0.014 * rng.uniform(-1, 1, n),
                        1.0 + 0.01 * rng.uniform(-1, 1, n))
    points = tuple(-51 + (j * n) // 41 for j in range(1, 41))
    return seq, Fragmentation(points)


def stacked_fit_inputs(seq, parts, zs, modes):
    """_tail_fit's inputs with every part and mode one entry of a (parts,
    modes) stack: the power table, its keys, the left and right rows of
    the parts' sweep and the modes' signs."""
    jobs = [(part, window_of(part)) for part in parts]
    signs = [-1 if inverse else 1 for inverse in modes]
    # _fit_exponents lists the negative of each of its exponents too
    exponents = list(dict.fromkeys(k for _, window in jobs for k in _fit_exponents(window)))
    row = {k: i for i, k in enumerate(exponents)}
    keys = np.array([[[row[sign * k] for k in _fit_exponents(window)] for sign in signs]
                     for _, window in jobs])
    shape = (2, len(jobs), len(modes), zs.size)
    rows = sweep_rows(seq, jobs, zs, modes)
    left, right = (np.stack([pair[side] for pair in rows], axis=1).reshape(shape) for side in (0, 1))
    return _power_table(zs, np.array(exponents)), np.moveaxis(keys, -1, 0), left, right, signs


def test_a_stack_of_fits_equals_each_entry_fitted_alone():
    """Over 42 jobs at z and at 1/z, every array the stacked fit makes
    takes more than 256 KB, where numpy runs an operator on a temporary in
    place, and the fit keeps the bits of each job's and mode's own fit."""
    seq, frag = long_window()
    parts = [seq, *fragment(seq, frag)]
    zs = default_grid(seq, count=257).zs
    powers, keys, left, right, signs = stacked_fit_inputs(seq, parts, zs, (False, True))
    assert left[0].nbytes > 256 * 1024
    det = wave_pair_det(zs)
    got = _tail_fit(zs, det, powers, keys, left, right, np.array(signs)[:, None])
    for j in range(len(parts)):
        for b, sign in enumerate(signs):
            want = _tail_fit(zs, det, powers, keys[:, j, b], left[:, j, b], right[:, j, b], sign)
            for mine, theirs in zip(got, want):
                assert mine[j, b].tobytes() == theirs.tobytes(), (j, b)


def test_a_stack_of_fits_faults_at_its_first_faulty_entry():
    """Entries fault in job order, then mode order, and within one entry a
    value that is not finite before a disagreement of the two 1/T fits;
    each fault names its own point, so the message tells which won."""
    seq = hand_fixtures()[2]
    parts = [seq, *fragment(seq, Fragmentation((0,)))][:2]
    zs = default_grid(seq, count=16).zs
    powers, keys, left, right, signs = stacked_fit_inputs(seq, parts, zs, (False, True))
    det, sign = wave_pair_det(zs), np.array(signs)[:, None]
    _tail_fit(zs, det, powers, keys, left, right, sign)

    def fault(*damage):
        """The fault of the stack with each (side, job, mode, point, how) damaged."""
        rows = [left.copy(), right.copy()]
        for side, j, b, i, how in damage:
            if how == "off":
                # the right 1/T fit, and only it, moves by half
                rows[side][:, j, b, i] *= 1.5
            else:
                rows[side][0, j, b, i] = np.inf
        with pytest.raises(NumericalFault) as info:
            _tail_fit(zs, det, powers, keys, *rows, sign)
        return str(info.value)

    def disagree(i):
        return f"left/right 1/T fits disagree by .* at theta = {np.angle(zs[i]):.6g}$"

    def not_finite(i):
        return f"^tail fit is not finite at theta = {np.angle(zs[i]):.6g}$"

    for damage, want in [
        # each damage alone names its own point
        ([(1, 0, 1, 3, "off")], disagree(3)),
        ([(0, 1, 0, 5, "inf")], not_finite(5)),
        # a mismatch of job 0 before job 1 not finite
        ([(0, 1, 0, 5, "inf"), (1, 0, 1, 3, "off")], disagree(3)),
        # within one entry, not finite before the mismatch
        ([(1, 0, 0, 3, "off"), (0, 0, 0, 7, "inf")], not_finite(7)),
        # mode 1 of job 0 before mode 0 of job 1
        ([(0, 1, 0, 2, "inf"), (0, 0, 1, 6, "inf")], not_finite(6)),
    ]:
        assert re.search(want, fault(*damage)), (damage, want)


def test_runs_of_many_stacks_equal_their_jobs_fitted_alone(monkeypatch):
    """factorize and identities on 40 breakpoints sweep and fit 42 and 120
    jobs, several stacks each, and give the bits of a run that stacks
    every job alone."""
    seq, frag = long_window()
    parts = fragment(seq, frag)
    assert not any(effective_support(part) is None for part in parts)
    zs = default_grid(seq, count=32).zs

    def run():
        report = _identities_report(seq, frag, zs)
        return [factorization_residuals(seq, frag, zs).tobytes(), *map(repr, report.values())]

    stacked = run()
    monkeypatch.setattr(jost, "_JOB_CHUNK", 1)
    assert run() == stacked


def test_each_stack_is_let_go_once_it_is_fitted(monkeypatch):
    """factorize on 40 breakpoints fits 42 jobs from three stacks, one
    _tail_fit call each, and fit i finds stacks 0 to i - 1 already freed:
    no stack outlives the fit of its jobs."""
    seq, frag = long_window()
    zs = default_grid(seq, count=32).zs
    stacks, alive = [], []
    sweep, fit = scattering._fit_sweep, scattering._tail_fit

    def keeping(*args):
        made = sweep(*args)
        stacks.extend(weakref.ref(stack) for stack in made)
        return made

    def counting(*args):
        alive.append([ref() is not None for ref in stacks])
        return fit(*args)

    monkeypatch.setattr(scattering, "_fit_sweep", keeping)
    monkeypatch.setattr(scattering, "_tail_fit", counting)
    factorization_residuals(seq, frag, zs)
    assert len(stacks) == 3
    assert alive == [[j >= i for j in range(3)] for i in range(3)]


def test_a_part_with_other_limits_is_fitted_alone_in_job_order(monkeypatch):
    """A list that holds a job with other limits fits every job by a call
    of its own, in job order, so each busy job sweeps alone and the first
    job in order that faults raises.  Both jobs overflow: seq, b far below
    the band, grows fastest near z = 1 and first overflows there; other,
    b far above it with twice w_inf, first overflows near z = -1, the
    grid's first point."""
    n = 103
    seq = make_sequence(0, np.ones(n), np.full(n, -962.5), np.ones(n))
    other = make_sequence(0, np.ones(n + 7), np.full(n + 7, 1e3), np.ones(n + 7),
                          Limits(1.0, 0.0, 2.0))
    zs = default_grid(seq, count=8).zs
    counts = counting_sweeps(monkeypatch)

    def fault(jobs):
        counts.clear()
        with pytest.raises(NumericalFault) as info:
            _amplitude_blocks(seq, jobs, zs, (False, True))
        return str(info.value), counts[:]

    def not_finite(i):
        return f"tail fit is not finite at theta = {np.angle(zs[i]):.6g}"

    assert fault([other]) == (not_finite(0), [1])
    assert fault([seq]) == (not_finite(4), [1])
    # the later job is never swept
    assert fault([other, seq]) == (not_finite(0), [1])
    assert fault([seq, other]) == (not_finite(4), [1])
    # a mixed list without faults: one sweep per busy job, a free one none,
    # and every item the bits of its job fitted alone
    whole = hand_fixtures()[1]
    parts = fragment(whole, Fragmentation((0,)))
    lim = whole.limits
    shifted = make_sequence(parts[0].window.n_min, parts[0].a_values, parts[0].b_values,
                            parts[0].w_values, Limits(lim.a_inf, lim.b_inf, 2.0 * lim.w_inf))
    jobs = [whole, shifted, parts[1], free_sequence(), whole]
    zs = default_grid(whole, count=16).zs
    counts.clear()
    got = _amplitude_blocks(whole, jobs, zs, (False, True))
    assert counts == [1, 1, 1, 1]
    for job, blocks in zip(jobs, got):
        (want,) = _amplitude_blocks(job, [job], zs, (False, True))
        assert np.array(blocks).tobytes() == np.array(want).tobytes()
