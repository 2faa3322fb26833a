"""Normalized solutions of the lattice equation by exact tail seeding.

The weighted difference equation

    a(n+1) f(n+1) + b(n) f(n) + a(n) f(n-1)
        = (w(n) / w_inf) (a_inf (z + 1/z) + b_inf) f(n)

reduces to the free two-sided recursion wherever all four coefficients
sit at their limits, and there its solutions are combinations of z^n and
z^{-n}.  With a finite window the solution pinned to z^n at +infinity
therefore equals z^n exactly on every site at or above n_max, and the one
pinned to z^{-n} at -infinity equals z^{-n} at or below n_min - 1.  Both
are seeded with those exact plane-wave values on the outer sites and
propagated through the window by the recursion itself, which on the unit
circle has no decaying companion solution to lose accuracy to.

A solution is a plain array: jost_values(seq, zs, side) returns (values,
lo), with values[i, k] the solution at zs[i] and site lo + k, and with
at_inverse=True the companion, the same normalization at 1/z.  A single
z is the grid [z].  equation_residual(seq, zs, side) is the defect of
those values in the difference equation, one figure per point of zs.

jost_values produces solutions on an index range two sites wider than
the window on each side, so that downstream tail fits read only sites
where the tail form is exact.  The junction checks recurse only the
whole sequence, from its seeded tails to at most two sites past the
window.  That kernel, _recurse, keeps solutions site-major, one
contiguous row of grid points per site, and writes each row with one
_step call through one scratch row, with no temporaries per step.  It
hands its rows out in blocks of _BLOCK_SITES sites from one buffer, so a
caller that reduces them as they come holds a few blocks, not a row for
every site of a long window; jost_values takes its range as one block.
Solutions that share coefficients, such as a solution and its companion
at 1/z, or the solutions at z and at the rounded reciprocal 1/z, stack
as column blocks of one recursion, each on its own grid and with its own
seeds; every column block equals its own single run to the bit.  The
blocks' grids are one row of points: _recurse computes its drive once
and seeds each block of sites from one power table, whose exponents
take each column block's sign, as every entry of it is computed from
its own point and exponent alone.

The tail fits need neither the window nor the stored values: sites
outside the effective support carry the limits just as well, so each
fit recurses over that support plus two sites on each side and keeps
only the last two rows of state.  A run fits a sequence and its
fragments, which share its coefficients everywhere but at their edges,
so _fit_sweep takes the recursions of all of them, left and right, as
one sweep whose steps share seq's coefficients and most of their numpy
calls; every job's rows equal those of its own recursion to the bit.  A
fragment that keeps seq's values on one side of a breakpoint starts its
recursion on that side with seq's own seeds, and is seq's recursion up
to its first step of its own, so it takes seq's rows there and recurses
only the rest.  The sweep copies each finished job's four end rows by
slices into a stack of _JOB_CHUNK jobs, which the tail fits take as one.

Each recursion step, one _step call, makes one complex product, the
scaled drive times the current row.  It runs out of place, from the
scratch row into the destination row.  numpy multiplies a one-element
complex array in place by a scalar route of its own, which differs from
its array loop in the last bit on about 45% of random products; a
product out of place, or of two or more elements, takes the array loop.
So out of place a grid point's bits do not depend on its grid: a
one-point grid gives the bits of that point's entry in any wider grid.

Every other operation of a step scales a row by a real coefficient or
subtracts two rows; it runs on the float64 view of the same rows, twice
as wide, and gives the same bits.  numpy multiplies a complex by a
real scalar as (re c - im 0, im c + re 0), and its complex division by a
real a, whose imaginary part is zero, scales both parts by 1/a, so
multiplying each part by the real, or by 1.0 / a, rounds the same way.
The two routes differ only in the sign of a zero and in a part of an
entry that is already inf or NaN: finite entries are identical and the
same entries are non-finite.

A step's real scalars are ufunc operands.  Given a Python float, numpy
works out its type and converts it to an array on every call; given a
float64 0-d array, it skips both, and a 1,024-float multiply takes about
a quarter less time.  The bits are the same: a Python float is the same
double, the call selects the same float64 loop, and w / w_inf and
1.0 / a round alike in numpy and in Python.  So _fit_sweep, which makes
eight such calls per step, computes the scalars of all its steps in one
table and copies each step's row into one buffer whose 0-d views are
the operands.

The step loops pass every ufunc its out argument positionally, after
the inputs: numpy parses an out keyword on every call, and a 512-point
call is short enough for that to show.  The fused loop of _fit_sweep
reads its rows as the step's phase selects them, so when the busy
columns change it binds one tuple of the nine rows per phase, and each
step unpacks one tuple instead of indexing nine lists.  Neither changes
a call or its order, so the bits stay.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Iterator

import numpy as np

from .lattice import CoefficientSequence, IndexWindow, Limits, coefficient_arrays
from .spectral import _fault_where, _power_table, require_admissible


def solution_range(seq: CoefficientSequence) -> tuple[int, int]:
    """Index range a solution will span, two sites past the window."""
    return seq.window.n_min - 2, seq.window.n_max + 2


# Sites per block of rows that _recurse hands out.  Paired rows over 512
# points take 16 KB a site.  Blocks of 32 and 64 sites raised the peak
# memory of the benchmark's fragment-checks workload by 1.4 and 3.1 MB
# over 16-site blocks and ran no faster.
_BLOCK_SITES = 16

# Jobs per stack of a tail-fit sweep's end rows, which scattering fits
# with one call.  Every run of the benchmark's three workloads fits at
# most 12 jobs.  An identities run on 300 breakpoints fits 900: there
# stacks of 8, 32 and 64 jobs took 0.999, 1.017 and 0.994 the time of
# 16-job stacks over three passes, at the same traced peak within 0.01 MB.
_JOB_CHUNK = 16


def jost_values(
    seq: CoefficientSequence, zs: np.ndarray, side: str, at_inverse: bool = False
) -> tuple[np.ndarray, int]:
    """Vectorized solve: values[i, k] is the solution at zs[i], site lo + k.

    side selects the normalization, "left" for z^n at +infinity and
    "right" for z^{-n} at -infinity.  Returns (values, lo).

    at_inverse evaluates the same construction at 1/z while still
    parametrized by z: the seed exponents flip sign and the recursion
    drive is reused unchanged, z + 1/z being inversion symmetric.  No
    floating-point number is exactly the inverse of z, so evaluating at
    a rounded reciprocal instead would move the result by a point-level
    error; relations that pair values at z and 1/z amplify exactly that
    error near z = +1, -1, and this mode is what keeps them clean.
    """
    return _solve(seq, require_admissible(zs), side, at_inverse)


def _solve(
    seq: CoefficientSequence, zs: np.ndarray, side: str, at_inverse: bool = False
) -> tuple[np.ndarray, int]:
    """jost_values on the checked grid zs."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    lo, hi = solution_range(seq)
    ((_, rows),) = _recurse(seq, lo, hi, ((zs, at_inverse),), side, block=hi - lo + 1)
    return rows.T, lo


def _drive(zs: np.ndarray, limits: Limits, blocks: int) -> np.ndarray:
    """The recursion drive a_inf (z + 1/z) + b_inf over zs, tiled over blocks column blocks."""
    return np.tile(limits.a_inf * (zs + 1.0 / zs) + limits.b_inf, blocks)


def _step(drive, scaled, part, v, dst, out, near, far, scale, first, second, inverse) -> None:
    """One recursion step, dst = (scale drive v - first near - second far) inverse.

    It takes the order of ((w[k] / w_inf) * s * v - a[k + 1] * next
    - b[k] * v) / a[k] on the left side (b[k] * v before a[k] * prev, over
    a[k + 1], on the right), so it rounds as that expression does.  The
    scaled drive goes into the scratch row scaled, whose float64 view is
    part; the one complex product, with v, runs out of place into dst, and
    the rest on the float64 views near, far and out, that of dst (see the module docstring).
    """
    multiply, subtract = np.multiply, np.subtract
    multiply(drive, scale, part)
    multiply(scaled, v, dst)
    multiply(near, first, part)
    subtract(out, part, out)
    multiply(far, second, part)
    subtract(out, part, out)
    multiply(out, inverse, out)


def _recurse(
    seq: CoefficientSequence,
    lo: int,
    hi: int,
    columns: tuple[tuple[np.ndarray, bool], ...],
    side: str,
    block: int = _BLOCK_SITES,
) -> Iterator[tuple[int, np.ndarray]]:
    """Propagate normalized solutions over [lo, hi], handed out in blocks.

    Yields (n, rows) per block of sites, in the order the recursion
    reaches them: from hi down on the left side, from lo up on the right.
    Row k of rows is site n + k, one column block per item of columns.  A
    block holds block sites, counted from where the recursion ends, lo on
    the left side and hi + 1 on the right, so that only the first block
    is short and a range of at most block sites is one block.  rows is a
    view of one buffer, which the next block overwrites: a caller keeps
    what it needs by copying it.

    columns holds, per column block, a checked grid and an at_inverse
    flag: the block has a column per point of its grid, its own drive,
    and its exact plane-wave tail seeded past seq's window with its own
    exponent sign.  All the blocks' columns are one grid: its drive is
    computed once, and each block of sites that holds seeded sites takes
    them from one power table of that grid, signed column by column.  So
    solutions sharing coefficients, such as a solution and its companion
    at 1/z, or the solutions at z and at the rounded reciprocal 1/z,
    advance together in one pass, and every column block equals its own
    one-block run to the bit: every entry of the drive and of a power
    table is computed from its own point alone.

    The buffer holds one block and the two rows its first step reads,
    those past its top on the left side and below its bottom on the
    right; after each block the two rows the next one reads are copied
    there.  So every step reads and writes the rows it would in one
    whole-range array, and the blocks are that array's rows to the bit.

    Each step is one _step call, with Python floats for scalars.  The
    0-d operand table of _fit_sweep was measured here and lost, when a
    third of the runs took at most one step, and measured again once the
    median run took 18 steps and 1.5% at most one: it read 1.000 of the
    time with floats on all three benchmark workloads.
    """
    lim = seq.limits
    w_inf = lim.w_inf
    n_min, n_max = seq.window.n_min, seq.window.n_max
    left = side == "left"
    # the first step's site, at the window's edge, and the seeded tail's sites [t0, t1)
    first = n_max if left else n_min - 1
    t0, t1 = (n_max, hi + 1) if left else (lo, n_min)
    # every column block's points as one grid, and the seeds' exponent
    # signs per column: n on the left side and -n on the right, per column
    # block signed again at 1/z
    grid = np.concatenate([points for points, _ in columns])
    signs = np.repeat(
        [(-1 if inverse else 1) * (1 if left else -1) for _, inverse in columns],
        [points.size for points, _ in columns],
    )
    # the sites of the steps' coefficients: k is site c0 + k.  The left
    # side steps at first down to lo + 1, the right one at first to hi - 1
    c0, c1 = (lo, max(lo, first) + 1) if left else (first, max(first, hi))
    a, b, w = (values.tolist() for values in coefficient_arrays(seq, c0, c1))
    # step k's operands, and the offsets from v's row of _step's dst, near and far
    at_step = zip(w, a[1:], b, a)
    if left:
        operands = [(w_k / w_inf, up, b_k, 1.0 / a_k) for w_k, up, b_k, a_k in at_step]
    else:
        operands = [(w_k / w_inf, b_k, a_k, 1.0 / up) for w_k, up, b_k, a_k in at_step]
    dst, near, far = (-1, 1, 0) if left else (1, 0, -1)
    # the block edges past lo, block sites apart from where the recursion
    # ends: lo on the left side, hi + 1 on the right
    end = lo if left else hi + 1
    cuts = [lo, *range(lo + (end - lo - 1) % block + 1, hi + 1, block), hi + 1]
    spans = list(zip(cuts[:-1], cuts[1:]))
    if left:
        spans.reverse()
    size = max(stop - bottom for bottom, stop in spans)
    buffer = np.empty((size + 2, grid.size), dtype=complex)
    # each row twice: complex for the one complex product per step, and
    # as float64 pairs for every step that only scales by a real
    row = list(buffer)
    real = list(buffer.view(float))
    drive = _drive(grid, lim, 1).view(float)
    # the scaled drive, then each subtrahend; complex as the product's operand
    scaled = np.empty(buffer.shape[1], dtype=complex)
    scratch = scaled.view(float)
    for bottom, stop in spans:
        # site n is buffer row n + shift: the block's sites [bottom, stop)
        # sit below the two rows past it on the left side, above the two
        # rows before it on the right
        shift = size - stop if left else 2 - bottom
        s0, s1 = max(bottom, t0), min(stop, t1)
        if s0 < s1:
            buffer[s0 + shift : s1 + shift] = _power_table(grid, np.arange(s0, s1), signs)
        # the step at site c0 + k reads v from buffer row k + d
        d = shift + c0
        if left:
            steps = range(min(stop, first) - c0, bottom - c0, -1)
        else:
            steps = range(max(bottom - 1, first) - c0, stop - 1 - c0)
        # an overflowing window is reported by the tail fit's finite
        # guard, not by numpy warnings from inside the loop.  The loop
        # only multiplies and subtracts, so "all" silences just overflow
        # and invalid values; it also lets numpy skip its status check,
        # where naming those two would make every call about 2% slower.
        # It is entered per block, as a state left set across a yield
        # would hold in the caller's code too.
        if steps:
            with np.errstate(all="ignore"):
                for k in steps:
                    i = k + d
                    scale, by_near, by_far, inverse = operands[k]
                    _step(
                        drive, scaled, scratch, row[i], row[i + dst], real[i + dst],
                        real[i + near], real[i + far], scale, by_near, by_far, inverse,
                    )
        yield bottom, buffer[bottom + shift : stop + shift]
        # the two rows the next block's first step reads, the nearer one
        # last, as with a one-site block it is a row the first copy reads
        if left and bottom > lo:
            buffer[size + 1] = buffer[bottom + 1 + shift]
            buffer[size] = buffer[bottom + shift]
        elif not left and stop <= hi:
            buffer[0] = buffer[stop - 2 + shift]
            buffer[1] = buffer[stop - 1 + shift]


def _changed_steps(own: tuple[np.ndarray, ...], ref: tuple[np.ndarray, ...]) -> list[int]:
    """Offsets k of the steps where a job's recursion departs from a reference's.

    own and ref hold the job's and the reference's (a, b, w) arrays over
    one range of sites, one more than the steps: the step at the range's
    k-th site reads entry k of a, b and w and entry k + 1 of a.  Bit
    patterns are compared, not values: -0.0 where the reference has 0.0
    flips a zero's sign.
    """
    a, b, w = (mine.view(np.int64) != theirs.view(np.int64) for mine, theirs in zip(own, ref))
    return np.flatnonzero((a | b | w)[:-1] | a[1:]).tolist()


def _most_at_once(spans: list[tuple[int, int]]) -> int:
    """The most of spans, closed step ranges [s, e] with s <= e, at one step:
    at a start, where it peaks, the spans begun by then less those ended."""
    ends = sorted(e for _, e in spans)
    most = ended = 0
    for begun, s in enumerate(sorted(s for s, _ in spans), 1):
        while ends[ended] < s:
            ended += 1
        most = max(most, begun - ended)
    return most


def _fit_sweep(
    seq: CoefficientSequence,
    jobs: list[tuple[CoefficientSequence, IndexWindow]],
    zs: np.ndarray,
    modes: tuple[bool, ...],
) -> list[np.ndarray]:
    """The rows every job's tail fits read, from one two-sided sweep.

    Each job pairs a sequence with seq's limits, such as seq itself or
    one of its fragments, with a window holding all of its deviations.
    With lo and hi two sites past that window, job j's end rows are its
    left rows at lo and lo + 1 and its right rows at hi - 1 and hi, one
    block of zs.size columns per mode: to the bit the rows at those sites
    of the job's own recursion, as _recurse takes it, seeded with the
    exact tails at window's edges.  They are rows 0 to 3, column
    j % _JOB_CHUNK, of the result's stack j // _JOB_CHUNK, an array of
    shape (4, jobs in the stack, len(modes) * zs.size) for each
    _JOB_CHUNK jobs in order, which a finished job's rows are copied
    into by slices; so a caller fits the jobs a stack at a time and lets
    each stack go once it is fitted.

    One row set holds three rotating rows for every recursion under way.
    Left recursions take column slots outward to the left of its middle
    and right ones outward to the right, so the busy columns form one
    range.  Step t advances every left recursion at site top - t and
    every right one at site base + t, which lets them all share seq's
    coefficients at those two sites: each half's drive is scaled in one
    call, and the complex product and both subtractions run once over
    the whole range, each half's own subtrahend in the scratch row, so
    that each side keeps its order.  A job whose coefficients differ from
    seq's at a step, as a fragment's do at its edges, has that step
    redone on its own slot.  Jobs join at the step that reaches their
    window, seeded from one power table; a finished job's rows are
    copied out and the outermost busy job of its side moves into its
    slot.

    A job that starts a side at seq's first step, as a single-junction
    fragment does on the side it keeps, has seq's seeds and is seq's
    recursion there, to the bit, up to its first step whose coefficients
    differ, or its last step if none does.  So it forks from seq: it
    holds no slot on that side until that step, and then joins with a
    copy of the three rows of seq's slot, whose step the slot takes
    fused and then, where it differs, redone.  It forks only at a later
    step than its first, where its seeds would equal seq's rows anyway,
    and only while seq is under way: a job that steps past seq's end,
    as one whose window reaches past seq's can, may first differ at a
    step seq does not take.

    The eight real scalars of a step come from its row of one operand
    table, built for the whole sweep.  For step t, with k its left site
    top - t and t standing for its right site base + t, they are
    w(k) / w_inf, w(t) / w_inf, a(k + 1), b(t), b(k), a(t), 1 / a(k) and
    1 / a(t + 1).  The step copies its row into one buffer, and the
    buffer's 0-d views are the operands, which is faster than passing
    Python floats and gives the same bits (see the module docstring).
    """
    lim = seq.limits
    if any(job.limits != lim for job, _ in jobs):
        raise ValueError("every job must share the limits of seq")
    m = zs.size
    blocks = len(modes)
    width = blocks * m
    w_inf = lim.w_inf
    # left step t runs at site top - t and right step t at base + t; site
    # n is entry n - base + 1 of seq's coefficient arrays
    base = min(window.n_min for _, window in jobs) - 1
    top = max(window.n_max for _, window in jobs)
    span = top - base
    a, b, w = coefficient_arrays(seq, base - 1, top + 2)

    # per side, the steps each job's recursion spans: the right one steps
    # at sites first..last, the left one at window.n_max down to first;
    # side 0 is left, 1 is right
    spans: tuple[list, list] = ([], [])
    for _, window in jobs:
        first, last = window.n_min - 1, window.n_max + 1
        spans[0].append((top - window.n_max, top - first))
        spans[1].append((first - base, last - base))
    # seq's own job, which a job that starts a side with it forks from
    ref = next((j for j, (job, _) in enumerate(jobs) if job is seq), None)
    # per step: jobs joining by their seeds or by a fork before it, redone
    # and finished after it
    joins, forks, redos, ends = (defaultdict(list) for _ in range(4))
    for j, (job, window) in enumerate(jobs):
        # each side's first step that differs from seq's, or its last step
        change = [spans[0][j][1], spans[1][j][1]]
        if job is not seq:
            first, last = window.n_min - 1, window.n_max + 1
            # seq's arrays over [first, last + 1], as held for the sweep
            held = tuple(each[first - base + 1 : last - base + 3] for each in (a, b, w))
            own = coefficient_arrays(job, first, last + 1)
            for k in _changed_steps(own, held):
                n = first + k
                a_n, b_n, w_n = (float(each[k]) for each in own)
                a_next = float(own[0][k + 1])
                if n <= window.n_max:
                    redos[top - n].append((0, j, (w_n / w_inf, a_next, b_n, 1.0 / a_n)))
                    change[0] = min(change[0], top - n)
                redos[n - base].append((1, j, (w_n / w_inf, b_n, a_n, 1.0 / a_next)))
                change[1] = min(change[1], n - base)
        for side in (0, 1):
            start, end = spans[side][j]
            # a job seeded with seq at its first step has seq's rows until
            # its first step of its own; it forks there if that is a later
            # step, so no fork rests on the order of a step's joins, and
            # seq is still under way
            if (
                job is not seq and ref is not None and start == spans[side][ref][0]
                and start < change[side] <= spans[side][ref][1]
            ):
                spans[side][j] = (change[side], end)
                forks[change[side]].append((side, j))
            else:
                joins[start].append((side, j))
            ends[end].append((side, j))

    # slots per side: the most recursions under way at once
    size = [_most_at_once(side) for side in spans]
    mid = size[0] * width
    rows = np.empty((3, (size[0] + size[1]) * width), dtype=complex)
    real = rows.view(float)
    # the scaled drive, then each subtrahend; complex as the product's operand
    scaled = np.empty(rows.shape[1], dtype=complex)
    scratch = scaled.view(float)
    # a half, or a slot redone alone, scales a prefix of the tiled drive
    drive = _drive(zs, lim, max(size) * blocks).view(float)
    # job j's seeds, each a block of columns per mode: left at n_max and
    # n_max + 1, right at n_min - 1 and n_min - 2.  Jobs share most seed
    # exponents, so the power table holds one row per distinct exponent;
    # keys[4 * j + which] lists the rows of job j's seed which, per mode
    signs = [-1 if inverse else 1 for inverse in modes]
    index: dict[int, int] = {}
    keys = [
        [index.setdefault(sign * k, len(index)) for sign in signs]
        for _, s in jobs
        for k in (s.n_max, s.n_max + 1, 1 - s.n_min, 2 - s.n_min)
    ]
    seeds = _power_table(zs, np.array(list(index)))

    def seed(row, c0, c1, j, which):
        for c, key in zip(range(c0, c1, m), keys[4 * j + which]):
            rows[row, c : c + m] = seeds[key]

    multiply, subtract = np.multiply, np.subtract
    # (dst, src, prev) rows of step t, by t % 3
    phases = ((1, 0, 2), (2, 1, 0), (0, 2, 1))

    def columns(side, slot):
        start = mid - (slot + 1) * width if side == 0 else mid + slot * width
        return start, start + width

    def restep(side, slot, t, coefficients):
        # one step of one slot alone, with its job's own coefficients; the
        # left side subtracts the row past v first, the right side v
        dst, src, prev = phases[t % 3]
        near, far = (prev, src) if side == 0 else (src, prev)
        c0, c1 = columns(side, slot)
        f0, f1 = 2 * c0, 2 * c1
        _step(
            drive[: 2 * width], scaled[c0:c1], scratch[f0:f1], rows[src, c0:c1],
            rows[dst, c0:c1], real[dst, f0:f1], real[near, f0:f1], real[far, f0:f1],
            *coefficients,
        )

    # each step copies its table row into one buffer, whose 0-d views are
    # the operands of its ufunc calls
    buffer = np.empty(8)
    scale_left, scale_right, a_next_left, b_right, b_left, a_right, inv_left, inv_right = (
        buffer[i, ...] for i in range(8)
    )
    active: tuple[list[int], list[int]] = ([], [])
    # job j's end rows: row i, j % _JOB_CHUNK of stack j // _JOB_CHUNK
    stacks = [
        np.empty((4, min(_JOB_CHUNK, len(jobs) - c), width), dtype=complex)
        for c in range(0, len(jobs), _JOB_CHUNK)
    ]
    cuts = sorted({*joins, *forks, *(t + 1 for t in (*redos, *ends)), span + 2} - {0})
    start, shape = 0, None
    with np.errstate(all="ignore"):
        # row t holds step t's scalars: of the span + 4 entries of seq's
        # arrays, the right side's from entry t + 1 on, the left side's
        # backwards from entry span + 1 - t.  Scaled in place, with no
        # temporary per column; 1 / a of a subnormal coupling overflows
        # silently here, as in the steps
        table = np.array((
            w[-3::-1], w[1:-1], a[-2:0:-1], b[1:-1], b[-3::-1], a[1:-1], a[-3::-1], a[2:]
        ))
        table[:2] /= w_inf
        np.divide(1.0, table[6:], out=table[6:])
        table = table.T
        for cut in cuts:
            for side, j in joins.get(start, ()):
                c0, c1 = columns(side, len(active[side]))
                active[side].append(j)
                seed(start % 3, c0, c1, j, 2 * side)
                seed((start + 2) % 3, c0, c1, j, 2 * side + 1)
            for side, j in forks.get(start, ()):
                c0, c1 = columns(side, len(active[side]))
                active[side].append(j)
                d0, d1 = columns(side, active[side].index(ref))
                rows[:, c0:c1] = rows[:, d0:d1]
            if shape != (len(active[0]), len(active[1])):
                shape = (len(active[0]), len(active[1]))
                lo_col, hi_col = mid - shape[0] * width, mid + shape[1] * width
                left = list(real[:, 2 * lo_col : 2 * mid])
                right = list(real[:, 2 * mid : 2 * hi_col])
                both = list(real[:, 2 * lo_col : 2 * hi_col])
                product = list(rows[:, lo_col:hi_col])
                part_left = scratch[2 * lo_col : 2 * mid]
                part_right = scratch[2 * mid : 2 * hi_col]
                part_both = scratch[2 * lo_col : 2 * hi_col]
                drive_left, drive_right = drive[: 2 * (mid - lo_col)], drive[: 2 * (hi_col - mid)]
                scaled_both = scaled[lo_col:hi_col]
                # per phase, the step's nine rows in the order it reads them
                operands = [
                    (
                        product[src], product[dst], left[prev], right[src], both[dst],
                        left[src], right[prev], left[dst], right[dst],
                    )
                    for dst, src, prev in phases
                ]
            # a half without recursions scales empty rows: the last step,
            # right side only, reads left coefficients (site base - 1) it
            # never uses
            for t in range(start, cut):
                v, out, l_near, r_near, out_both, l_far, r_far, l_out, r_out = operands[t % 3]
                buffer[...] = table[t]
                multiply(drive_left, scale_left, part_left)
                multiply(drive_right, scale_right, part_right)
                multiply(scaled_both, v, out)
                multiply(l_near, a_next_left, part_left)
                multiply(r_near, b_right, part_right)
                subtract(out_both, part_both, out_both)
                multiply(l_far, b_left, part_left)
                multiply(r_far, a_right, part_right)
                subtract(out_both, part_both, out_both)
                multiply(l_out, inv_left, l_out)
                multiply(r_out, inv_right, r_out)
            t = cut - 1
            for side, j, coefficients in redos.get(t, ()):
                restep(side, active[side].index(j), t, coefficients)
            for side, j in ends.get(t, ()):
                slot = active[side].index(j)
                c0, c1 = columns(side, slot)
                dst, src, _ = phases[t % 3]
                # the left rows at lo and lo + 1, the right ones at hi - 1 and hi
                low, high = (dst, src) if side == 0 else (src, dst)
                stack, i = stacks[j // _JOB_CHUNK], j % _JOB_CHUNK
                stack[2 * side, i] = rows[low, c0:c1]
                stack[2 * side + 1, i] = rows[high, c0:c1]
                outer = active[side].pop()
                if outer != j:
                    d0, d1 = columns(side, len(active[side]))
                    rows[:, c0:c1] = rows[:, d0:d1]
                    active[side][slot] = outer
            start = cut
    return stacks


def _pairing(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """W(n) = a(n + 1) (p(n) q(n + 1) - p(n + 1) q(n)) along the first axis.

    p and q are site-major, and a holds a(n + 1) for each site pair,
    broadcast against the rows.
    """
    return a * (p[:-1] * q[1:] - p[1:] * q[:-1])


def _scaled_drift(drift: np.ndarray, base: np.ndarray) -> np.ndarray:
    """A pairing's drift max_n |W(n) - W(n0)| relative to its base W(n0):
    drift / max(1, |W(n0)|).  Dividing by the positive scale after the
    max gives the bits of dividing each entry first."""
    return drift / np.maximum(1.0, np.abs(base))


def _keep(kept: np.ndarray, sites: tuple[int, ...], n: int, rows: np.ndarray) -> None:
    """Copy into kept[i] the row at sites[i] of the block (n, rows), where it
    holds it; sites are sorted, so a block looks up only its own."""
    for i in range(bisect_left(sites, n), bisect_left(sites, n + len(rows))):
        kept[i] = rows[sites[i] - n]


def _rows_at(blocks: Iterator[tuple[int, np.ndarray]], sites: tuple[int, ...]) -> np.ndarray:
    """The rows at the sorted sites of a recursion's blocks, copied out in that order."""
    kept = None
    for n, rows in blocks:
        if kept is None:
            kept = np.empty((len(sites), rows.shape[1]), dtype=complex)
        _keep(kept, sites, n, rows)
    return kept


def equation_residual(seq: CoefficientSequence, zs: np.ndarray, side: str) -> np.ndarray:
    """Worst relative defect of the difference equation at the interior sites
    of jost_values(seq, zs, side), one per point of zs.

    Each site residual is scaled by the largest participating term so the
    figure stays meaningful when the solution grows through the window.
    Raises NumericalFault, naming the first theta, where a residual is not
    finite, as it is where the solution overflows.
    """
    zs = require_admissible(zs)
    v, lo = _solve(seq, zs, side)
    lim = seq.limits
    # coefficient arrays run one site past the values, for a(n + 1) at the last
    a, b, w = coefficient_arrays(seq, lo, lo + v.shape[1])
    with np.errstate(all="ignore"):
        up = a[2:-1] * v[:, 2:]
        mid = b[1:-2] * v[:, 1:-1]
        down = a[1:-2] * v[:, :-2]
        drive = (w[1:-2] / lim.w_inf) * _drive(zs, lim, 1)[:, None] * v[:, 1:-1]
        defect = np.abs(up + mid + down - drive)
        scale = np.maximum.reduce(
            [np.ones_like(defect), np.abs(up), np.abs(mid), np.abs(down), np.abs(drive)]
        )
        residual = np.max(defect / scale, axis=1)
    _fault_where(~np.isfinite(residual), zs, "equation residual is not finite")
    return residual
