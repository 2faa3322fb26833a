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

jost_values produces solutions on an index range two sites wider than
the window on each side, so that downstream tail fits read only sites
where the tail form is exact; the junction checks widen the range
through solution_range, at one recursion step per extra site and grid
point.  That kernel, _recurse, keeps solutions site-major, one
contiguous row of grid points per site, and writes each row through one
scratch row, with no temporaries per step.  It hands its rows out in
blocks of _BLOCK_SITES sites from one buffer, so a caller that reduces
them as they come holds a few blocks, not a row for every site of a
long window or of a junction far outside it; jost_values takes its range
as one block.  A solution and its companion at 1/z share coefficients
and drive, so callers that need both stack them as column blocks of one
recursion; every column block equals its own single run to the bit.

The tail fits need neither the window nor the stored values: sites
outside the effective support carry the limits just as well, so each
fit recurses over that support plus two sites on each side and keeps
only the last two rows of state.  A run fits a sequence and its
fragments, which share its coefficients everywhere but at their edges,
so _fit_sweep takes the recursions of all of them, left and right, as
one sweep whose steps share seq's coefficients and most of their numpy
calls; every job's rows equal those of its own recursion to the bit.

Each recursion step makes one complex product, the scaled drive times
the current row.  It runs out of place, from the scratch row into the
destination row.  numpy multiplies a one-element complex array in place
by a scalar route of its own, which differs from its array loop in the
last bit on about 45% of random products; a product out of place, or of
two or more elements, takes the array loop.  So out of place a grid
point's bits do not depend on its grid: a one-point grid gives the bits
of that point's entry in any wider grid.

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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .lattice import CoefficientSequence, IndexWindow, coefficient_arrays, coefficient_at
# require_admissible stays a module attribute: the benchmark's smoke
# test wraps this copy
from .spectral import _GridContext, require_admissible  # noqa: F401

class SolutionKind(Enum):
    """Which normalization a solution carries."""

    LEFT_JOST = "left-jost"
    RIGHT_JOST = "right-jost"
    LEFT_CONJUGATE = "left-conjugate"
    RIGHT_CONJUGATE = "right-conjugate"


@dataclass(frozen=True, eq=False)
class LatticeSolution:
    """Solution values on the contiguous index range [lo, lo + len - 1]."""

    values: np.ndarray
    lo: int
    kind: SolutionKind
    z: complex

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "z", complex(self.z))

    @property
    def hi(self) -> int:
        return self.lo + self.values.size - 1

    def at(self, n: int) -> complex:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"site {n} outside solution range [{self.lo}, {self.hi}]")
        return complex(self.values[n - self.lo])


def solution_range(seq: CoefficientSequence, cover: IndexWindow | None = None) -> tuple[int, int]:
    """Index range a solution will span, two sites past the window plus cover."""
    lo = seq.window.n_min - 2
    hi = seq.window.n_max + 2
    if cover is not None:
        lo = min(lo, cover.n_min)
        hi = max(hi, cover.n_max)
    return lo, hi


# Sites per block of rows that _recurse hands out.  Paired rows over 512
# points take 16 KB a site.  Blocks of 32 and 64 sites raised the peak
# memory of the benchmark's fragment-checks workload by 1.4 and 3.1 MB
# over 16-site blocks and ran no faster.
_BLOCK_SITES = 16


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
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    ctx = _GridContext(zs)
    lo, hi = solution_range(seq)
    ((_, rows),) = _recurse(seq, lo, hi, ctx, side, (at_inverse,), block=hi - lo + 1)
    return rows.T, lo


def _recurse(
    seq: CoefficientSequence,
    lo: int,
    hi: int,
    ctx: _GridContext,
    side: str,
    modes: tuple[bool, ...],
    start: tuple[int, np.ndarray] | None = None,
    block: int = _BLOCK_SITES,
    edge: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Propagate normalized solutions over [lo, hi], handed out in blocks.

    Yields (n, rows) per block of sites, in the order the recursion
    reaches them: from hi down on the left side, from lo up on the right.
    Row k of rows is site n + k, one column per grid point and mode.  A
    block holds block sites, and the blocks start at the sites
    edge + j * block: by default edge is where the recursion ends, lo on
    the left side and hi + 1 on the right, so that only the first block
    is short and a range of at most block sites is one block.
    Recursions over different ranges that pass one edge share their
    blocks' sites.  rows is a view of one buffer, which the next block
    overwrites: a caller keeps what it needs by copying it.

    The exact plane-wave tail is seeded past seq's window, block by block
    from the power table of ctx, and the recursion runs across it.  ctx
    holds the grid zs and what recursions over it share: the drive for
    seq's limits and the seeds' powers.  modes holds one at_inverse flag
    per column block of zs.size columns, each seeded with its own sign,
    so solutions sharing coefficients and drive, such as a solution and
    its companion at 1/z, advance together in one pass.  Every column
    block equals its one-mode run to the bit.

    start, if given, is (s, pair): the first step is taken at site s, not
    at the window's edge, from the two rows of pair, those at s and s + 1
    on the left side and at s - 1 and s on the right.  Rows between pair
    and the seeded tail are not computed, so [lo, hi] reaches past pair
    only into that tail.

    The buffer holds one block and the two rows its first step reads,
    those past its top on the left side and below its bottom on the
    right; after each block the two rows the next one reads are copied
    there.  So every step reads and writes the rows it would in one
    whole-range array, and the blocks are that array's rows to the bit.

    Each step writes its destination row through one scratch row, with
    the operations and order of the plain expression
    ((w[k] / w_inf) * s * v - a[k + 1] * next - b[k] * v) / a[k] on the
    left side (b[k] * v before a[k] * prev, over a[k + 1], on the right),
    so it rounds exactly as that expression does.  The scaled drive goes
    into the scratch row, and the product with v, the only complex one,
    runs out of place from there, so that a one-element row takes numpy's
    array loop too.  The real scalings, the subtractions and the division,
    taken as a multiply by 1.0 / a[k], run on the rows' float64 view,
    which gives the same bits for every finite entry (see the module
    docstring) in less time per step.  _fit_sweep takes the same steps.

    Its scalars stay Python floats.  Its runs are short where its calls
    are many: on the benchmark's windows of 1 to 40 sites the median run
    takes 5 steps and a third take at most one, and there the operand
    table of _fit_sweep costs more to build than its 0-d operands save.
    """
    m = ctx.zs.size
    lim = seq.limits
    w_inf = lim.w_inf
    n_min, n_max = seq.window.n_min, seq.window.n_max
    left = side == "left"
    first, pair_rows = start if start is not None else (n_max if left else n_min - 1, ())
    # (site, row) of the start pair, and the seeded tail's sites [t0, t1)
    pair = list(zip(range(first, first + 2) if left else range(first - 1, first + 1), pair_rows))
    t0, t1 = (n_max, hi + 1) if left else (lo, n_min)
    # the seeds' exponents are n on the left side and -n on the right, per
    # mode signed again at 1/z
    signs = [(-1 if inverse else 1) * (1 if left else -1) for inverse in modes]
    # the sites of the steps' coefficients: k is site c0 + k.  The left
    # side steps at first down to lo + 1, the right one at first to hi - 1
    c0, c1 = (lo, max(lo, first) + 1) if left else (first, max(first, hi))
    a, b, w = (values.tolist() for values in coefficient_arrays(seq, c0, c1))
    if edge is None:
        edge = lo if left else hi + 1
    # the block edges past lo: from the first site above lo on edge's grid
    edges = [lo, *range(lo + (edge - lo - 1) % block + 1, hi + 1, block), hi + 1]
    spans = list(zip(edges[:-1], edges[1:]))
    if left:
        spans.reverse()
    size = max(stop - bottom for bottom, stop in spans)
    buffer = np.empty((size + 2, len(modes) * m), dtype=complex)
    # each row twice: complex for the one complex product per step, and
    # as float64 pairs for every step that only scales by a real
    row = list(buffer)
    real = list(buffer.view(float))
    drive = ctx.drive(lim, len(modes)).view(float)
    # the scaled drive, then each subtrahend; complex as the product's operand
    scaled = np.empty(buffer.shape[1], dtype=complex)
    scratch = scaled.view(float)
    multiply, subtract = np.multiply, np.subtract
    for bottom, stop in spans:
        # site n is buffer row n + shift: the block's sites [bottom, stop)
        # sit below the two rows past it on the left side, above the two
        # rows before it on the right
        shift = size - stop if left else 2 - bottom
        s0, s1 = max(bottom, t0), min(stop, t1)
        if s0 < s1:
            sites = np.arange(s0, s1)
            for j, sign in enumerate(signs):
                buffer[s0 + shift : s1 + shift, j * m : (j + 1) * m] = ctx.power_table(sign * sites)
        for site, values in pair:
            if bottom <= site < stop:
                buffer[site + shift] = values
        # the step at site c0 + k writes buffer row i - 1 on the left side
        # and i + 1 on the right, with i = k + d
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
                if left:
                    for k in steps:
                        i = k + d
                        out = real[i - 1]
                        multiply(drive, w[k] / w_inf, out=scratch)
                        multiply(scaled, row[i], out=row[i - 1])
                        multiply(real[i + 1], a[k + 1], out=scratch)
                        subtract(out, scratch, out=out)
                        multiply(real[i], b[k], out=scratch)
                        subtract(out, scratch, out=out)
                        multiply(out, 1.0 / a[k], out=out)
                else:
                    for k in steps:
                        i = k + d
                        out = real[i + 1]
                        multiply(drive, w[k] / w_inf, out=scratch)
                        multiply(scaled, row[i], out=row[i + 1])
                        multiply(real[i], b[k], out=scratch)
                        subtract(out, scratch, out=out)
                        multiply(real[i - 1], a[k], out=scratch)
                        subtract(out, scratch, out=out)
                        multiply(out, 1.0 / a[k + 1], out=out)
        yield bottom, buffer[bottom + shift : stop + shift]
        # the two rows the next block's first step reads, the nearer one
        # last, as with a one-site block it is a row the first copy reads
        if left and bottom > lo:
            buffer[size + 1] = buffer[bottom + 1 + shift]
            buffer[size] = buffer[bottom + shift]
        elif not left and stop <= hi:
            buffer[0] = buffer[stop - 2 + shift]
            buffer[1] = buffer[stop - 1 + shift]


def _changed_steps(
    seq: CoefficientSequence, job: CoefficientSequence, first: int, last: int
) -> list[int]:
    """Sites n in [first, last] where job's recursion step departs from seq's.

    The step at site n reads a(n), b(n), w(n) and a(n + 1).  Bit patterns
    are compared, not values: -0.0 where seq has 0.0 flips a zero's sign.
    """
    own, ref = (coefficient_arrays(each, first, last + 1) for each in (job, seq))
    a, b, w = (mine.view(np.int64) != theirs.view(np.int64) for mine, theirs in zip(own, ref))
    return (first + np.flatnonzero((a | b | w)[:-1] | a[1:])).tolist()


def _fit_sweep(
    seq: CoefficientSequence,
    jobs: list[tuple[CoefficientSequence, IndexWindow]],
    ctx: _GridContext,
    modes: tuple[bool, ...],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rows every job's tail fits read, from one two-sided sweep.

    Each job pairs a sequence with seq's limits, such as seq itself or
    one of its fragments, with a window holding all of its deviations.
    With lo and hi two sites past that window, the result holds per job
    its left rows at (lo, lo + 1) and its right rows at (hi - 1, hi), one
    block of zs.size columns per mode: to the bit the rows at those sites
    of the job's own recursion, as _recurse takes it, seeded with the
    exact tails at window's edges.

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
    m = ctx.zs.size
    blocks = len(modes)
    width = blocks * m
    w_inf = lim.w_inf
    # left step t runs at site top - t and right step t at base + t; site
    # n is entry n - base + 1 of seq's coefficient arrays
    base = min(window.n_min for _, window in jobs) - 1
    top = max(window.n_max for _, window in jobs)
    span = top - base
    a, b, w = coefficient_arrays(seq, base - 1, top + 2)

    # per step: jobs joining before it, redone and finished after it;
    # side 0 is left, 1 is right
    joins, redos, ends = defaultdict(list), defaultdict(list), defaultdict(list)
    spans: tuple[list, list] = ([], [])
    for j, (job, window) in enumerate(jobs):
        # the right recursion steps at sites first..last, the left one at
        # window.n_max down to first
        first, last = window.n_min - 1, window.n_max + 1
        spans[0].append((top - window.n_max, top - first))
        spans[1].append((first - base, last - base))
        for side in (0, 1):
            joins[spans[side][j][0]].append((side, j))
            ends[spans[side][j][1]].append((side, j))
        if job is seq:
            continue
        for n in _changed_steps(seq, job, first, last):
            a_n, b_n, w_n = coefficient_at(job, n)
            a_next = coefficient_at(job, n + 1)[0]
            if n <= window.n_max:
                redos[top - n].append((0, j, (w_n / w_inf, a_next, b_n, 1.0 / a_n)))
            redos[n - base].append((1, j, (w_n / w_inf, b_n, a_n, 1.0 / a_next)))

    # slots per side: the most recursions under way at once
    size = [max(sum(s <= t <= e for s, e in side) for t, _ in side) for side in spans]
    mid = size[0] * width
    rows = np.empty((3, (size[0] + size[1]) * width), dtype=complex)
    real = rows.view(float)
    # the scaled drive, then each subtrahend; complex as the product's operand
    scaled = np.empty(rows.shape[1], dtype=complex)
    scratch = scaled.view(float)
    # a half, or a slot redone alone, scales a prefix of the tiled drive
    drive = ctx.drive(lim, max(size) * blocks).view(float)
    # job j's seeds, each a block of columns per mode: left at n_max and
    # n_max + 1, right at n_min - 1 and n_min - 2
    signs = np.array([-1 if inverse else 1 for inverse in modes])
    exponents = np.array([[s.n_max, s.n_max + 1, 1 - s.n_min, 2 - s.n_min] for _, s in jobs])
    seeds = ctx.power_table((exponents[:, :, None] * signs).ravel())

    def seed(row, c0, c1, j, which):
        first = (4 * j + which) * blocks
        rows[row, c0:c1].reshape(blocks, m)[...] = seeds[first : first + blocks]

    multiply, subtract = np.multiply, np.subtract
    # (dst, src, prev) rows of step t, by t % 3
    phases = ((1, 0, 2), (2, 1, 0), (0, 2, 1))

    def columns(side, slot):
        start = mid - (slot + 1) * width if side == 0 else mid + slot * width
        return start, start + width

    def restep(side, slot, t, coefficients):
        # one step of one slot alone, with its job's own coefficients
        scale, first, second, inverse = coefficients
        dst, src, prev = phases[t % 3]
        c0, c1 = columns(side, slot)
        out, part = real[dst, 2 * c0 : 2 * c1], scratch[2 * c0 : 2 * c1]
        multiply(drive[: 2 * width], scale, out=part)
        multiply(scaled[c0:c1], rows[src, c0:c1], out=rows[dst, c0:c1])
        # the left side subtracts the row past v first, the right side v
        near, far = (prev, src) if side == 0 else (src, prev)
        multiply(real[near, 2 * c0 : 2 * c1], first, out=part)
        subtract(out, part, out=out)
        multiply(real[far, 2 * c0 : 2 * c1], second, out=part)
        subtract(out, part, out=out)
        multiply(out, inverse, out=out)

    # each step copies its table row into one buffer, whose 0-d views are
    # the operands of its ufunc calls
    buffer = np.empty(8)
    scale_left, scale_right, a_next_left, b_right, b_left, a_right, inv_left, inv_right = (
        buffer[i, ...] for i in range(8)
    )
    active: tuple[list[int], list[int]] = ([], [])
    found: list[list] = [[None, None] for _ in jobs]
    cuts = sorted({*joins, *(t + 1 for t in (*redos, *ends)), span + 2} - {0})
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
            if shape != (len(active[0]), len(active[1])):
                shape = (len(active[0]), len(active[1]))
                lo_col, hi_col = mid - shape[0] * width, mid + shape[1] * width
                left = list(real[:, 2 * lo_col : 2 * mid])
                right = list(real[:, 2 * mid : 2 * hi_col])
                both = list(real[:, 2 * lo_col : 2 * hi_col])
                part_left = scratch[2 * lo_col : 2 * mid]
                part_right = scratch[2 * mid : 2 * hi_col]
                part_both = scratch[2 * lo_col : 2 * hi_col]
                drive_left, drive_right = drive[: 2 * (mid - lo_col)], drive[: 2 * (hi_col - mid)]
                product, scaled_both = list(rows[:, lo_col:hi_col]), scaled[lo_col:hi_col]
            # a half without recursions scales empty rows: the last step,
            # right side only, reads left coefficients (site base - 1) it
            # never uses
            for t in range(start, cut):
                dst, src, prev = phases[t % 3]
                buffer[...] = table[t]
                multiply(drive_left, scale_left, out=part_left)
                multiply(drive_right, scale_right, out=part_right)
                multiply(scaled_both, product[src], out=product[dst])
                multiply(left[prev], a_next_left, out=part_left)
                multiply(right[src], b_right, out=part_right)
                subtract(both[dst], part_both, out=both[dst])
                multiply(left[src], b_left, out=part_left)
                multiply(right[prev], a_right, out=part_right)
                subtract(both[dst], part_both, out=both[dst])
                multiply(left[dst], inv_left, out=left[dst])
                multiply(right[dst], inv_right, out=right[dst])
            t = cut - 1
            for side, j, coefficients in redos.get(t, ()):
                restep(side, active[side].index(j), t, coefficients)
            for side, j in ends.get(t, ()):
                slot = active[side].index(j)
                c0, c1 = columns(side, slot)
                dst, src, _ = phases[t % 3]
                found[j][side] = rows[[dst, src] if side == 0 else [src, dst], c0:c1]
                outer = active[side].pop()
                if outer != j:
                    d0, d1 = columns(side, len(active[side]))
                    rows[:, c0:c1] = rows[:, d0:d1]
                    active[side][slot] = outer
            start = cut
    return [tuple(pair) for pair in found]


def jost_left(seq: CoefficientSequence, z: complex) -> LatticeSolution:
    """Solution normalized to z^n at +infinity."""
    vals, lo = jost_values(seq, z, "left")
    return LatticeSolution(vals[0], lo, SolutionKind.LEFT_JOST, z)


def jost_right(seq: CoefficientSequence, z: complex) -> LatticeSolution:
    """Solution normalized to z^{-n} at -infinity."""
    vals, lo = jost_values(seq, z, "right")
    return LatticeSolution(vals[0], lo, SolutionKind.RIGHT_JOST, z)


def conjugate_solution(seq: CoefficientSequence, z: complex, side: str) -> LatticeSolution:
    """Companion solution, the same normalization taken at the inverse point.

    Computed through the at_inverse mode of jost_values, so solution and
    companion share one floating-point base point; the junction fits and
    Wronskian pairings downstream need exactly that.  On the circle the
    companion coincides with the entrywise complex conjugate of the plain
    solution.  That coincidence stays a checkable statement because the
    conjugation checks evaluate at an independently rounded reciprocal
    rather than through this function.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    vals, lo = jost_values(seq, complex(z), side, at_inverse=True)
    kind = SolutionKind.LEFT_CONJUGATE if side == "left" else SolutionKind.RIGHT_CONJUGATE
    return LatticeSolution(vals[0], lo, kind, z)


def wronskian(
    seq: CoefficientSequence, phi: LatticeSolution, zeta: LatticeSolution, n: int
) -> complex:
    """a(n+1) (phi(n) zeta(n+1) - phi(n+1) zeta(n)), constant across n."""
    a_next = coefficient_at(seq, n + 1)[0]
    return a_next * (phi.at(n) * zeta.at(n + 1) - phi.at(n + 1) * zeta.at(n))


def wronskian_constancy_check(
    seq: CoefficientSequence, phi: LatticeSolution, zeta: LatticeSolution
) -> float:
    """Max drift of the pairing across the shared range, relatively scaled.

    Returns max_n |W(n) - W(n0)| / max(1, |W(n0)|) over every site pair in
    the overlap of the two ranges, with n0 the lowest usable site.
    """
    lo = max(phi.lo, zeta.lo)
    hi = min(phi.hi, zeta.hi)
    if hi - lo < 2:
        raise ValueError("solution ranges overlap on fewer than three sites")
    p = phi.values[lo - phi.lo : hi - phi.lo + 1]
    q = zeta.values[lo - zeta.lo : hi - zeta.lo + 1]
    a, _, _ = coefficient_arrays(seq, lo + 1, hi)
    return float(_pairing_drift(a, p, q))


def _pairing(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """W(n) = a(n + 1) (p(n) q(n + 1) - p(n + 1) q(n)) along the first axis.

    p and q are site-major, and a holds a(n + 1) for each site pair,
    broadcast against the rows.
    """
    return a * (p[:-1] * q[1:] - p[1:] * q[:-1])


def _pairing_drift(a: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per column of p and q, max_n |W(n) - W(n0)| / max(1, |W(n0)|).

    W is _pairing(a, p, q), and n0 the first site pair.  Dividing by the
    positive scale after the max gives the bits of dividing each entry
    first.
    """
    pair = _pairing(a, p, q)
    return np.max(np.abs(pair - pair[0]), axis=0) / np.maximum(1.0, np.abs(pair[0]))


def _keep(kept: np.ndarray, sites: tuple[int, ...], n: int, rows: np.ndarray) -> None:
    """Copy into kept[i] the row at sites[i] of the block (n, rows), where it holds it."""
    for i, site in enumerate(sites):
        if n <= site < n + len(rows):
            kept[i] = rows[site - n]


def _rows_at(blocks: Iterator[tuple[int, np.ndarray]], sites: tuple[int, ...]) -> np.ndarray:
    """The rows at sites of a recursion's blocks, copied out in that order."""
    kept = None
    for n, rows in blocks:
        if kept is None:
            kept = np.empty((len(sites), rows.shape[1]), dtype=complex)
        _keep(kept, sites, n, rows)
    return kept


def equation_residual(seq: CoefficientSequence, sol: LatticeSolution) -> float:
    """Worst relative defect of the difference equation at interior sites.

    Each site residual is scaled by the largest participating term so the
    figure stays meaningful when the solution grows through the window.
    """
    lo, hi = sol.lo, sol.hi
    if hi - lo < 2:
        raise ValueError("solution range too short to test the equation")
    # coefficient arrays span [lo, hi + 1], one site longer than the values
    a, b, w = coefficient_arrays(seq, lo, hi + 1)
    s = seq.limits.a_inf * (sol.z + 1.0 / sol.z) + seq.limits.b_inf
    v = sol.values
    up = a[2:-1] * v[2:]
    mid = b[1:-2] * v[1:-1]
    down = a[1:-2] * v[:-2]
    drive = (w[1:-2] / seq.limits.w_inf) * s * v[1:-1]
    defect = np.abs(up + mid + down - drive)
    scale = np.maximum.reduce(
        [np.ones_like(defect), np.abs(up), np.abs(mid), np.abs(down), np.abs(drive)]
    )
    return float(np.max(defect / scale))
