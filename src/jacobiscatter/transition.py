"""Transition matrices, their factorization, and the junction identities.

The transition matrix of a sequence at a circle point z is

    [ 1/T(z)    -R(z)/T(z) ]
    [ L(z)/T(z)  1/T(1/z)  ]

and has determinant exactly 1.  Splitting the sequence into limit-padded
fragments along breakpoints multiplies the transition matrices: the whole
matrix equals the ordered product of the fragment matrices, leftmost
fragment first.  factorization_residuals checks that product over a
grid, and junction_residual_sweep checks the solution-level identities
behind it at each breakpoint taken as a single junction:

* on sites at or above the breakpoint, the full left solution equals the
  right fragment's left solution, and the full right solution expands in
  the right fragment's solution pair with coefficients R/T and 1/T;
* on sites at or below the breakpoint (shifted by one for the left
  solution), the mirrored expansion holds in the left fragment's pair,
  1/T on the conjugate partner and L/T on the plain right solution;
* each fragment's inward tail is an exact plane-wave combination up to
  the breakpoint, with a coupling ratio a_inf / a(n1 + 1) scaling the
  first site past it, also in matrix form on the site pair (n1, n1 + 1);
* the 2x2 algebra that rearranges the junction matrices into the product
  formula, including the closed-form inverses it uses.

Each relation has one kernel, over a grid, and each report row is one
residual per grid point, which scattering._grid_maxima alone reduces to
the maximum a report prints, raising NumericalFault, naming the row and
theta, where a residual is not finite.  The one-point functions,
transition_for and factorization_check, call the same kernels on a grid
of one point; a single z's junction identities are the sweep over [z].

A single-junction fragment is the whole sequence on the side of its
breakpoint that it keeps and the limits on the side it frees, so its
solutions are the whole's on the kept side.  The junction sweep recurses
the whole once per side and keeps its rows at each junction and where
each fragment starts; a fragment recurses only its free side, from those
rows (see junction_residual_sweep).  Every recursion hands its rows out
in blocks of a few sites, and the sweep keeps none but those rows: it
checks each free side's plane wave block by block, the free sides of all
junctions on one side of theirs in step, so that each block's pair of
power-table rows serves them all.  So its solutions take the memory of
a few blocks, whatever the window's length or a breakpoint's distance
from it.

_identities_report is the kernel of the CLI's identities report.  It
runs the identity sweep and then one tail-fit sweep of the whole, its
fragments and each breakpoint's junction fragments, which the
determinant, factorization and junction rows read in that order.  Its
largest array is the identity sweep's left solution over the window,
one row of grid points per site.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import CoefficientError
from .jost import _BLOCK_SITES, _recurse, _rows_at, solution_range
from .lattice import (
    MAX_WINDOW_SITES,
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    coefficient_at,
    fragment,
)
from .scattering import _amplitude_blocks, _coefficients, _grid_maxima, _identity_sweep, _worst
from .spectral import _fault_where, _GridContext

# the at_inverse modes of a solution and its companion at 1/z
_PAIRED = (False, True)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """2x2 transition matrix of one sequence at one circle point."""

    entries: np.ndarray
    z: complex

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex).copy()
        if arr.shape != (2, 2):
            raise ValueError(f"transition matrix must be 2x2, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "z", complex(self.z))

    def determinant(self) -> complex:
        e = self.entries
        return e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]


@dataclass(frozen=True, eq=False)
class FactorizationReport:
    """Outcome of comparing a transition matrix with a fragment product."""

    z: complex
    whole: TransitionMatrix
    product: np.ndarray
    residual: float
    fragment_count: int
    tolerance: float
    passed: bool


def transition_for(seq: CoefficientSequence, z: complex) -> TransitionMatrix:
    """Transition matrix of a sequence at one circle point."""
    return TransitionMatrix(transition_entries(seq, [z])[0], z)


def transition_entries(seq: CoefficientSequence, zs: np.ndarray) -> np.ndarray:
    """Vectorized transition matrices, one 2x2 block per circle point."""
    return _entries(next(_amplitude_blocks(seq, [seq], _GridContext(zs), _PAIRED)))


def _entries(blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Transition entries from one job's amplitude blocks at z and at 1/z."""
    (inv_t, r_over_t, l_over_t), (inv_t_conj, _, _) = blocks
    out = np.empty(inv_t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = inv_t
    out[..., 0, 1] = -r_over_t
    out[..., 1, 0] = l_over_t
    out[..., 1, 1] = inv_t_conj
    return out


@np.errstate(all="ignore")
def _determinant_gap(lam: np.ndarray) -> np.ndarray:
    det = lam[..., 0, 0] * lam[..., 1, 1] - lam[..., 0, 1] * lam[..., 1, 0]
    return np.abs(det - 1.0)


def determinant_residuals(seq: CoefficientSequence, zs: np.ndarray) -> np.ndarray:
    """|det - 1| of the transition matrix at each circle point."""
    return _determinant_gap(transition_entries(seq, zs))


@np.errstate(all="ignore")
def _fragment_product(entries: Iterator[np.ndarray]) -> np.ndarray:
    """Ordered product of the parts' transition entries, leftmost first."""
    product = next(entries)
    for part in entries:
        product = product @ part
    return product


@np.errstate(all="ignore")
def _product_gap(whole: np.ndarray, product: np.ndarray) -> np.ndarray:
    """Max entrywise gap between whole entries and the parts' product."""
    return np.max(np.abs(product - whole), axis=(-2, -1))


def factorization_residuals(
    seq: CoefficientSequence,
    frag: Fragmentation,
    zs: np.ndarray,
    parts: list[CoefficientSequence] | None = None,
) -> np.ndarray:
    """Max entrywise gap between the whole matrix and the fragment product.

    parts overrides the fragment list, which exists so that a negative
    control can corrupt the padding or a limit and watch the product
    detach.
    """
    ctx = _GridContext(zs)
    if parts is None:
        parts = fragment(seq, frag)
    # the whole and its fragments from one sweep, fitted in that order
    blocks = _amplitude_blocks(seq, [seq, *parts], ctx, _PAIRED)
    return _product_gap(_entries(next(blocks)), _fragment_product(map(_entries, blocks)))


def factorization_check(
    seq: CoefficientSequence,
    frag: Fragmentation,
    z: complex,
    tol: float = 1e-10,
) -> FactorizationReport:
    """Compare the transition matrix with its ordered fragment product.

    Raises NumericalFault where the residual is not finite.
    """
    z = complex(z)
    parts = fragment(seq, frag)
    ctx = _GridContext(z)
    blocks = _amplitude_blocks(seq, [seq, *parts], ctx, _PAIRED)
    whole = _entries(next(blocks))
    product = _fragment_product(map(_entries, blocks))
    (residual,) = _grid_maxima({"factorization": _product_gap(whole, product)}, ctx.zs).values()
    return FactorizationReport(
        z=z,
        whole=TransitionMatrix(whole[0], z),
        product=product[0],
        residual=residual,
        fragment_count=len(parts),
        tolerance=float(tol),
        passed=residual <= tol,
    )


def _require_reach(seq: CoefficientSequence, points: tuple[int, ...]) -> None:
    """Reject breakpoints more than MAX_WINDOW_SITES sites outside the window.

    A junction's solutions span the window and the junction's cover, so
    a breakpoint far outside would cost time and memory in proportion to
    its distance, which the window cap does not bound.
    """
    n_min, n_max = seq.window.n_min, seq.window.n_max
    for n1 in points:
        outside = max(n_min - n1, n1 - n_max)
        if outside > MAX_WINDOW_SITES:
            raise CoefficientError(
                f"breakpoint {n1} lies {outside} sites outside the window "
                f"[{n_min}, {n_max}]; junction checks admit at most {MAX_WINDOW_SITES}"
            )


def _junction_parts(seq: CoefficientSequence, frag: Fragmentation) -> list[CoefficientSequence]:
    """Each breakpoint's two single-junction fragments, left then right."""
    return [part for n1 in frag.breakpoints for part in fragment(seq, Fragmentation((n1,)))]


def junction_residual_sweep(
    seq: CoefficientSequence, frag: Fragmentation, zs: np.ndarray
) -> dict[str, float]:
    """Grid maxima of the single-junction identities, per breakpoint.

    The one kernel for the junction expansions, the plane-wave tails and
    the factor algebra; a single circle point z is the grid [z].  Every
    breakpoint n1 of frag is checked as its own single junction, the
    sequence split in two at n1 alone, and each key holds the maximum
    over the breakpoints.  This is not the reading of
    factorization_residuals, where the same Fragmentation with k
    breakpoints means one product of k + 1 fragments.

    The whole sequence's T, R, L are read off its transition entries, and
    its solutions and their companions recursed once per side, keeping only
    the rows at n1 - 1 through n1 + 1 and where the fragments start.
    fragment() copies the whole's values bit for bit on the side a
    fragment keeps, so the right fragment's left solution is the whole's
    down to min(n1, n_max) and the left fragment's right solution up to
    max(n1, n_min - 1); each is recursed from there over its free side.
    The companions are recursed only to the junction: one step, to n1 + 1,
    on the right, none on the left.  The plane-wave check reads each free
    side's rows block by block as they come, the blocks of all junctions
    on one side sharing their sites and one pair of power-table rows; the
    tail fits of the whole and all the fragments recurse in one sweep.  Keys:
    right_junction, left_junction, plane_waves, factor_algebra.

    Raises CoefficientError, before any recursion, for a breakpoint more
    than MAX_WINDOW_SITES sites outside the window, and NumericalFault,
    naming theta, where a fragment's solution pair is numerically
    dependent at the junction or, naming the row too, where a residual is
    not finite.
    """
    _require_reach(seq, frag.breakpoints)
    ctx = _GridContext(zs)
    parts = _junction_parts(seq, frag)
    fits = _amplitude_blocks(seq, [seq, *parts], ctx, _PAIRED)
    return _grid_maxima(_junction_sweep(seq, frag, ctx, _entries(next(fits)), parts, fits), ctx.zs)


def _identities_report(
    seq: CoefficientSequence, frag: Fragmentation | None, zs: np.ndarray
) -> dict[str, float]:
    """Every row of the identities report, by name, in the order it prints.

    identity_sweep's rows and transition_determinant, then, given a
    fragmentation, factorization and junction_residual_sweep's keys.  The
    breakpoints' reach is checked before the grid.  The tail fits of the
    whole, its fragments and the junctions' run in one sweep and are
    fitted as they are read, so a NumericalFault names the first job that
    faults; every later row shares the whole's fit.  The rows are reduced
    last, so a fit's fault comes before a residual that is not finite.
    """
    parts, junction_parts = [], []
    if frag is not None:
        _require_reach(seq, frag.breakpoints)
        parts, junction_parts = fragment(seq, frag), _junction_parts(seq, frag)
    # every recursion and fit of the report shares this grid's drive and powers
    ctx = _GridContext(zs)
    rows = _identity_sweep(seq, ctx)
    blocks = _amplitude_blocks(seq, [seq, *parts, *junction_parts], ctx, _PAIRED)
    lam = _entries(next(blocks))
    rows["transition_determinant"] = _determinant_gap(lam)
    if frag is not None:
        product = _fragment_product(map(_entries, islice(blocks, len(parts))))
        rows["factorization"] = _product_gap(lam, product)
        # one single-junction check per breakpoint, worst over them per row
        rows.update(_junction_sweep(seq, frag, ctx, lam, junction_parts, blocks))
    return _grid_maxima(rows, ctx.zs)


@np.errstate(all="ignore")
def _junction_sweep(
    seq: CoefficientSequence,
    frag: Fragmentation,
    ctx: _GridContext,
    lam: np.ndarray,
    parts: list[CoefficientSequence],
    fits: Iterator[list[tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> dict[str, np.ndarray]:
    """junction_residual_sweep's rows over the grid of ctx, one residual per
    point, given the whole's entries lam.

    parts is _junction_parts(seq, frag), and fits yields their amplitude
    blocks at z and 1/z in that order, fitted where the loop reads them.
    The caller checks the breakpoints' reach.
    """
    # T, R, L bit for bit those of scattering_values: lam00, lam01 and
    # lam10 are the plain block's fit, which equals its single-mode run
    t, r, l = _coefficients(lam[..., 0, 0], -lam[..., 0, 1], lam[..., 1, 0])
    zs = ctx.zs
    m = zs.size
    points = frag.breakpoints
    n_min, n_max = seq.window.n_min, seq.window.n_max
    lo_all, hi_all = solution_range(seq, IndexWindow(points[0] - 2, points[-1] + 2))
    # per junction: the sites from which the right fragment's left solution
    # recurses down and the left fragment's right one recurses up, where
    # each fragment's kept side ends
    starts = [(min(n1, n_max), max(n1, n_min - 1)) for n1 in points]
    kept = {n1 + d for n1 in points for d in (-1, 0, 1)}
    sites = sorted(kept.union(*({down, down + 1, up - 1, up} for down, up in starts)))
    where = {n: i for i, n in enumerate(sites)}

    # the left solution is read no lower than sites[0], the right one no
    # higher than sites[-1]
    fl_pair = _rows_at(_recurse(seq, sites[0], hi_all, ctx, "left", _PAIRED), sites)
    fr_pair = _rows_at(_recurse(seq, lo_all, sites[-1], ctx, "right", _PAIRED), sites)

    def fit(m00, m01, m10, m11, r0, r1):
        det = m00 * m11 - m01 * m10
        _fault_where(np.abs(det) < 1e-300, zs, "junction solution pair is numerically dependent")
        return (r0 * m11 - m01 * r1) / det, (m00 * r1 - r0 * m10) / det

    rows = {key: np.zeros(m) for key in ("right_junction", "left_junction", "plane_waves")}
    # upper factor times its closed inverse: top right, bottom right
    rows["factor_algebra"] = _worst((r / t) * t - r, (1.0 / t) * t - 1.0)

    def worsen(key, *terms):
        np.maximum(rows[key], _worst(*terms), out=rows[key])

    # per junction: its free sides' recursions, each with the sites its
    # plane wave covers and that wave's coefficients, checked after the loop
    free_left, free_right = [], []
    for j, (n1, (down, up)) in enumerate(zip(points, starts)):
        lo, hi = solution_range(seq, IndexWindow(n1 - 2, n1 + 2))
        left_part, right_part = parts[2 * j], parts[2 * j + 1]
        # the right fragment's left solution on lo..n1 + 1: a run alone
        # from the whole's rows at down and down + 1 covers the free side
        start = (down, fl_pair[[where[down], where[down + 1]], :m])
        fl2_blocks = _recurse(
            right_part, lo, n1 + 1, ctx, "left", (False,), start=start, edge=lo_all
        )
        # the left fragment's right solution on n1 - 1..hi, likewise from
        # up: its companion needs the step to n1 + 1
        s = min(n1, up) - 1
        first = max(n1, up)
        start = (up, fr_pair[[where[up - 1], where[up]]])
        near = _rows_at(
            _recurse(left_part, s, max(n1 + 1, up), ctx, "right", _PAIRED, start=start),
            (n1 - 1, n1, n1 + 1, first - 1, first),
        )
        gr1, fr1 = near[:3, m:], near[:3, :m]
        start = (first, near[3:, :m])
        fr1_blocks = _recurse(
            left_part, n1 - 1, hi, ctx, "right", (False,), start=start, edge=hi_all + 1
        )
        # keep only the coefficients the checks read, not the amplitudes
        (t1, r1, _), (t1c, r1c, _) = [_coefficients(*block) for block in next(fits)]
        (t2, _, l2), (t2c, _, l2c) = [_coefficients(*block) for block in next(fits)]
        ratio = seq.limits.a_inf / coefficient_at(seq, n1 + 1)[0]
        # fl and fr, the whole's, and fr1 and gr1 are at n1 - 1 through
        # n1 + 1.  At n1 and n1 + 1 the right fragment's left solution and
        # its companion, f0, f1 and gl2, are the whole's rows: n1 + 1 is at
        # most down + 1, or both sit in the tail seeded past n_max
        near = [where[n1 - 1], where[n1], where[n1 + 1]]
        fl, fr = fl_pair[near, :m], fr_pair[near, :m]
        (f0, f1), gl2 = fl[1:], fl_pair[near[1:], m:]

        refl_fit, trans_fit = fit(f0, gl2[0], f1, gl2[1], fr[1], fr[2])
        worsen("right_junction", refl_fit - r / t, trans_fit - 1.0 / t, fl[1] - f0, fl[2] - f1)
        trans_fit, refl_fit = fit(gr1[0], fr1[0], gr1[1], fr1[1], fl[0], fl[1])
        worsen(
            "left_junction",
            trans_fit - 1.0 / t,
            refl_fit - l / t,
            fr[2] - ratio * fr1[2],
            fl[2] - ratio * ((1.0 / t) * gr1[2] + (l / t) * fr1[2]),
        )

        # the free sides' waves: the left one on lo..n1, the right one on n1..hi
        free_left.append((lo, n1, (1.0 / t2, l2 / t2), fl2_blocks))
        free_right.append((n1, hi, (r1 / t1, 1.0 / t1), fr1_blocks))
        # scalar-exponent powers take numpy's own fast paths, so they are
        # not read off the tables
        z0, z0_inv = ctx.power(n1), ctx.power(-n1)
        z1, z1_inv = ctx.power(n1 + 1), ctx.power(-(n1 + 1))
        worsen(
            "plane_waves",
            f1 - ratio * ((1.0 / t2) * z1 + (l2 / t2) * z1_inv),
            # matrix forms on the junction site pair
            f0 - (z0 / t2 + z0_inv * l2 / t2),
            gl2[0] - (z0 * l2c / t2c + z0_inv / t2c),
            f1 - ratio * (z1 / t2 + z1_inv * l2 / t2),
            gl2[1] - ratio * (z1 * l2c / t2c + z1_inv / t2c),
            gr1[1] - (z0 / t1c + z0_inv * r1c / t1c),
            fr1[1] - (z0 * r1 / t1 + z0_inv / t1),
            gr1[2] - (z1 / t1c + z1_inv * r1c / t1c),
            fr1[2] - (z1 * r1 / t1 + z1_inv / t1),
        )

        e00 = (1.0 / t1c) * (1.0 / t1) + (r1 / t1) * (-r1c / t1c)
        e01 = (1.0 / t1c) * (-r1 / t1) + (r1 / t1) * (1.0 / t1c)
        e10 = (r1c / t1c) * (1.0 / t1) + (1.0 / t1) * (-r1c / t1c)
        e11 = (r1c / t1c) * (-r1 / t1) + (1.0 / t1) * (1.0 / t1c)
        p00 = (1.0 / t1) * (1.0 / t2) + (-r1 / t1) * (l2 / t2)
        p01 = (1.0 / t1) * (l2c / t2c) + (-r1 / t1) * (1.0 / t2c)
        p10 = (-r1c / t1c) * (1.0 / t2) + (1.0 / t1c) * (l2 / t2)
        p11 = (-r1c / t1c) * (l2c / t2c) + (1.0 / t1c) * (1.0 / t2c)
        worsen(
            "factor_algebra",
            # the left fragment's determinant, 1
            1.0 / (t1 * t1c) - (r1 * r1c) / (t1 * t1c) - 1.0,
            # the exchange of the upper factors, and the rearranged product
            e00 - 1.0, e01, e10, e11 - 1.0,
            p00 - 1.0 / t, p01 - -r / t, p10 - l / t, p11 - (t - l * r / t),
        )
    # the free sides' plane waves, the left ones from the top down, then
    # the right ones from the bottom up
    lefts = _wave_gaps(ctx, free_left, lo_all, True)
    rights = _wave_gaps(ctx, free_right, hi_all + 1, False)
    rows["plane_waves"] = np.max([rows["plane_waves"], *lefts, *rights], axis=0)
    return rows


def _wave_gaps(
    ctx: _GridContext, free: list[tuple], edge: int, descending: bool
) -> list[np.ndarray]:
    """Each free side's gaps to its plane wave, worst per grid point, in free's order.

    free holds per recursion (lo, hi, (up, down), blocks): blocks hands
    out its rows, from _recurse with the given edge, and the gap is taken
    on sites lo..hi to up z^n + down z^{-n}.  The recursions' blocks
    share their sites, so they are read merged in site order, from the
    top down if descending, and each block's pair of power-table rows is
    built once for all of them.
    """
    lo = min(first for first, _, _, _ in free)
    hi = max(last for _, last, _, _ in free)
    gaps = [np.zeros(ctx.zs.size) for _ in free]

    def tagged(j, blocks):
        for n, rows in blocks:
            yield n, j, rows

    merged = heapq.merge(*(tagged(j, each[3]) for j, each in enumerate(free)), reverse=descending)
    held = None
    for n, j, rows in merged:
        first, last, (up, down), _ = free[j]
        first, last = max(first, n), min(last, n + len(rows) - 1)
        if first > last:
            continue
        if held != (n - edge) // _BLOCK_SITES:
            # the block's sites on lo..hi
            held = (n - edge) // _BLOCK_SITES
            start = edge + held * _BLOCK_SITES
            base = max(lo, start)
            sites = np.arange(base, min(hi, start + _BLOCK_SITES - 1) + 1)
            up_table, down_table = ctx.power_table(sites), ctx.power_table(-sites)
        part = slice(first - base, last + 1 - base)
        wave = up * up_table[part] + down * down_table[part]
        gap = np.max(np.abs(rows[first - n : last + 1 - n] - wave), axis=0)
        np.maximum(gaps[j], gap, out=gaps[j])
    return gaps
