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
* on sites at or below the breakpoint, the mirrored expansion holds in
  the left fragment's pair, 1/T on the conjugate partner and L/T on the
  plain right solution, and one site above it in the whole's own pair;
* on the junction's site pair (n1, n1 + 1), the full left solution and
  its partner are the plane waves of the right fragment's own T and L,
  and the full right solution and its partner those of the left
  fragment's own T and R, each scaled at n1 + 1 by the coupling ratio
  a_inf / a(n1 + 1);
* the 2x2 algebra that rearranges the junction matrices into the product
  formula, including the closed-form inverses it uses.

Each relation has one kernel, over a grid, and each report row is one
residual per grid point, which scattering._grid_maxima alone reduces to
the maximum a report prints, raising NumericalFault, naming the row and
theta, where a residual is not finite.  factorization_check is that
guarded maximum of factorization_residuals, as a float.  A single circle
point z is the grid [z]: transition_for is the block of
transition_entries at [z], as a read-only 2x2 array, its determinant gap
is determinant_residuals at [z], and z's factorization residual and
junction identities are factorization_check and the sweep over [z].

A single-junction fragment is the whole sequence on the side of its
breakpoint that it keeps and the limits on the side it frees, so its
solutions are the whole's on the kept side and, on the free side, the
plane-wave combination of its own T, R and L, which two consecutive rows
of the recursion fix.  So the junction rows read only the whole's rows
at n1 - 1..n1 + 1 of each junction: junction_residual_sweep recurses
the whole once per side, from its seeded tail to the farthest site it
reads, and the identities report reads them off the identity sweep's
runs of the whole (see below).  On n1 and n1 + 1 the
right fragment's rows are the whole's, and the left fragment's are the
whole's at n1 and, at n1 + 1, the whole's divided by the coupling
ratio; the plane-wave check reads the whole's rows on that site pair
(see junction_residual_sweep).  Farther along a free side it would
measure only the rounding drift of a neutrally stable recursion.  A
breakpoint at or past n_max + 1 splits
the sequence into the same two fragments as n_max + 1,
the whole and a free lattice, and one at or below n_min - 1 into those
of n_min - 1; the junction relations there differ only by unimodular
powers of z, so the sweep checks such a breakpoint at that edge site,
and the whole's rows never leave the window's neighbourhood.  Its
recursions hand their rows out in blocks of a few sites, so its
solutions take the memory of a few blocks, whatever the window's length.

_identities_report is the kernel of the CLI's identities report.  It
runs the identity sweep and then one tail-fit sweep of the whole, its
fragments and each breakpoint's junction fragments, fitted on the call,
in that order, so the first job that faults raises; the determinant,
factorization and junction rows then read the fits.  The end fragments,
which are also the outer junctions' outer parts, are swept and fitted
once.  The whole is recursed twice per side: the identity sweep's runs,
which step its companion at z as a third column block and keep its rows
at the junctions' sites for the junction rows, and the fit sweep's job
of the whole, over its support, which its fits read and from which each
fragment that keeps the whole's values on one side forks there
(jost._fit_sweep), so no fragment repeats the whole's steps.  Its
largest array is the identity sweep's left solution over the window,
one row of grid points per site.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .jost import _recurse, _rows_at
from .lattice import CoefficientSequence, Fragmentation, _slab, coefficient_arrays, fragment
from .scattering import _amplitude_blocks, _coefficients, _grid_maxima, _identity_sweep, _worst
from .spectral import _fault_where, _power_table, require_admissible

# the at_inverse modes of a solution and its companion at 1/z
_PAIRED = (False, True)


def transition_for(seq: CoefficientSequence, z: complex) -> np.ndarray:
    """Transition matrix of a sequence at one circle point, a read-only
    complex 2x2 array: transition_entries(seq, [z])[0]."""
    lam = transition_entries(seq, [z])[0]
    lam.setflags(write=False)
    return lam


def transition_entries(seq: CoefficientSequence, zs: np.ndarray) -> np.ndarray:
    """Vectorized transition matrices, one 2x2 block per circle point."""
    return _entries(_amplitude_blocks(seq, [seq], require_admissible(zs), _PAIRED)[0])


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
    detach; it must hold at least one part.
    """
    if parts is None:
        parts = fragment(seq, frag)
    elif not parts:
        raise ValueError("parts must hold at least one fragment")
    # the whole and its parts from one sweep, fitted in that order
    whole, *fits = _amplitude_blocks(seq, [seq, *parts], require_admissible(zs), _PAIRED)
    return _product_gap(_entries(whole), _fragment_product(map(_entries, fits)))


def factorization_check(seq: CoefficientSequence, frag: Fragmentation, zs: np.ndarray) -> float:
    """The largest factorization residual over the circle points zs.

    Raises NumericalFault, naming theta, where a residual is not finite.
    """
    zs = require_admissible(zs)
    residuals = factorization_residuals(seq, frag, zs)
    return _grid_maxima({"factorization": residuals}, zs)["factorization"]


def _junction_slabs(frag: Fragmentation) -> list[tuple[float, float]]:
    """Each breakpoint's two single-junction slabs (low, high], left then right."""
    return [slab for n1 in frag.breakpoints for slab in ((-math.inf, n1), (n1, math.inf))]


def _junction_parts(seq: CoefficientSequence, frag: Fragmentation) -> list[CoefficientSequence]:
    """Each breakpoint's two single-junction fragments, left then right."""
    return [_slab(seq, *slab) for slab in _junction_slabs(frag)]


def _junction_sites(
    seq: CoefficientSequence, frag: Fragmentation
) -> tuple[list[int], tuple[int, ...]]:
    """Each breakpoint at the edge site whose fragments are its own, and the
    sorted sites of the whole's rows its junction checks read, n1 - 1
    through n1 + 1 of each, all in solution_range(seq)."""
    n_min, n_max = seq.window.n_min, seq.window.n_max
    # junctions that land on one site stay separate, so fits stay in step with points
    points = [min(max(n1, n_min - 1), n_max + 1) for n1 in frag.breakpoints]
    return points, tuple(sorted({n1 + d for n1 in points for d in (-1, 0, 1)}))


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

    A breakpoint outside [n_min - 1, n_max + 1] is checked at the nearer
    end of that range, whose fragments fragment() builds bit for bit the
    same.  The whole sequence's T, R, L are read off its transition
    entries, and its solutions and their companions recursed once per
    side, from the seeded tail to the farthest site read, keeping only the
    rows at n1 - 1 through n1 + 1; no fragment is recursed.  fragment()
    copies the whole's values bit for bit on the side a fragment keeps,
    so the right fragment's solution pair at n1 and n1 + 1 is the
    whole's, and the left fragment's is the whole's up to n1 and, at
    n1 + 1, the whole's divided by the coupling ratio a_inf / a(n1 + 1):
    its one step into its free side repeats the whole's step at n1 with
    1 / a_inf in place of 1 / a(n1 + 1).  So left_junction fits the
    left fragment's pair at n1 - 1 and n1 from the whole's right pair,
    and checks the expansion at n1 + 1 in the whole's own pair.  A
    fragment's solution pair on its free side is the plane wave of its
    own T, R and L, which two consecutive rows fix, so plane_waves checks
    each of the whole's four solutions on the site pair (n1, n1 + 1)
    against the wave of the fragment it matches there, scaled by the
    ratio at n1 + 1, eight terms per junction: farther from the junction
    it would measure only the recursion's rounding drift.  The tail fits
    of the whole and all the fragments recurse in one sweep, and all are
    made before any junction is checked.
    Keys: right_junction, left_junction, plane_waves, factor_algebra.

    Raises NumericalFault, naming theta, where a fragment's solution pair
    is numerically dependent at the junction or, naming the row too,
    where a residual is not finite.
    """
    zs = require_admissible(zs)
    whole, *fits = _amplitude_blocks(seq, [seq, *_junction_parts(seq, frag)], zs, _PAIRED)
    points, sites = _junction_sites(seq, frag)
    n_min, n_max = seq.window.n_min, seq.window.n_max
    # the whole's solutions from their seeded tails to the farthest site
    # read: the left one down to sites[0], the right one up to sites[-1]
    paired = ((zs, False), (zs, True))
    left_run = _recurse(seq, sites[0], max(sites[-1], n_max + 1), paired, "left")
    right_run = _recurse(seq, min(sites[0], n_min - 2), sites[-1], paired, "right")
    rows = (_rows_at(left_run, sites), _rows_at(right_run, sites))
    return _grid_maxima(_junction_sweep(seq, points, sites, zs, _entries(whole), fits, rows), zs)


def _identities_report(
    seq: CoefficientSequence, frag: Fragmentation | None, zs: np.ndarray
) -> dict[str, float]:
    """Every row of the identities report, by name, in the order it prints.

    identity_sweep's rows and transition_determinant, then, given a
    fragmentation, factorization and junction_residual_sweep's keys.  The
    tail fits of the whole, its fragments and the junctions' run in one
    sweep and are all made before the rows that read them, so a
    NumericalFault names the first job in that order that faults; every
    later row shares the whole's fit.  The rows are reduced last, so a
    fit's fault comes before a residual that is not finite.

    The identity sweep runs first.  Given a fragmentation, its runs of
    the whole also step the companion at z and keep the whole's rows at
    the junctions' sites, which the junction sweep reads in place of
    runs of its own.  Every row keeps the bits of the public functions.

    The first fragment is the first junction's left part and the last
    fragment the last junction's right part, bit for bit, as both are cut
    from seq over the same slab.  So only the junction parts between
    those two are built, each once, and the junction rows read the end
    fragments' fits in place of the other two.
    """
    parts, inner, sites = [], [], ()
    if frag is not None:
        parts = fragment(seq, frag)
        inner = [_slab(seq, *slab) for slab in _junction_slabs(frag)[1:-1]]
        points, sites = _junction_sites(seq, frag)
    # the report's grid, checked once
    zs = require_admissible(zs)
    rows, whole_rows = _identity_sweep(seq, zs, sites)
    whole, *fits = _amplitude_blocks(seq, [seq, *parts, *inner], zs, _PAIRED)
    lam = _entries(whole)
    rows["transition_determinant"] = _determinant_gap(lam)
    if frag is not None:
        ends = fits[: len(parts)]
        rows["factorization"] = _product_gap(lam, _fragment_product(map(_entries, ends)))
        # one single-junction check per breakpoint, worst over them per row
        junction_fits = [ends[0], *fits[len(parts) :], ends[-1]]
        rows.update(_junction_sweep(seq, points, sites, zs, lam, junction_fits, whole_rows))
    return _grid_maxima(rows, zs)


@np.errstate(all="ignore")
def _junction_sweep(
    seq: CoefficientSequence,
    points: list[int],
    sites: tuple[int, ...],
    zs: np.ndarray,
    lam: np.ndarray,
    fits: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]],
    whole: tuple[np.ndarray, np.ndarray],
) -> dict[str, np.ndarray]:
    """junction_residual_sweep's rows over the checked grid zs, one residual
    per point, given the whole's entries lam and rows; it recurses nothing.

    points and sites are _junction_sites(seq, frag): each breakpoint at
    the site it is checked at, and the sorted sites of the whole's rows
    the checks read.  fits holds the amplitude blocks at z and 1/z of
    _junction_parts(seq, frag), left then right fragment per breakpoint,
    all fitted before the sweep, which reads them in pairs.  whole holds
    the whole's left and right solution at sites, one row per site: the
    solution at z in the first zs.size columns, its companion in the
    at_inverse mode in the rest.
    """
    # T, R, L bit for bit those of scattering_values: lam00, lam01 and
    # lam10 are the plain block's fit, which equals its single-mode run
    t, r, l = _coefficients(lam[..., 0, 0], -lam[..., 0, 1], lam[..., 1, 0])
    # the whole's quotients, once for every junction: each is the
    # expression the rows read, so every row keeps its bits
    inv_t, r_over_t, l_over_t, minus_r_over_t = 1.0 / t, r / t, l / t, -r / t
    m = zs.size
    where = {n: i for i, n in enumerate(sites)}
    fl_pair, fr_pair = whole

    def fit(m00, m01, m10, m11, r0, r1):
        det = m00 * m11 - m01 * m10
        _fault_where(np.abs(det) < 1e-300, zs, "junction solution pair is numerically dependent")
        return (r0 * m11 - m01 * r1) / det, (m00 * r1 - r0 * m10) / det

    rows = {key: np.zeros(m) for key in ("right_junction", "left_junction", "plane_waves")}
    # upper factor times its closed inverse: top right, bottom right
    rows["factor_algebra"] = _worst(r_over_t * t - r, inv_t * t - 1.0)

    def worsen(key, *terms):
        np.maximum(rows[key], _worst(*terms), out=rows[key])

    # z^n1, z^(n1 + 1), z^-n1 and z^-(n1 + 1) of every junction, from one table
    exponents = [k for n1 in points for k in (n1, n1 + 1, -n1, -(n1 + 1))]
    tables = _power_table(zs, np.array(exponents)).reshape(len(points), 4, m)
    # a(n1 + 1) of every junction, from one read: points never decrease
    couplings = coefficient_arrays(seq, points[0] + 1, points[-1] + 1)[0].tolist()
    for n1, left, right, table in zip(points, fits[::2], fits[1::2], tables):
        # keep only the coefficients the checks read, not the amplitudes
        (t1, r1, _), (t1c, r1c, _) = [_coefficients(*block) for block in left]
        (t2, _, l2), (t2c, _, l2c) = [_coefficients(*block) for block in right]
        # the fragments' quotients, each once, as the rows read them
        inv_t1, r1_over_t1, minus_r1_over_t1 = 1.0 / t1, r1 / t1, -r1 / t1
        inv_t1c, r1c_over_t1c, minus_r1c_over_t1c = 1.0 / t1c, r1c / t1c, -r1c / t1c
        inv_t2, l2_over_t2, inv_t2c, l2c_over_t2c = 1.0 / t2, l2 / t2, 1.0 / t2c, l2c / t2c
        ratio = seq.limits.a_inf / couplings[n1 - points[0]]
        # the whole's solutions and companions at n1 - 1 through n1 + 1.  The
        # right fragment's left pair is the whole's down to min(n1, n_max),
        # and past n_max both sit in the seeded tail.  The left fragment's
        # right pair is the whole's up to n1, and at n1 + 1 the whole's row
        # times 1 / ratio: its step at n1 divides the whole's numerator by
        # a_inf, not by a(n1 + 1)
        near = [where[n1 - 1], where[n1], where[n1 + 1]]
        fl, gl = fl_pair[near, :m], fl_pair[near, m:]
        fr, gr = fr_pair[near, :m], fr_pair[near, m:]

        refl_fit, trans_fit = fit(fl[1], gl[1], fl[2], gl[2], fr[1], fr[2])
        worsen("right_junction", refl_fit - r_over_t, trans_fit - inv_t)
        trans_fit, refl_fit = fit(gr[0], fr[0], gr[1], fr[1], fl[0], fl[1])
        worsen(
            "left_junction",
            trans_fit - inv_t,
            refl_fit - l_over_t,
            fl[2] - (inv_t * gr[2] + l_over_t * fr[2]),
        )

        # on n1 and n1 + 1 each of the whole's solutions is a fragment's own
        # plane wave, the right one's for fl and gl and the left one's for fr
        # and gr, scaled by ratio at n1 + 1
        up, down = table[:2], table[2:]
        waves = (
            (fl, inv_t2 * up + l2_over_t2 * down),
            (gl, l2c_over_t2c * up + inv_t2c * down),
            (fr, r1_over_t1 * up + inv_t1 * down),
            (gr, inv_t1c * up + r1c_over_t1c * down),
        )
        worsen(
            "plane_waves",
            *(f[1] - wave[0] for f, wave in waves),
            *(f[2] - ratio * wave[1] for f, wave in waves),
        )

        e00 = inv_t1c * inv_t1 + r1_over_t1 * minus_r1c_over_t1c
        e01 = inv_t1c * minus_r1_over_t1 + r1_over_t1 * inv_t1c
        e10 = r1c_over_t1c * inv_t1 + inv_t1 * minus_r1c_over_t1c
        e11 = r1c_over_t1c * minus_r1_over_t1 + inv_t1 * inv_t1c
        p00 = inv_t1 * inv_t2 + minus_r1_over_t1 * l2_over_t2
        p01 = inv_t1 * l2c_over_t2c + minus_r1_over_t1 * inv_t2c
        p10 = minus_r1c_over_t1c * inv_t2 + inv_t1c * l2_over_t2
        p11 = minus_r1c_over_t1c * l2c_over_t2c + inv_t1c * inv_t2c
        worsen(
            "factor_algebra",
            # the left fragment's determinant, 1
            1.0 / (t1 * t1c) - (r1 * r1c) / (t1 * t1c) - 1.0,
            # the exchange of the upper factors, and the rearranged product
            e00 - 1.0, e01, e10, e11 - 1.0,
            p00 - inv_t, p01 - minus_r_over_t, p10 - l_over_t, p11 - (t - l * r / t),
        )
    return rows
