"""Transition matrices, their factorization, and the junction identities.

The transition matrix of a sequence at a circle point z is

    [ 1/T(z)    -R(z)/T(z) ]
    [ L(z)/T(z)  1/T(1/z)  ]

and has determinant exactly 1.  Splitting the sequence into limit-padded
fragments along breakpoints multiplies the transition matrices: the whole
matrix equals the ordered product of the fragment matrices, leftmost
fragment first.  The checks in this module verify that product and the
solution-level identities behind it at a single junction:

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoefficientError, NumericalFault
from .jost import (
    _recurse,
    conjugate_solution,
    jost_left,
    jost_right,
    jost_values,
    solution_range,
)
from .lattice import (
    MAX_WINDOW_SITES,
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    coefficient_at,
    fragment,
)
from .scattering import (
    ScatteringData,
    _amplitude_blocks,
    _coefficients,
    extract_scattering,
)
from .spectral import _GridContext, require_admissible

_IDENT = np.eye(2, dtype=complex)


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


@dataclass(frozen=True)
class JunctionExpansionRight:
    """Recovery of (R/T, 1/T) from the right fragment's solution pair."""

    reflection_fit_residual: float
    transmission_fit_residual: float
    left_match_residual: float

    @property
    def max_residual(self) -> float:
        return max(
            self.reflection_fit_residual,
            self.transmission_fit_residual,
            self.left_match_residual,
        )


@dataclass(frozen=True)
class JunctionExpansionLeft:
    """Recovery of (1/T, L/T) from the left fragment's pair, with scalings."""

    transmission_fit_residual: float
    reflection_fit_residual: float
    right_scaling_residual: float
    left_scaling_residual: float

    @property
    def max_residual(self) -> float:
        return max(
            self.transmission_fit_residual,
            self.reflection_fit_residual,
            self.right_scaling_residual,
            self.left_scaling_residual,
        )


@dataclass(frozen=True)
class PlaneWaveTailReport:
    """Exactness of fragment tails at the junction, pointwise and in matrix form."""

    left_tail_residual: float
    scaled_site_residual: float
    right_tail_residual: float
    left_matrix_residual: float
    right_matrix_residual: float

    @property
    def max_residual(self) -> float:
        return max(
            self.left_tail_residual,
            self.scaled_site_residual,
            self.right_tail_residual,
            self.left_matrix_residual,
            self.right_matrix_residual,
        )


@dataclass(frozen=True)
class FactorAlgebraReport:
    """Residuals of the 2x2 rearrangement behind the two-fragment product."""

    triangular_inverse_residual: float
    unit_determinant_residual: float
    exchange_inverse_residual: float
    rearranged_residual: float

    @property
    def max_residual(self) -> float:
        return max(
            self.triangular_inverse_residual,
            self.unit_determinant_residual,
            self.exchange_inverse_residual,
            self.rearranged_residual,
        )


def transition_matrix(sd: ScatteringData, sd_inv: ScatteringData) -> TransitionMatrix:
    """Assemble the transition matrix from data at z and at 1/z."""
    if abs(sd.z * sd_inv.z - 1.0) > 1e-9:
        raise ValueError(
            f"second argument must hold data at 1/z; got z = {sd.z}, {sd_inv.z}"
        )
    entries = np.array(
        [
            [1.0 / sd.T, -sd.R / sd.T],
            [sd.L / sd.T, 1.0 / sd_inv.T],
        ]
    )
    return TransitionMatrix(entries, sd.z)


def transition_for(seq: CoefficientSequence, z: complex) -> TransitionMatrix:
    """Transition matrix of a sequence at one circle point."""
    z = complex(z)
    return transition_matrix(
        extract_scattering(seq, z), extract_scattering(seq, z, at_inverse=True)
    )


def transition_entries(seq: CoefficientSequence, zs: np.ndarray) -> np.ndarray:
    """Vectorized transition matrices, one 2x2 block per circle point."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    require_admissible(zs)
    return _transition_entries(seq, _GridContext(zs))


def _transition_entries(seq: CoefficientSequence, ctx: _GridContext) -> np.ndarray:
    """transition_entries over the checked grid of ctx."""
    (inv_t, r_over_t, l_over_t), (inv_t_conj, _, _) = _amplitude_blocks(
        seq, ctx, (False, True)
    )
    out = np.empty(ctx.zs.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = inv_t
    out[..., 0, 1] = -r_over_t
    out[..., 1, 0] = l_over_t
    out[..., 1, 1] = inv_t_conj
    return out


def _entries_scattering(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, R, L) from transition entries, bit for bit those of scattering_values.

    lam00, lam01 and lam10 are the plain block's fit, which equals its
    single-mode run, and T = 1 / lam00, R = -lam01 T, L = lam10 T round
    as scattering_values rounds them.
    """
    return _coefficients(lam[..., 0, 0], -lam[..., 0, 1], lam[..., 1, 0])


def _determinant_gap(lam: np.ndarray) -> np.ndarray:
    det = lam[..., 0, 0] * lam[..., 1, 1] - lam[..., 0, 1] * lam[..., 1, 0]
    return np.abs(det - 1.0)


def determinant_residuals(seq: CoefficientSequence, zs: np.ndarray) -> np.ndarray:
    """|det - 1| of the transition matrix at each circle point."""
    return _determinant_gap(transition_entries(seq, zs))


def _product_gap(
    whole: np.ndarray, parts: list[CoefficientSequence], ctx: _GridContext
) -> np.ndarray:
    """Max entrywise gap between whole entries and the ordered product of parts."""
    product = _transition_entries(parts[0], ctx)
    for part in parts[1:]:
        product = product @ _transition_entries(part, ctx)
    return np.max(np.abs(product - whole), axis=(-2, -1))


def factorization_residuals(
    seq: CoefficientSequence,
    frag: Fragmentation,
    zs: np.ndarray,
    parts: list[CoefficientSequence] | None = None,
) -> np.ndarray:
    """Max entrywise gap between the whole matrix and the fragment product.

    parts overrides the fragment list, which exists so that a negative
    control can corrupt the padding and watch the product detach.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    require_admissible(zs)
    ctx = _GridContext(zs)
    whole = _transition_entries(seq, ctx)
    if parts is None:
        parts = fragment(seq, frag)
    return _product_gap(whole, parts, ctx)


def factorization_check(
    seq: CoefficientSequence,
    frag: Fragmentation,
    z: complex,
    tol: float = 1e-10,
) -> FactorizationReport:
    """Compare the transition matrix with its ordered fragment product."""
    z = complex(z)
    whole = transition_for(seq, z)
    parts = fragment(seq, frag)
    product = _IDENT
    for part in parts:
        product = product @ transition_for(part, z).entries
    residual = float(np.max(np.abs(product - whole.entries)))
    return FactorizationReport(
        z=z,
        whole=whole,
        product=product,
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


def _single_breakpoint(seq: CoefficientSequence, frag: Fragmentation) -> int:
    if len(frag.breakpoints) != 1:
        raise ValueError(
            f"junction checks need exactly one breakpoint, got {frag.breakpoints}"
        )
    _require_reach(seq, frag.breakpoints)
    return frag.breakpoints[0]


def _solve2(m00, m01, m10, m11, r0, r1):
    det = m00 * m11 - m01 * m10
    if abs(det) < 1e-300:
        raise NumericalFault("junction solution pair is numerically dependent")
    return (r0 * m11 - m01 * r1) / det, (m00 * r1 - r0 * m10) / det


def proposition31_check(
    seq: CoefficientSequence, frag: Fragmentation, z: complex
) -> JunctionExpansionRight:
    """Expand the full right solution in the right fragment's pair.

    Fitting the full right solution at the two junction sites against the
    right fragment's left solution and its companion must return exactly
    (R/T, 1/T) of the whole sequence, while the full left solution must
    coincide with the fragment's left solution there.
    """
    n1 = _single_breakpoint(seq, frag)
    z = complex(z)
    cover = IndexWindow(n1 - 2, n1 + 2)
    parts = fragment(seq, frag)
    f_l = jost_left(seq, z, cover)
    f_r = jost_right(seq, z, cover)
    f_l2 = jost_left(parts[1], z, cover)
    g_l2 = conjugate_solution(parts[1], z, "left", cover)
    reflection_ratio, inverse_transmission = _solve2(
        f_l2.at(n1), g_l2.at(n1),
        f_l2.at(n1 + 1), g_l2.at(n1 + 1),
        f_r.at(n1), f_r.at(n1 + 1),
    )
    sd = extract_scattering(seq, z)
    return JunctionExpansionRight(
        reflection_fit_residual=abs(reflection_ratio - sd.R / sd.T),
        transmission_fit_residual=abs(inverse_transmission - 1.0 / sd.T),
        left_match_residual=max(
            abs(f_l.at(n1) - f_l2.at(n1)), abs(f_l.at(n1 + 1) - f_l2.at(n1 + 1))
        ),
    )


def proposition32_check(
    seq: CoefficientSequence, frag: Fragmentation, z: complex
) -> JunctionExpansionLeft:
    """Expand the full left solution in the left fragment's pair.

    The fit on the sites (n1 - 1, n1) must return 1/T on the conjugate
    partner and L/T on the plain right solution, both of the whole
    sequence; matching the left tails forces that assignment, since the
    conjugate partner is the one growing like z^n there.  One site past
    the junction both full solutions pick up the coupling ratio
    a_inf / a(n1 + 1) against the fragment expressions, and both
    scalings are checked explicitly.
    """
    n1 = _single_breakpoint(seq, frag)
    z = complex(z)
    cover = IndexWindow(n1 - 2, n1 + 2)
    parts = fragment(seq, frag)
    f_l = jost_left(seq, z, cover)
    f_r = jost_right(seq, z, cover)
    f_r1 = jost_right(parts[0], z, cover)
    g_r1 = conjugate_solution(parts[0], z, "right", cover)
    inverse_transmission, reflection_ratio = _solve2(
        g_r1.at(n1 - 1), f_r1.at(n1 - 1),
        g_r1.at(n1), f_r1.at(n1),
        f_l.at(n1 - 1), f_l.at(n1),
    )
    sd = extract_scattering(seq, z)
    l_over_t = sd.L / sd.T
    inv_t = 1.0 / sd.T
    ratio = seq.limits.a_inf / coefficient_at(seq, n1 + 1)[0]
    return JunctionExpansionLeft(
        transmission_fit_residual=abs(inverse_transmission - inv_t),
        reflection_fit_residual=abs(reflection_ratio - l_over_t),
        right_scaling_residual=abs(f_r.at(n1 + 1) - ratio * f_r1.at(n1 + 1)),
        left_scaling_residual=abs(
            f_l.at(n1 + 1)
            - ratio * (inv_t * g_r1.at(n1 + 1) + l_over_t * f_r1.at(n1 + 1))
        ),
    )


def junction_planewave_check(
    seq: CoefficientSequence, frag: Fragmentation, z: complex
) -> PlaneWaveTailReport:
    """Exact plane-wave form of the fragment tails at the junction.

    The right fragment's left solution must equal its own tail expansion
    (1/T2) z^n + (L2/T2) z^{-n} on every site up to the breakpoint and
    carry the coupling ratio one site past it; the left fragment's right
    solution must equal (1/T1) z^{-n} + (R1/T1) z^n from the breakpoint
    up, with no ratio.  The same statements are checked in 2x2 matrix
    form on the site pair (n1, n1 + 1), pairing each fragment solution
    with its companion at 1/z.
    """
    n1 = _single_breakpoint(seq, frag)
    z = complex(z)
    cover = IndexWindow(n1 - 2, n1 + 2)
    parts = fragment(seq, frag)
    sd1 = extract_scattering(parts[0], z)
    sd1_inv = extract_scattering(parts[0], z, at_inverse=True)
    sd2 = extract_scattering(parts[1], z)
    sd2_inv = extract_scattering(parts[1], z, at_inverse=True)
    f_l2 = jost_left(parts[1], z, cover)
    g_l2 = conjugate_solution(parts[1], z, "left", cover)
    f_r1 = jost_right(parts[0], z, cover)
    g_r1 = conjugate_solution(parts[0], z, "right", cover)
    ratio = seq.limits.a_inf / coefficient_at(seq, n1 + 1)[0]

    sites_left = np.arange(f_l2.lo, n1 + 1)
    wave_left = (1.0 / sd2.T) * z**sites_left + (sd2.L / sd2.T) * z ** (-sites_left)
    left_tail = float(
        np.max(np.abs(f_l2.values[: sites_left.size] - wave_left))
    )
    scaled = abs(
        f_l2.at(n1 + 1)
        - ratio * ((1.0 / sd2.T) * z ** (n1 + 1) + (sd2.L / sd2.T) * z ** (-(n1 + 1)))
    )
    sites_right = np.arange(n1, f_r1.hi + 1)
    wave_right = (1.0 / sd1.T) * z ** (-sites_right) + (sd1.R / sd1.T) * z**sites_right
    right_tail = float(
        np.max(np.abs(f_r1.values[sites_right[0] - f_r1.lo :] - wave_right))
    )

    waves = np.array(
        [[z**n1, z ** (-n1)], [z ** (n1 + 1), z ** (-(n1 + 1))]]
    )
    scale = np.array([[1.0, 0.0], [0.0, ratio]])
    left_cols = np.array(
        [
            [f_l2.at(n1), g_l2.at(n1)],
            [f_l2.at(n1 + 1), g_l2.at(n1 + 1)],
        ]
    )
    left_coef = np.array(
        [
            [1.0 / sd2.T, sd2_inv.L / sd2_inv.T],
            [sd2.L / sd2.T, 1.0 / sd2_inv.T],
        ]
    )
    left_matrix = float(np.max(np.abs(left_cols - scale @ waves @ left_coef)))
    right_cols = np.array(
        [
            [g_r1.at(n1), f_r1.at(n1)],
            [g_r1.at(n1 + 1), f_r1.at(n1 + 1)],
        ]
    )
    right_coef = np.array(
        [
            [1.0 / sd1_inv.T, sd1.R / sd1.T],
            [sd1_inv.R / sd1_inv.T, 1.0 / sd1.T],
        ]
    )
    right_matrix = float(np.max(np.abs(right_cols - waves @ right_coef)))
    return PlaneWaveTailReport(
        left_tail_residual=left_tail,
        scaled_site_residual=scaled,
        right_tail_residual=right_tail,
        left_matrix_residual=left_matrix,
        right_matrix_residual=right_matrix,
    )


def proof_algebra_check(
    sd1: ScatteringData,
    sd1_inv: ScatteringData,
    sd2: ScatteringData,
    sd2_inv: ScatteringData,
    sd: ScatteringData,
    sd_inv: ScatteringData,
) -> FactorAlgebraReport:
    """Verify the 2x2 rearrangement that yields the two-fragment product.

    The upper-triangular factor [[1, R/T], [0, 1/T]] inverts in closed
    form to [[1, -R], [0, T]]; the exchange-form factor built from the
    left fragment has determinant 1 and its closed-form inverse flips the
    off-diagonal signs.  With those inverses the junction matrix
    equation rearranges to

        inv(C1) @ D2  ==  [[1/T, 0], [L/T, 1]] @ [[1, -R], [0, T]]

    whose left side is the product of the fragment transition matrices
    and whose right side multiplies out to the whole transition matrix.
    """
    for pair in ((sd1, sd1_inv), (sd2, sd2_inv), (sd, sd_inv)):
        if abs(pair[0].z * pair[1].z - 1.0) > 1e-9:
            raise ValueError("each data pair must combine z with 1/z")
    t, r, l = sd.T, sd.R, sd.L
    upper = np.array([[1.0, r / t], [0.0, 1.0 / t]])
    upper_inv = np.array([[1.0, -r], [0.0, t]])
    triangular = float(np.max(np.abs(upper @ upper_inv - _IDENT)))

    t1, r1 = sd1.T, sd1.R
    t1c, r1c = sd1_inv.T, sd1_inv.R
    exchange = np.array([[1.0 / t1c, r1 / t1], [r1c / t1c, 1.0 / t1]])
    unit_det = abs(1.0 / (t1 * t1c) - (r1 * r1c) / (t1 * t1c) - 1.0)
    exchange_inv = np.array([[1.0 / t1, -r1 / t1], [-r1c / t1c, 1.0 / t1c]])
    exchange_res = float(np.max(np.abs(exchange @ exchange_inv - _IDENT)))

    t2, l2 = sd2.T, sd2.L
    t2c, l2c = sd2_inv.T, sd2_inv.L
    inner = np.array([[1.0 / t2, l2c / t2c], [l2 / t2, 1.0 / t2c]])
    lower = np.array([[1.0 / t, 0.0], [l / t, 1.0]])
    rearranged = float(np.max(np.abs(exchange_inv @ inner - lower @ upper_inv)))
    return FactorAlgebraReport(
        triangular_inverse_residual=triangular,
        unit_determinant_residual=unit_det,
        exchange_inverse_residual=exchange_res,
        rearranged_residual=rearranged,
    )


def junction_residual_sweep(
    seq: CoefficientSequence, frag: Fragmentation, zs: np.ndarray
) -> dict[str, float]:
    """Vectorized grid maxima of the single-junction checks, per breakpoint.

    Mirrors the pointwise junction checks above over a whole grid at
    once; used by sweep-style callers.  Every breakpoint n1 of frag is
    checked as its own single junction, the sequence split in two at n1
    alone, and each key holds the maximum over the breakpoints.  This
    is not the reading of factorization_residuals, where the same
    Fragmentation with k breakpoints means one product of k + 1
    fragments; the pointwise checks above take one breakpoint only and
    raise ValueError for more.

    The whole-sequence work is shared: its solutions are recursed once
    on the union of the junction covers and only the columns n1 - 1
    through n1 + 1 are kept, T, R, L are fitted once, and the plane-wave
    power tables are built once over the union range and sliced.  That
    range spans the window and every cover, so breakpoints far outside
    the window on both sides make it longer than any one junction's
    range.  Each breakpoint's fragment solutions keep their own range,
    which the plane-wave check reads in full.  Keys: right_junction,
    left_junction, plane_waves, factor_algebra.

    Raises CoefficientError, before any recursion, for a breakpoint more
    than MAX_WINDOW_SITES sites outside the window.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    _require_reach(seq, frag.breakpoints)
    require_admissible(zs)
    ctx = _GridContext(zs)
    (amplitudes,) = _amplitude_blocks(seq, ctx, (False,))
    return _junction_sweep(seq, frag, ctx, *_coefficients(*amplitudes))


def _junction_sweep(
    seq: CoefficientSequence,
    frag: Fragmentation,
    ctx: _GridContext,
    t: np.ndarray,
    r: np.ndarray,
    l: np.ndarray,
) -> dict[str, float]:
    """junction_residual_sweep over the grid of ctx, given the whole T, R, L."""
    _require_reach(seq, frag.breakpoints)
    zs = ctx.zs
    points = frag.breakpoints
    union = IndexWindow(points[0] - 2, points[-1] + 2)
    lo_all, hi_all = solution_range(seq, union)
    # keep only what the junctions read: sites n1 - 1, n1, n1 + 1 of each
    columns = [n1 - 1 - lo_all + d for n1 in points for d in range(3)]
    fl_near = jost_values(seq, zs, "left", union)[0][:, columns]
    fr_near = jost_values(seq, zs, "right", union)[0][:, columns]
    # upper factor times its closed inverse: top right, bottom right
    triangular = float(np.max(np.abs((r / t) * t - r)))
    lower_right = float(np.max(np.abs((1.0 / t) * t - 1.0)))
    sites = np.arange(lo_all, hi_all + 1)
    up = ctx.power_table(sites)
    down = ctx.power_table(-sites)

    def wave(cols, to_up, to_down):
        # to_up z^n + to_down z^{-n} on a slice of the power tables
        return to_up[:, None] * up[:, cols] + to_down[:, None] * down[:, cols]

    def fit(m00, m01, m10, m11, r0, r1):
        det = m00 * m11 - m01 * m10
        return (r0 * m11 - m01 * r1) / det, (m00 * r1 - r0 * m10) / det

    def paired(part, side, cover):
        # a solution and its companion at 1/z from one stacked recursion
        lo, hi = solution_range(part, cover)
        rows = _recurse(part, part.window, lo, hi, ctx, side, (False, True), store=True).T
        return rows[: zs.size], rows[zs.size :], lo

    found: dict[str, list[float]] = {
        key: [] for key in ("right_junction", "left_junction", "plane_waves", "factor_algebra")
    }
    for j, n1 in enumerate(points):
        cover = IndexWindow(n1 - 2, n1 + 2)
        parts = fragment(seq, Fragmentation((n1,)))
        # the companions are read only at the junction: keep those three
        # columns and the plain solutions, and let the stacked buffers go
        fl2, gl2, lo = paired(parts[1], "left", cover)
        junction = slice(n1 - 1 - lo, n1 + 2 - lo)
        fl2, gl2 = fl2.copy(), gl2[:, junction].copy()
        fr1, gr1, _ = paired(parts[0], "right", cover)
        fr1, gr1 = fr1.copy(), gr1[:, junction].copy()
        # keep only the coefficients the checks read, not the amplitudes
        (t1, r1, _), (t1c, r1c, _) = [
            _coefficients(*block) for block in _amplitude_blocks(parts[0], ctx, (False, True))
        ]
        (t2, _, l2), (t2c, _, l2c) = [
            _coefficients(*block) for block in _amplitude_blocks(parts[1], ctx, (False, True))
        ]
        ratio = seq.limits.a_inf / coefficient_at(seq, n1 + 1)[0]

        fl = fl_near[:, 3 * j : 3 * j + 3]
        fr = fr_near[:, 3 * j : 3 * j + 3]

        def col(values, n):
            return values[:, n - lo]

        def near(values, n):
            # values kept on the three sites n1 - 1, n1, n1 + 1
            return values[:, n - n1 + 1]

        refl_fit, trans_fit = fit(
            col(fl2, n1), near(gl2, n1), col(fl2, n1 + 1), near(gl2, n1 + 1),
            near(fr, n1), near(fr, n1 + 1),
        )
        found["right_junction"].append(max(
            float(np.max(np.abs(refl_fit - r / t))),
            float(np.max(np.abs(trans_fit - 1.0 / t))),
            float(np.max(np.abs(near(fl, n1) - col(fl2, n1)))),
            float(np.max(np.abs(near(fl, n1 + 1) - col(fl2, n1 + 1)))),
        ))
        trans_fit, refl_fit = fit(
            near(gr1, n1 - 1), col(fr1, n1 - 1), near(gr1, n1), col(fr1, n1),
            near(fl, n1 - 1), near(fl, n1),
        )
        found["left_junction"].append(max(
            float(np.max(np.abs(trans_fit - 1.0 / t))),
            float(np.max(np.abs(refl_fit - l / t))),
            float(np.max(np.abs(near(fr, n1 + 1) - ratio * col(fr1, n1 + 1)))),
            float(
                np.max(
                    np.abs(
                        near(fl, n1 + 1)
                        - ratio
                        * ((1.0 / t) * near(gr1, n1 + 1) + (l / t) * col(fr1, n1 + 1))
                    )
                )
            ),
        ))

        # this junction's own solution range, as a slice of the power tables
        hi = lo + fl2.shape[1] - 1
        left_sites = slice(lo - lo_all, n1 + 1 - lo_all)
        right_sites = slice(n1 - lo_all, hi + 1 - lo_all)
        # scalar-exponent powers take numpy's own fast paths, so they are
        # not read off the tables
        z0, z0_inv = ctx.power(n1), ctx.power(-n1)
        z1, z1_inv = ctx.power(n1 + 1), ctx.power(-(n1 + 1))
        scaled_wave = ratio * ((1.0 / t2) * z1 + (l2 / t2) * z1_inv)
        found["plane_waves"].append(max(
            float(np.max(np.abs(fl2[:, : n1 + 1 - lo] - wave(left_sites, 1.0 / t2, l2 / t2)))),
            float(np.max(np.abs(col(fl2, n1 + 1) - scaled_wave))),
            float(np.max(np.abs(fr1[:, n1 - lo :] - wave(right_sites, r1 / t1, 1.0 / t1)))),
            # matrix forms on the junction site pair
            float(np.max(np.abs(col(fl2, n1) - (z0 / t2 + z0_inv * l2 / t2)))),
            float(np.max(np.abs(near(gl2, n1) - (z0 * l2c / t2c + z0_inv / t2c)))),
            float(
                np.max(np.abs(col(fl2, n1 + 1) - ratio * (z1 / t2 + z1_inv * l2 / t2)))
            ),
            float(
                np.max(np.abs(near(gl2, n1 + 1) - ratio * (z1 * l2c / t2c + z1_inv / t2c)))
            ),
            float(np.max(np.abs(near(gr1, n1) - (z0 / t1c + z0_inv * r1c / t1c)))),
            float(np.max(np.abs(col(fr1, n1) - (z0 * r1 / t1 + z0_inv / t1)))),
            float(np.max(np.abs(near(gr1, n1 + 1) - (z1 / t1c + z1_inv * r1c / t1c)))),
            float(np.max(np.abs(col(fr1, n1 + 1) - (z1 * r1 / t1 + z1_inv / t1)))),
        ))
        # free this junction's solutions before the next one allocates its own
        del fl2, gl2, fr1, gr1

        unit_det = np.abs(1.0 / (t1 * t1c) - (r1 * r1c) / (t1 * t1c) - 1.0)
        e00 = (1.0 / t1c) * (1.0 / t1) + (r1 / t1) * (-r1c / t1c)
        e01 = (1.0 / t1c) * (-r1 / t1) + (r1 / t1) * (1.0 / t1c)
        e10 = (r1c / t1c) * (1.0 / t1) + (1.0 / t1) * (-r1c / t1c)
        e11 = (r1c / t1c) * (-r1 / t1) + (1.0 / t1) * (1.0 / t1c)
        exchange = np.max(
            np.abs(np.stack([e00 - 1.0, e01, e10, e11 - 1.0])), axis=0
        )
        p00 = (1.0 / t1) * (1.0 / t2) + (-r1 / t1) * (l2 / t2)
        p01 = (1.0 / t1) * (l2c / t2c) + (-r1 / t1) * (1.0 / t2c)
        p10 = (-r1c / t1c) * (1.0 / t2) + (1.0 / t1c) * (l2 / t2)
        p11 = (-r1c / t1c) * (l2c / t2c) + (1.0 / t1c) * (1.0 / t2c)
        q00 = 1.0 / t
        q01 = -r / t
        q10 = l / t
        q11 = t - l * r / t
        rearranged = np.max(
            np.abs(np.stack([p00 - q00, p01 - q01, p10 - q10, p11 - q11])), axis=0
        )
        found["factor_algebra"].append(max(
            triangular,
            lower_right,
            float(np.max(unit_det)),
            float(np.max(exchange)),
            float(np.max(rearranged)),
        ))
    return {key: float(np.max(values)) for key, values in found.items()}
