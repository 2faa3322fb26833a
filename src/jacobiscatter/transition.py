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

Each relation has one kernel, over a grid.  The one-point functions,
transition_for and factorization_check, call the same kernels on a grid
of one point; a single z's junction identities are the sweep over [z].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CoefficientError, NumericalFault
from .jost import _recurse, solution_range
from .lattice import (
    MAX_WINDOW_SITES,
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    coefficient_at,
    fragment,
)
from .scattering import _amplitude_blocks, _coefficients
from .spectral import _GridContext


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
    return next(_transition_entries(seq, [seq], _GridContext(zs)))


def _transition_entries(
    seq: CoefficientSequence, jobs: list[CoefficientSequence], ctx: _GridContext
) -> Iterator[np.ndarray]:
    """transition_entries of each job over the grid of ctx, in order.

    The recursions of the jobs that share seq's limits share one sweep
    (_amplitude_blocks); each job's matrix is fitted as it is read.
    """
    for (inv_t, r_over_t, l_over_t), (inv_t_conj, _, _) in _amplitude_blocks(
        seq, jobs, ctx, (False, True)
    ):
        out = np.empty(ctx.zs.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = inv_t
        out[..., 0, 1] = -r_over_t
        out[..., 1, 0] = l_over_t
        out[..., 1, 1] = inv_t_conj
        yield out


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


def _fragment_product(entries: Iterator[np.ndarray]) -> np.ndarray:
    """Ordered product of the parts' transition entries, leftmost first."""
    product = next(entries)
    for part in entries:
        product = product @ part
    return product


def _product_gap(whole: np.ndarray, entries: Iterator[np.ndarray]) -> np.ndarray:
    """Max entrywise gap between whole entries and the ordered product of parts."""
    return np.max(np.abs(_fragment_product(entries) - whole), axis=(-2, -1))


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
    entries = _transition_entries(seq, [seq, *parts], ctx)
    return _product_gap(next(entries), entries)


def factorization_check(
    seq: CoefficientSequence,
    frag: Fragmentation,
    z: complex,
    tol: float = 1e-10,
) -> FactorizationReport:
    """Compare the transition matrix with its ordered fragment product."""
    z = complex(z)
    parts = fragment(seq, frag)
    entries = _transition_entries(seq, [seq, *parts], _GridContext(z))
    whole = next(entries)[0]
    product = _fragment_product(entries)[0]
    residual = float(np.max(np.abs(product - whole)))
    return FactorizationReport(
        z=z,
        whole=TransitionMatrix(whole, z),
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

    The whole-sequence work is shared: its solutions are recursed once
    on the union of the junction covers and only the columns n1 - 1
    through n1 + 1 are kept, T, R, L are fitted once, and the plane-wave
    power tables are built once over the union range and sliced.  That
    range spans the window and every cover, so breakpoints far outside
    the window on both sides make it longer than any one junction's
    range.  Each breakpoint's fragment solutions keep their own range,
    which the plane-wave check reads in full; the tail fits of all the
    fragments recurse together, in one sweep.  Keys: right_junction,
    left_junction, plane_waves, factor_algebra.

    Raises CoefficientError, before any recursion, for a breakpoint more
    than MAX_WINDOW_SITES sites outside the window, and NumericalFault,
    naming theta, where a fragment's solution pair is numerically
    dependent at the junction.
    """
    _require_reach(seq, frag.breakpoints)
    ctx = _GridContext(zs)
    (amplitudes,) = next(_amplitude_blocks(seq, [seq], ctx, (False,)))
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
    # the recursions of the 2k fragments' tail fits, in one sweep; each
    # fragment is fitted where the loop below reads it
    splits = [fragment(seq, Fragmentation((n1,))) for n1 in points]
    fits = _amplitude_blocks(seq, [part for parts in splits for part in parts], ctx, (False, True))
    union = IndexWindow(points[0] - 2, points[-1] + 2)
    lo_all, hi_all = solution_range(seq, union)
    # keep only what the junctions read: sites n1 - 1, n1, n1 + 1 of each
    columns = [n1 - 1 - lo_all + d for n1 in points for d in range(3)]
    fl_near, fr_near = [
        _recurse(seq, seq.window, lo_all, hi_all, ctx, side, (False,)).T[:, columns]
        for side in ("left", "right")
    ]
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
        dependent = np.abs(det) < 1e-300
        if np.any(dependent):
            theta = float(np.angle(zs[int(np.argmax(dependent))]))
            raise NumericalFault(
                f"junction solution pair is numerically dependent at theta = {theta:.6g}"
            )
        return (r0 * m11 - m01 * r1) / det, (m00 * r1 - r0 * m10) / det

    def paired(part, side, cover):
        # a solution and its companion at 1/z from one stacked recursion
        lo, hi = solution_range(part, cover)
        rows = _recurse(part, part.window, lo, hi, ctx, side, (False, True)).T
        return rows[: zs.size], rows[zs.size :], lo

    found: dict[str, list[float]] = {
        key: [] for key in ("right_junction", "left_junction", "plane_waves", "factor_algebra")
    }
    for j, (n1, parts) in enumerate(zip(points, splits)):
        cover = IndexWindow(n1 - 2, n1 + 2)
        # the companions are read only at the junction: keep those three
        # columns and the plain solutions, and let the stacked buffers go
        fl2, gl2, lo = paired(parts[1], "left", cover)
        junction = slice(n1 - 1 - lo, n1 + 2 - lo)
        fl2, gl2 = fl2.copy(), gl2[:, junction].copy()
        fr1, gr1, _ = paired(parts[0], "right", cover)
        fr1, gr1 = fr1.copy(), gr1[:, junction].copy()
        # keep only the coefficients the checks read, not the amplitudes
        (t1, r1, _), (t1c, r1c, _) = [_coefficients(*block) for block in next(fits)]
        (t2, _, l2), (t2c, _, l2c) = [_coefficients(*block) for block in next(fits)]
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
