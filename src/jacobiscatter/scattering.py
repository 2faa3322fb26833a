"""Transmission and reflection data read off the exact solution tails.

On sites at or below n_min - 1 the left-normalized solution is exactly

    f_l(n) = (1/T) z^n + (L/T) z^{-n}

and on sites at or above n_max the right-normalized one is exactly

    f_r(n) = (1/T) z^{-n} + (R/T) z^n,

so T, R and L follow from two 2x2 plane-wave fits, one per tail.  Both
fits produce 1/T; extraction insists the two agree and returns their
mean, which turns a large family of implementation mistakes into loud
faults instead of plausible numbers.

identity_sweep checks the relations among these data.  Its rows, and
every report row, are one residual per grid point until _grid_maxima,
the one reduction, turns each into the maximum a report prints, or
raises NumericalFault where a residual is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NumericalFault
# jost_values stays a module attribute: the benchmark's smoke test wraps
# this copy
from .jost import _fit_sweep, _keep, _pairing, _recurse, jost_values, solution_range  # noqa: F401
from .lattice import CoefficientSequence, coefficient_arrays, effective_support
from .spectral import _fault_where, _GridContext

# Relative disagreement of the two 1/T fits that flags a fault.
MISMATCH_TOL = 1e-8


@dataclass(frozen=True)
class ScatteringData:
    """Scattering coefficients of one sequence at one circle point."""

    z: complex
    T: complex
    R: complex
    L: complex

    @property
    def unitarity(self) -> float:
        """|T|^2 + |R|^2, equal to 1 on the circle."""
        return abs(self.T) ** 2 + abs(self.R) ** 2


def _tail_fit(
    ctx: _GridContext, left: np.ndarray, right: np.ndarray, n: int, p: int, sign: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1/T, R/T, L/T) from two rows of each solution on exact tail sites.

    left holds the left-normalized solution on sites n and n + 1, right
    the right-normalized one on p and p + 1, over the grid of ctx, which
    also gives the plane-wave determinant and powers.  sign is -1 for
    data at 1/z parametrized by z, as in the at_inverse modes; both signs
    read the same eight powers.

    Raises NumericalFault, naming theta, where a fit is not finite or the
    two 1/T fits disagree.
    """
    zs, power = ctx.zs, ctx.power
    det_left = sign * ctx.det()
    inv_t_left = (left[0] * power(-sign * (n + 1)) - left[1] * power(-sign * n)) / det_left
    l_over_t = (left[1] * power(sign * n) - left[0] * power(sign * (n + 1))) / det_left
    det_right = -det_left
    inv_t_right = (right[0] * power(sign * (p + 1)) - right[1] * power(sign * p)) / det_right
    r_over_t = (right[1] * power(-sign * p) - right[0] * power(-sign * (p + 1))) / det_right
    finite = (
        np.isfinite(inv_t_left)
        & np.isfinite(inv_t_right)
        & np.isfinite(r_over_t)
        & np.isfinite(l_over_t)
    )
    _fault_where(~finite, zs, "tail fit is not finite")
    inv_t = 0.5 * (inv_t_left + inv_t_right)
    mismatch = np.abs(inv_t_left - inv_t_right)
    scale = np.maximum(1.0, np.abs(inv_t))
    bad = mismatch > MISMATCH_TOL * scale
    if np.any(bad):
        worst = int(np.argmax(mismatch / scale))
        theta = float(np.angle(zs[worst]))
        raise NumericalFault(
            f"left/right 1/T fits disagree by {mismatch[worst]:.3e} "
            f"at theta = {theta:.6g}"
        )
    return inv_t, r_over_t, l_over_t


def _coefficients(
    inv_t: np.ndarray, r_over_t: np.ndarray, l_over_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t = 1.0 / inv_t
    return t, r_over_t * t, l_over_t * t


def scattering_amplitudes(
    seq: CoefficientSequence, zs: np.ndarray, at_inverse: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized tail fits returning (1/T, R/T, L/T) arrays.

    The left fit solves for (1/T, L/T) on the two sites just below the
    effective support of the left-normalized solution, the right fit for
    (1/T, R/T) on the two just above it of the right-normalized one; the
    tail expansions hold exactly there.  Only the support is recursed, so
    stored sites at the limits, such as the rest of a fragment's window,
    cost nothing, and a sequence without deviations skips the recursion.

    at_inverse produces the data at 1/z parametrized by z, mirroring the
    same mode of jost_values: power signs flip, the plane-wave pair
    determinant changes sign, nothing is evaluated at a rounded
    reciprocal.
    """
    return next(_amplitude_blocks(seq, [seq], _GridContext(zs), (at_inverse,)))[0]


def _amplitude_blocks(
    seq: CoefficientSequence,
    jobs: list[CoefficientSequence],
    ctx: _GridContext,
    modes: tuple[bool, ...],
) -> Iterator[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """scattering_amplitudes of each job, for each at_inverse mode.

    jobs are typically seq itself, its fragments, or sequences that
    depart from seq at a few sites.  The recursions of every job, both
    sides and all modes, run on the call: those of the jobs that share
    seq's limits in one _fit_sweep that shares seq's coefficients, any
    other job in a sweep of its own; a job without deviations needs
    none.  The fits run later: the returned iterator fits one job per
    item, its modes in order, so a caller meets a fit's NumericalFault
    exactly where it reads that job.
    """
    zs = ctx.zs
    m = zs.size
    supports = [effective_support(job) for job in jobs]
    busy = [(job, support.window) for job, support in zip(jobs, supports) if not support.free]
    shared = [(job, window) for job, window in busy if job.limits == seq.limits]
    swept = iter(_fit_sweep(seq, shared, ctx, modes) if shared else ())
    # the sweeps run now; each job's rows are let go once fitted
    rows = [
        next(swept) if job.limits == seq.limits else _fit_sweep(job, [(job, window)], ctx, modes)[0]
        for job, window in busy
    ][::-1]

    def fits():
        for support in supports:
            if support.free:
                # nothing deviates from the limits: T = 1 and R = L = 0 exactly
                yield [(np.ones_like(zs), np.zeros_like(zs), np.zeros_like(zs)) for _ in modes]
                continue
            left, right = rows.pop()
            lo, hi = support.window.n_min - 2, support.window.n_max + 2
            yield [
                _tail_fit(
                    ctx,
                    left[:, j * m : (j + 1) * m],
                    right[:, j * m : (j + 1) * m],
                    lo,
                    hi - 1,
                    -1 if inverse else 1,
                )
                for j, inverse in enumerate(modes)
            ]

    return fits()


def scattering_values(
    seq: CoefficientSequence, zs: np.ndarray, at_inverse: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (T, R, L) arrays over circle points zs."""
    return _coefficients(*scattering_amplitudes(seq, zs, at_inverse))


def extract_scattering(
    seq: CoefficientSequence, z: complex, at_inverse: bool = False
) -> ScatteringData:
    """Scattering coefficients of one sequence at one circle point.

    With at_inverse the data belongs to 1/z; the stored point is the
    conjugate, the exact float label for the inverse of a circle point.
    """
    t, r, l = scattering_values(seq, np.asarray([z], dtype=complex), at_inverse)
    label = complex(np.conj(z)) if at_inverse else complex(z)
    return ScatteringData(label, complex(t[0]), complex(r[0]), complex(l[0]))


def _grid_maxima(rows: dict[str, np.ndarray], zs: np.ndarray) -> dict[str, float]:
    """Each row's worst residual over the grid zs, the float a report prints.

    rows holds one non-negative residual per grid point.  Raises
    NumericalFault, naming the row and the first theta, where a residual
    is not finite.
    """
    for name, residual in rows.items():
        _fault_where(~np.isfinite(residual), zs, f"{name} residual is not finite")
    return {name: float(np.max(residual)) for name, residual in rows.items()}


def identity_sweep(seq: CoefficientSequence, zs: np.ndarray) -> dict[str, float]:
    """Grid maxima of every solution and coefficient relation, by name.

    The keys, in the order the identities report prints them:
    solution_conjugation and scattering_conjugation compare solutions
    and T, R, L at the rounded reciprocal 1/z with the conjugates at z;
    product_left / product_right: 1/(T T~) minus the matching reflection
    product term should equal 1 exactly; exchange_left / exchange_right:
    each reflection ratio at 1/z is minus the opposite ratio at z;
    quotient: T^2 - R L equals T / T~; wronskian_constancy: the drift of
    the Jost pairing across sites; unitarity: |T|^2 + |R|^2 - 1.  A
    one-point grid [z] gives the relations at z alone.

    Raises NumericalFault, naming the row and theta, where a residual is
    not finite.
    """
    ctx = _GridContext(zs)
    return _grid_maxima(_identity_sweep(seq, ctx), ctx.zs)


@np.errstate(all="ignore")
def _identity_sweep(seq: CoefficientSequence, ctx: _GridContext) -> dict[str, np.ndarray]:
    """identity_sweep's rows over the grid of ctx, one residual per point.

    The fit at z shares the powers of ctx.  The solutions at z and at the
    rounded reciprocal 1/z recurse as one grid, over one context of both;
    the fit at 1/z has a context of its own.  Each side's rows are reduced
    block by block as _recurse hands them out.  The left side runs first
    and keeps its plain columns at z, which the Wronskian pairing reads
    against the right side's blocks, which come from the lowest site up,
    so the pairing's base, at the lowest site pair, comes first.  An
    overflowing window faults in the fits, which read the rows' ends; a
    row that overflows on finite fits is _grid_maxima's to report.
    """
    zs = ctx.zs
    m = zs.size
    zs_inv = 1.0 / zs
    # rows are sites, the first m columns at z and the rest at 1/z
    both = _GridContext(np.concatenate([zs, zs_inv]))
    lo, hi = solution_range(seq)
    a, _, _ = coefficient_arrays(seq, lo + 1, hi)
    fl = np.empty((hi - lo + 1, m), dtype=complex)
    # the fits' rows: the left side's at lo and lo + 1, the right's at
    # hi - 1 and hi, two sites past each end of the window
    ends = np.empty((4, 2 * m), dtype=complex)
    sol_conj = drift = np.zeros(m)
    base = last = None
    for n, rows in _recurse(seq, lo, hi, both, "left", (False,)):
        _keep(ends[:2], (lo, lo + 1), n, rows)
        fl[n - lo : n - lo + len(rows)] = rows[:, :m]
        sol_conj = np.maximum(sol_conj, np.max(np.abs(rows[:, m:] - np.conj(rows[:, :m])), axis=0))
    for n, rows in _recurse(seq, lo, hi, both, "right", (False,)):
        _keep(ends[2:], (hi - 1, hi), n, rows)
        sol_conj = np.maximum(sol_conj, np.max(np.abs(rows[:, m:] - np.conj(rows[:, :m])), axis=0))
        # the site pairs that end in this block, from the row before it
        fr = rows[:, :m] if last is None else np.concatenate([last, rows[:, :m]])
        k = n - lo - (len(fr) - len(rows))  # fr[0] is site lo + k
        if len(fr) > 1:
            pair = _pairing(a[k : k + len(fr) - 1, None], fl[k : k + len(fr)], fr)
            if base is None:
                base = pair[0]
            drift = np.maximum(drift, np.max(np.abs(pair - base), axis=0))
        last = rows[-1:, :m].copy()
    p = hi - 1
    t, r, l = _coefficients(*_tail_fit(ctx, ends[:2, :m], ends[2:, :m], lo, p, 1))
    tt, rt, lt = _coefficients(
        *_tail_fit(_GridContext(zs_inv), ends[:2, m:], ends[2:, m:], lo, p, 1)
    )
    product = 1.0 / (t * tt)
    return {
        "solution_conjugation": sol_conj,
        "scattering_conjugation": _worst(tt - np.conj(t), rt - np.conj(r), lt - np.conj(l)),
        "product_left": np.abs(product - l * lt * product - 1.0),
        "product_right": np.abs(product - r * rt * product - 1.0),
        "exchange_left": np.abs(rt / tt + l / t),
        "exchange_right": np.abs(lt / tt + r / t),
        "quotient": np.abs(t * t - r * l - t / tt),
        "wronskian_constancy": drift / np.maximum(1.0, np.abs(base)),
        "unitarity": np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0),
    }


def _worst(*terms: np.ndarray) -> np.ndarray:
    """The largest modulus among terms, point by point."""
    return np.max(np.abs(np.stack(terms)), axis=0)
