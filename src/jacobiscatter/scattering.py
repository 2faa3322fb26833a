"""Transmission and reflection data read off the exact solution tails.

On sites at or below n_min - 1 the left-normalized solution is exactly

    f_l(n) = (1/T) z^n + (L/T) z^{-n}

and on sites at or above n_max the right-normalized one is exactly

    f_r(n) = (1/T) z^{-n} + (R/T) z^n,

so T, R and L follow from two 2x2 plane-wave fits, one per tail.  Both
fits produce 1/T; extraction insists the two agree and returns their
mean, which turns a large family of implementation mistakes into loud
faults instead of plausible numbers.

_amplitude_blocks makes the fits of a run's jobs, the sequence, its
fragments and any sequence sharing its limits, from one recursion sweep.
It fits them all on the call and returns them as a list in job order,
so the first job in that order whose fit faults raises.

identity_sweep checks the relations among these data.  Its rows, and
every report row, are one residual per grid point until _grid_maxima,
the one reduction, turns each into the maximum a report prints, or
raises NumericalFault where a residual is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault
# jost_values stays a module attribute: the benchmark's smoke test wraps
# this copy
from .jost import (  # noqa: F401
    _fit_sweep, _keep, _pairing, _recurse, _scaled_drift, jost_values, solution_range,
)
from .lattice import CoefficientSequence, IndexWindow, coefficient_arrays, effective_support
from .spectral import _fault_where, _power_table, require_admissible, wave_pair_det

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


def _fit_exponents(window: IndexWindow) -> list[int]:
    """The tail fits' exponents past window, n, n + 1, p, p + 1 at n = n_min - 2
    and p = n_max + 1, then their negatives reversed: reversal negates the list."""
    n, p = window.n_min - 2, window.n_max + 1
    return [n, n + 1, p, p + 1, -(p + 1), -p, -(n + 1), -n]


@np.errstate(all="ignore")
def _tail_fit(
    zs: np.ndarray, det: np.ndarray, powers: np.ndarray,
    left: np.ndarray, right: np.ndarray, sign: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1/T, R/T, L/T) from two rows of each solution on exact tail sites.

    left holds the left-normalized solution on sites n and n + 1, right
    the right-normalized one on p and p + 1, over the grid points zs,
    whose plane-wave determinant is det, and powers the _power_table rows
    of zs at _fit_exponents of their window, as an array or a list.  sign
    is -1 for data at 1/z parametrized by z, as in the at_inverse modes,
    which reads those rows in reverse order, at the negated exponents.

    Raises NumericalFault, naming theta, where a fit is not finite or the
    two 1/T fits disagree.
    """
    # z^(sign k) at k = n, n + 1, p, p + 1, then z^(-sign k) in reverse
    up_n, up_n1, up_p, up_p1, down_p1, down_p, down_n1, down_n = powers[::sign]
    det_left = sign * det
    inv_t_left = (left[0] * down_n1 - left[1] * down_n) / det_left
    l_over_t = (left[1] * up_n - left[0] * up_n1) / det_left
    det_right = -det_left
    inv_t_right = (right[0] * up_p1 - right[1] * up_p) / det_right
    r_over_t = (right[1] * down_p - right[0] * down_p1) / det_right
    finite = [np.isfinite(part) for part in (inv_t_left, inv_t_right, r_over_t, l_over_t)]
    _fault_where(~np.logical_and.reduce(finite), zs, "tail fit is not finite")
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
    return _amplitude_blocks(seq, [seq], require_admissible(zs), (at_inverse,))[0][0]


def _amplitude_blocks(
    seq: CoefficientSequence,
    jobs: list[CoefficientSequence],
    zs: np.ndarray,
    modes: tuple[bool, ...],
    known: dict[int, np.ndarray] | None = None,
) -> list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """scattering_amplitudes of each job over the checked grid zs, for each
    at_inverse mode.

    Returns one item per job, in job order, each the job's fits in mode
    order.  jobs are typically seq itself, its fragments, or sequences
    that depart from seq at a few sites.  Every job is recursed and
    fitted on the call: the jobs that share seq's limits in one
    _fit_sweep that shares seq's coefficients, any other job in a sweep
    of its own; a job without deviations needs none.  A job's rows are
    let go once it is fitted, and the first job in order whose fit
    faults raises its NumericalFault.  known holds _power_table rows of zs
    already at hand, by exponent; the fits read them in place of new ones.
    """
    m = zs.size
    supports = [effective_support(job) for job in jobs]
    busy = [(job, support.window) for job, support in zip(jobs, supports) if not support.free]
    shared = [(job, window) for job, window in busy if job.limits == seq.limits]
    # the shared rows, popped from the end as their jobs are fitted
    swept = _fit_sweep(seq, shared, zs, modes)[::-1] if shared else []
    # one _power_table row per exponent, however many jobs read it, and
    # none for an exponent known holds
    powers = dict(known or {})
    fresh = list(dict.fromkeys(
        k for _, window in busy for k in _fit_exponents(window) if k not in powers
    ))
    powers.update(zip(fresh, _power_table(zs, np.array(fresh, dtype=int))))
    det = wave_pair_det(zs)
    columns = [(slice(j * m, (j + 1) * m), -1 if inverse else 1) for j, inverse in enumerate(modes)]
    fits = []
    for job, support in zip(jobs, supports):
        if support.free:
            # nothing deviates from the limits: T = 1 and R = L = 0 exactly
            fits.append([(np.ones_like(zs), np.zeros_like(zs), np.zeros_like(zs)) for _ in modes])
            continue
        window = support.window
        if job.limits == seq.limits:
            left, right = swept.pop()
        else:
            ((left, right),) = _fit_sweep(job, [(job, window)], zs, modes)
        own = [powers[k] for k in _fit_exponents(window)]
        fits.append(
            [_tail_fit(zs, det, own, left[:, b], right[:, b], sign) for b, sign in columns]
        )
    return fits


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
    zs = require_admissible(zs)
    rows, _, _ = _identity_sweep(seq, zs)
    return _grid_maxima(rows, zs)


@np.errstate(all="ignore")
def _identity_sweep(
    seq: CoefficientSequence, zs: np.ndarray, sites: tuple[int, ...] = ()
) -> tuple[dict[str, np.ndarray], dict[int, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """identity_sweep's rows over the checked grid zs, one residual per point;
    the _power_table rows of zs its tail fit reads, by exponent, which
    _amplitude_blocks takes as known; and the whole's rows at the sorted
    sites, which lie in solution_range(seq), of the left side, then of
    the right side, each the solution at z in the first zs.size columns
    and its companion in the at_inverse mode in the rest.

    The solutions at z and at the rounded reciprocal 1/z recurse as one
    grid of both, checked by require_admissible as any grid is, and are
    fitted as one: one determinant, one power table and one tail fit over
    its 2m points, whose data np.split then cuts into the halves at z and
    at 1/z, so each fault check of the fit covers both halves.  Given
    sites, each side's run steps a third column block, the companion at
    z, and keeps its rows and those at z at sites as the blocks pass by;
    without them it steps the two.  Every block equals its own run, so
    the kept rows are those of the whole's paired runs to the bit.

    Each side's rows are reduced block by block as _recurse hands them
    out.  The left side runs first and keeps its plain columns at z,
    which the Wronskian pairing reads against the right side's blocks,
    which come from the lowest site up, so the pairing's base, at the
    lowest site pair, comes first.  An overflowing window faults in the
    fits, which read the rows' ends; a row that overflows on finite fits
    is _grid_maxima's to report.
    """
    m = zs.size
    # columns are grid points: at z, at 1/z, then, given sites, the
    # companion at z
    both = require_admissible(np.concatenate([zs, 1.0 / zs]))
    columns = ((both, False), (zs, True)) if sites else ((both, False),)
    lo, hi = solution_range(seq)
    a, _, _ = coefficient_arrays(seq, lo + 1, hi)
    fl = np.empty((hi - lo + 1, m), dtype=complex)
    # the fits' rows: the left side's at lo and lo + 1, the right's at
    # hi - 1 and hi, two sites past each end of the window
    ends = np.empty((4, 2 * m), dtype=complex)
    kept = np.empty((2, len(sites), 2 * m), dtype=complex)
    sol_conj = drift = np.zeros(m)
    base = last = None

    def keep(side, fit_sites, n, rows):
        # the rows at the fits' sites, at z and 1/z, and those at sites, at
        # z and of the companion
        _keep(ends[2 * side : 2 * side + 2], fit_sites, n, rows[:, : 2 * m])
        _keep(kept[side, :, :m], sites, n, rows[:, :m])
        _keep(kept[side, :, m:], sites, n, rows[:, 2 * m :])

    for n, rows in _recurse(seq, lo, hi, columns, "left"):
        keep(0, (lo, lo + 1), n, rows)
        fl[n - lo : n - lo + len(rows)] = rows[:, :m]
        sol_conj = np.maximum(sol_conj, np.max(np.abs(rows[:, m : 2 * m] - np.conj(rows[:, :m])), axis=0))
    for n, rows in _recurse(seq, lo, hi, columns, "right"):
        keep(1, (hi - 1, hi), n, rows)
        sol_conj = np.maximum(sol_conj, np.max(np.abs(rows[:, m : 2 * m] - np.conj(rows[:, :m])), axis=0))
        # the site pairs that end in this block, from the row before it
        fr = rows[:, :m] if last is None else np.concatenate([last, rows[:, :m]])
        k = n - lo - (len(fr) - len(rows))  # fr[0] is site lo + k
        if len(fr) > 1:
            pair = _pairing(a[k : k + len(fr) - 1, None], fl[k : k + len(fr)], fr)
            if base is None:
                base = pair[0]
            drift = np.maximum(drift, np.max(np.abs(pair - base), axis=0))
        last = rows[-1:, :m].copy()
    exponents = _fit_exponents(seq.window)
    powers = _power_table(both, np.array(exponents))
    fit = _coefficients(*_tail_fit(both, wave_pair_det(both), powers, ends[:2], ends[2:], 1))
    # the data at z from the first m columns, then the data at 1/z
    (t, tt), (r, rt), (l, lt) = (np.split(part, 2) for part in fit)
    product = 1.0 / (t * tt)
    rows = {
        "solution_conjugation": sol_conj,
        "scattering_conjugation": _worst(tt - np.conj(t), rt - np.conj(r), lt - np.conj(l)),
        "product_left": np.abs(product - l * lt * product - 1.0),
        "product_right": np.abs(product - r * rt * product - 1.0),
        "exchange_left": np.abs(rt / tt + l / t),
        "exchange_right": np.abs(lt / tt + r / t),
        "quotient": np.abs(t * t - r * l - t / tt),
        "wronskian_constancy": _scaled_drift(drift, base),
        "unitarity": np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0),
    }
    return rows, dict(zip(exponents, powers[:, :m])), (kept[0], kept[1])


def _worst(*terms: np.ndarray) -> np.ndarray:
    """The largest modulus among terms, point by point."""
    return np.max(np.abs(np.stack(terms)), axis=0)
