"""Transmission and reflection data read off the exact solution tails.

On sites at or below n_min - 1 the left-normalized solution is exactly

    f_l(n) = (1/T) z^n + (L/T) z^{-n}

and on sites at or above n_max the right-normalized one is exactly

    f_r(n) = (1/T) z^{-n} + (R/T) z^n,

so T, R and L follow from two 2x2 plane-wave fits, one per tail.  Both
fits produce 1/T; extraction insists the two agree and returns their
mean, which turns a large family of implementation mistakes into loud
faults instead of plausible numbers.

_amplitude_blocks fits a list of jobs, the sequence, its fragments and
any sequence sharing its limits, from one recursion sweep, and returns
the fits in job order.  The sweep hands out its end rows in stacks of up
to jost._JOB_CHUNK jobs, and one straight pass fits the stacks in order,
every job and mode of a stack by one _tail_fit call, letting each stack
go before the next.  A list holding a job with other limits, which
cannot share the sweep, is fitted job by job, each by a one-job call of
its own.  _tail_fit takes a stack of fits of any shape, and the identity
sweep's fit is a stack of one.  Each fit's bits are those of its own
one-entry call, and a stack faults at its first faulty entry, so the
first job in order whose fit faults raises, at its first faulty mode,
and within one fit a value that is not finite comes before a
disagreement of the two 1/T fits.

identity_sweep checks the relations among these data.  Its rows, and
every report row, are one residual per grid point until _grid_maxima,
the one reduction, turns each into the maximum a report prints, or
raises NumericalFault where a residual is not finite.
"""

from __future__ import annotations

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


def _fit_exponents(window: IndexWindow) -> list[int]:
    """The tail fits' exponents past window, n, n + 1, p, p + 1 at n = n_min - 2
    and p = n_max + 1, then their negatives reversed: reversal negates the list."""
    n, p = window.n_min - 2, window.n_max + 1
    return [n, n + 1, p, p + 1, -(p + 1), -p, -(n + 1), -n]


@np.errstate(all="ignore")
def _tail_fit(
    zs: np.ndarray, det: np.ndarray, powers: np.ndarray, keys,
    left: np.ndarray, right: np.ndarray, sign,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1/T, R/T, L/T) from two rows of each solution on exact tail sites.

    A fit is one entry of a stack of any shape S over the m grid points
    zs, whose plane-wave determinant is det.  left, of shape (2, *S, m),
    holds per entry the left-normalized solution on sites n and n + 1,
    right the right-normalized one on p and p + 1.  powers is a
    _power_table of zs, and keys, of shape (8, *S), holds per entry the
    rows of powers at the exponents sign k for k in _fit_exponents of
    the entry's window; each row is gathered where the fit reads it, so
    no stack of all eight is held at once.  sign, an int or an int array
    broadcast over S, is -1 for data at 1/z parametrized by z, as in the
    at_inverse modes, and 1 otherwise.  Every operation is elementwise,
    so each entry has the bits of its own one-entry fit.

    Raises NumericalFault, naming theta, at the first entry in the
    stack's order where a fit is not finite or the two 1/T fits
    disagree; within an entry, not finite comes first.
    """
    # the rows at z^(sign k) for k = n, n + 1, p, p + 1, then at their
    # negatives in reverse, each gathered where it is read.  numpy's
    # complex product is not commutative to the bit, and an operator whose
    # operand is a temporary of 256 KB or more runs in place in it, with
    # the operands swapped; so each product of a row and a gathered power
    # is a ufunc call, which keeps their order at any stack size
    up_n, up_n1, up_p, up_p1, down_p1, down_p, down_n1, down_n = keys

    def times(rows, key):
        return np.multiply(rows, powers[key])

    det_left = sign * det
    inv_t_left = (times(left[0], down_n1) - times(left[1], down_n)) / det_left
    l_over_t = (times(left[1], up_n) - times(left[0], up_n1)) / det_left
    det_right = -det_left
    inv_t_right = (times(right[0], up_p1) - times(right[1], up_p)) / det_right
    r_over_t = (times(right[1], down_p) - times(right[0], down_p1)) / det_right
    finite = np.logical_and.reduce(
        [np.isfinite(part) for part in (inv_t_left, inv_t_right, r_over_t, l_over_t)]
    )
    inv_t = 0.5 * (inv_t_left + inv_t_right)
    mismatch = np.abs(inv_t_left - inv_t_right)
    scale = np.maximum(1.0, np.abs(inv_t))
    bad = ~finite | (mismatch > MISMATCH_TOL * scale)
    if bad.any():
        # the first faulty entry, one row of zs.size points per entry
        finite, mismatch, scale, bad = (
            part.reshape(-1, zs.size) for part in (finite, mismatch, scale, bad)
        )
        e = int(np.argmax(bad.any(axis=1)))
        _fault_where(~finite[e], zs, "tail fit is not finite")
        worst = int(np.argmax(mismatch[e] / scale[e]))
        theta = float(np.angle(zs[worst]))
        raise NumericalFault(
            f"left/right 1/T fits disagree by {mismatch[e, worst]:.3e} "
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
) -> list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """scattering_amplitudes of each job over the checked grid zs, for each
    at_inverse mode.

    Returns one item per job, in job order, each the job's fits in mode
    order.  jobs are typically seq itself, its fragments, or sequences
    that depart from seq at a few sites.  Every job is recursed and
    fitted on the call but a free one, whose effective_support is None:
    it is neither recursed nor fitted, and its T is 1 and its R and L are
    0 exactly, in every mode.  When every job shares seq's limits, the
    busy jobs make one _fit_sweep that shares seq's coefficients, which
    hands out their end rows in stacks of up to jost._JOB_CHUNK jobs in
    order; one straight pass fits each stack, every mode of every job in
    it, by one _tail_fit call, and lets the stack go before the next.
    One power table, one _power_table call after the sweep, holds every
    row the fits read, once however many jobs read it.  The sweep seeds
    its recursions from a table of its own, which goes with it: the fits'
    table holds nearly every seed row, but built before the sweep and
    shared with it, it would be held through the sweep, whose end is a
    long report's peak, and on 300 breakpoints it raised that peak by
    2.4 MB.  A job with other limits cannot share that sweep, so a list
    that holds one fits every job by a call of its own, in job order, each
    job sweeping alone with its own limits' reference.  Either way the
    first job in order whose fit faults raises its NumericalFault, at its
    first faulty mode.
    """
    if any(job.limits != seq.limits for job in jobs):
        return [
            _amplitude_blocks(seq if job.limits == seq.limits else job, [job], zs, modes)[0]
            for job in jobs
        ]
    supports = [effective_support(job) for job in jobs]
    busy = [(job, support) for job, support in zip(jobs, supports) if support is not None]
    stacks = _fit_sweep(seq, busy, zs, modes) if busy else []
    # one table row per exponent, however many jobs read it; _fit_exponents
    # lists the negative of each of its exponents too, so the table holds
    # every mode's rows
    exponents = list(dict.fromkeys(k for _, window in busy for k in _fit_exponents(window)))
    powers = _power_table(zs, np.array(exponents, dtype=int))
    row = {k: i for i, k in enumerate(exponents)}
    det = wave_pair_det(zs)
    signs = [-1 if inverse else 1 for inverse in modes]
    sign = np.array(signs)[:, None]
    fitted = []
    while stacks:
        # popped, so each stack is let go once its jobs are fitted
        stack = stacks.pop(0)
        count = stack.shape[1]
        shape = (2, count, len(modes), zs.size)
        left, right = (stack[r : r + 2].reshape(shape) for r in (0, 2))
        windows = [window for _, window in busy[len(fitted) : len(fitted) + count]]
        keys = [[[row[s * k] for k in _fit_exponents(window)] for s in signs] for window in windows]
        inv_t, r_over_t, l_over_t = _tail_fit(
            zs, det, powers, np.moveaxis(np.array(keys), -1, 0), left, right, sign
        )
        fitted.extend(list(zip(inv_t[i], r_over_t[i], l_over_t[i])) for i in range(count))
    fitted = iter(fitted)
    return [
        [(np.ones_like(zs), np.zeros_like(zs), np.zeros_like(zs)) for _ in modes]
        if support is None else next(fitted)
        for support in supports
    ]


def scattering_values(
    seq: CoefficientSequence, zs: np.ndarray, at_inverse: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (T, R, L) arrays over circle points zs."""
    return _coefficients(*scattering_amplitudes(seq, zs, at_inverse))


def extract_scattering(
    seq: CoefficientSequence, z: complex, at_inverse: bool = False
) -> tuple[complex, complex, complex]:
    """(T, R, L) at one circle point z, or at 1/z with at_inverse: the
    entries of scattering_values at [z]."""
    t, r, l = scattering_values(seq, np.asarray([z], dtype=complex), at_inverse)
    return complex(t[0]), complex(r[0]), complex(l[0])


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
    rows, _ = _identity_sweep(seq, zs)
    return _grid_maxima(rows, zs)


@np.errstate(all="ignore")
def _identity_sweep(
    seq: CoefficientSequence, zs: np.ndarray, sites: tuple[int, ...] = ()
) -> tuple[dict[str, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """identity_sweep's rows over the checked grid zs, one residual per point,
    and the whole's rows at the sorted sites, which lie in
    solution_range(seq), of the left side, then of the right side, each
    the solution at z in the first zs.size columns and its companion in
    the at_inverse mode in the rest.

    The solutions at z and at the rounded reciprocal 1/z recurse as one
    grid of both, checked by require_admissible as any grid is, and are
    fitted as one: one determinant, one power table and one tail fit over
    its 2m points, whose data are then sliced into the halves at z and at
    1/z, so each fault check of the fit covers both halves.  Given
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
    # the couplings alone, so that b and w go at once
    a = coefficient_arrays(seq, lo + 1, hi)[0]
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
    powers = _power_table(both, np.array(_fit_exponents(seq.window)))
    fit = _coefficients(*_tail_fit(both, wave_pair_det(both), powers, range(8), ends[:2], ends[2:], 1))
    # the data at z from the first m columns, then the data at 1/z
    (t, tt), (r, rt), (l, lt) = ((part[:m], part[m:]) for part in fit)
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
    return rows, (kept[0], kept[1])


def _worst(*terms: np.ndarray) -> np.ndarray:
    """The largest modulus among terms, point by point: the bits of
    np.max(np.abs(np.stack(terms)), axis=0), NaN included, taken in
    place in the first term's modulus instead of over a stack."""
    worst = np.abs(terms[0])
    for term in terms[1:]:
        np.maximum(worst, np.abs(term), out=worst)
    return worst
