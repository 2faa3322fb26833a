"""Transmission and reflection data read off the exact solution tails.

On sites at or below n_min - 1 the left-normalized solution is exactly

    f_l(n) = (1/T) z^n + (L/T) z^{-n}

and on sites at or above n_max the right-normalized one is exactly

    f_r(n) = (1/T) z^{-n} + (R/T) z^n,

so T, R and L follow from two 2x2 plane-wave fits, one per tail.  Both
fits produce 1/T; extraction insists the two agree and returns their
mean, which turns a large family of implementation mistakes into loud
faults instead of plausible numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault
from .jost import _recurse, jost_values
from .lattice import CoefficientSequence, coefficient_arrays, effective_support
from .spectral import CircleGrid, _GridContext, require_admissible

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


@dataclass(frozen=True)
class SymmetryReport:
    """Deviations of T, R, L at 1/z from the conjugates at z."""

    t_residual: float
    r_residual: float
    l_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.t_residual, self.r_residual, self.l_residual)


@dataclass(frozen=True)
class IdentityResiduals:
    """Defects of the algebraic relations tying data at z and 1/z.

    product_left / product_right: 1/(T T~) minus the matching reflection
    product term should equal 1 exactly.
    exchange_left / exchange_right: each reflection ratio at 1/z is minus
    the opposite ratio at z.
    quotient: T^2 - R L equals T / T~.
    """

    product_left: float
    product_right: float
    exchange_left: float
    exchange_right: float
    quotient: float

    @property
    def max_residual(self) -> float:
        return max(
            self.product_left,
            self.product_right,
            self.exchange_left,
            self.exchange_right,
            self.quotient,
        )


@dataclass(frozen=True)
class IdentitySweep:
    """Grid maxima of every checked relation for one sequence."""

    solution_conjugation: float
    scattering_conjugation: float
    product_left: float
    product_right: float
    exchange_left: float
    exchange_right: float
    quotient: float
    wronskian_drift: float
    unitarity: float

    @property
    def max_residual(self) -> float:
        return max(
            self.solution_conjugation,
            self.scattering_conjugation,
            self.product_left,
            self.product_right,
            self.exchange_left,
            self.exchange_right,
            self.quotient,
            self.wronskian_drift,
            self.unitarity,
        )


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
    if not np.all(finite):
        theta = float(np.angle(zs[int(np.argmin(finite))]))
        raise NumericalFault(f"tail fit is not finite at theta = {theta:.6g}")
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
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    require_admissible(zs)
    return _amplitude_blocks(seq, _GridContext(zs), (at_inverse,))[0]


def _amplitude_blocks(
    seq: CoefficientSequence, ctx: _GridContext, modes: tuple[bool, ...]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """scattering_amplitudes for each at_inverse mode, one recursion per side.

    The modes share coefficients and drive, so they run as column blocks
    of one stacked recursion; each block is then fitted, and checked,
    on its own, in the order given.
    """
    zs = ctx.zs
    support = effective_support(seq)
    if support.free:
        # nothing deviates from the limits: T = 1 and R = L = 0 exactly
        return [(np.ones_like(zs), np.zeros_like(zs), np.zeros_like(zs)) for _ in modes]
    window = support.window
    lo, hi = window.n_min - 2, window.n_max + 2
    left = _recurse(seq, window, lo, hi, ctx, "left", modes, store=False)
    right = _recurse(seq, window, lo, hi, ctx, "right", modes, store=False)
    m = zs.size
    return [
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


def scattering_sweep(seq: CoefficientSequence, grid: CircleGrid) -> list[ScatteringData]:
    """Scattering data at every grid point, in grid order."""
    if len(grid) == 0:
        return []
    zs = grid.zs
    t, r, l = scattering_values(seq, zs)
    return [
        ScatteringData(complex(zs[i]), complex(t[i]), complex(r[i]), complex(l[i]))
        for i in range(zs.size)
    ]


def check_symmetries(seq: CoefficientSequence, z: complex) -> SymmetryReport:
    """Compare data at 1/z against conjugated data at z."""
    sd = extract_scattering(seq, z)
    sd_inv = extract_scattering(seq, 1.0 / complex(z))
    return SymmetryReport(
        abs(sd_inv.T - np.conj(sd.T)),
        abs(sd_inv.R - np.conj(sd.R)),
        abs(sd_inv.L - np.conj(sd.L)),
    )


def check_identities(sd: ScatteringData, sd_inv: ScatteringData) -> IdentityResiduals:
    """Residuals of the exact relations between data at z and at 1/z."""
    if abs(sd.z * sd_inv.z - 1.0) > 1e-9:
        raise ValueError(
            f"second argument must hold data at 1/z; got z = {sd.z}, {sd_inv.z}"
        )
    t, r, l = sd.T, sd.R, sd.L
    tt, rt, lt = sd_inv.T, sd_inv.R, sd_inv.L
    product = 1.0 / (t * tt)
    return IdentityResiduals(
        product_left=abs(product - (l * lt) * product - 1.0),
        product_right=abs(product - (r * rt) * product - 1.0),
        exchange_left=abs(rt / tt + l / t),
        exchange_right=abs(lt / tt + r / t),
        quotient=abs(t * t - r * l - t / tt),
    )


def identity_sweep(seq: CoefficientSequence, zs: np.ndarray) -> IdentitySweep:
    """Vectorized grid maxima of every solution and coefficient relation."""
    return _identity_sweep(seq, _GridContext(np.atleast_1d(np.asarray(zs, dtype=complex))))


def _identity_sweep(seq: CoefficientSequence, ctx: _GridContext) -> IdentitySweep:
    """identity_sweep over the grid of ctx, whose fit at z shares its powers.

    The fit at the rounded reciprocal 1/z is over another grid, with a
    context of its own.
    """
    zs = ctx.zs
    zs_inv = 1.0 / zs
    # one recursion per side covers z and the rounded reciprocal together
    both = np.concatenate([zs, zs_inv])
    fl, lo = jost_values(seq, both, "left")
    fr, _ = jost_values(seq, both, "right")
    fl, flc = fl[: zs.size], fl[zs.size :]
    fr, frc = fr[: zs.size], fr[zs.size :]
    sol_conj = max(
        float(np.max(np.abs(flc - np.conj(fl)))),
        float(np.max(np.abs(frc - np.conj(fr)))),
    )
    # the coefficients come from the same arrays: two sites past each end
    p = seq.window.n_max + 1
    t, r, l = _coefficients(
        *_tail_fit(ctx, fl[:, :2].T, fr[:, p - lo : p - lo + 2].T, lo, p, 1)
    )
    tt, rt, lt = _coefficients(
        *_tail_fit(_GridContext(zs_inv), flc[:, :2].T, frc[:, p - lo : p - lo + 2].T, lo, p, 1)
    )
    scat_conj = max(
        float(np.max(np.abs(tt - np.conj(t)))),
        float(np.max(np.abs(rt - np.conj(r)))),
        float(np.max(np.abs(lt - np.conj(l)))),
    )
    product = 1.0 / (t * tt)
    hi = lo + fl.shape[1] - 1
    a, _, _ = coefficient_arrays(seq, lo + 1, hi)
    pair = a[None, :] * (fl[:, :-1] * fr[:, 1:] - fl[:, 1:] * fr[:, :-1])
    drift = np.abs(pair - pair[:, :1]) / np.maximum(1.0, np.abs(pair[:, :1]))
    return IdentitySweep(
        solution_conjugation=sol_conj,
        scattering_conjugation=scat_conj,
        product_left=float(np.max(np.abs(product - l * lt * product - 1.0))),
        product_right=float(np.max(np.abs(product - r * rt * product - 1.0))),
        exchange_left=float(np.max(np.abs(rt / tt + l / t))),
        exchange_right=float(np.max(np.abs(lt / tt + r / t))),
        quotient=float(np.max(np.abs(t * t - r * l - t / tt))),
        wronskian_drift=float(np.max(drift)),
        unitarity=float(np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0))),
    )
