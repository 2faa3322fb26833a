"""Spectral parametrization of the continuous band by the unit circle.

The band of the limiting lattice is swept by z = e^{i theta} through
lam = (a_inf (z + 1/z) + b_inf) / w_inf.  One open half of the circle
covers the band once; which half depends on the sign of a_inf.  The
degenerate points z = +1 and z = -1 sit at the band edges and are kept
out of every grid by a chordal exclusion radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault, SpectralDomainError
from .lattice import Limits

CIRCLE_TOL = 1e-12

# Below this distance from +1 or -1 the two plane waves are numerically
# parallel and tail fits are meaningless.
DEGENERATE_FLOOR = 1e-8

# numpy's complex power multiplies out integer exponents below this size;
# larger ones take exp(k log z), which _power_table computes over one log
# per table.
FAST_POWER_LIMIT = 100


@dataclass(frozen=True, eq=False)
class CircleGrid:
    """Ordered circle sample avoiding the degenerate points.

    The grid is held as one read-only array of circle points.  A grid from
    sample_circle holds every point but its first and theta_lo with its
    exact conjugate (see _pair_half); thetas gives the two the negated
    angles.  The angles and band images are built point by point, only
    when asked for, with the scalar math.atan2 and band formula whose
    bits the vectorized versions do not reproduce; code that reads only
    zs never pays for them.
    """

    zs: np.ndarray
    limits: Limits

    def __post_init__(self):
        zs = np.array(self.zs, dtype=complex)
        zs.setflags(write=False)
        object.__setattr__(self, "zs", zs)

    def __len__(self) -> int:
        return self.zs.size

    @property
    def thetas(self) -> np.ndarray:
        return np.array(list(map(math.atan2, self.zs.imag.tolist(), self.zs.real.tolist())))

    @property
    def lams(self) -> np.ndarray:
        return np.array(_band_images(self.limits, self.zs.tolist()))


def require_on_circle(zs: np.ndarray) -> None:
    """Reject spectral parameters off the unit circle, and NaN ones."""
    # negated, so that a NaN, which compares False, is off the circle
    off = ~(np.abs(np.abs(zs) - 1.0) <= CIRCLE_TOL)
    if off.any():
        bad = np.atleast_1d(zs)[np.atleast_1d(off)][0]
        raise SpectralDomainError(f"z = {bad} is not on the unit circle")


def wave_pair_det(zs: np.ndarray) -> np.ndarray:
    """The determinant 1/z - z of a two-site plane-wave basis, stably.

    Every tail fit divides by this quantity, and near z = +1 or -1 the
    naive difference cancels: both terms have modulus one while the
    result shrinks like the distance to the degenerate point, costing
    about eps/distance in relative accuracy.  Expanding
    1 - z^2 = (1 - re)(1 + re) + im^2 - 2i re im turns every piece into
    a product or a same-sign sum, so the relative error stays at the
    rounding level uniformly over the circle.
    """
    zs = np.asarray(zs, dtype=complex)
    re = zs.real
    im = zs.imag
    one_minus_sq = (1.0 - re) * (1.0 + re) + im * im - 2j * (re * im)
    return one_minus_sq / zs


def _power_table(zs: np.ndarray, ks: np.ndarray, signs=1) -> np.ndarray:
    """Row j holds zs to the integer powers signs ks[j]: zs[None, :] ** (signs * ks[:, None]).

    The one route of every plane-wave power the seeds, tail fits and
    junction sweep read: numpy's repeated multiplication below
    FAST_POWER_LIMIT, and from there the bits of numpy's cpow,
    exp(k log z), as np.exp(k * log) over one log(zs) per table, not per
    entry.  signs, an int or an int array over zs, gives each column its
    own exponent sign, so column blocks of grids whose exponents differ
    in sign, as solutions at 1/z parametrized by z do, make one table.
    Every entry is computed on its own, from its z and its exponent
    alone, so it has the bits of its entry in a table of one sign.
    """
    exponents = signs * ks[:, None]
    fast = np.abs(ks) < FAST_POWER_LIMIT
    if fast.all():
        return zs[None, :] ** exponents
    # every row by the exp route, in place, then the small ones by numpy's
    table = np.multiply(np.log(zs)[None, :], exponents)
    np.exp(table, out=table)
    if fast.any():
        table[fast] = zs[None, :] ** exponents[fast]
    return table


def _fault_where(bad: np.ndarray, zs: np.ndarray, what: str) -> None:
    """Raise NumericalFault "<what> at theta = ..." at zs's first point where bad holds."""
    if bad.any():
        theta = float(np.angle(zs[int(np.argmax(bad))]))
        raise NumericalFault(f"{what} at theta = {theta:.6g}")


def require_admissible(zs: np.ndarray) -> np.ndarray:
    """The grid zs as a checked 1-d complex array, the entry of every grid function.

    A single circle point is the one-point grid [z].  Rejects an empty
    grid or one on two axes, points off the circle, and points too close
    to the degenerate points +1, -1.
    """
    arr = np.atleast_1d(np.asarray(zs, dtype=complex))
    if arr.ndim > 1 or arr.size == 0:
        raise SpectralDomainError(f"grid shape {np.shape(zs)}: not one point or a nonempty row")
    require_on_circle(arr)
    close = np.minimum(np.abs(arr - 1.0), np.abs(arr + 1.0)) < DEGENERATE_FLOOR
    if np.any(close):
        thetas = np.angle(arr[close])[:3]
        listed = ", ".join(format(t, ".6g") for t in thetas)
        raise NumericalFault(
            f"z within {DEGENERATE_FLOOR:g} of a degenerate point at theta = {listed}"
        )
    return arr


def lambda_from_z(limits: Limits, z: complex) -> float:
    """Band energy of a circle point."""
    require_on_circle(np.asarray(z, dtype=complex))
    return _band_images(limits, [z])[0]


def _band_images(limits: Limits, zs: list[complex]) -> list[float]:
    """lambda_from_z, point by point, for points known to lie on the circle.

    The image of a circle point is real; its computed imaginary part is
    the rounding of the terms a_inf z, a_inf / z and b_inf, so it is held
    against their size, (2 |a_inf| + |b_inf|) / w_inf with |z| = 1, and
    not against an absolute bound, which large limits exceed.  The size
    of a_inf (z + 1/z) would not do: it vanishes near z = +-i, where the
    rounding of the two terms does not.
    """
    a_inf, b_inf, w_inf = limits.a_inf, limits.b_inf, limits.w_inf
    tol = 1e-12 * (2.0 * abs(a_inf) + abs(b_inf)) / w_inf
    images = []
    for z in zs:
        value = (a_inf * (z + 1.0 / z) + b_inf) / w_inf
        if abs(value.imag) >= tol:
            raise SpectralDomainError(
                f"spectral image of z = {z} has imaginary part {value.imag!r}"
            )
        images.append(float(value.real))
    return images


def band_edges(limits: Limits) -> tuple[float, float]:
    """(lambda_min, lambda_max), the endpoints of the continuous band of
    the limiting lattice."""
    half_width = 2.0 * abs(limits.a_inf) / limits.w_inf
    center = limits.b_inf / limits.w_inf
    return center - half_width, center + half_width


def z_from_lambda(limits: Limits, lam: float) -> complex:
    """Circle preimage of a band energy on the designated half circle.

    For a_inf < 0 the band is swept by the upper half circle, for
    a_inf > 0 by the lower half, so the map stays a bijection.
    """
    s = (lam * limits.w_inf - limits.b_inf) / limits.a_inf
    # a NaN compares False with any bound, so it must fail the check too
    if not abs(s) <= 2.0 + 1e-12:
        lam_min, lam_max = band_edges(limits)
        raise SpectralDomainError(f"lam = {lam} outside the band [{lam_min}, {lam_max}]")
    half = min(max(s / 2.0, -1.0), 1.0)
    imag = math.sqrt(max(0.0, 1.0 - half * half))
    if limits.a_inf > 0:
        imag = -imag
    return complex(half, imag)


def sample_circle(limits: Limits, count: int, exclusion_delta: float) -> CircleGrid:
    """Deterministic grid over both open half circles, clear of +1 and -1.

    The admissible set is the circle minus two arcs around the
    degenerate points, each arc sized so that its boundary sits at
    chordal distance exclusion_delta from +1 or -1.  The two remaining
    half-arcs are glued end to end and walked with a constant step of
    total length / count, starting at the lower boundary theta =
    -pi + theta_lo.  The lower half holds the first ceil(count / 2)
    points and the upper half the rest, so the halves are split by
    index, not by comparing the rounded walk with the arc.  Point 0 and
    the upper half are computed from their angles on the walk; every
    other lower point i is the exact conjugate of upper point count - i.
    So the angles ascend through the lower half and then the upper half,
    every point but point 0 and, for an even count, point count / 2 (at
    theta_lo) has its conjugate on the grid bit for bit, and a lower
    point sits within a few rounding steps of its place on the walk.
    When count is divisible by four, +pi/2 is a grid node, assigned
    exactly rather than through the accumulated step, and so is -pi/2,
    its conjugate.  _pair_half lets a caller compute each pair once.
    """
    if count < 1:
        raise SpectralDomainError(f"grid needs at least one point, got {count}")
    if not exclusion_delta > 0.0:
        raise SpectralDomainError("exclusion_delta must be positive")
    # chord delta corresponds to arc 2*asin(delta/2)
    theta_lo = 2.0 * math.asin(min(exclusion_delta, 2.0) / 2.0)
    arc = math.pi - 2.0 * theta_lo
    if arc <= 0.0:
        raise SpectralDomainError(
            f"exclusion_delta = {exclusion_delta} leaves no admissible arc"
        )
    step = 2.0 * arc / count
    lower = (count + 1) // 2
    # the upper half on the walk
    thetas = theta_lo + (np.arange(lower, count) * step - arc)
    if count % 4 == 0:
        thetas[3 * count // 4 - lower] = 0.5 * math.pi
    # the scalar cos and sin, whose bits numpy's vectorized ones need not match
    angles = [-math.pi + theta_lo, *thetas.tolist()]
    walked = np.empty(len(angles), dtype=complex)
    walked.real = list(map(math.cos, angles))
    walked.imag = list(map(math.sin, angles))
    zs = np.empty(count, dtype=complex)
    zs[0], zs[lower:] = walked[0], walked[1:]
    # lower point i, for 1 <= i < lower, is the conjugate of upper point count - i
    zs[1:lower] = np.conj(zs[count - 1 : count - lower : -1])
    require_on_circle(zs)
    return CircleGrid(zs, limits)


def _pair_half(grid: CircleGrid) -> np.ndarray:
    """One point of each conjugate pair of a sample_circle grid: its first count // 2 + 1.

    By construction (see sample_circle) these points are the lower half
    and, for an even count, the point at theta_lo, and every later point
    i is the exact conjugate of point count - i, an earlier one.  The
    data at conj(z) are the conjugates of those at z bit for bit, as the
    coefficients are real, but for the sign of an exact zero.  So a
    relation's residual takes the same value at z and at conj(z): its
    maximum over these points is its maximum over the grid, and its first
    bad point is the grid's first.
    """
    return grid.zs[: len(grid) // 2 + 1]
