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

# numpy's complex power multiplies out integer exponents below this size
# and hands larger ones to the C library's cpow.
FAST_POWER_LIMIT = 100


@dataclass(frozen=True)
class SpectralPoint:
    """A circle point z paired with its band image lam."""

    z: complex
    lam: float

    def __post_init__(self):
        if not abs(abs(self.z) - 1.0) <= CIRCLE_TOL:
            raise SpectralDomainError(f"|z| = {abs(self.z)!r} is not on the unit circle")

    @property
    def theta(self) -> float:
        return math.atan2(self.z.imag, self.z.real)


@dataclass(frozen=True)
class BandEdges:
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True, eq=False)
class CircleGrid:
    """Ordered circle sample avoiding the degenerate points.

    The grid is held as one read-only array of circle points.  The
    angles, band images and SpectralPoint objects are built point by
    point, only when asked for, with the scalar math.atan2 and band
    formula whose bits the vectorized versions do not reproduce; code
    that reads only zs never pays for them.
    """

    zs: np.ndarray
    limits: Limits
    exclusion_delta: float

    def __post_init__(self):
        zs = np.array(self.zs, dtype=complex)
        zs.setflags(write=False)
        object.__setattr__(self, "zs", zs)

    def __len__(self) -> int:
        return self.zs.size

    def __iter__(self):
        return iter(self.points)

    @property
    def points(self) -> tuple[SpectralPoint, ...]:
        zs = self.zs.tolist()
        return tuple(map(SpectralPoint, zs, _band_images(self.limits, zs)))

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
    if np.any(off):
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


class _GridContext:
    """What the recursions and tail fits of one run over one grid share.

    Built from any array of circle points, which it holds as a 1-d
    complex array and checks with require_admissible, so every grid
    function checks its grid here, once, on entry.  It computes each
    shared value on first use, by the expression its callers used to
    evaluate themselves, so reading it changes no bit:

    * drive(limits, blocks): the recursion drive a_inf (z + 1/z) + b_inf,
      tiled over blocks column blocks;
    * det(): wave_pair_det(zs);
    * power(k): zs ** k, as the tail fits and junction checks write it;
    * power_table(ks): zs[None, :] ** ks[:, None], site-major, as the
      recursion seeds and the junction sweep's plane-wave tables read it.

    numpy raises a complex array to an integer power k by repeated
    multiplication when |k| < FAST_POWER_LIMIT and otherwise by the C
    library's cpow, which evaluates exp(k log z).  The context keeps the
    first route, numpy's own, and takes the second as np.exp(k * log)
    over one log(zs) computed on first use, which gives the same bits at
    a fraction of the cost, since cpow pays for the log again at every
    entry.
    """

    __slots__ = ("zs", "_det", "_log", "_drives", "_powers")

    def __init__(self, zs: np.ndarray):
        self.zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        require_admissible(self.zs)
        self._det = None
        self._log = None
        self._drives: dict[tuple[float, float, int], np.ndarray] = {}
        self._powers: dict[int, np.ndarray] = {}

    def drive(self, limits: Limits, blocks: int) -> np.ndarray:
        key = (limits.a_inf, limits.b_inf, blocks)
        if key not in self._drives:
            zs = self.zs
            self._drives[key] = np.tile(limits.a_inf * (zs + 1.0 / zs) + limits.b_inf, blocks)
        return self._drives[key]

    def det(self) -> np.ndarray:
        if self._det is None:
            self._det = wave_pair_det(self.zs)
        return self._det

    def _log_zs(self) -> np.ndarray:
        if self._log is None:
            self._log = np.log(self.zs)
        return self._log

    def power(self, k: int) -> np.ndarray:
        if k not in self._powers:
            if abs(k) < FAST_POWER_LIMIT:
                self._powers[k] = self.zs**k
            else:
                self._powers[k] = np.exp(k * self._log_zs())
        return self._powers[k]

    def power_table(self, ks: np.ndarray) -> np.ndarray:
        """Row j holds zs to the integer power ks[j]."""
        zs = self.zs
        fast = np.abs(ks) < FAST_POWER_LIMIT
        if fast.all():
            return zs[None, :] ** ks[:, None]
        # runs of rows on one route, each written in place into its slice
        table = np.empty((ks.size, zs.size), dtype=complex)
        cuts = [0, *(np.flatnonzero(fast[1:] != fast[:-1]) + 1).tolist(), ks.size]
        for start, stop in zip(cuts[:-1], cuts[1:]):
            run, out = ks[start:stop, None], table[start:stop]
            if fast[start]:
                np.power(zs[None, :], run, out=out)
            else:
                np.multiply(self._log_zs()[None, :], run, out=out)
                np.exp(out, out=out)
        return table


def _fault_where(bad: np.ndarray, zs: np.ndarray, what: str) -> None:
    """Raise NumericalFault "<what> at theta = ..." at zs's first point where bad holds."""
    if np.any(bad):
        theta = float(np.angle(zs[int(np.argmax(bad))]))
        raise NumericalFault(f"{what} at theta = {theta:.6g}")


def require_admissible(zs: np.ndarray) -> None:
    """Reject circle points too close to the degenerate points +1, -1."""
    require_on_circle(zs)
    arr = np.atleast_1d(np.asarray(zs, dtype=complex))
    close = np.minimum(np.abs(arr - 1.0), np.abs(arr + 1.0)) < DEGENERATE_FLOOR
    if np.any(close):
        thetas = np.angle(arr[close])[:3]
        listed = ", ".join(format(t, ".6g") for t in thetas)
        raise NumericalFault(
            f"z within {DEGENERATE_FLOOR:g} of a degenerate point at theta = {listed}"
        )


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


def band_edges(limits: Limits) -> BandEdges:
    """Endpoints of the continuous band of the limiting lattice."""
    half_width = 2.0 * abs(limits.a_inf) / limits.w_inf
    center = limits.b_inf / limits.w_inf
    return BandEdges(center - half_width, center + half_width)


def z_from_lambda(limits: Limits, lam: float) -> complex:
    """Circle preimage of a band energy on the designated half circle.

    For a_inf < 0 the band is swept by the upper half circle, for
    a_inf > 0 by the lower half, so the map stays a bijection.
    """
    s = (lam * limits.w_inf - limits.b_inf) / limits.a_inf
    # a NaN compares False with any bound, so it must fail the check too
    if not abs(s) <= 2.0 + 1e-12:
        edges = band_edges(limits)
        raise SpectralDomainError(
            f"lam = {lam} outside the band [{edges.lambda_min}, {edges.lambda_max}]"
        )
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
    -pi + theta_lo.  The resulting angles ascend monotonically through
    the lower half and then the upper half, and the point sets of the
    two halves agree under conjugation up to a one-step offset.  When
    count is divisible by four, -pi/2 and +pi/2 are grid nodes and are
    assigned exactly rather than through the accumulated step.
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
    positions = np.arange(count) * step
    thetas = np.where(
        positions < arc,
        -math.pi + theta_lo + positions,
        theta_lo + (positions - arc),
    )
    if count % 4 == 0:
        thetas[count // 4] = -0.5 * math.pi
        thetas[3 * count // 4] = 0.5 * math.pi
    # the scalar cos and sin, whose bits numpy's vectorized ones need not match
    angles = thetas.tolist()
    zs = np.empty(count, dtype=complex)
    zs.real = list(map(math.cos, angles))
    zs.imag = list(map(math.sin, angles))
    require_on_circle(zs)
    return CircleGrid(zs, limits, float(exclusion_delta))
