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


@dataclass(frozen=True)
class SpectralPoint:
    """A circle point z paired with its band image lam."""

    z: complex
    lam: float

    def __post_init__(self):
        if abs(abs(self.z) - 1.0) > CIRCLE_TOL:
            raise SpectralDomainError(f"|z| = {abs(self.z)!r} is not on the unit circle")

    @property
    def theta(self) -> float:
        return math.atan2(self.z.imag, self.z.real)


@dataclass(frozen=True)
class BandEdges:
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class CircleGrid:
    """Ordered circle sample avoiding the degenerate points."""

    points: tuple[SpectralPoint, ...]
    exclusion_delta: float

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def zs(self) -> np.ndarray:
        return np.array([p.z for p in self.points], dtype=complex)

    @property
    def thetas(self) -> np.ndarray:
        return np.array([p.theta for p in self.points])

    @property
    def lams(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])


def require_on_circle(zs: np.ndarray) -> None:
    """Reject spectral parameters off the unit circle."""
    off = np.abs(np.abs(zs) - 1.0) > CIRCLE_TOL
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


def circle_inverse(zs: np.ndarray | complex) -> np.ndarray | complex:
    """Floating-point label for the inverse of a unit-circle point.

    The conjugate is the cleanest float stand-in for 1/z on the circle:
    conjugation is exact, while the rounded reciprocal also picks up the
    rounding of |z|^2.  Neither is the inverse of z exactly, so code
    that must pair a value at z with one at 1/z never evaluates at this
    point; it reuses z and flips power signs instead (the at_inverse
    mode in the solution and scattering layers).  This helper only
    labels the results of such evaluations.
    """
    return np.conj(zs)


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
    return _band_image(limits, z)


def _band_image(limits: Limits, z: complex) -> float:
    """lambda_from_z for a point already known to lie on the circle."""
    value = (limits.a_inf * (z + 1.0 / z) + limits.b_inf) / limits.w_inf
    if abs(value.imag) >= 1e-12:
        raise SpectralDomainError(
            f"spectral image of z = {z} has imaginary part {value.imag!r}"
        )
    return float(value.real)


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
    if abs(s) > 2.0 + 1e-12:
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
    if exclusion_delta <= 0.0:
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
    zs = [complex(math.cos(theta), math.sin(theta)) for theta in thetas]
    require_on_circle(np.array(zs, dtype=complex))
    points = tuple(SpectralPoint(z, _band_image(limits, z)) for z in zs)
    return CircleGrid(points, float(exclusion_delta))
