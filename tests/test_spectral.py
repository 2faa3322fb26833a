import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from jacobiscatter import (
    Limits,
    NumericalFault,
    SpectralDomainError,
    SpectralPoint,
    band_edges,
    lambda_from_z,
    require_admissible,
    sample_circle,
    scattering_values,
    wave_pair_det,
    z_from_lambda,
)
from jacobiscatter.spectral import _pair_half
from conftest import UNIT_LIMITS, single_site_sequence


def test_lambda_from_z_lower_band_edge():
    assert lambda_from_z(Limits(-1.0, 0.0, 1.0), 1.0) == pytest.approx(-2.0, abs=1e-14)


def test_lambda_from_z_band_center():
    assert lambda_from_z(UNIT_LIMITS, 1j) == pytest.approx(0.0, abs=1e-14)


def test_lambda_from_z_scaled_limits():
    assert lambda_from_z(Limits(2.0, 1.0, 2.0), -1.0) == pytest.approx(-1.5, abs=1e-14)


def test_lambda_from_z_rejects_off_circle():
    # a NaN compares False with any bound, so it must fail the check too
    for z in (1.5 + 0.0j, complex(math.nan, 0.0)):
        with pytest.raises(SpectralDomainError, match="not on the unit circle"):
            lambda_from_z(UNIT_LIMITS, z)


def test_band_edges_values():
    assert band_edges(UNIT_LIMITS) == pytest.approx((-2.0, 2.0))
    assert band_edges(Limits(2.0, 1.0, 2.0)) == pytest.approx((-1.5, 2.5))
    # |a_inf| enters, not a_inf itself
    assert band_edges(Limits(-3.0, 0.0, 1.0)) == pytest.approx((-6.0, 6.0))


def test_z_from_lambda_edge_maps_to_one():
    assert z_from_lambda(Limits(-1.0, 0.0, 1.0), -2.0) == pytest.approx(1.0 + 0.0j)


def test_z_from_lambda_half_circle_selection():
    """Positive a_inf sweeps the band along the lower half circle."""
    assert z_from_lambda(UNIT_LIMITS, 0.0) == pytest.approx(-1j)
    assert z_from_lambda(Limits(-1.0, 0.0, 1.0), 0.0) == pytest.approx(1j)


def test_z_from_lambda_rejects_outside_band():
    # a NaN energy lies in no band
    for lam in (2.5, math.nan):
        with pytest.raises(SpectralDomainError):
            z_from_lambda(UNIT_LIMITS, lam)


def test_spectral_round_trip():
    limits = Limits(1.3, -0.2, 0.8)
    for theta in np.linspace(-math.pi + 0.05, -0.05, 17):
        z = cmath.exp(1j * theta)
        back = z_from_lambda(limits, lambda_from_z(limits, z))
        assert abs(back - z) <= 1e-10


def test_round_trip_other_half():
    limits = Limits(-0.9, 0.4, 1.1)
    for theta in np.linspace(0.05, math.pi - 0.05, 17):
        z = cmath.exp(1j * theta)
        assert abs(z_from_lambda(limits, lambda_from_z(limits, z)) - z) <= 1e-10


def test_grid_lambdas_stay_in_band():
    limits = Limits(1.7, 0.3, 1.2)
    lam_min, lam_max = band_edges(limits)
    grid = sample_circle(limits, 64, 1e-3)
    assert np.all(grid.lams >= lam_min - 1e-12)
    assert np.all(grid.lams <= lam_max + 1e-12)


def _exact_pair_det(z):
    """1/z - z in exact rational arithmetic on the float components."""
    re, im = Fraction(z.real), Fraction(z.imag)
    denom = re * re + im * im
    return re / denom - re, -im / denom - im


def test_wave_pair_det_matches_exact_rationals():
    for theta in (1e-6, 1e-4, 0.3, 1.7, math.pi - 1e-5, -2.0, -1e-7):
        z = cmath.exp(1j * theta)
        got = complex(wave_pair_det(np.array([z]))[0])
        ex_re, ex_im = _exact_pair_det(z)
        err = math.hypot(float(Fraction(got.real) - ex_re), float(Fraction(got.imag) - ex_im))
        scale = math.hypot(float(ex_re), float(ex_im))
        assert err <= 5e-15 * scale


def test_wave_pair_det_beats_naive_form_near_degeneracy():
    """Near +1 the direct 1/z - z loses most of its digits; the packaged
    form keeps full relative precision."""
    theta = 1e-7
    z = cmath.exp(1j * theta)
    ex_re, ex_im = _exact_pair_det(z)
    scale = math.hypot(float(ex_re), float(ex_im))

    def rel_err(value):
        return math.hypot(
            float(Fraction(value.real) - ex_re), float(Fraction(value.imag) - ex_im)
        ) / scale

    naive = 1.0 / z - z
    robust = complex(wave_pair_det(np.array([z]))[0])
    assert rel_err(robust) <= 5e-15
    assert rel_err(naive) >= 100 * max(rel_err(robust), 1e-18)


def test_require_admissible_flags_near_degenerate_points():
    z = cmath.exp(1j * 1e-9)
    with pytest.raises(NumericalFault, match="theta"):
        require_admissible(np.array([z]))
    require_admissible(np.array([cmath.exp(1j * 0.5)]))


def test_sample_circle_count_and_circle_membership():
    grid = sample_circle(UNIT_LIMITS, 4, 0.1)
    assert len(grid) == 4
    zs = grid.zs
    assert np.all(np.abs(np.abs(zs) - 1.0) <= 1e-15)
    assert np.min(np.abs(zs - 1.0)) >= 0.1 - 1e-12
    assert np.min(np.abs(zs + 1.0)) >= 0.1 - 1e-12


def test_sample_circle_spans_both_half_circles():
    grid = sample_circle(UNIT_LIMITS, 10, 0.05)
    thetas = grid.thetas
    assert np.all(np.diff(thetas) > 0)
    assert np.sum(thetas < 0) == 5
    assert np.sum(thetas > 0) == 5


def test_sample_circle_hits_quarter_points_exactly():
    # multiple-of-four grids pin z = -i and z = +i bitwise, which the
    # closed-form comparisons elsewhere rely on
    grid = sample_circle(UNIT_LIMITS, 512, 1e-3)
    thetas = grid.thetas
    assert thetas[128] == -0.5 * math.pi
    assert thetas[384] == 0.5 * math.pi


def test_sample_circle_conjugation_symmetry_is_exact():
    """Every point but -pi + theta_lo and theta_lo has its conjugate on the
    grid, bit for bit, and each angle is the negated angle of its partner."""
    grid = sample_circle(UNIT_LIMITS, 512, 1e-3)
    zs, thetas = grid.zs, grid.thetas
    theta_lo = 2.0 * math.asin(5e-4)
    for i in range(1, 256):
        assert zs[i].tobytes() == np.conj(zs[512 - i]).tobytes()
        assert thetas[i] == -thetas[512 - i]
    assert thetas[0] == -math.pi + theta_lo
    assert thetas[256] == pytest.approx(theta_lo, abs=1e-15)


@pytest.mark.parametrize("delta", [1e-3, 0.01, 0.05, 0.1])
def test_sample_circle_halves_by_index_into_exact_pairs(delta):
    """Over counts 1 to 600 the lower half holds the first ceil(count / 2)
    points and the upper half the rest.  The split used to compare the
    rounded walk with the arc, and at 66 of these (count, delta) pairs, such
    as 6 or 12 points at delta 0.05, the point meant for theta_lo landed at
    -theta_lo: the halves held 4 and 2 points, or 7 and 5."""
    theta_lo = 2.0 * math.asin(delta / 2.0)
    start = -math.pi + theta_lo
    first = complex(math.cos(start), math.sin(start))
    for count in range(1, 601):
        grid = sample_circle(UNIT_LIMITS, count, delta)
        zs = grid.zs
        lower = (count + 1) // 2
        assert np.all(zs[:lower].imag < 0) and np.all(zs[lower:].imag > 0), count
        pairs = range(1, lower)
        assert zs[list(pairs)].tobytes() == np.conj(zs[[count - i for i in pairs]]).tobytes()
        assert np.all(np.diff(np.angle(zs)) > 0), count
        assert zs[0] == first and zs[:1].tobytes() == np.array([first]).tobytes()
        if count % 4 == 0:
            assert zs[count // 4].tobytes() == np.conj(zs[3 * count // 4]).tobytes()
            assert zs[3 * count // 4] == complex(math.cos(0.5 * math.pi), 1.0)
        # the CLI's pairing rule: the grid's first count // 2 + 1 points, and
        # point i > count // 2 the conjugate of point count - i
        half = _pair_half(grid)
        assert half.size == count // 2 + 1 and half.tobytes() == zs[: half.size].tobytes()
        assert zs[half.size :].tobytes() == np.conj(half[count - half.size : 0 : -1]).tobytes()


def test_sample_circle_determinism():
    a = sample_circle(UNIT_LIMITS, 128, 1e-3).zs
    b = sample_circle(UNIT_LIMITS, 128, 1e-3).zs
    assert np.array_equal(a, b)


def test_sample_circle_rejects_total_exclusion():
    with pytest.raises(SpectralDomainError):
        sample_circle(UNIT_LIMITS, 1, 1.9999999)


def test_near_degenerate_delta_defers_fault_to_computation():
    """A tiny delta still builds a grid; the admissibility guard rejects
    its boundary points the moment a computation tries to use them."""
    grid = sample_circle(UNIT_LIMITS, 16, 1e-12)
    with pytest.raises(NumericalFault):
        require_admissible(grid.zs)


def test_sample_circle_rejects_a_nan_delta():
    """A NaN delta compares False with any bound; it must not build a grid
    of NaN points."""
    with pytest.raises(SpectralDomainError, match="positive"):
        sample_circle(UNIT_LIMITS, 4, math.nan)


def test_spectral_point_rejects_nan():
    with pytest.raises(SpectralDomainError, match="not on the unit circle"):
        SpectralPoint(complex(0.0, math.nan), 0.0)


def test_grid_functions_reject_a_nan_point_on_entry():
    """A NaN point is off the circle, refused before any arithmetic on it,
    not a NumericalFault from a fit that read it."""
    for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.nan, math.nan)):
        with pytest.raises(SpectralDomainError, match="not on the unit circle"):
            scattering_values(single_site_sequence(), [1j, z])
