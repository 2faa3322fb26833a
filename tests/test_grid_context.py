"""One grid context per run, and a grid held as arrays: both must be exact.

A run builds one grid context and every recursion and tail fit over that
grid reads its drive, plane-wave determinant and powers from it.  The
grid itself keeps only its points as an array and builds angles, band
images and SpectralPoint objects on demand.  Both are reorganizations,
so these tests hold them to the bit against the computation each value
used to have, kept below as references.  The band image's imaginary-part
check is scaled by the image's terms, so large limits build a grid.
"""

import cmath
import contextlib
import io
import json
import math

import numpy as np
import pytest

from jacobiscatter import (
    Limits,
    NumericalFault,
    SpectralDomainError,
    lambda_from_z,
    sample_circle,
)
from jacobiscatter import cli, spectral
from jacobiscatter.jost import _fit_sweep
from jacobiscatter.scattering import _tail_fit
from jacobiscatter.spectral import _GridContext, wave_pair_det
from conftest import make_sequence

LARGE_LIMITS = (Limits(1e4, 0.0, 1.0), Limits(1e3, 0.0, 1e-3))


def bits(*arrays):
    return [np.ascontiguousarray(x).tobytes() for x in arrays]


def reference_tail_fit(zs, left, right, n, p, sign):
    """The fit computing its own determinant and scalar-exponent powers."""
    det_left = sign * wave_pair_det(zs)
    inv_t_left = (left[0] * zs ** (-sign * (n + 1)) - left[1] * zs ** (-sign * n)) / det_left
    l_over_t = (left[1] * zs ** (sign * n) - left[0] * zs ** (sign * (n + 1))) / det_left
    det_right = -det_left
    inv_t_right = (right[0] * zs ** (sign * (p + 1)) - right[1] * zs ** (sign * p)) / det_right
    r_over_t = (right[1] * zs ** (-sign * p) - right[0] * zs ** (-sign * (p + 1))) / det_right
    return 0.5 * (inv_t_left + inv_t_right), r_over_t, l_over_t


# tail-fit sites n = n_min - 2 and p = n_max + 1 of these windows give
# exponents 1 and 2 of both signs, and magnitudes on both sides of 100
WINDOWS = ((0, 2), (-3, 0), (97, 99), (99, 101), (-103, -100), (-100, -98))


def tail_rows(seq, ctx, modes):
    return _fit_sweep(seq, [(seq, seq.window)], ctx, modes)[0]


def test_context_tail_fit_equals_the_self_computed_fit():
    zs = sample_circle(Limits(1.0, 0.0, 1.0), 64, 0.05).zs
    # one context across every window, so later fits hit memoized powers
    shared = _GridContext(zs)
    exponents = set()
    for n_min, n_max in WINDOWS:
        length = n_max - n_min + 1
        seq = make_sequence(
            n_min, [1.0, 1.2, 0.9, 1.1][:length], [0.3, -0.2, 0.1, 0.4][:length], [1.0] * length
        )
        n, p = n_min - 2, n_max + 1
        for sign, modes in ((1, (False,)), (-1, (True,))):
            left, right = tail_rows(seq, _GridContext(zs), modes)
            want = reference_tail_fit(zs, left, right, n, p, sign)
            assert bits(*_tail_fit(shared, left, right, n, p, sign)) == bits(*want)
            assert bits(*_tail_fit(_GridContext(zs), left, right, n, p, sign)) == bits(*want)
            exponents.update(sign * k for k in (n, n + 1, -p, -(p + 1)))
            exponents.update(-sign * k for k in (n, n + 1, -p, -(p + 1)))
    assert {-2, -1, 1, 2} <= exponents
    assert {99, 101, -99, -101} <= exponents


def test_context_shares_but_never_mixes_its_values():
    zs = sample_circle(Limits(1.0, 0.0, 1.0), 64, 0.05).zs
    ctx = _GridContext(zs)
    for k in (-101, -100, -2, -1, 0, 1, 2, 99, 100, 101):
        assert bits(ctx.power(k)) == bits(zs**k)
        want = (zs[None, :] ** np.array([[k]]))[0]
        assert bits(ctx.power_table(np.array([k]))[0]) == bits(want)
        assert ctx.power(k) is ctx.power(k)
    assert bits(ctx.det()) == bits(wave_pair_det(zs))
    for limits in (Limits(1.0, 0.0, 1.0), Limits(-0.8, 0.3, 1.2)):
        drive = limits.a_inf * (zs + 1.0 / zs) + limits.b_inf
        assert bits(ctx.drive(limits, 1)) == bits(drive)
        assert bits(ctx.drive(limits, 3)) == bits(np.tile(drive, 3))


def test_context_is_the_grid_check():
    """Every grid function builds its grid through the context, which
    rejects points near the degenerate +1, -1 and points off the circle."""
    for z in (1.0, -1.0, cmath.exp(5e-9j), -cmath.exp(-5e-9j)):
        with pytest.raises(NumericalFault, match="degenerate"):
            _GridContext([z])
    with pytest.raises(SpectralDomainError, match="unit circle"):
        _GridContext([1.001j])


def reference_grid(limits, count, exclusion_delta):
    """sample_circle as it was: a tuple of SpectralPoints built point by point."""
    theta_lo = 2.0 * math.asin(min(exclusion_delta, 2.0) / 2.0)
    arc = math.pi - 2.0 * theta_lo
    step = 2.0 * arc / count
    positions = np.arange(count) * step
    thetas = np.where(
        positions < arc, -math.pi + theta_lo + positions, theta_lo + (positions - arc)
    )
    if count % 4 == 0:
        thetas[count // 4] = -0.5 * math.pi
        thetas[3 * count // 4] = 0.5 * math.pi
    zs = [complex(math.cos(theta), math.sin(theta)) for theta in thetas]
    points = []
    for z in zs:
        lam = (limits.a_inf * (z + 1.0 / z) + limits.b_inf) / limits.w_inf
        points.append(spectral.SpectralPoint(z, float(lam.real)))
    return points


GRID_CASES = (
    (Limits(1.0, 0.0, 1.0), 512, 1e-3),
    (Limits(1.3, -0.2, 0.8), 64, 0.05),
    (Limits(-0.9, 0.4, 1.1), 37, 0.2),
    (Limits(1.0, 0.0, 1.0), 4, 0.1),
)


def test_grid_fields_equal_the_point_by_point_construction():
    for limits, count, delta in GRID_CASES:
        grid = sample_circle(limits, count, delta)
        points = reference_grid(limits, count, delta)
        assert len(grid) == count
        assert bits(grid.zs) == bits(np.array([p.z for p in points], dtype=complex))
        assert bits(grid.thetas) == bits(np.array([p.theta for p in points]))
        assert bits(grid.lams) == bits(np.array([p.lam for p in points]))
        assert grid.points == tuple(points)
        assert list(grid) == points
        assert not grid.zs.flags.writeable


@pytest.fixture
def spectral_counts(monkeypatch):
    """Counts SpectralPoint constructions and band-image evaluations."""
    counts = {"points": 0, "band_images": 0}
    band_images = spectral._band_images
    post_init = spectral.SpectralPoint.__post_init__

    def counting_band_images(limits, zs):
        counts["band_images"] += len(zs)
        return band_images(limits, zs)

    def counting_post_init(self):
        counts["points"] += 1
        post_init(self)

    monkeypatch.setattr(spectral, "_band_images", counting_band_images)
    monkeypatch.setattr(spectral.SpectralPoint, "__post_init__", counting_post_init)
    return counts


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_only_scatter_pays_for_angles_and_band_images(tmp_path, spectral_counts):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0, "n_min": -1, "n_max": 1,
        "a": [1.0, 1.0, 1.0], "b": [0.3, 0.0, -0.4], "w": [1.0, 1.0, 1.0],
    }))
    for command in ("factorize", "identities"):
        assert run_quietly([command, "--input", str(path), "--breakpoints=0"]) == 0
    assert spectral_counts == {"points": 0, "band_images": 0}
    assert run_quietly(["scatter", "--input", str(path), "--grid", "64"]) == 0
    assert spectral_counts == {"points": 0, "band_images": 64}


def test_large_limits_build_a_grid():
    """The imaginary-part check scales with the image's terms.

    An absolute 1e-12 bound rejected both limits at 512 points: their
    band images carry rounding of 2e-12 and 2e-10 in the imaginary part.
    """
    for limits in LARGE_LIMITS:
        grid = sample_circle(limits, 512, 1e-3)
        lams = grid.lams
        assert len(grid.points) == 512
        assert [lambda_from_z(limits, z) for z in grid.zs.tolist()] == lams.tolist()
        half_width = 2.0 * limits.a_inf / limits.w_inf
        assert np.all(np.abs(lams) <= half_width * (1.0 + 1e-12))


def test_large_limits_scatter(tmp_path):
    for j, limits in enumerate(LARGE_LIMITS):
        path = tmp_path / f"seq{j}.json"
        a = limits.a_inf
        path.write_text(json.dumps({
            "a_inf": a, "b_inf": limits.b_inf, "w_inf": limits.w_inf, "n_min": 0, "n_max": 1,
            "a": [a, 1.1 * a], "b": [0.3 * a, 0.0], "w": [limits.w_inf, 1.2 * limits.w_inf],
        }))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["scatter", "--input", str(path), "--grid", "64"]) == 0
        lines = out.getvalue().splitlines()[1:]
        rows = np.array([[float(c) for c in line.split(",")] for line in lines])
        assert rows.shape == (64, 9)
        assert bits(rows[:, 1]) == bits(sample_circle(limits, 64, 1e-3).lams)
        assert np.max(np.abs(rows[:, 8] - 1.0)) <= 1e-12


def test_band_image_still_rejects_a_genuine_imaginary_part():
    """Off the circle z + 1/z is not real; the check sees that at any scale."""
    for limits in (Limits(1.0, 0.0, 1.0), *LARGE_LIMITS):
        for z in (cmath.rect(1.0 + 1e-9, 1.0), cmath.rect(1.0 - 1e-9, -2.0)):
            with pytest.raises(SpectralDomainError, match="imaginary part"):
                spectral._band_images(limits, [z])



def test_identities_run_builds_three_grid_contexts(tmp_path, monkeypatch):
    """The run's grid, the identity sweep's grid of z and its rounded
    reciprocal, which both its recursions share, and the fit at the
    reciprocal; the junction sweep recurses the whole sequence over the
    run's own context."""
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0, "n_min": -1, "n_max": 1,
        "a": [1.0, 1.0, 1.0], "b": [0.3, 0.0, -0.4], "w": [1.0, 1.0, 1.0],
    }))
    built = []
    init = _GridContext.__init__

    def counting_init(self, zs):
        built.append(zs.size)
        init(self, zs)

    monkeypatch.setattr(_GridContext, "__init__", counting_init)
    argv = ["identities", "--input", str(path), "--breakpoints=-1,0,1", "--grid", "64"]
    assert run_quietly(argv) == 0
    assert built == [64, 128, 64]
