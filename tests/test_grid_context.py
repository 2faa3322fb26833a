"""One grid check per grid, and a grid held as arrays: both must be exact.

A grid is the checked 1-d array require_admissible returns: every grid
function checks its grid once, on entry, and every recursion and tail
fit over it reads its powers from spectral._power_table.  A
sample_circle grid keeps only its points as an array and builds angles,
band images and SpectralPoint objects on demand.  Both are
reorganizations, so these tests hold them to the bit against the
computation each value used to have, kept below as references.  The
band image's imaginary-part check is scaled by the image's terms, so
large limits build a grid.

Each grid function computes every point as given: every per-point
function must give each point the bits of its one-point call, and every
maximum must be the maximum of the one-point maxima, on grids closed
under conjugation too.
"""

import cmath
import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest

from jacobiscatter import (
    Fragmentation,
    Limits,
    NumericalFault,
    SpectralDomainError,
    determinant_residuals,
    factorization_residuals,
    identity_sweep,
    jost_values,
    junction_residual_sweep,
    lambda_from_z,
    sample_circle,
    scattering_amplitudes,
    scattering_values,
    transfer_matrix_values,
    transition_entries,
    wronskian_values,
)
from jacobiscatter import cli, spectral
from jacobiscatter.scattering import _fit_exponents, _tail_fit
from jacobiscatter.spectral import _power_table, require_admissible, wave_pair_det
from jacobiscatter.transition import _identities_report
from conftest import LARGE_LIMITS, hand_fixtures, make_sequence, random_sequence
from test_kernel_reference import sweep_rows


def bits(*arrays):
    return [np.ascontiguousarray(x).tobytes() for x in arrays]


def reference_tail_fit(zs, left, right, n, p, sign):
    """The fit computing its own determinant and broadcast power-table rows."""

    def power(k):
        return (zs[None, :] ** np.array([[k]]))[0]

    det_left = sign * wave_pair_det(zs)
    inv_t_left = (left[0] * power(-sign * (n + 1)) - left[1] * power(-sign * n)) / det_left
    l_over_t = (left[1] * power(sign * n) - left[0] * power(sign * (n + 1))) / det_left
    det_right = -det_left
    inv_t_right = (right[0] * power(sign * (p + 1)) - right[1] * power(sign * p)) / det_right
    r_over_t = (right[1] * power(-sign * p) - right[0] * power(-sign * (p + 1))) / det_right
    return 0.5 * (inv_t_left + inv_t_right), r_over_t, l_over_t


# tail-fit sites n = n_min - 2 and p = n_max + 1 of these windows give
# exponents 1 and 2 of both signs, and magnitudes on both sides of 100
WINDOWS = ((0, 2), (-3, 0), (97, 99), (99, 101), (-103, -100), (-100, -98))


def tail_rows(seq, zs, modes):
    return sweep_rows(seq, [(seq, seq.window)], zs, modes)[0]


def test_tail_fit_equals_the_self_computed_fit():
    zs = sample_circle(Limits(1.0, 0.0, 1.0), 64, 0.05).zs
    exponents = set()
    for n_min, n_max in WINDOWS:
        length = n_max - n_min + 1
        seq = make_sequence(
            n_min, [1.0, 1.2, 0.9, 1.1][:length], [0.3, -0.2, 0.1, 0.4][:length], [1.0] * length
        )
        n, p = n_min - 2, n_max + 1
        for sign, modes in ((1, (False,)), (-1, (True,))):
            powers = _power_table(zs, sign * np.array(_fit_exponents(seq.window)))
            left, right = tail_rows(seq, zs, modes)
            want = reference_tail_fit(zs, left, right, n, p, sign)
            got = _tail_fit(zs, wave_pair_det(zs), powers, range(8), left, right, sign)
            assert bits(*got) == bits(*want)
            exponents.update(sign * k for k in (n, n + 1, -p, -(p + 1)))
            exponents.update(-sign * k for k in (n, n + 1, -p, -(p + 1)))
    assert {-2, -1, 1, 2} <= exponents
    assert {99, 101, -99, -101} <= exponents


def test_require_admissible_is_the_grid_check():
    """Every grid function checks its grid with require_admissible, which
    rejects points near the degenerate +1, -1 and points off the circle,
    and returns a 1-d complex grid, a single point as the grid [z]."""
    for z in (1.0, -1.0, cmath.exp(5e-9j), -cmath.exp(-5e-9j)):
        with pytest.raises(NumericalFault, match="degenerate"):
            require_admissible([z])
    with pytest.raises(SpectralDomainError, match="unit circle"):
        require_admissible([1.001j])
    zs = sample_circle(Limits(1.0, 0.0, 1.0), 6, 0.05).zs
    assert require_admissible(zs) is zs
    for z in (zs[2], complex(zs[2]), [complex(zs[2])]):
        grid = require_admissible(z)
        assert grid.dtype == complex and grid.shape == (1,) and bits(grid) == bits(zs[2:3])


GRID_FUNCTIONS = {
    "jost_values": lambda seq, zs: jost_values(seq, zs, "right", at_inverse=True),
    "scattering_amplitudes": scattering_amplitudes,
    "scattering_values": scattering_values,
    "transition_entries": transition_entries,
    "determinant_residuals": determinant_residuals,
    "factorization_residuals": lambda seq, zs: factorization_residuals(
        seq, Fragmentation((0,)), zs
    ),
    "junction_residual_sweep": lambda seq, zs: junction_residual_sweep(
        seq, Fragmentation((0,)), zs
    ),
    "identity_sweep": identity_sweep,
    "transfer_matrix_values": transfer_matrix_values,
    "wronskian_values": wronskian_values,
    "_identities_report": lambda seq, zs: _identities_report(seq, Fragmentation((0,)), zs),
}


@pytest.fixture
def checked_grids(monkeypatch):
    """The size of each grid require_admissible is asked to check, in call
    order, through every copy a package module imported."""
    sizes = []
    check = spectral.require_admissible

    def counting(zs):
        sizes.append(np.size(zs))
        return check(zs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "jacobiscatter" and vars(module).get("require_admissible") is check:
            monkeypatch.setattr(module, "require_admissible", counting)
    return sizes


def test_every_grid_function_checks_its_grid_once(checked_grids):
    """Each grid function checks its grid once, on entry; the identity
    sweep checks its grid of z and 1/z too."""
    seq = make_sequence(-1, [1.0, 1.2, 0.9], [0.3, -0.2, 0.1], [1.0, 1.1, 0.9])
    zs = sample_circle(seq.limits, 6, 0.05).zs
    for name, grid_function in GRID_FUNCTIONS.items():
        checked_grids.clear()
        grid_function(seq, zs)
        want = [6, 12] if name in ("identity_sweep", "_identities_report") else [6]
        assert checked_grids == want, name


def result_bits(result):
    if isinstance(result, dict):
        return result
    if isinstance(result, tuple):
        return [result_bits(part) for part in result]
    return np.asarray(result).tobytes()


def test_every_grid_function_rejects_a_grid_without_points_or_on_two_axes():
    """require_admissible names the grid's shape for every grid function;
    a 0-d z is the one-point grid [z], bit for bit."""
    seq = make_sequence(-1, [1.0, 1.2, 0.9], [0.3, -0.2, 0.1], [1.0, 1.1, 0.9])
    zs = sample_circle(seq.limits, 6, 0.05).zs
    for name, grid_function in GRID_FUNCTIONS.items():
        for grid in ([], zs[:0], np.empty((0, 3)), zs.reshape(2, 3), zs.reshape(1, 6)):
            with pytest.raises(SpectralDomainError, match="not one point or a nonempty row"):
                grid_function(seq, grid)
        for z in (zs[4], complex(zs[4])):
            one = grid_function(seq, zs[4:5])
            assert result_bits(grid_function(seq, z)) == result_bits(one), name


# every per-point grid function, its grid on the first axis of one array
PER_POINT = {
    **{
        f"jost_values {side}{' at_inverse' * inverse}": (
            lambda seq, zs, side=side, inverse=inverse: jost_values(seq, zs, side, inverse)[0]
        )
        for side in ("left", "right")
        for inverse in (False, True)
    },
    **{
        f"{name}{' at_inverse' * inverse}": (
            lambda seq, zs, function=function, inverse=inverse: np.stack(
                function(seq, zs, inverse), axis=-1
            )
        )
        for name, function in (
            ("scattering_amplitudes", scattering_amplitudes),
            ("scattering_values", scattering_values),
        )
        for inverse in (False, True)
    },
    "transition_entries": transition_entries,
    "determinant_residuals": determinant_residuals,
    "factorization_residuals": GRID_FUNCTIONS["factorization_residuals"],
}

# the grid functions that return one maximum per row
MAXIMA = {
    name: GRID_FUNCTIONS[name] for name in ("junction_residual_sweep", "identity_sweep")
}


def mirror_cases():
    """Sequences with closed grids of 64 points, and grids of a point, its
    conjugate and a repeat, and of i, -0.0 + i and its conjugate.

    The free lattice's R = 0 and the single site's purely imaginary R / T
    have exact zero parts, whose sign the arithmetic at z and at conj(z)
    need not share; a window with site 0 in its seeded tail keeps
    z^0 = 1 + 0j in its solutions."""
    rng = np.random.default_rng(28)
    seqs = [
        make_sequence(0, [1.0], [0.0], [1.0]),
        *hand_fixtures(),
        make_sequence(-2, [1.0, 1.1], [0.2, -0.1], [1.0, 1.2]),
        random_sequence(rng),
        random_sequence(rng),
    ]
    for seq in seqs:
        closed = sample_circle(seq.limits, 64, 0.05).zs
        z = closed[5]
        odd = np.array([z, np.conj(z), z, 1j, complex(-0.0, 1.0), complex(-0.0, -1.0)])
        yield seq, closed
        yield seq, odd


def test_every_per_point_grid_function_mirrors_its_one_point_calls():
    """Each point of a grid has the bits of the one-point call at it, on
    grids closed under conjugation and grids with repeats."""
    for seq, zs in mirror_cases():
        for name, grid_function in PER_POINT.items():
            values = grid_function(seq, zs)
            assert values.shape[0] == zs.size
            for i in range(zs.size):
                one = grid_function(seq, zs[i : i + 1])
                assert values[i].tobytes() == one[0].tobytes(), (name, seq, i)


def test_every_maximum_is_the_maximum_of_the_one_point_maxima():
    for seq, zs in mirror_cases():
        for name, grid_function in MAXIMA.items():
            rows = grid_function(seq, zs)
            ones = [grid_function(seq, zs[i : i + 1]) for i in range(zs.size)]
            for key, value in rows.items():
                assert bits(value) == bits(max(one[key] for one in ones)), (name, key, seq)


def test_a_fault_names_the_first_theta_in_the_callers_order():
    """A barrier of b = 3 over 460 sites: solutions grow through it fastest
    at lam = -2 and overflow at theta = +-3, not at 0.3 or 0.5.  The fault
    names the bad point that comes first in the grid as given, whichever
    of the pair that is."""
    seq = make_sequence(0, [1.0] * 460, [3.0] * 460, [1.0] * 460)
    bad = cmath.exp(3.0j)
    for pair in ([bad.conjugate(), bad], [bad, bad.conjugate()]):
        zs = np.array([cmath.exp(0.5j), *pair, cmath.exp(0.3j)])
        theta = format(cmath.phase(pair[0]), ".6g")
        for name, grid_function in {**PER_POINT, **MAXIMA}.items():
            if name.startswith("jost_values"):
                continue  # the solutions overflow without a fault
            with pytest.raises(NumericalFault, match=f"tail fit is not finite at theta = {theta}$"):
                grid_function(seq, zs)


def reference_grid(limits, count, exclusion_delta):
    """sample_circle as a list of SpectralPoints built point by point: point 0
    and the upper half on the walk, each other lower point the conjugate
    of its upper partner."""
    theta_lo = 2.0 * math.asin(min(exclusion_delta, 2.0) / 2.0)
    arc = math.pi - 2.0 * theta_lo
    step = 2.0 * arc / count
    lower = (count + 1) // 2
    thetas = {0: -math.pi + theta_lo}
    for i in range(lower, count):
        thetas[i] = theta_lo + (i * step - arc)
    if count % 4 == 0:
        thetas[3 * count // 4] = 0.5 * math.pi
    zs = [complex(math.cos(thetas[i]), math.sin(thetas[i])) if i in thetas else None
          for i in range(count)]
    for i in range(1, lower):
        zs[i] = zs[count - i].conjugate()
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
    # the walk's rounding once put point 3 of 6 at -theta_lo
    (Limits(1.0, 0.0, 1.0), 6, 0.05),
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
    """Counts SpectralPoint constructions and band-image evaluations,
    through spectral's own name and the CLI's imported copy."""
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
    monkeypatch.setattr(cli, "_band_images", counting_band_images)
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
    # one point of each conjugate pair: the first 64 // 2 + 1
    assert run_quietly(["scatter", "--input", str(path), "--grid", "64"]) == 0
    assert spectral_counts == {"points": 0, "band_images": 33}


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



def test_identities_run_checks_two_grids(tmp_path, checked_grids):
    """Two grids are checked: the report's grid, 33 points,
    one of each conjugate pair of the run's 64, which the junction sweep
    recurses the whole sequence over, and the identity sweep's grid of z
    and its rounded reciprocal over them, which both its recursions and
    its one fit read."""
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0, "n_min": -1, "n_max": 1,
        "a": [1.0, 1.0, 1.0], "b": [0.3, 0.0, -0.4], "w": [1.0, 1.0, 1.0],
    }))
    argv = ["identities", "--input", str(path), "--breakpoints=-1,0,1", "--grid", "64"]
    assert run_quietly(argv) == 0
    assert checked_grids == [33, 66]
