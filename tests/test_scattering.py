import cmath

import numpy as np

from jacobiscatter import extract_scattering, identity_sweep, scattering_values
from jacobiscatter.scattering import _worst
from conftest import default_grid, make_sequence


def closed_form_transmission(z):
    """Single b(0) = 0.5 site: T = (1/z - z) / (1/z - z - 0.5)."""
    d = 1.0 / z - z
    return d / (d - 0.5)


def test_free_sequence_does_not_scatter(free_seq):
    grid = default_grid(free_seq, count=64)
    for point in grid:
        sd = extract_scattering(free_seq, point.z)
        assert abs(sd.T - 1.0) <= 1e-13
        assert abs(sd.R) <= 1e-13
        assert abs(sd.L) <= 1e-13


def test_single_site_closed_form_at_quarter_point(single_site_seq):
    sd = extract_scattering(single_site_seq, 1j)
    want_t = (4 + 1j) / 4.25
    assert abs(sd.T - want_t) <= 1e-12
    assert abs(sd.R - 0.25j * want_t) <= 1e-12
    assert abs(sd.L - 0.25j * want_t) <= 1e-12
    assert abs(sd.unitarity - 1.0) <= 1e-12


def test_single_site_closed_form_across_grid(single_site_seq):
    grid = default_grid(single_site_seq, count=64)
    for z in grid.zs[::7]:
        sd = extract_scattering(single_site_seq, complex(z))
        assert abs(sd.T - closed_form_transmission(complex(z))) <= 1e-12


def test_reflection_symmetry_of_single_site(single_site_seq):
    # a single on-site impurity looks the same from both directions
    grid = default_grid(single_site_seq, count=32)
    for z in grid.zs[::5]:
        sd = extract_scattering(single_site_seq, complex(z))
        assert abs(sd.R - sd.L) <= 1e-12


def test_unitarity_on_mixed_fixture(mixed_seq):
    t, r, l = scattering_values(mixed_seq, default_grid(mixed_seq).zs)
    assert np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)) <= 1e-10
    assert np.max(np.abs(np.abs(t) ** 2 + np.abs(l) ** 2 - 1.0)) <= 1e-10


def test_transmission_never_vanishes(mixed_seq, two_impurity_seq):
    for seq in (mixed_seq, two_impurity_seq):
        t, _, _ = scattering_values(seq, default_grid(seq, count=64).zs)
        assert np.min(np.abs(t)) > 0.0


def test_near_free_perturbation_barely_scatters():
    seq = make_sequence(0, [1.0], [1e-12], [1.0])
    sd = extract_scattering(seq, cmath.exp(0.9j))
    assert abs(sd.T - 1.0) <= 1e-9
    assert abs(sd.R) <= 1e-9


def test_extract_at_inverse_labels_the_companion_point(single_site_seq):
    z = cmath.exp(0.7j)
    sd = extract_scattering(single_site_seq, z, at_inverse=True)
    assert sd.z == complex(np.conj(z))


def test_at_inverse_data_conjugates_the_plain_data(mixed_seq):
    z = cmath.exp(-1.3j)
    sd = extract_scattering(mixed_seq, z)
    sd_inv = extract_scattering(mixed_seq, z, at_inverse=True)
    assert abs(sd_inv.T - sd.T.conjugate()) <= 1e-12
    assert abs(sd_inv.R - sd.R.conjugate()) <= 1e-12
    assert abs(sd_inv.L - sd.L.conjugate()) <= 1e-12


def test_check_symmetries_single_site(single_site_seq):
    sweep = identity_sweep(single_site_seq, [1j])
    assert sweep["scattering_conjugation"] <= 1e-10


def test_check_symmetries_mixed_grid(mixed_seq):
    grid = default_grid(mixed_seq, count=32)
    for z in grid.zs[::6]:
        assert identity_sweep(mixed_seq, [z])["scattering_conjugation"] <= 1e-9


def test_check_identities_single_site(single_site_seq):
    sweep = identity_sweep(single_site_seq, [1j])
    worst = max(
        sweep["product_left"],
        sweep["product_right"],
        sweep["exchange_left"],
        sweep["exchange_right"],
        sweep["quotient"],
    )
    assert worst <= 1e-10


def test_identity_sweep_mixed(mixed_seq):
    sweep = identity_sweep(mixed_seq, default_grid(mixed_seq).zs)
    assert max(sweep.values()) <= 1e-9
    # every tracked relation contributes a finite figure
    assert sweep["solution_conjugation"] >= 0.0
    assert sweep["quotient"] >= 0.0


def test_worst_keeps_the_bits_of_the_stacked_maximum():
    """_worst takes its maximum in place, term by term, and keeps the bits
    of the maximum over the stacked moduli, inf and NaN included, so that
    _grid_maxima faults on the same row and the same first theta: every
    pair and triple of entries drawn from finite values, signed zeros,
    infinities and NaNs of either sign and another payload."""
    nan = float("nan")
    inf = float("inf")
    payload = np.array([0x7FF8000000000123], dtype=np.int64).view(float)[0]
    values = np.array([
        0.0, -0.0, 1.5, -2.5j, 3.0 - 4.0j, 1e308 + 1e308j, 5e-324, complex(nan, 0.0),
        complex(0.0, -nan), complex(inf, nan), complex(-inf, 1.0), complex(nan, -inf),
        complex(payload, 2.0), complex(-nan, payload),
    ])
    for count in (1, 2, 3):
        grids = np.meshgrid(*[values] * count, indexing="ij")
        terms = [grid.ravel() for grid in grids]
        want = np.max(np.abs(np.stack(terms)), axis=0)
        got = _worst(*terms)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), count
