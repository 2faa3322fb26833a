"""Cross-checks between the three extraction routes.

The tail-fit path (module scattering), the transfer-matrix path, and the
pairing path were coded against the recursion independently, so three-way
agreement is the strongest internal evidence the suite has.
"""

import ast
import cmath
from pathlib import Path

import numpy as np
import pytest

import jacobiscatter.oracle
from jacobiscatter import (
    NumericalFault,
    coefficient_at,
    extract_scattering,
    jost_values,
    lambda_from_z,
    step_matrix,
    scattering_values,
    transfer_matrix_scattering,
    transfer_matrix_values,
    wronskian_scattering,
    wronskian_values,
)
from jacobiscatter.spectral import wave_pair_det
from conftest import (
    default_grid,
    free_sequence,
    hand_fixtures,
    overflowing_sequence,
    single_site_sequence,
)


def test_step_matrix_entries(mixed_seq):
    z = cmath.exp(0.8j)
    lam = lambda_from_z(mixed_seq.limits, z)
    for site in (-2, 0, 1, 3):
        a_n, b_n, w_n = coefficient_at(mixed_seq, site)
        a_up = coefficient_at(mixed_seq, site + 1)[0]
        m = step_matrix(mixed_seq, z, site)
        assert abs(m[0, 0] - (lam * w_n - b_n) / a_up) <= 1e-12
        assert m[0, 1] == -(a_n / a_up)
        assert m[1, 0] == 1.0 and m[1, 1] == 0.0
        assert m.dtype == complex and m.shape == (2, 2)
        with pytest.raises(ValueError):
            m[1, 1] = 1.0


def test_step_matrix_advances_a_true_solution(mixed_seq):
    z = cmath.exp(-0.6j)
    (fl,), lo = jost_values(mixed_seq, [z], "left")
    for n in range(lo + 1, lo + len(fl) - 2):
        m = step_matrix(mixed_seq, z, n)
        state = np.array([fl[n - lo], fl[n - 1 - lo]])
        out = m @ state
        assert abs(out[0] - fl[n + 1 - lo]) <= 1e-11 * max(1.0, abs(fl[n + 1 - lo]))


def test_step_determinants_telescope(mixed_seq):
    """Each factor has det a(n)/a(n+1), so the product over the support
    telescopes to 1 when both ends sit at the limits."""
    z = cmath.exp(0.8j)
    win = mixed_seq.window
    det = 1.0
    for site in range(win.n_min, win.n_max + 2):
        m = step_matrix(mixed_seq, z, site)
        step_det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        a_n = coefficient_at(mixed_seq, site)[0]
        a_up = coefficient_at(mixed_seq, site + 1)[0]
        assert abs(step_det - a_n / a_up) <= 1e-14 * max(1.0, abs(a_n / a_up))
        det *= step_det
    assert abs(det - 1.0) <= 1e-12


def test_free_transfer_route_is_trivial(free_seq):
    t, r, l = transfer_matrix_scattering(free_seq, cmath.exp(1.1j))
    assert abs(t - 1.0) <= 1e-13
    assert abs(r) <= 1e-13 and abs(l) <= 1e-13


def test_free_pairing_route_is_trivial(free_seq):
    t, r, l = wronskian_scattering(free_seq, cmath.exp(-0.4j))
    assert abs(t - 1.0) <= 1e-13
    assert abs(r) <= 1e-13 and abs(l) <= 1e-13


def test_transfer_route_confirms_single_site_closed_form():
    seq = single_site_sequence()
    t, r, _ = transfer_matrix_scattering(seq, 1j)
    want = (4 + 1j) / 4.25
    assert abs(t - want) <= 1e-12
    assert abs(r - 0.25j * want) <= 1e-12


def test_pairing_route_confirms_single_site_closed_form():
    seq = single_site_sequence()
    t, _, l = wronskian_scattering(seq, 1j)
    want = (4 + 1j) / 4.25
    assert abs(t - want) <= 1e-12
    assert abs(l - 0.25j * want) <= 1e-12


def test_three_routes_agree_pointwise(mixed_seq, two_impurity_seq, coupling_step_seq):
    for seq in (mixed_seq, two_impurity_seq, coupling_step_seq):
        for theta in (0.5, 1.9, -1.2, -2.8):
            z = cmath.exp(1j * theta)
            main = extract_scattering(seq, z)
            transfer = transfer_matrix_scattering(seq, z)
            pairing = wronskian_scattering(seq, z)
            for first, second in ((main, transfer), (main, pairing), (transfer, pairing)):
                for value, other in zip(first, second):
                    assert abs(value - other) <= 1e-10


def test_three_routes_agree_on_grids(mixed_seq):
    zs = default_grid(mixed_seq).zs
    routes = [
        scattering_values(mixed_seq, zs),
        transfer_matrix_values(mixed_seq, zs),
        wronskian_values(mixed_seq, zs),
    ]
    for i in range(len(routes)):
        for j in range(i + 1, len(routes)):
            for left, right in zip(routes[i], routes[j]):
                assert np.max(np.abs(left - right)) <= 1e-10


def test_pairing_route_faults_instead_of_returning_nan():
    """Overflowing solutions make the pairings nan, which a size test misses."""
    seq = overflowing_sequence()
    zs = default_grid(seq, count=64).zs
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFault, match="not finite at theta"):
            wronskian_values(seq, zs)


def four_solution_pairings(seq, zs):
    """The pairing route from four whole solutions, jost_values on each
    side in each mode, paired on their first two sites."""
    fl, _ = jost_values(seq, zs, "left")
    fr, _ = jost_values(seq, zs, "right")
    gl, _ = jost_values(seq, zs, "left", at_inverse=True)
    gr, _ = jost_values(seq, zs, "right", at_inverse=True)
    a_lo = seq.limits.a_inf

    def pair(f, g):
        return a_lo * (f[:, 0] * g[:, 1] - f[:, 1] * g[:, 0])

    base = seq.limits.a_inf * wave_pair_det(zs)
    t = base / pair(fl, fr)
    l_over_t = -pair(fl, gr) / base
    r_over_t = pair(fr, gl) / base
    return t, r_over_t * t, l_over_t * t


def test_pairing_route_equals_the_four_solution_formula(random_fixtures):
    """Recursing only the left pair, and reading the right pair off its
    seeded tail, keeps the bits of pairing four whole solutions."""
    for seq in [free_sequence(), *hand_fixtures(), *random_fixtures]:
        zs = default_grid(seq, count=64).zs
        for got, want in zip(wronskian_values(seq, zs), four_solution_pairings(seq, zs)):
            assert got.tobytes() == want.tobytes()


def test_oracle_imports_nothing_from_the_modules_it_checks():
    """The two routes share no code with the extraction and the transition
    matrices they cross-check: no import from scattering or transition."""
    tree = ast.parse(Path(jacobiscatter.oracle.__file__).read_text(encoding="utf-8"))
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import name
                sources.update(alias.name for alias in node.names)
            else:
                sources.add(node.module.rsplit(".", 1)[-1])
    assert sources and not sources & {"scattering", "transition"}, sources
