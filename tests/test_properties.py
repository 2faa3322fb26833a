"""Property-based checks over randomly drawn small systems.

Supports are kept short (at most eight sites) so solution growth stays
mild, and most draws meet the absolute bounds with room to spare.  Not
every draw does: next to z = 1 the transition matrix's entries can reach
a few hundred, and the determinant's absolute gap is then the rounding
of terms near 2e5 to 3e5.  Five such draws, each found once by
Hypothesis, are pinned below on the gap scaled to those terms.  The
wide-window behavior is covered by the seeded acceptance family instead.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from jacobiscatter import (
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    Limits,
    coefficient_at,
    determinant_residuals,
    equation_residual,
    factorization_residuals,
    fragment,
    identity_sweep,
    sample_circle,
    scattering_values,
    transition_entries,
    wave_pair_det,
)

# print_blob: CI keeps no example database, so a failure is replayed
# from the @reproduce_failure line that the log then carries
COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow], print_blob=True)

reals = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def sequences(draw):
    length = draw(st.integers(1, 8))
    n_min = draw(st.integers(-6, 6))
    a_inf = draw(st.floats(0.6, 1.6))
    b_inf = draw(st.floats(-0.6, 0.6))
    w_inf = draw(st.floats(0.6, 1.6))
    unit = st.lists(reals, min_size=length, max_size=length)
    a = a_inf * (1.0 + 0.45 * np.asarray(draw(unit)))
    b = b_inf + np.asarray(draw(unit)) * min(1.5, 1.4 / length)
    w = w_inf * (1.0 + 0.45 * np.asarray(draw(unit)))
    return CoefficientSequence(
        Limits(a_inf, b_inf, w_inf), IndexWindow(n_min, n_min + length - 1), a, b, w
    )


@st.composite
def circle_points(draw):
    """A point on the unit circle away from the degenerate pair."""
    theta = draw(st.floats(0.05, math.pi - 0.05))
    if draw(st.booleans()):
        theta = -theta
    return cmath.exp(1j * theta)


@settings(max_examples=50, **COMMON)
@given(sequences(), circle_points())
def test_solutions_satisfy_the_equation(seq, z):
    assert equation_residual(seq, [z], "left")[0] <= 1e-11
    assert equation_residual(seq, [z], "right")[0] <= 1e-11


@settings(max_examples=40, **COMMON)
@given(sequences(), circle_points())
def test_wronskian_pairing_is_constant(seq, z):
    assert identity_sweep(seq, [z])["wronskian_constancy"] <= 1e-10


@settings(max_examples=40, **COMMON)
@given(sequences(), circle_points())
def test_scattering_is_unitary(seq, z):
    t, r, l = scattering_values(seq, np.array([z]))
    assert abs(abs(t[0]) ** 2 + abs(r[0]) ** 2 - 1.0) <= 1e-10
    assert abs(abs(t[0]) ** 2 + abs(l[0]) ** 2 - 1.0) <= 1e-10


@settings(max_examples=40, **COMMON)
@given(sequences(), circle_points())
def test_transition_determinant_is_one(seq, z):
    res = determinant_residuals(seq, np.array([z]))
    assert float(res[0]) <= 1e-10


RECORDED_DETERMINANT_DRAWS = (
    # absolute gap 1.21e-10; scaled, 3.1e-16
    (
        CoefficientSequence(
            Limits(1.0, 0.5, 1.0),
            IndexWindow(0, 5),
            [1.0, 1.0, 1.0, 0.55, 0.55, 1.0],
            [0.5] * 6,
            [1.0, 1.45, 1.0, 1.0, 1.0, 1.45],
        ),
        0.9980475107000991 + 0.0624593178423802j,
    ),
    # absolute gap 1.18e-10; scaled, 4.1e-16
    (
        CoefficientSequence(
            Limits(1.125, 0.0, 1.0),
            IndexWindow(0, 7),
            [1.63125, *[1.125] * 5, 0.61875, 0.61875],
            [0.0] * 8,
            [*[1.0] * 7, 1.45],
        ),
        0.99871090937857 + 0.05075942757980711j,
    ),
    # absolute gap 1.43e-10; scaled, 2.8e-16; 1/|T| = 503
    (
        CoefficientSequence(
            Limits(1.0, 0.0, 1.0),
            IndexWindow(0, 5),
            [1.0, 0.55, 1.0, 0.55, 0.55, 1.0],
            [0.0] * 6,
            [*[1.0] * 5, 1.45],
        ),
        0.9980475107000991 + 0.0624593178423802j,
    ),
    # absolute gap 1.22e-10; scaled, 4.5e-16; 1/|T| = 367
    (
        CoefficientSequence(
            Limits(0.6, 0.0, 1.0),
            IndexWindow(0, 5),
            [0.33, 0.6, 0.6, 0.33, 0.6, 0.33],
            [0.0] * 6,
            [1.0] * 6,
        ),
        0.9987502603949663 + 0.04997916927067833j,
    ),
    # absolute gap 1.47e-10; scaled, 4.6e-16; 1/|T| = 400
    (
        CoefficientSequence(
            Limits(1.0, 0.0, 1.0),
            IndexWindow(0, 4),
            [0.55, 0.55, 1.0, 1.0, 0.55],
            [0.0] * 5,
            [1.0, 1.0, 1.0, 1.45, 1.45],
        ),
        0.992197667229329 + 0.12467473338522769j,
    ),
)


def test_recorded_determinant_draw_is_rounding_of_its_terms():
    """Draws of sequences() whose absolute gaps, 1.21e-10, 1.18e-10,
    1.43e-10, 1.22e-10 and 1.47e-10, fail the bound of
    test_transition_determinant_is_one.  Their entries are a few hundred,
    so the determinant's terms are 2e5 to 3e5; scaled to |L00 L11| +
    |L01 L10| the gaps are 3.1e-16, 4.1e-16, 2.8e-16, 4.5e-16 and 4.6e-16,
    rounding errors."""
    for seq, z in RECORDED_DETERMINANT_DRAWS:
        lam = transition_entries(seq, np.array([z]))[0]
        det = lam[0, 0] * lam[1, 1] - lam[0, 1] * lam[1, 0]
        scale = abs(lam[0, 0] * lam[1, 1]) + abs(lam[0, 1] * lam[1, 0])
        assert abs(det - 1.0) / scale <= 1e-14, seq


@settings(max_examples=30, **COMMON)
@given(sequences(), circle_points(), st.integers(-8, 8))
def test_fragment_product_reproduces_the_whole(seq, z, raw_break):
    res = factorization_residuals(seq, Fragmentation((raw_break,)), np.array([z]))
    assert float(res[0]) <= 1e-9


@settings(max_examples=50, **COMMON)
@given(sequences(), st.lists(st.integers(-9, 9), min_size=1, max_size=3, unique=True))
def test_fragments_partition_every_site(seq, raw_breaks):
    frag = Fragmentation(tuple(sorted(raw_breaks)))
    parts = fragment(seq, frag)
    lim = seq.limits
    for n in range(seq.window.n_min - 1, seq.window.n_max + 2):
        whole = coefficient_at(seq, n)
        held = [p for p in parts if coefficient_at(p, n) != (lim.a_inf, lim.b_inf, lim.w_inf)]
        assert len(held) <= 1
        for part in parts:
            got = coefficient_at(part, n)
            assert got == whole or got == (lim.a_inf, lim.b_inf, lim.w_inf)
    # deviations land in exactly the slab the breakpoints dictate
    bounds = (-math.inf,) + frag.breakpoints + (math.inf,)
    for j, part in enumerate(parts):
        for n in range(seq.window.n_min, seq.window.n_max + 1):
            if coefficient_at(part, n) != coefficient_at(seq, n):
                assert not bounds[j] < n <= bounds[j + 1]


@settings(max_examples=50, **COMMON)
@given(st.integers(1, 200), st.floats(1e-6, 0.5))
def test_grids_respect_count_and_exclusion(count, delta):
    grid = sample_circle(Limits(1.0, 0.0, 1.0), count, delta)
    zs = grid.zs
    assert len(grid) == count
    assert np.all(np.abs(np.abs(zs) - 1.0) <= 1e-14)
    assert np.min(np.abs(zs - 1.0)) >= delta * (1.0 - 1e-9)
    assert np.min(np.abs(zs + 1.0)) >= delta * (1.0 - 1e-9)
    if count % 4 == 0:
        assert grid.thetas[count // 4] == -0.5 * math.pi
        assert grid.thetas[3 * count // 4] == 0.5 * math.pi


@settings(max_examples=60, **COMMON)
@given(st.floats(1e-8, math.pi - 1e-8))
def test_wave_pair_det_stays_fully_accurate(theta):
    z = cmath.exp(1j * theta)
    got = complex(wave_pair_det(np.array([z]))[0])
    re, im = Fraction(z.real), Fraction(z.imag)
    denom = re * re + im * im
    ex_re, ex_im = re / denom - re, -im / denom - im
    err = math.hypot(float(Fraction(got.real) - ex_re), float(Fraction(got.imag) - ex_im))
    assert err <= 5e-15 * math.hypot(float(ex_re), float(ex_im))
