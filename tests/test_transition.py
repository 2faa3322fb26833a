import cmath

import numpy as np
import pytest

from jacobiscatter import (
    Fragmentation,
    Limits,
    NumericalFault,
    determinant_residuals,
    extract_scattering,
    factorization_check,
    factorization_residuals,
    fragment,
    identity_sweep,
    junction_residual_sweep,
    transition_entries,
    transition_for,
)
from jacobiscatter import transition
from conftest import default_grid, make_sequence, random_breakpoints, random_sequence

IDENT = np.eye(2, dtype=complex)


def test_free_transition_is_identity(free_seq):
    z = cmath.exp(0.8j)
    assert np.max(np.abs(transition_for(free_seq, z) - IDENT)) <= 1e-13
    assert determinant_residuals(free_seq, [z])[0] <= 1e-13


def test_entries_carry_the_scattering_ratios(single_site_seq):
    z = 1j
    sd = extract_scattering(single_site_seq, z)
    tr = transition_for(single_site_seq, z)
    assert abs(tr[0, 0] - 1.0 / sd.T) <= 1e-12
    assert abs(tr[0, 1] + sd.R / sd.T) <= 1e-12
    assert abs(tr[1, 0] - sd.L / sd.T) <= 1e-12


def test_corner_entry_is_conjugate_transmission(single_site_seq, mixed_seq):
    """Entry (1,1) holds 1/T at the inverse point, which on the circle is
    the conjugate of entry (0,0) up to last-digit rounding; at z = i the
    recursion drive is exactly real and the match is bitwise."""
    for seq in (single_site_seq, mixed_seq):
        for theta in (0.9, -2.1):
            tr = transition_for(seq, cmath.exp(1j * theta))
            gap = abs(tr[1, 1] - tr[0, 0].conjugate())
            assert gap <= 5e-15 * abs(tr[0, 0])
        tr = transition_for(seq, 1j)
        assert tr[1, 1] == tr[0, 0].conjugate()


def test_determinant_is_one_across_grids(single_site_seq, mixed_seq, two_impurity_seq):
    for seq in (single_site_seq, mixed_seq, two_impurity_seq):
        res = determinant_residuals(seq, default_grid(seq).zs)
        assert float(np.max(res)) <= 1e-10


def test_free_factorization_is_exact(free_seq):
    report = factorization_check(free_seq, Fragmentation((3, 7)), cmath.exp(1.2j))
    assert report.fragment_count == 3
    assert report.residual <= 1e-13
    assert report.passed


def test_two_impurity_factorization_grid(two_impurity_seq):
    zs = default_grid(two_impurity_seq).zs
    res = factorization_residuals(two_impurity_seq, Fragmentation((0,)), zs)
    assert float(np.max(res)) <= 1e-10


def test_factorization_report_fields(two_impurity_seq):
    report = factorization_check(two_impurity_seq, Fragmentation((0,)), 1j, tol=1e-9)
    assert report.z == 1j
    assert report.tolerance == 1e-9
    assert report.passed and report.residual <= 1e-10
    assert report.product.shape == (2, 2)
    assert np.max(np.abs(report.whole - report.product)) == report.residual


def test_factorization_many_fragments_random_support():
    rng = np.random.default_rng(404)
    seq = random_sequence(rng)
    while seq.window.length < 20:
        seq = random_sequence(rng)
    frag = Fragmentation(tuple(sorted(rng.choice(
        np.arange(seq.window.n_min, seq.window.n_max), size=4, replace=False
    ).tolist())))
    res = factorization_residuals(seq, frag, default_grid(seq).zs)
    assert float(np.max(res)) <= 1e-9


def test_nested_refinement_matches_direct_three_way(mixed_seq):
    """Splitting at p and then splitting the tail at q produces the same
    fragments, bit for bit, as splitting at (p, q) in one step."""
    p, q = 0, 1
    direct = fragment(mixed_seq, Fragmentation((p, q)))
    outer = fragment(mixed_seq, Fragmentation((p,)))
    inner = fragment(outer[1], Fragmentation((q,)))
    stepwise = [outer[0], inner[0], inner[1]]
    for one, two in zip(direct, stepwise):
        assert np.array_equal(one.a_values, two.a_values)
        assert np.array_equal(one.b_values, two.b_values)
        assert np.array_equal(one.w_values, two.w_values)
    zs = default_grid(mixed_seq, count=64).zs
    whole = transition_entries(mixed_seq, zs)
    product = transition_entries(stepwise[0], zs)
    for part in stepwise[1:]:
        product = product @ transition_entries(part, zs)
    assert float(np.max(np.abs(product - whole))) <= 1e-10


def test_corrupted_padding_detaches_the_product(mixed_seq):
    """Negative control: breaking one padded value must break the product."""
    frag = Fragmentation((0,))
    zs = default_grid(mixed_seq, count=16).zs
    parts = fragment(mixed_seq, frag)
    broken = make_sequence(
        parts[0].window.n_min,
        parts[0].a_values,
        np.where(parts[0].window.indices() == 2, 0.25, parts[0].b_values),
        parts[0].w_values,
        limits=parts[0].limits,
    )
    good = factorization_residuals(mixed_seq, frag, zs)
    bad = factorization_residuals(mixed_seq, frag, zs, parts=[broken, parts[1]])
    assert float(np.max(good)) <= 1e-10
    assert float(np.max(bad)) > 1e-3


def test_part_with_other_limits_is_fitted_on_its_own(mixed_seq):
    """A part whose limits differ from the whole's is still fitted, as its own matrix."""
    frag = Fragmentation((0,))
    zs = default_grid(mixed_seq, count=16).zs
    parts = fragment(mixed_seq, frag)
    lim = parts[0].limits
    shifted = make_sequence(
        parts[0].window.n_min,
        parts[0].a_values,
        parts[0].b_values,
        parts[0].w_values,
        limits=Limits(lim.a_inf, lim.b_inf, 2.0 * lim.w_inf),
    )
    controls = [shifted, parts[1]]
    gap = factorization_residuals(mixed_seq, frag, zs, parts=controls)
    product = transition_entries(shifted, zs) @ transition_entries(parts[1], zs)
    whole = transition_entries(mixed_seq, zs)
    np.testing.assert_array_equal(gap, np.max(np.abs(product - whole), axis=(-2, -1)))
    assert float(np.max(gap)) > 1e-3


def test_empty_parts_is_a_value_error(mixed_seq):
    """An empty parts list is rejected on entry, not left to leak a
    StopIteration that would silently end a map it runs under."""
    frag = Fragmentation((0,))
    zs = default_grid(mixed_seq, count=8).zs
    with pytest.raises(ValueError, match="at least one"):
        factorization_residuals(mixed_seq, frag, zs, parts=[])
    lists = [fragment(mixed_seq, frag), [], fragment(mixed_seq, frag)]
    with pytest.raises(ValueError, match="at least one"):
        list(map(lambda parts: factorization_residuals(mixed_seq, frag, zs, parts), lists))


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
def test_factorization_check_rejects_a_tolerance_not_positive_and_finite(tol, mixed_seq):
    with pytest.raises(ValueError, match="positive and finite"):
        factorization_check(mixed_seq, Fragmentation((0,)), 1j, tol=tol)


def test_right_expansion_recovers_whole_ratios(coupling_step_seq, mixed_seq):
    for seq, n1 in ((coupling_step_seq, 0), (mixed_seq, 0)):
        sweep = junction_residual_sweep(seq, Fragmentation((n1,)), [1j])
        assert sweep["right_junction"] <= 1e-10


def test_left_expansion_recovers_whole_ratios(coupling_step_seq, mixed_seq):
    for seq, n1 in ((coupling_step_seq, 0), (mixed_seq, 1)):
        sweep = junction_residual_sweep(seq, Fragmentation((n1,)), [1j])
        assert sweep["left_junction"] <= 1e-10


def test_junction_scaling_sees_the_coupling_ratio(coupling_step_seq):
    # the breakpoint sits directly under a(1) = 2, so the a_inf / a(n1+1)
    # factor of one half is genuinely exercised; the bound on both
    # scalings holds the whole left-junction key
    sweep = junction_residual_sweep(coupling_step_seq, Fragmentation((0,)), [cmath.exp(0.9j)])
    assert sweep["left_junction"] <= 1e-12


def test_plane_wave_tails_at_junction(coupling_step_seq, two_impurity_seq):
    for seq in (coupling_step_seq, two_impurity_seq):
        sweep = junction_residual_sweep(seq, Fragmentation((0,)), [1j])
        assert sweep["plane_waves"] <= 1e-10


def test_factor_rearrangement_algebra(two_impurity_seq):
    sweep = junction_residual_sweep(two_impurity_seq, Fragmentation((0,)), [1j])
    assert sweep["factor_algebra"] <= 1e-10
    # the bound on the unit determinant holds the whole key
    assert sweep["factor_algebra"] <= 1e-12


def test_dependent_junction_pair_is_a_fault_naming_theta(monkeypatch, two_impurity_seq):
    """Zero solutions make every junction fit singular; the sweep raises."""
    recurse = transition._recurse

    def zeros(*args, **kwargs):
        for n, rows in recurse(*args, **kwargs):
            yield n, 0.0 * rows

    monkeypatch.setattr(transition, "_recurse", zeros)
    zs = default_grid(two_impurity_seq, count=8).zs
    theta = float(np.angle(zs[0]))
    with pytest.raises(NumericalFault, match=f"dependent at theta = {theta:.6g}$"):
        junction_residual_sweep(two_impurity_seq, Fragmentation((0,)), zs)


def test_sweeps_raise_where_a_residual_is_not_finite():
    """A coupling of 1e-160 puts 1/|T| near 1e160: the tail fits stay
    finite, but 1/(T T~) and the junction fits overflow.  Both public
    sweeps raise, naming the first such row and theta, instead of
    returning nan."""
    seq = make_sequence(-1, [1.0, 1e-160, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    zs = default_grid(seq, count=64).zs
    where = f" residual is not finite at theta = {float(np.angle(zs[0])):.6g}$"
    with pytest.raises(NumericalFault, match="^product_left" + where):
        identity_sweep(seq, zs)
    with pytest.raises(NumericalFault, match="^left_junction" + where):
        junction_residual_sweep(seq, Fragmentation((1,)), zs)


def test_junction_sweep_over_grid(coupling_step_seq, mixed_seq):
    for seq in (coupling_step_seq, mixed_seq):
        sweep = junction_residual_sweep(seq, Fragmentation((0,)), default_grid(seq, count=64).zs)
        assert set(sweep) == {"right_junction", "left_junction", "plane_waves", "factor_algebra"}
        assert max(sweep.values()) <= 1e-9


def test_random_breakpoint_sweeps():
    rng = np.random.default_rng(11)
    for _ in range(3):
        seq = random_sequence(rng)
        frag = random_breakpoints(rng, seq, max_count=1)
        zs = default_grid(seq, count=64).zs
        assert float(np.max(factorization_residuals(seq, frag, zs))) <= 1e-9
        assert max(junction_residual_sweep(seq, frag, zs).values()) <= 1e-9
