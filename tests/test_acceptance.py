"""Acceptance battery: one test and one printed pass/fail line per criterion.

Bounds and time budgets are asserted, not only displayed.  The random
family here is the seeded 50-fixture set from conftest; supports reach 40
sites and all coefficients stay within the documented envelope of the
limits (deviations well inside +-2, positive weights, nonzero couplings).
"""

import json
import subprocess
import sys
import time

import numpy as np

from jacobiscatter import (
    Fragmentation,
    determinant_residuals,
    extract_scattering,
    factorization_residuals,
    fragment,
    identity_sweep,
    junction_residual_sweep,
    sample_circle,
    scattering_values,
    transfer_matrix_scattering,
    transfer_matrix_values,
    transition_entries,
    wronskian_values,
)
from conftest import (
    RANDOM_SEED,
    coupling_step_sequence,
    default_grid,
    free_sequence,
    mixed_sequence,
    random_breakpoints,
    single_site_sequence,
)


def _line(num, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"\n[{tag}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_free_system_identity():
    free = free_sequence()
    start = time.perf_counter()
    grid = sample_circle(free.limits, 512, 1e-3)
    t, r, l = scattering_values(free, grid.zs)
    worst = max(
        float(np.max(np.abs(t - 1.0))),
        float(np.max(np.abs(r))),
        float(np.max(np.abs(l))),
        float(np.max(np.abs(transition_entries(free, grid.zs) - np.eye(2)))),
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 0.1
    _line(1, "free system scatters nothing", ok,
          f"max deviation {worst:.2e} <= 1e-12, {elapsed * 1e3:.1f} ms < 100 ms")


def test_criterion_2_single_impurity_closed_form():
    """Re-derives the closed form by hand recursion before trusting anyone.

    Two recursion steps on each side of the impurity produce exact tail
    values; a 2x2 solve turns them into (1/T, L/T) and (1/T, R/T).
    """
    z = 1j
    s = z + 1.0 / z

    def solve2(m00, m01, m10, m11, r0, r1):
        det = m00 * m11 - m01 * m10
        return (r0 * m11 - r1 * m01) / det, (m00 * r1 - m10 * r0) / det

    # left solution: f(0)=1, f(1)=z exactly; step down through the site
    f_m1 = (s - 0.5) * 1.0 - z
    f_m2 = s * f_m1 - 1.0
    inv_t_left, l_ratio = solve2(z**-1, z, z**-2, z**2, f_m1, f_m2)
    # right solution: f(-1)=z, f(-2)=z^2 exactly; step up through the site
    f_0 = s * z - z**2
    f_1 = (s - 0.5) * f_0 - z
    f_2 = s * f_1 - f_0
    inv_t_right, r_ratio = solve2(z**-1, z, z**-2, z**2, f_1, f_2)

    t_hand = 1.0 / inv_t_left
    l_hand = l_ratio * t_hand
    r_hand = r_ratio * t_hand
    want_t = (4 + 1j) / 4.25
    hand_ok = (
        abs(inv_t_left - inv_t_right) <= 1e-14
        and abs(t_hand - want_t) <= 1e-12
        and abs(l_hand - 0.25j * want_t) <= 1e-12
        and abs(r_hand - 0.25j * want_t) <= 1e-12
    )

    seq = single_site_sequence()
    sd = extract_scattering(seq, z)
    oracle = transfer_matrix_scattering(seq, z)
    worst = max(
        abs(sd.T - t_hand), abs(sd.L - l_hand), abs(sd.R - r_hand),
        abs(oracle.T - t_hand), abs(oracle.L - l_hand), abs(oracle.R - r_hand),
    )
    ok = hand_ok and worst <= 1e-10
    _line(2, "single-site closed form at z=i", ok,
          f"hand recursion confirmed, library and oracle within {worst:.2e} <= 1e-10")


def test_criterion_3_identity_suite(random_fixtures):
    start = time.perf_counter()
    worst = 0.0
    for seq in random_fixtures:
        sweep = identity_sweep(seq, default_grid(seq).zs)
        worst = max(worst, max(sweep.values()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _line(3, "scattering identities on 50 random fixtures", ok,
          f"max residual {worst:.2e} <= 1e-9, {elapsed:.2f} s < 10 s")


def test_criterion_4_factorization(random_fixtures):
    rng = np.random.default_rng(RANDOM_SEED + 1)
    start = time.perf_counter()
    worst = 0.0
    for seq in random_fixtures:
        frag = random_breakpoints(rng, seq)
        res = factorization_residuals(seq, frag, default_grid(seq).zs)
        worst = max(worst, float(np.max(res)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 20.0
    _line(4, "fragment products over random fragmentations", ok,
          f"max entry gap {worst:.2e} <= 1e-9, {elapsed:.2f} s < 20 s")


def test_criterion_5_junction_propositions(random_fixtures):
    rng = np.random.default_rng(RANDOM_SEED + 2)
    cases = [(coupling_step_sequence(), 0)]
    for seq in random_fixtures[:10]:
        n1 = int(rng.integers(seq.window.n_min - 1, seq.window.n_max + 2))
        cases.append((seq, n1))
    worst = 0.0
    for seq, n1 in cases:
        frag = Fragmentation((n1,))
        zs = default_grid(seq, count=64).zs
        worst = max(worst, max(junction_residual_sweep(seq, frag, zs).values()))
        worst = max(worst, max(junction_residual_sweep(seq, frag, zs[17:18]).values()))
    ok = worst <= 1e-9
    _line(5, "junction expansions incl. coupling-step fixture", ok,
          f"max residual {worst:.2e} <= 1e-9 over {len(cases)} cases")


def test_criterion_6_oracle_triangle(random_fixtures):
    worst = 0.0
    for seq in random_fixtures:
        zs = default_grid(seq).zs
        routes = [
            scattering_values(seq, zs),
            transfer_matrix_values(seq, zs),
            wronskian_values(seq, zs),
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                for left, right in zip(routes[i], routes[j]):
                    worst = max(worst, float(np.max(np.abs(left - right))))
    ok = worst <= 1e-10
    _line(6, "three extraction routes agree pairwise", ok,
          f"max pairwise gap {worst:.2e} <= 1e-10")


def test_criterion_7_structural_invariants(random_fixtures):
    worst_det = worst_wronskian = worst_unitarity = 0.0
    for seq in random_fixtures:
        grid = default_grid(seq)
        worst_det = max(worst_det, float(np.max(determinant_residuals(seq, grid.zs))))
        t, r, l = scattering_values(seq, grid.zs)
        worst_unitarity = max(
            worst_unitarity,
            float(np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0))),
            float(np.max(np.abs(np.abs(t) ** 2 + np.abs(l) ** 2 - 1.0))),
        )
        for z in grid.zs[::100]:
            row = identity_sweep(seq, [z])["wronskian_constancy"]
            worst_wronskian = max(worst_wronskian, row)
    ok = max(worst_det, worst_wronskian, worst_unitarity) <= 1e-10
    _line(7, "determinant, pairing constancy, unitarity", ok,
          f"det {worst_det:.2e}, pairing drift {worst_wronskian:.2e}, "
          f"unitarity {worst_unitarity:.2e}, all <= 1e-10")


def test_criterion_8_nested_fragmentation(random_fixtures):
    rng = np.random.default_rng(RANDOM_SEED + 3)
    cases = [mixed_sequence()] + list(random_fixtures[:5])
    worst = 0.0
    structural = True
    for seq in cases:
        lo, hi = seq.window.n_min - 1, seq.window.n_max + 1
        p = int(rng.integers(lo, hi))
        q = int(rng.integers(p + 1, hi + 1))
        direct = fragment(seq, Fragmentation((p, q)))
        outer = fragment(seq, Fragmentation((p,)))
        inner = fragment(outer[1], Fragmentation((q,)))
        stepwise = [outer[0], inner[0], inner[1]]
        for one, two in zip(direct, stepwise):
            structural = structural and (
                np.array_equal(one.a_values, two.a_values)
                and np.array_equal(one.b_values, two.b_values)
                and np.array_equal(one.w_values, two.w_values)
            )
        zs = default_grid(seq, count=64).zs
        whole = transition_entries(seq, zs)
        product = transition_entries(stepwise[0], zs)
        for part in stepwise[1:]:
            product = product @ transition_entries(part, zs)
        worst = max(worst, float(np.max(np.abs(product - whole))))
    ok = structural and worst <= 1e-10
    _line(8, "nested two-way refinement equals direct three-way", ok,
          f"fragments bitwise equal: {structural}, product gap {worst:.2e} <= 1e-10")


def test_criterion_9_cli_contract(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "jacobiscatter", *args],
            capture_output=True, text=True, timeout=120,
        )

    seq_path = tmp_path / "single.json"
    seq_path.write_text(json.dumps({
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
        "n_min": 0, "n_max": 0, "a": [1.0], "b": [0.5], "w": [1.0],
    }))
    two_path = tmp_path / "two.json"
    two_path.write_text(json.dumps({
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
        "n_min": -1, "n_max": 1, "a": [1.0, 1.0, 1.0],
        "b": [0.3, 0.0, -0.4], "w": [1.0, 1.0, 1.0],
    }))

    passing = run("identities", "--input", str(seq_path))
    tolerance_fail = run(
        "factorize", "--input", str(two_path), "--grid", "32",
        "--breakpoints", "0", "--corrupt-fragment-padding",
    )
    input_fail = run("scatter", "--input", str(tmp_path / "nope.json"))
    numeric_fail = run("identities", "--input", str(seq_path), "--delta", "1e-12")
    first = run("scatter", "--input", str(seq_path), "--grid", "64")
    second = run("scatter", "--input", str(seq_path), "--grid", "64")

    codes = (
        passing.returncode,
        tolerance_fail.returncode,
        input_fail.returncode,
        numeric_fail.returncode,
    )
    deterministic = (
        first.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith("theta,lambda")
    )
    ok = codes == (0, 1, 2, 3) and deterministic
    _line(9, "CLI exit codes and determinism", ok,
          f"exit codes {codes} == (0, 1, 2, 3), byte-identical reruns: {deterministic}")
