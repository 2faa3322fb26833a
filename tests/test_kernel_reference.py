"""The real-view kernel, the shared whole-sequence matrix and rows are exact.

The recursion kernels, the stored recursion and the tail-fit sweep, run
every real scaling on the float64 view of their complex rows and divide
by a coupling as a multiply by its reciprocal.
The identities report computes the whole sequence's transition matrix
once and reads its determinant, factorization and junction rows from it.
The junction sweep recurses only the whole sequence and reads every
junction's fragments off its rows.  All are pure reorganizations, so
these tests hold them to the bit: the kernel against the plain
complex-row recursion kept below, the report against separate calls to
the public residual functions, and the junction rows against the
whole's and the right fragments' reference recursions kept below as
reference_junction_sweep.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from jacobiscatter import (
    Fragmentation,
    determinant_residuals,
    factorization_residuals,
    identity_sweep,
    junction_residual_sweep,
)
from jacobiscatter import cli, jost, scattering, transition
from jacobiscatter.errors import NumericalFault
from jacobiscatter.jost import _fit_sweep, _recurse, solution_range
from jacobiscatter.lattice import (
    MAX_WINDOW_SITES,
    Limits,
    coefficient_arrays,
    coefficient_at,
    effective_support,
    fragment,
)
from jacobiscatter.scattering import _coefficients, _fit_exponents, _tail_fit
from jacobiscatter.spectral import _power_table, wave_pair_det
from conftest import (
    default_grid,
    hand_fixtures,
    make_sequence,
    mixed_sequence,
    overflowing_sequence,
    two_impurity_sequence,
)

MODES = ((False,), (True,), (True, False, True))


def grid_tail_fit(zs, left, right, window, sign):
    """_tail_fit on the sites two past window over the grid zs."""
    powers = _power_table(zs, sign * np.array(_fit_exponents(window)))
    return _tail_fit(zs, wave_pair_det(zs), powers, range(8), left, right, sign)


def sweep_rows(seq, jobs, zs, modes):
    """_fit_sweep's (left, right) rows per job, read from its stacks."""
    ends = np.concatenate(_fit_sweep(seq, jobs, zs, modes), axis=1)
    assert ends.shape == (4, len(jobs), len(modes) * zs.size)
    return [(ends[:2, j], ends[2:, j]) for j in range(len(jobs))]


def reference_recurse(seq, window, lo, hi, zs, side, modes, store):
    """The recursion on complex rows throughout, dividing by the coupling."""
    m = zs.size
    a, b, w = (values.tolist() for values in coefficient_arrays(seq, lo, hi + 1))
    lim = seq.limits
    n_min, n_max = window.n_min, window.n_max
    count = hi - lo + 1 if store else 3
    rows = np.empty((count, len(modes) * m), dtype=complex)
    s = np.tile(lim.a_inf * (zs + 1.0 / zs) + lim.b_inf, len(modes))
    if side == "left":
        tail = np.arange(n_max, hi + 1 if store else n_max + 2)
        powers = tail
    else:
        tail = np.arange(lo, n_min)
        powers = -tail
    for j, inverse in enumerate(modes):
        sign = -1 if inverse else 1
        rows[(tail - lo) % count, j * m : (j + 1) * m] = (
            zs[:, None] ** (sign * powers[None, :])
        ).T
    scratch = np.empty_like(s)
    if side == "left":
        for k in range(n_max - lo, 0, -1):
            v, out = rows[k % count], rows[(k - 1) % count]
            np.multiply(np.multiply(w[k] / lim.w_inf, s), v, out=out)
            np.multiply(a[k + 1], rows[(k + 1) % count], out=scratch)
            np.subtract(out, scratch, out=out)
            np.multiply(b[k], v, out=scratch)
            np.subtract(out, scratch, out=out)
            np.divide(out, a[k], out=out)
        last = 0
    else:
        for k in range(n_min - 1 - lo, hi - lo):
            v, out = rows[k % count], rows[(k + 1) % count]
            np.multiply(np.multiply(w[k] / lim.w_inf, s), v, out=out)
            np.multiply(b[k], v, out=scratch)
            np.subtract(out, scratch, out=out)
            np.multiply(a[k], rows[(k - 1) % count], out=scratch)
            np.subtract(out, scratch, out=out)
            np.divide(out, a[k + 1], out=out)
        last = hi - lo - 1
    if store:
        return rows
    return rows[[last % count, (last + 1) % count]]


def streamed(seq, lo, hi, zs, side, modes, block=jost._BLOCK_SITES):
    """The rows over [lo, hi] that _recurse hands out, put together.

    The blocks must come in the recursion's order, from hi down on the
    left side and from lo up on the right, and tile [lo, hi] in blocks of
    block sites counted from where the recursion ends, so that only the
    first block handed out is short.
    """
    rows = np.empty((hi - lo + 1, len(modes) * zs.size), dtype=complex)
    spans = []
    columns = tuple((zs, inverse) for inverse in modes)
    for n, part in _recurse(seq, lo, hi, columns, side, block=block):
        rows[n - lo : n - lo + len(part)] = part
        spans.append((n, n + len(part)))
    assert spans[-1][1] - spans[-1][0] == min(block, hi - lo + 1)
    end = lo if side == "left" else hi + 1
    if side == "left":
        spans.reverse()
    assert spans[0][0] == lo and spans[-1][1] == hi + 1
    assert all(stop == n for (_, stop), (n, _) in zip(spans, spans[1:]))
    assert all((n - end) % block == 0 for n, _ in spans[1:])
    assert all(stop - n <= block for n, stop in spans)
    return rows


def kernel_pairs(seq, zs):
    """The kernels and the reference on every side, row mode and mode set.

    The stored recursion gives every row, put together from its blocks,
    the tail-fit sweep the last two of each side.
    """
    window = seq.window
    lo, hi = window.n_min - 4, window.n_max + 3
    for side in ("left", "right"):
        for modes in MODES:
            yield (
                streamed(seq, lo, hi, zs, side, modes),
                reference_recurse(seq, window, lo, hi, zs, side, modes, True),
            )
    lo, hi = window.n_min - 2, window.n_max + 2
    for modes in MODES:
        rows = sweep_rows(seq, [(seq, window)], zs, modes)[0]
        for got, side in zip(rows, ("left", "right")):
            yield got, reference_recurse(seq, window, lo, hi, zs, side, modes, False)


def test_real_view_kernel_equals_complex_rows(random_fixtures):
    """One grid serves sequences of different limits, each computing its
    own drive over it."""
    seqs = hand_fixtures() + random_fixtures[:6]
    zs = default_grid(seqs[0], count=64).zs
    for seq in seqs:
        # the grid's points do not depend on the limits
        assert default_grid(seq, count=64).zs.tobytes() == zs.tobytes()
        for got, want in kernel_pairs(seq, zs):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert len({(lim.a_inf, lim.b_inf) for lim in (seq.limits for seq in seqs)}) > 1


def test_real_view_kernel_keeps_the_non_finite_entries():
    """Past overflow the two routes may differ in a part of an entry that
    is already inf or nan, never in which entries are finite."""
    seq = overflowing_sequence()
    zs = default_grid(seq, count=16).zs
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = list(kernel_pairs(seq, zs))
    assert not all(np.all(np.isfinite(want)) for _, want in pairs)
    for got, want in pairs:
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == want[finite].tobytes()


def block_edge_jobs():
    """A 2,149-site sequence and its fragments at breakpoints that start or
    finish a recursion of _fit_sweep on each side of its steps N = 1024
    and 2N, deep into the sweep's one operand table.

    Neither 1 / a_inf = 1 / 0.7 nor w(n) / w_inf = 1/3 is exact, and the
    deviations cycle through -0.0 and subnormal b and negative couplings.
    With the window from 0 and base = -1, the right side's step t is at
    site t - 1 and the left side's at site 2N + 100 - t, so step N or 2N
    falls at sites N - 1 and N + 100, or 2N - 1 and 100.
    """
    n = 1024
    top = 2 * n + 100
    points = (100, 101, n - 3, n - 1, n + 100, n + 101, 2 * n - 3, 2 * n - 1)
    sites = sorted({0, top, *points, *(p + 1 for p in points)})
    a, b, w = np.full(top + 1, 0.7), np.zeros(top + 1), np.full(top + 1, 3.0)
    b_odd = (-0.0, 5e-324, 0.3, -2.2250738585072014e-309, 1e-310, -0.25)
    for j, site in enumerate(sites):
        a[site] = (-0.7, 1.1, 0.7, -0.9)[j % 4]
        b[site] = b_odd[j % 6]
        w[site] = (1.0, 4.5, 3.0)[j % 3]
    seq = make_sequence(0, a, b, w, Limits(0.7, 0.0, 3.0))
    jobs = [(seq, seq.window)]
    for point in points:
        for part in fragment(seq, Fragmentation((point,))):
            jobs.append((part, effective_support(part)))
    return seq, jobs


@pytest.mark.filterwarnings("ignore::jacobiscatter.lattice.CouplingSignWarning")
@pytest.mark.parametrize("count, modes", [(1, (False,)), (8, (False, True))])
def test_fit_sweep_across_operand_table_edges_equals_complex_rows(count, modes):
    """Every job's rows equal its own plain recursion to the bit, where
    jobs join and finish at steps N - 1 and N, or 2N - 1 and 2N, of one
    sweep, and some run across them; and where the whole sequence runs
    alone, so that nothing but its ends cuts the sweep's 2,151 steps."""
    seq, jobs = block_edge_jobs()
    n, top = 1024, seq.window.n_max
    spans = {
        "right": [(window.n_min, window.n_max + 2) for _, window in jobs],
        "left": [(top - window.n_max, top + 1 - window.n_min) for _, window in jobs],
    }
    for edge in (n, 2 * n):
        for side in spans.values():
            assert edge in {first for first, _ in side}
            assert edge - 1 in {last for _, last in side}
            assert any(first < edge - 1 and last > edge for first, last in side)
    zs = default_grid(seq, count=count).zs
    rows = sweep_rows(seq, jobs, zs, modes) + sweep_rows(seq, jobs[:1], zs, modes)
    for (part, window), sides in zip(jobs + jobs[:1], rows):
        lo, hi = window.n_min - 2, window.n_max + 2
        for got, side in zip(sides, ("left", "right")):
            want = reference_recurse(part, window, lo, hi, zs, side, modes, False)
            assert np.all(np.isfinite(want))
            assert got.tobytes() == want.tobytes()


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return {row["check"]: row["max_residual"] for row in json.loads(out.getvalue())}


def identities_cases(random_fixtures):
    for seq in [mixed_sequence(), *random_fixtures[:3]]:
        n_min, n_max = seq.window.n_min, seq.window.n_max
        yield seq, (n_min,)
        yield seq, tuple(sorted({n_min - 1, (n_min + n_max) // 2, n_max, n_max + 1}))


def test_identities_rows_equal_the_separate_calls(tmp_path, random_fixtures):
    path = tmp_path / "seq.json"
    for seq, points in identities_cases(random_fixtures):
        lim = seq.limits
        spec = {
            "a_inf": lim.a_inf, "b_inf": lim.b_inf, "w_inf": lim.w_inf,
            "n_min": seq.window.n_min, "n_max": seq.window.n_max,
            "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
        }
        path.write_text(json.dumps(spec))
        argv = ["identities", "--input", str(path), "--grid", "64"]
        rows = report(argv + ["--breakpoints=" + ",".join(map(str, points))])
        zs = cli._grid_for(seq, cli.RunConfig(str(path), grid_count=64)).zs
        frag = Fragmentation(points)
        expected = {
            "transition_determinant": float(np.max(determinant_residuals(seq, zs))),
            "factorization": float(np.max(factorization_residuals(seq, frag, zs))),
            **junction_residual_sweep(seq, frag, zs),
        }
        # the identity sweep's rows lead the report, named and ordered alike
        sweep = identity_sweep(seq, zs)
        assert list(rows)[:9] == list(sweep)
        for name, value in {**sweep, **expected}.items():
            # the report prints 17 significant digits, which round-trip a float
            assert rows[name] == value, (name, points)
        assert report(argv)["transition_determinant"] == expected["transition_determinant"]


def reference_blocks(seq, zs, modes):
    """Tail-fit amplitudes of seq, one (1/T, R/T, L/T) per mode, on its
    own reference recursions over its effective support."""
    m = zs.size
    window = effective_support(seq)
    if window is None:
        return [(np.ones_like(zs), np.zeros_like(zs), np.zeros_like(zs)) for _ in modes]
    lo, hi = window.n_min - 2, window.n_max + 2
    left, right = (
        reference_recurse(seq, window, lo, hi, zs, side, modes, False)
        for side in ("left", "right")
    )
    return [
        grid_tail_fit(zs, left[:, j * m : (j + 1) * m], right[:, j * m : (j + 1) * m],
                      window, -1 if inverse else 1)
        for j, inverse in enumerate(modes)
    ]


def reference_junction_sweep(seq, points, zs, t, r, l, splits):
    """The junction sweep as it was first vectorized, given the whole T, R, L.

    Each breakpoint's right fragment, splits[j][1], recurses its solution
    pair over its whole range as one paired reference recursion; the whole
    sequence's solutions and its right companion recurse alone.  points
    lie in [n_min - 1, n_max + 1], so every range holds the sites read,
    n1 - 1 through n1 + 1.  The left fragment's right pair is the whole's
    up to n1, and at n1 + 1 the whole's divided by the coupling ratio, so
    left_junction reads the whole's rows, and plane_waves reads the
    right fragment's pair and the whole's right pair on the junction's
    site pair (n1, n1 + 1), against powers zs ** k broadcast over both
    sites.  Every row is read grid-major, through transposes.
    """
    m = zs.size
    lo_all, hi_all = solution_range(seq)
    columns = [n1 - 1 - lo_all + d for n1 in points for d in range(3)]
    fl_near, fr_near, gr_near = [
        reference_recurse(seq, seq.window, lo_all, hi_all, zs, side, modes, True).T[:, columns]
        for side, modes in (("left", (False,)), ("right", (False,)), ("right", (True,)))
    ]
    triangular = float(np.max(np.abs((r / t) * t - r)))
    lower_right = float(np.max(np.abs((1.0 / t) * t - 1.0)))

    def gap(values):
        return float(np.max(np.abs(values)))

    def fit(m00, m01, m10, m11, r0, r1):
        det = m00 * m11 - m01 * m10
        dependent = np.abs(det) < 1e-300
        if np.any(dependent):
            theta = float(np.angle(zs[int(np.argmax(dependent))]))
            raise NumericalFault(
                f"junction solution pair is numerically dependent at theta = {theta:.6g}"
            )
        return (r0 * m11 - m01 * r1) / det, (m00 * r1 - r0 * m10) / det

    def paired(part, side):
        lo, hi = solution_range(part)
        rows = reference_recurse(part, part.window, lo, hi, zs, side, (False, True), True).T
        return rows[:m], rows[m:], lo

    keys = ("right_junction", "left_junction", "plane_waves", "factor_algebra")
    found = {key: [] for key in keys}
    for j, (n1, parts) in enumerate(zip(points, splits)):
        fl2, gl2, lo = paired(parts[1], "left")
        (t1, r1, _), (t1c, r1c, _) = [
            _coefficients(*block) for block in reference_blocks(parts[0], zs, (False, True))
        ]
        (t2, _, l2), (t2c, _, l2c) = [
            _coefficients(*block) for block in reference_blocks(parts[1], zs, (False, True))
        ]
        ratio = seq.limits.a_inf / coefficient_at(seq, n1 + 1)[0]
        fl, fr, gr = (near_rows[:, 3 * j : 3 * j + 3] for near_rows in (fl_near, fr_near, gr_near))

        def col(values, n):
            return values[:, n - lo]

        def near(values, n):
            return values[:, n - n1 + 1]

        refl_fit, trans_fit = fit(
            col(fl2, n1), col(gl2, n1), col(fl2, n1 + 1), col(gl2, n1 + 1),
            near(fr, n1), near(fr, n1 + 1),
        )
        found["right_junction"].append(max(
            gap(refl_fit - r / t), gap(trans_fit - 1.0 / t),
            gap(near(fl, n1) - col(fl2, n1)), gap(near(fl, n1 + 1) - col(fl2, n1 + 1)),
        ))
        trans_fit, refl_fit = fit(
            near(gr, n1 - 1), near(fr, n1 - 1), near(gr, n1), near(fr, n1),
            near(fl, n1 - 1), near(fl, n1),
        )
        found["left_junction"].append(max(
            gap(trans_fit - 1.0 / t),
            gap(refl_fit - l / t),
            gap(near(fl, n1 + 1) - ((1.0 / t) * near(gr, n1 + 1) + (l / t) * near(fr, n1 + 1))),
        ))
        # each fragment's pair against its own plane wave on the site
        # pair, at n1 + 1 scaled by the coupling ratio
        pair = np.array([n1, n1 + 1])
        up, down = zs[:, None] ** pair[None, :], zs[:, None] ** -pair[None, :]

        def wave(c_up, c_down):
            return c_up[:, None] * up + c_down[:, None] * down

        waves = (
            (col(fl2, n1), col(fl2, n1 + 1), wave(1.0 / t2, l2 / t2)),
            (col(gl2, n1), col(gl2, n1 + 1), wave(l2c / t2c, 1.0 / t2c)),
            (near(fr, n1), near(fr, n1 + 1), wave(r1 / t1, 1.0 / t1)),
            (near(gr, n1), near(gr, n1 + 1), wave(1.0 / t1c, r1c / t1c)),
        )
        found["plane_waves"].append(max(
            max(gap(at_n1 - own[:, 0]), gap(at_next - ratio * own[:, 1]))
            for at_n1, at_next, own in waves
        ))
        unit_det = np.abs(1.0 / (t1 * t1c) - (r1 * r1c) / (t1 * t1c) - 1.0)
        exchange = np.max(np.abs(np.stack([
            (1.0 / t1c) * (1.0 / t1) + (r1 / t1) * (-r1c / t1c) - 1.0,
            (1.0 / t1c) * (-r1 / t1) + (r1 / t1) * (1.0 / t1c),
            (r1c / t1c) * (1.0 / t1) + (1.0 / t1) * (-r1c / t1c),
            (r1c / t1c) * (-r1 / t1) + (1.0 / t1) * (1.0 / t1c) - 1.0,
        ])), axis=0)
        rearranged = np.max(np.abs(np.stack([
            (1.0 / t1) * (1.0 / t2) + (-r1 / t1) * (l2 / t2) - 1.0 / t,
            (1.0 / t1) * (l2c / t2c) + (-r1 / t1) * (1.0 / t2c) - -r / t,
            (-r1c / t1c) * (1.0 / t2) + (1.0 / t1c) * (l2 / t2) - l / t,
            (-r1c / t1c) * (l2c / t2c) + (1.0 / t1c) * (1.0 / t2c) - (t - l * r / t),
        ])), axis=0)
        found["factor_algebra"].append(max(
            triangular, lower_right, float(np.max(unit_det)),
            float(np.max(exchange)), float(np.max(rearranged)),
        ))
    return {key: float(np.max(values)) for key, values in found.items()}


def edge_limit_sequence():
    """The first and last stored sites carry the limits, so the support is
    narrower than the window."""
    return make_sequence(-2, [1.0, 1.2, 0.9, 1.0], [0.0, 0.3, -0.2, 0.0], [1.0, 1.1, 1.0, 1.0])


def negative_coupling_sequence():
    return make_sequence(
        0, [-1.0, -1.3, -0.8], [0.1, -0.2, 0.4], [1.0, 1.2, 0.9], Limits(-1.0, 0.2, 1.0)
    )


def junction_cases(seq):
    n_min, n_max = seq.window.n_min, seq.window.n_max
    edges = (n_min - 50, n_min - 1, n_min, n_max, n_max + 1, n_max + 50)
    return [(n1,) for n1 in edges] + [tuple(sorted(set(edges)))]


def at_the_edge(seq, points):
    """Each breakpoint at the site the junction sweep checks it at: one
    outside [n_min - 1, n_max + 1] at the nearer end, whose fragments are
    its own."""
    n_min, n_max = seq.window.n_min, seq.window.n_max
    return tuple(min(max(n1, n_min - 1), n_max + 1) for n1 in points)


def write_sequence(path, seq):
    lim = seq.limits
    path.write_text(json.dumps({
        "a_inf": lim.a_inf, "b_inf": lim.b_inf, "w_inf": lim.w_inf,
        "n_min": seq.window.n_min, "n_max": seq.window.n_max,
        "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
    }))


@pytest.mark.filterwarnings("ignore::jacobiscatter.lattice.CouplingSignWarning")
@pytest.mark.parametrize("count", [1, 2, 64])
def test_junction_rows_equal_the_paired_fragment_recursions(tmp_path, random_fixtures, count):
    """The junction rows, read off the whole's rows, equal those of each
    right fragment's own recursion: the public sweep and the identities
    report alike, and each other, with breakpoints on and around both
    window edges and 50 sites out, which read as the edge breakpoints
    n_min - 1 and n_max + 1.
    On one or two points, the delta puts a point where a one-element
    product taken in place would round otherwise than a wider one."""
    path = tmp_path / "seq.json"
    seqs = [
        mixed_sequence(), edge_limit_sequence(), negative_coupling_sequence(), random_fixtures[0]
    ]
    assert effective_support(seqs[1]) != seqs[1].window
    delta = "0.261" if count < 64 else "0.001"
    for seq in seqs:
        write_sequence(path, seq)
        config = cli.RunConfig(str(path), grid_count=count, exclusion_delta=float(delta))
        zs = cli._grid_for(seq, config).zs
        plain = _coefficients(*reference_blocks(seq, zs, (False,))[0])
        paired = _coefficients(*reference_blocks(seq, zs, (False, True))[0])
        for points in junction_cases(seq):
            edges = at_the_edge(seq, points)
            splits = [fragment(seq, Fragmentation((n1,))) for n1 in edges]
            want = reference_junction_sweep(seq, edges, zs, *plain, splits)
            got = junction_residual_sweep(seq, Fragmentation(points), zs)
            assert got == want, points
            if len(points) == 1:
                assert got == junction_residual_sweep(seq, Fragmentation(edges), zs), points
            rows = report(["identities", "--input", str(path), "--grid", str(count),
                           "--delta", delta, "--breakpoints=" + ",".join(map(str, points))])
            want = reference_junction_sweep(seq, edges, zs, *paired, splits)
            assert {key: rows[key] for key in want} == want, points
            # the report's rows, read off the identity sweep's runs, are the
            # public sweep's, read off runs of its own
            assert {key: rows[key] for key in got} == got, points


def test_far_breakpoints_make_the_edge_breakpoints_recursions(monkeypatch, tmp_path):
    """A breakpoint 10,001 sites outside the window, or past int64, makes
    the recursions of the breakpoint at the window's nearer edge, n_max + 1
    or n_min - 1, and no others: the same sequences, bit for bit, over the
    same sites and grids, with the same rows.  The public sweep on a grid
    and on one point makes its own runs of the whole; the identities
    report makes none in the junction sweep, and its junction rows read
    the identity sweep's two runs, which step the companion at z as a
    third column block."""
    seq = two_impurity_sequence()
    zs = default_grid(seq, count=8).zs
    path = tmp_path / "seq.json"
    write_sequence(path, seq)
    argv = ["identities", "--input", str(path), "--grid", "8"]
    runs = []

    def recording(module):
        recurse = module._recurse

        def record(part, lo, hi, columns, side, *rest):
            values = (part.a_values, part.b_values, part.w_values)
            grids = [(grid.tobytes(), inverse) for grid, inverse in columns]
            runs.append((module.__name__, [v.tobytes() for v in values], lo, hi, side, grids))
            return recurse(part, lo, hi, columns, side, *rest)

        monkeypatch.setattr(module, "_recurse", record)

    def recorded(run, points):
        runs.clear()
        return run(points), list(runs)

    def sweep(grid):
        return lambda points: junction_residual_sweep(seq, Fragmentation(points), grid)

    def identities(points):
        return report(argv + ["--breakpoints=" + ",".join(map(str, points))])

    recording(transition)
    recording(scattering)
    n_min, n_max = seq.window.n_min, seq.window.n_max
    far = (n_max + MAX_WINDOW_SITES + 1, 10**20, n_min - MAX_WINDOW_SITES - 1, -(10**20))
    for n1 in far:
        edge = at_the_edge(seq, (n1,))
        assert edge in {(n_max + 1,), (n_min - 1,)}
        for run in (sweep(zs), sweep(zs[:1]), identities):
            want = recorded(run, edge)
            assert want[1] and recorded(run, (n1,)) == want, n1
        # the grid of z and 1/z, then the companion's grid of z
        _, made = recorded(identities, (n1,))
        assert [(module, side) for module, *_, side, _ in made] == [
            ("jacobiscatter.scattering", "left"), ("jacobiscatter.scattering", "right")
        ]
        for *_, ((both, plain), (half, inverse)) in made:
            assert (plain, inverse) == (False, True) and both[: len(half)] == half
    # two breakpoints that land on one edge are two equal junctions
    for run in (sweep(zs), identities):
        assert run((0, n_max + 1, far[0])) == run((0, n_max + 1))


def test_junction_sweep_recurses_only_the_sites_it_reads(monkeypatch):
    """The sweep makes the whole's two runs and no others, for one
    breakpoint or many: no fragment is recursed.  Each of the whole's runs
    ends at the farthest site the sweep reads of it, or at the seeded pair
    its first step reads: breakpoints inside the window and next to it.
    Those 50 and 10,000 sites out on either side make the runs of the one
    next to it."""
    seq = two_impurity_sequence()
    zs = default_grid(seq, count=8).zs
    n_min, n_max = seq.window.n_min, seq.window.n_max
    recurse, runs = transition._recurse, []

    def record(part, lo, hi, columns, side):
        assert all(grid is zs for grid, _ in columns)
        runs.append((part, lo, hi, side, tuple(inverse for _, inverse in columns)))
        return recurse(part, lo, hi, columns, side)

    monkeypatch.setattr(transition, "_recurse", record)
    out = (1, 50, MAX_WINDOW_SITES)
    points = [n_min - d for d in out] + [0] + [n_max + d for d in out]
    for n1 in points:
        (edge,) = at_the_edge(seq, (n1,))
        runs.clear()
        junction_residual_sweep(seq, Fragmentation((edge,)), zs)
        at_edge = [(lo, hi, side) for _, lo, hi, side, _ in runs]
        runs.clear()
        junction_residual_sweep(seq, Fragmentation((n1,)), zs)
        assert [(lo, hi, side) for _, lo, hi, side, _ in runs] == at_edge
        assert [(part, side, modes) for part, _, _, side, modes in runs] == [
            (seq, "left", (False, True)), (seq, "right", (False, True))
        ]
        # the whole's rows the sweep reads, edge - 1 through edge + 1
        (_, left_lo, left_hi, *_), (_, right_lo, right_hi, *_) = runs
        assert left_lo == edge - 1 and left_hi <= max(edge + 1, n_max + 1), n1
        assert right_hi == edge + 1 and right_lo >= min(edge - 1, n_min - 2), n1
    runs.clear()
    junction_residual_sweep(seq, Fragmentation(tuple(sorted(points))), zs)
    assert [(part, side) for part, _, _, side, _ in runs] == [(seq, "left"), (seq, "right")]


@pytest.mark.parametrize("k", [0, 1, 2, 5, 15])
@pytest.mark.parametrize("side", ["left", "right"])
def test_plane_waves_catch_damage_deep_in_a_free_side(monkeypatch, side, k):
    """b + 0.5 at one site of the left or the right fragment fails
    plane_waves, though its check reads each fragment only on the
    junction's site pair (n1, n1 + 1): the damaged fragment's T, R and L
    leave the wave the whole's rows there carry.  The site is k sites into
    the fragment's free side, a padding site, or for k = 0 its kept site
    at the junction, n1 for the left fragment and n1 + 1 for the right."""
    seq = damped_window(-20, 41, seed=4)
    zs = default_grid(seq, count=64, delta=1e-3).zs
    n1 = 0
    frag = Fragmentation((n1,))
    assert junction_residual_sweep(seq, frag, zs)["plane_waves"] < 1e-9
    junction_parts = transition._junction_parts
    # the left fragment frees the sites above n1, the right one n1 and below
    j, site = (0, n1 + k) if side == "left" else (1, n1 + 1 - k)

    def damaged(seq, frag):
        parts = junction_parts(seq, frag)
        part = parts[j]
        b = part.b_values.copy()
        assert k == 0 or b[site - part.window.n_min] == part.limits.b_inf
        b[site - part.window.n_min] += 0.5
        parts[j] = make_sequence(part.window.n_min, part.a_values, b, part.w_values, part.limits)
        return parts

    monkeypatch.setattr(transition, "_junction_parts", damaged)
    assert junction_residual_sweep(seq, frag, zs)["plane_waves"] > 1e-6


@pytest.mark.filterwarnings("ignore::jacobiscatter.lattice.CouplingSignWarning")
@pytest.mark.parametrize("count", [1, 8])
def test_streamed_blocks_equal_the_reference_recursion(count):
    """_recurse's blocks, put together, are the plain recursion's rows to
    the bit: both sides, every mode set, in blocks of 1, 3 and 16 sites,
    and with seeded tails of 500 sites, many blocks long and past
    |k| = 100, where the seeds take the exp route.  The deviations cycle
    through -0.0 and subnormal b and negative couplings."""
    n_min, n_max = 48, 67
    b_odd = (-0.0, 5e-324, 0.3, -2.2250738585072014e-309, 1e-310, -0.25)
    a = [(-0.7, 1.1, 0.7, -0.9)[j % 4] for j in range(n_max - n_min + 1)]
    b = [b_odd[j % 6] for j in range(n_max - n_min + 1)]
    w = [(1.0, 4.5, 3.0)[j % 3] for j in range(n_max - n_min + 1)]
    seq = make_sequence(n_min, a, b, w, Limits(0.7, 0.0, 3.0))
    lo, hi = n_min - 500, n_max + 500
    zs = default_grid(seq, count=count).zs
    for side in ("left", "right"):
        for modes in MODES:
            want = reference_recurse(seq, seq.window, lo, hi, zs, side, modes, True)
            assert np.all(np.isfinite(want))
            for block in (1, 3, jost._BLOCK_SITES):
                got = streamed(seq, lo, hi, zs, side, modes, block)
                assert got.tobytes() == want.tobytes(), (side, modes, block)


def reference_identity_sweep(seq, zs):
    """identity_sweep as it was written before its rows were streamed:
    both sides' solutions at z and at the rounded reciprocal 1/z stored
    over the whole range, from the plain recursion, and every row reduced
    from those arrays at once."""
    m = zs.size
    zs_inv = 1.0 / zs
    both = np.concatenate([zs, zs_inv])
    lo, hi = solution_range(seq)
    fl, fr = (
        reference_recurse(seq, seq.window, lo, hi, both, side, (False,), True)
        for side in ("left", "right")
    )
    fl, flc, fr, frc = fl[:, :m], fl[:, m:], fr[:, :m], fr[:, m:]
    p = seq.window.n_max + 1
    t, r, l = _coefficients(*grid_tail_fit(zs, fl[:2], fr[p - lo : p - lo + 2], seq.window, 1))
    tt, rt, lt = _coefficients(
        *grid_tail_fit(zs_inv, flc[:2], frc[p - lo : p - lo + 2], seq.window, 1)
    )
    a, _, _ = coefficient_arrays(seq, lo + 1, hi)
    pair = a[:, None] * (fl[:-1] * fr[1:] - fl[1:] * fr[:-1])
    drift = np.max(np.abs(pair - pair[0]), axis=0) / np.maximum(1.0, np.abs(pair[0]))
    product = 1.0 / (t * tt)
    return {
        "solution_conjugation": max(
            float(np.max(np.abs(flc - np.conj(fl)))), float(np.max(np.abs(frc - np.conj(fr))))
        ),
        "scattering_conjugation": max(
            float(np.max(np.abs(tt - np.conj(t)))),
            float(np.max(np.abs(rt - np.conj(r)))),
            float(np.max(np.abs(lt - np.conj(l)))),
        ),
        "product_left": float(np.max(np.abs(product - l * lt * product - 1.0))),
        "product_right": float(np.max(np.abs(product - r * rt * product - 1.0))),
        "exchange_left": float(np.max(np.abs(rt / tt + l / t))),
        "exchange_right": float(np.max(np.abs(lt / tt + r / t))),
        "quotient": float(np.max(np.abs(t * t - r * l - t / tt))),
        "wronskian_constancy": float(np.max(drift)),
        "unitarity": float(np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0))),
    }


def damped_window(n_min, length, seed):
    """A window of the conftest family's kind at any length: deviations
    scaled like 1 / length keep 1/|T| small."""
    rng = np.random.default_rng(seed)
    lim = Limits(0.9, 0.1, 1.1)
    a = lim.a_inf * (1.0 + rng.uniform(-0.6, 0.6, length) / length)
    b = lim.b_inf + rng.uniform(-1.4, 1.4, length) / length
    w = lim.w_inf * (1.0 + rng.uniform(-0.6, 0.6, length) / length)
    return make_sequence(n_min, a, b, w, lim)


def test_reports_on_windows_of_many_blocks_equal_the_references(tmp_path):
    """A 301-site window spans about 20 blocks of rows.  identity_sweep,
    junction_residual_sweep and the identities report equal the full-array
    references to the bit, and the report's junction rows the public
    sweep's, with breakpoints inside the window, on and next to both of
    its edges, and 500 sites out on either side, alone and all together;
    those read as the breakpoints next to the edges."""
    seq = damped_window(-137, 301, seed=15)
    n_min, n_max = seq.window.n_min, seq.window.n_max
    assert (n_max - n_min + 5) > 16 * jost._BLOCK_SITES
    path = tmp_path / "seq.json"
    write_sequence(path, seq)
    zs = cli._grid_for(seq, cli.RunConfig(str(path), grid_count=64)).zs
    identities = reference_identity_sweep(seq, zs)
    assert identity_sweep(seq, zs) == identities
    plain = _coefficients(*reference_blocks(seq, zs, (False,))[0])
    paired = _coefficients(*reference_blocks(seq, zs, (False, True))[0])
    far = (n_min - 500, n_max + 500)
    inside = (-50, 0, 77)
    edges = (n_min - 1, n_min, n_max, n_max + 1)
    for points in [(p,) for p in far] + [inside, tuple(sorted(inside + edges + far))]:
        at_edges = at_the_edge(seq, points)
        splits = [fragment(seq, Fragmentation((n1,))) for n1 in at_edges]
        want = reference_junction_sweep(seq, at_edges, zs, *plain, splits)
        got = junction_residual_sweep(seq, Fragmentation(points), zs)
        assert got == want, points
        if len(points) == 1:
            assert got == junction_residual_sweep(seq, Fragmentation(at_edges), zs), points
        rows = report(["identities", "--input", str(path), "--grid", "64",
                       "--breakpoints=" + ",".join(map(str, points))])
        want = {**identities, **reference_junction_sweep(seq, at_edges, zs, *paired, splits)}
        assert {key: rows[key] for key in want} == want, points
        assert {key: rows[key] for key in got} == got, points
