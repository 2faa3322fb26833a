"""The real-view kernel, the shared whole-sequence matrix and rows are exact.

The recursion kernels, the stored recursion and the tail-fit sweep, run
every real scaling on the float64 view of their complex rows and divide
by a coupling as a multiply by its reciprocal.
The identities report computes the whole sequence's transition matrix
once and reads its determinant, factorization and junction rows from it.
The junction sweep recurses each fragment's free side only, from the
whole sequence's rows.  All are pure reorganizations, so these tests
hold them to the bit: the kernel against the plain complex-row
recursion kept below, the report against separate calls to the public
residual functions, and the junction rows against the per-fragment
paired recursions kept below as reference_junction_sweep.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from jacobiscatter import (
    CoefficientError,
    Fragmentation,
    IndexWindow,
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
from jacobiscatter.scattering import _coefficients, _tail_fit
from jacobiscatter.spectral import _GridContext
from conftest import (
    default_grid,
    hand_fixtures,
    make_sequence,
    mixed_sequence,
    overflowing_sequence,
    two_impurity_sequence,
)

MODES = ((False,), (True,), (True, False, True))


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


def streamed(seq, lo, hi, ctx, side, modes, start=None, block=jost._BLOCK_SITES, edge=None):
    """The rows over [lo, hi] that _recurse hands out, put together.

    The blocks must come in the recursion's order, from hi down on the
    left side and from lo up on the right, and tile [lo, hi] in blocks of
    block sites that start on edge's grid, by default where the recursion
    ends, so that only the first block handed out is short.
    """
    rows = np.empty((hi - lo + 1, len(modes) * ctx.zs.size), dtype=complex)
    spans = []
    for n, part in _recurse(seq, lo, hi, ctx, side, modes, start=start, block=block, edge=edge):
        rows[n - lo : n - lo + len(part)] = part
        spans.append((n, n + len(part)))
    if edge is None:
        assert spans[-1][1] - spans[-1][0] == min(block, hi - lo + 1)
        edge = lo if side == "left" else hi + 1
    if side == "left":
        spans.reverse()
    assert spans[0][0] == lo and spans[-1][1] == hi + 1
    assert all(stop == n for (_, stop), (n, _) in zip(spans, spans[1:]))
    assert all((n - edge) % block == 0 for n, _ in spans[1:])
    assert all(stop - n <= block for n, stop in spans)
    return rows


def kernel_pairs(seq, zs, ctx=None):
    """The kernels and the reference on every side, row mode and mode set.

    The stored recursion gives every row, put together from its blocks,
    the tail-fit sweep the last two of each side.  All the kernels' calls
    read one grid context, ctx if given, so its drive and the log behind
    its large seed powers are shared across them.
    """
    ctx = _GridContext(zs) if ctx is None else ctx
    window = seq.window
    lo, hi = solution_range(seq, IndexWindow(window.n_min - 4, window.n_max + 3))
    for side in ("left", "right"):
        for modes in MODES:
            yield (
                streamed(seq, lo, hi, ctx, side, modes),
                reference_recurse(seq, window, lo, hi, zs, side, modes, True),
            )
    lo, hi = window.n_min - 2, window.n_max + 2
    for modes in MODES:
        rows = _fit_sweep(seq, [(seq, window)], ctx, modes)[0]
        for got, side in zip(rows, ("left", "right")):
            yield got, reference_recurse(seq, window, lo, hi, zs, side, modes, False)


def test_real_view_kernel_equals_complex_rows(random_fixtures):
    for seq in hand_fixtures() + random_fixtures[:6]:
        zs = default_grid(seq, count=64).zs
        for got, want in kernel_pairs(seq, zs):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_kernel_on_one_shared_context_equals_complex_rows(random_fixtures):
    """One grid context serves every call: the drive is kept per set of
    limits and the grid's log across calls, as one run shares them."""
    seqs = hand_fixtures() + random_fixtures[:6]
    zs = default_grid(seqs[0], count=64).zs
    ctx = _GridContext(zs)
    for seq in seqs:
        # the grid's points do not depend on the limits
        assert default_grid(seq, count=64).zs.tobytes() == zs.tobytes()
        for got, want in kernel_pairs(seq, zs, ctx):
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
            jobs.append((part, effective_support(part).window))
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
    ctx = _GridContext(zs)
    rows = _fit_sweep(seq, jobs, ctx, modes) + _fit_sweep(seq, jobs[:1], ctx, modes)
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
    support = effective_support(seq)
    if support.free:
        return [(np.ones_like(zs), np.zeros_like(zs), np.zeros_like(zs)) for _ in modes]
    window = support.window
    lo, hi = window.n_min - 2, window.n_max + 2
    left, right = (
        reference_recurse(seq, window, lo, hi, zs, side, modes, False)
        for side in ("left", "right")
    )
    return [
        _tail_fit(_GridContext(zs), left[:, j * m : (j + 1) * m], right[:, j * m : (j + 1) * m],
                  lo, hi - 1, -1 if inverse else 1)
        for j, inverse in enumerate(modes)
    ]


def reference_junction_sweep(seq, points, zs, t, r, l, splits):
    """The junction sweep as it was first vectorized, given the whole T, R, L.

    Each breakpoint's fragments, splits[j], recurse their solution pairs
    over their whole range, each pair as one paired reference recursion;
    the whole sequence's solutions recurse alone over the union range.
    Every row is read grid-major, through transposes.
    """
    m = zs.size
    lo_all, hi_all = solution_range(seq, IndexWindow(points[0] - 2, points[-1] + 2))
    columns = [n1 - 1 - lo_all + d for n1 in points for d in range(3)]
    fl_near, fr_near = [
        reference_recurse(seq, seq.window, lo_all, hi_all, zs, side, (False,), True).T[:, columns]
        for side in ("left", "right")
    ]
    triangular = float(np.max(np.abs((r / t) * t - r)))
    lower_right = float(np.max(np.abs((1.0 / t) * t - 1.0)))
    sites = np.arange(lo_all, hi_all + 1)
    up, down = zs[:, None] ** sites[None, :], zs[:, None] ** -sites[None, :]

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

    def paired(part, side, cover):
        lo, hi = solution_range(part, cover)
        rows = reference_recurse(part, part.window, lo, hi, zs, side, (False, True), True).T
        return rows[:m], rows[m:], lo

    keys = ("right_junction", "left_junction", "plane_waves", "factor_algebra")
    found = {key: [] for key in keys}
    for j, (n1, parts) in enumerate(zip(points, splits)):
        fl2, gl2, lo = paired(parts[1], "left", IndexWindow(n1 - 2, n1 + 2))
        fr1, gr1, _ = paired(parts[0], "right", IndexWindow(n1 - 2, n1 + 2))
        hi = lo + fl2.shape[1] - 1
        (t1, r1, _), (t1c, r1c, _) = [
            _coefficients(*block) for block in reference_blocks(parts[0], zs, (False, True))
        ]
        (t2, _, l2), (t2c, _, l2c) = [
            _coefficients(*block) for block in reference_blocks(parts[1], zs, (False, True))
        ]
        ratio = seq.limits.a_inf / coefficient_at(seq, n1 + 1)[0]
        fl, fr = fl_near[:, 3 * j : 3 * j + 3], fr_near[:, 3 * j : 3 * j + 3]

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
            col(gr1, n1 - 1), col(fr1, n1 - 1), col(gr1, n1), col(fr1, n1),
            near(fl, n1 - 1), near(fl, n1),
        )
        found["left_junction"].append(max(
            gap(trans_fit - 1.0 / t),
            gap(refl_fit - l / t),
            gap(near(fr, n1 + 1) - ratio * col(fr1, n1 + 1)),
            gap(near(fl, n1 + 1)
                - ratio * ((1.0 / t) * col(gr1, n1 + 1) + (l / t) * col(fr1, n1 + 1))),
        ))
        left_sites = slice(lo - lo_all, n1 + 1 - lo_all)
        right_sites = slice(n1 - lo_all, hi + 1 - lo_all)
        z0, z0_inv, z1, z1_inv = zs**n1, zs**-n1, zs ** (n1 + 1), zs ** -(n1 + 1)
        found["plane_waves"].append(max(
            gap(fl2[:, : n1 + 1 - lo] - ((1.0 / t2)[:, None] * up[:, left_sites]
                                        + (l2 / t2)[:, None] * down[:, left_sites])),
            gap(col(fl2, n1 + 1) - ratio * ((1.0 / t2) * z1 + (l2 / t2) * z1_inv)),
            gap(fr1[:, n1 - lo :] - ((r1 / t1)[:, None] * up[:, right_sites]
                                     + (1.0 / t1)[:, None] * down[:, right_sites])),
            gap(col(fl2, n1) - (z0 / t2 + z0_inv * l2 / t2)),
            gap(col(gl2, n1) - (z0 * l2c / t2c + z0_inv / t2c)),
            gap(col(fl2, n1 + 1) - ratio * (z1 / t2 + z1_inv * l2 / t2)),
            gap(col(gl2, n1 + 1) - ratio * (z1 * l2c / t2c + z1_inv / t2c)),
            gap(col(gr1, n1) - (z0 / t1c + z0_inv * r1c / t1c)),
            gap(col(fr1, n1) - (z0 * r1 / t1 + z0_inv / t1)),
            gap(col(gr1, n1 + 1) - (z1 / t1c + z1_inv * r1c / t1c)),
            gap(col(fr1, n1 + 1) - (z1 * r1 / t1 + z1_inv / t1)),
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
    """Fragments continued from the whole's rows give the rows of their own
    recursions: the public sweep and the identities report alike, with
    breakpoints on and around both window edges and 50 sites out.  On
    one or two points, the delta puts a point where a one-element
    product taken in place would round otherwise than a wider one."""
    path = tmp_path / "seq.json"
    seqs = [
        mixed_sequence(), edge_limit_sequence(), negative_coupling_sequence(), random_fixtures[0]
    ]
    assert effective_support(seqs[1]).window != seqs[1].window
    delta = "0.261" if count < 64 else "0.001"
    for seq in seqs:
        write_sequence(path, seq)
        config = cli.RunConfig(str(path), grid_count=count, exclusion_delta=float(delta))
        zs = cli._grid_for(seq, config).zs
        plain = _coefficients(*reference_blocks(seq, zs, (False,))[0])
        paired = _coefficients(*reference_blocks(seq, zs, (False, True))[0])
        for points in junction_cases(seq):
            splits = [fragment(seq, Fragmentation((n1,))) for n1 in points]
            want = reference_junction_sweep(seq, points, zs, *plain, splits)
            assert junction_residual_sweep(seq, Fragmentation(points), zs) == want, points
            rows = report(["identities", "--input", str(path), "--grid", str(count),
                           "--delta", delta, "--breakpoints=" + ",".join(map(str, points))])
            want = reference_junction_sweep(seq, points, zs, *paired, splits)
            assert {key: rows[key] for key in want} == want, points


def handed_out(rows, lo, edge, descending):
    """rows, row k at site lo + k, in blocks as _recurse hands them out:
    each block starts on edge's grid, from the top down if descending."""
    hi = lo + len(rows) - 1
    block = jost._BLOCK_SITES
    cuts = [lo, *range(lo + (edge - lo - 1) % block + 1, hi + 1, block), hi + 1]
    spans = list(zip(cuts[:-1], cuts[1:]))
    for first, stop in reversed(spans) if descending else spans:
        yield first, rows[first - lo : stop - lo]


def test_wave_gaps_read_each_free_side_on_its_own_sites():
    """Each side's plane-wave gap covers its sites lo..hi and no other:
    rows that equal their wave but at one site read a gap there only,
    wherever that site falls among the merged blocks of three sides, one
    site past lo..hi as the free sides' recursions reach included."""
    zs = default_grid(mixed_sequence(), count=4).zs
    ctx = _GridContext(zs)
    edge = -40
    ranges = [(-40, 5), (-40, 30), (-23, 17)]
    waves = [(np.full(4, 0.5 + 0.25j * k), np.full(4, -0.75 + 0.1j * k)) for k in range(3)]
    for descending in (True, False):
        reach = [(lo, hi + 1) if descending else (lo - 1, hi) for lo, hi in ranges]
        for spiked, (first, last) in enumerate(reach):
            for site in range(first, last + 1):
                sides = []
                for j, ((lo, hi), (up, down), (a, b)) in enumerate(zip(ranges, waves, reach)):
                    sites = np.arange(a, b + 1)
                    rows = up * ctx.power_table(sites) + down * ctx.power_table(-sites)
                    if j == spiked:
                        rows[site - a] += 2.0
                    sides.append((lo, hi, (up, down), handed_out(rows, a, edge, descending)))
                gaps = [np.max(gap) for gap in transition._wave_gaps(ctx, sides, edge, descending)]
                lo, hi = ranges[spiked]
                assert [gap > 1.0 for gap in gaps] == [
                    j == spiked and lo <= site <= hi for j in range(len(ranges))
                ], (descending, spiked, site)
                assert all(gap == 0.0 for gap in gaps if gap <= 1.0)


def test_far_breakpoints_raise_before_any_recursion(monkeypatch, tmp_path):
    seq = two_impurity_sequence()
    zs = default_grid(seq, count=8).zs
    path = tmp_path / "seq.json"
    write_sequence(path, seq)
    argv = ["identities", "--input", str(path), "--grid", "8"]
    # the fragments' free sides recurse from the whole's rows through
    # transition._recurse, the entry refused below; and each call path
    # checks the reach once
    recurse, reach, seeded, checks = transition._recurse, transition._require_reach, [], []

    def record(*args, **kwargs):
        seeded.append(kwargs.get("start") is not None)
        return recurse(*args, **kwargs)

    def count(*args):
        checks.append(args)
        return reach(*args)

    monkeypatch.setattr(transition, "_recurse", record)
    monkeypatch.setattr(transition, "_require_reach", count)
    junction_residual_sweep(seq, Fragmentation((0,)), zs)
    assert any(seeded) and len(checks) == 1
    assert report(argv + ["--breakpoints=0"])["right_junction"] >= 0.0
    assert len(checks) == 2

    def refuse(*args, **kwargs):
        raise AssertionError("recursion started")

    for module in (jost, scattering, transition):
        monkeypatch.setattr(module, "_recurse", refuse)
    for module in (jost, scattering):
        monkeypatch.setattr(module, "_fit_sweep", refuse)
    far = (seq.window.n_max + MAX_WINDOW_SITES + 1, seq.window.n_min - MAX_WINDOW_SITES - 1)
    for n1 in far:
        frag = Fragmentation((n1,))
        with pytest.raises(CoefficientError, match=f"breakpoint {n1} "):
            junction_residual_sweep(seq, frag, zs)
        with pytest.raises(CoefficientError, match=f"breakpoint {n1} "):
            junction_residual_sweep(seq, frag, zs[:1])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(argv + [f"--breakpoints={n1}"]) == 2
        assert f"breakpoint {n1} lies" in err.getvalue()
    # a sweep over several breakpoints refuses if any one is too far
    with pytest.raises(CoefficientError):
        junction_residual_sweep(seq, Fragmentation((0, far[0])), zs)
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv + [f"--breakpoints=0,{far[0]}"]) == 2
    # the reach itself is still admitted
    reach(seq, (seq.window.n_max + MAX_WINDOW_SITES,))
    reach(seq, (seq.window.n_min - MAX_WINDOW_SITES,))


@pytest.mark.filterwarnings("ignore::jacobiscatter.lattice.CouplingSignWarning")
@pytest.mark.parametrize("count", [1, 8])
def test_streamed_blocks_equal_the_reference_recursion(count):
    """_recurse's blocks, put together, are the plain recursion's rows to
    the bit: both sides, every mode set, with and without a start pair,
    with a block edge between the start pair's rows and on the window's
    edges, and with seeded tails of 500 sites, many blocks long and past
    |k| = 100, where the seeds take the exp route.  The deviations cycle
    through -0.0 and subnormal b and negative couplings.

    A run from a start pair computes no row between the pair and the
    seeded tail, so those rows are not compared."""
    n_min, n_max = 48, 67
    b_odd = (-0.0, 5e-324, 0.3, -2.2250738585072014e-309, 1e-310, -0.25)
    a = [(-0.7, 1.1, 0.7, -0.9)[j % 4] for j in range(n_max - n_min + 1)]
    b = [b_odd[j % 6] for j in range(n_max - n_min + 1)]
    w = [(1.0, 4.5, 3.0)[j % 3] for j in range(n_max - n_min + 1)]
    seq = make_sequence(n_min, a, b, w, Limits(0.7, 0.0, 3.0))
    lo, hi = n_min - 500, n_max + 500
    zs = default_grid(seq, count=count).zs
    ctx = _GridContext(zs)
    sites = np.arange(lo, hi + 1)
    starts = {"left": (n_max, n_min + 7, n_min - 1), "right": (n_min - 1, n_max - 7, n_max + 1)}
    for side in ("left", "right"):
        tail = sites >= n_max if side == "left" else sites < n_min
        for modes in MODES:
            want = reference_recurse(seq, seq.window, lo, hi, zs, side, modes, True)
            assert np.all(np.isfinite(want))
            # (start, the rows it leaves out, the start pair's upper site),
            # the pair at s and s + 1 on the left side, at s - 1 and s on
            # the right: where the recursion starts anyway, inside the
            # window, and at the window's other edge
            runs = [(None, np.zeros_like(tail), None)]
            for s in starts[side]:
                pair = s + 1 if side == "left" else s
                skipped = (sites > pair) if side == "left" else (sites < pair - 1)
                runs.append(((s, want[pair - 1 - lo : pair + 1 - lo]), skipped & ~tail, pair))
            for start, skipped, pair in runs:
                edges = {None, n_min, n_max + 1} | ({pair} if pair is not None else set())
                for block in (1, 3, jost._BLOCK_SITES):
                    for edge in edges:
                        got = streamed(seq, lo, hi, ctx, side, modes, start, block, edge)
                        same = got[~skipped].tobytes() == want[~skipped].tobytes()
                        assert same, (side, start, block, edge)


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
    t, r, l = _coefficients(*_tail_fit(_GridContext(zs), fl[:2], fr[p - lo : p - lo + 2], lo, p, 1))
    tt, rt, lt = _coefficients(
        *_tail_fit(_GridContext(zs_inv), flc[:2], frc[p - lo : p - lo + 2], lo, p, 1)
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
    references to the bit, with breakpoints inside the window, on and next
    to both of its edges, and 500 sites out on either side, alone and all
    together."""
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
        splits = [fragment(seq, Fragmentation((n1,))) for n1 in points]
        want = reference_junction_sweep(seq, points, zs, *plain, splits)
        assert junction_residual_sweep(seq, Fragmentation(points), zs) == want, points
        rows = report(["identities", "--input", str(path), "--grid", "64",
                       "--breakpoints=" + ",".join(map(str, points))])
        want = {**identities, **reference_junction_sweep(seq, points, zs, *paired, splits)}
        assert {key: rows[key] for key in want} == want, points
