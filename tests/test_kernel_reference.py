"""The real-view kernel and the shared whole-sequence matrix are exact.

The recursion kernels, the stored recursion and the tail-fit sweep, run
every real scaling on the float64 view of their complex rows and divide
by a coupling as a multiply by its reciprocal.
The identities report computes the whole sequence's transition matrix
once and reads its determinant, factorization and junction rows from it.
Both are pure reorganizations, so these tests hold them to the bit: the
kernel against the plain complex-row recursion kept below, the report
against separate calls to the public residual functions.
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
from jacobiscatter.jost import _fit_sweep, _recurse, solution_range
from jacobiscatter.lattice import MAX_WINDOW_SITES, coefficient_arrays
from jacobiscatter.spectral import _GridContext
from conftest import (
    default_grid,
    hand_fixtures,
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
            np.multiply(w[k] / lim.w_inf, s, out=out)
            np.multiply(out, v, out=out)
            np.multiply(a[k + 1], rows[(k + 1) % count], out=scratch)
            np.subtract(out, scratch, out=out)
            np.multiply(b[k], v, out=scratch)
            np.subtract(out, scratch, out=out)
            np.divide(out, a[k], out=out)
        last = 0
    else:
        for k in range(n_min - 1 - lo, hi - lo):
            v, out = rows[k % count], rows[(k + 1) % count]
            np.multiply(w[k] / lim.w_inf, s, out=out)
            np.multiply(out, v, out=out)
            np.multiply(b[k], v, out=scratch)
            np.subtract(out, scratch, out=out)
            np.multiply(a[k], rows[(k - 1) % count], out=scratch)
            np.subtract(out, scratch, out=out)
            np.divide(out, a[k + 1], out=out)
        last = hi - lo - 1
    if store:
        return rows
    return rows[[last % count, (last + 1) % count]]


def kernel_pairs(seq, zs, ctx=None):
    """The kernels and the reference on every side, row mode and mode set.

    The stored recursion gives every row, the tail-fit sweep the last two
    of each side.  All the kernels' calls read one grid context, ctx if
    given, so its drive and the log behind its large seed powers are
    shared across them.
    """
    ctx = _GridContext(zs) if ctx is None else ctx
    window = seq.window
    lo, hi = solution_range(seq, IndexWindow(window.n_min - 4, window.n_max + 3))
    for side in ("left", "right"):
        for modes in MODES:
            yield (
                _recurse(seq, window, lo, hi, ctx, side, modes),
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


def test_far_breakpoints_raise_before_any_recursion(monkeypatch):
    seq = two_impurity_sequence()
    zs = default_grid(seq, count=8).zs

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
    # a sweep over several breakpoints refuses if any one is too far
    with pytest.raises(CoefficientError):
        junction_residual_sweep(seq, Fragmentation((0, far[0])), zs)
    # the reach itself is still admitted
    transition._require_reach(seq, (seq.window.n_max + MAX_WINDOW_SITES,))
    transition._require_reach(seq, (seq.window.n_min - MAX_WINDOW_SITES,))
