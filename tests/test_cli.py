"""End-to-end runs of the installed command through subprocesses."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from jacobiscatter import Fragmentation, Limits, NumericalFault, factorization_residuals
from jacobiscatter import cli, sample_circle, scattering_values
from jacobiscatter.scattering import _grid_maxima
from jacobiscatter.transition import _identities_report
from conftest import (
    LARGE_LIMITS,
    UNIT_LIMITS,
    free_sequence,
    hand_fixtures,
    make_sequence,
    overflowing_sequence,
    random_sequence,
    single_site_sequence,
)

CSV_HEADER = "theta,lambda,re_T,im_T,re_R,im_R,re_L,im_L,unitarity"

FREE_INPUT = {
    "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
    "n_min": 0, "n_max": 0, "a": [1.0], "b": [0.0], "w": [1.0],
}
SINGLE_SITE_INPUT = {
    "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
    "n_min": 0, "n_max": 0, "a": [1.0], "b": [0.5], "w": [1.0],
}
TWO_IMPURITY_INPUT = {
    "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
    "n_min": -1, "n_max": 1, "a": [1.0, 1.0, 1.0],
    "b": [0.3, 0.0, -0.4], "w": [1.0, 1.0, 1.0],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "jacobiscatter", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def write_input(tmp_path, payload, name="seq.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def single_site_file(tmp_path):
    return write_input(tmp_path, SINGLE_SITE_INPUT)


def test_scatter_header_and_row_count(tmp_path):
    path = write_input(tmp_path, FREE_INPUT)
    proc = run_cli("scatter", "--input", path, "--grid", "16")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 17


def test_scatter_free_rows_are_trivial(tmp_path):
    path = write_input(tmp_path, FREE_INPUT)
    proc = run_cli("scatter", "--input", path, "--grid", "8")
    for line in proc.stdout.strip().splitlines()[1:]:
        cells = [float(c) for c in line.split(",")]
        assert abs(cells[2] - 1.0) <= 1e-12 and abs(cells[3]) <= 1e-12
        assert max(abs(cells[4]), abs(cells[5]), abs(cells[6]), abs(cells[7])) <= 1e-12
        assert abs(cells[8] - 1.0) <= 1e-12


def test_scatter_quarter_point_matches_closed_form(single_site_file):
    """The default 512-point grid lands on theta = pi/2 exactly, where
    T = (4+i)/4.25 in closed form."""
    proc = run_cli("scatter", "--input", single_site_file)
    assert proc.returncode == 0
    want = (4 + 1j) / 4.25
    for line in proc.stdout.strip().splitlines()[1:]:
        cells = [float(c) for c in line.split(",")]
        if cells[0] == math.pi / 2:
            assert abs(complex(cells[2], cells[3]) - want) <= 1e-10
            assert abs(complex(cells[4], cells[5]) - 0.25j * want) <= 1e-10
            break
    else:
        pytest.fail("no row at theta = pi/2")


def test_scatter_json_format(single_site_file):
    proc = run_cli("scatter", "--input", single_site_file, "--grid", "4", "--format", "json")
    rows = json.loads(proc.stdout)
    assert len(rows) == 4
    assert set(rows[0]) == set(CSV_HEADER.split(","))


def test_output_file_matches_stdout(tmp_path, single_site_file):
    out = tmp_path / "table.csv"
    direct = run_cli("scatter", "--input", single_site_file, "--grid", "32")
    to_file = run_cli("scatter", "--input", single_site_file, "--grid", "32", "--output", str(out))
    assert to_file.returncode == 0
    assert to_file.stdout == ""
    assert out.read_text() == direct.stdout


def test_byte_determinism(single_site_file):
    first = run_cli("scatter", "--input", single_site_file, "--grid", "64")
    second = run_cli("scatter", "--input", single_site_file, "--grid", "64")
    assert first.stdout == second.stdout
    third = run_cli("identities", "--input", single_site_file, "--grid", "64")
    fourth = run_cli("identities", "--input", single_site_file, "--grid", "64")
    assert third.stdout == fourth.stdout


def test_one_point_grid_prints_the_row_of_a_wide_grid(tmp_path, random_fixtures):
    """A grid starts at the same point for every count, and a point's bits
    do not depend on its grid: --grid 1 prints the first row of --grid 512."""
    for i, seq in enumerate(hand_fixtures() + random_fixtures[:20]):
        lim = seq.limits
        path = write_input(tmp_path, {
            "a_inf": lim.a_inf, "b_inf": lim.b_inf, "w_inf": lim.w_inf,
            "n_min": seq.window.n_min, "n_max": seq.window.n_max,
            "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
        })
        rows = []
        for count in ("1", "512"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["scatter", "--input", path, "--grid", count, "--delta", "0.9"])
            assert code == 0
            rows.append(out.getvalue().splitlines()[1])
        assert rows[0] == rows[1], i


def test_identities_report_passes_at_defaults(single_site_file):
    proc = run_cli("identities", "--input", single_site_file)
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    names = [row["check"] for row in rows]
    assert names == [
        "solution_conjugation",
        "scattering_conjugation",
        "product_left",
        "product_right",
        "exchange_left",
        "exchange_right",
        "quotient",
        "wronskian_constancy",
        "unitarity",
        "transition_determinant",
    ]
    for row in rows:
        assert set(row) == {"check", "max_residual", "tolerance", "pass"}
        assert row["pass"] is True
        assert row["max_residual"] <= 1e-9
        assert row["tolerance"] == 1e-9


def test_identities_with_breakpoints_adds_junction_rows(tmp_path):
    path = write_input(tmp_path, TWO_IMPURITY_INPUT)
    proc = run_cli("identities", "--input", path, "--grid", "64", "--breakpoints", "0")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    names = [row["check"] for row in rows]
    assert names[-5:] == [
        "factorization",
        "right_junction",
        "left_junction",
        "plane_waves",
        "factor_algebra",
    ]
    assert all(row["pass"] for row in rows)


def test_factorize_two_impurities(tmp_path):
    path = write_input(tmp_path, TWO_IMPURITY_INPUT)
    proc = run_cli("factorize", "--input", path, "--grid", "256", "--breakpoints", "0")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    fact = [row for row in rows if row["check"] == "factorization"][0]
    assert fact["pass"] and fact["max_residual"] <= 1e-9


def test_factorize_multiple_breakpoints(tmp_path):
    path = write_input(tmp_path, FREE_INPUT)
    proc = run_cli("factorize", "--input", path, "--grid", "16", "--breakpoints", "3,7")
    assert proc.returncode == 0


def test_corrupted_padding_exits_one(tmp_path):
    path = write_input(tmp_path, TWO_IMPURITY_INPUT)
    proc = run_cli(
        "factorize", "--input", path, "--grid", "32", "--breakpoints", "0",
        "--corrupt-fragment-padding",
    )
    assert proc.returncode == 1
    rows = json.loads(proc.stdout)
    assert any(not row["pass"] for row in rows)


def test_missing_input_exits_two(tmp_path):
    proc = run_cli("scatter", "--input", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert proc.stderr != ""


def test_unparseable_input_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("scatter", "--input", str(path))
    assert proc.returncode == 2


def test_invalid_coefficients_exit_two(tmp_path):
    payload = dict(SINGLE_SITE_INPUT, w=[-1.0])
    proc = run_cli("scatter", "--input", write_input(tmp_path, payload))
    assert proc.returncode == 2


# a boolean window bound reads as site 0 or 1: with one-site arrays at
# site 1, "n_min": true made a consistent window
ONE_SITE_AT_ONE = {"n_max": 1, "a": [1.0], "b": [0.3], "w": [1.0]}


@pytest.mark.parametrize(
    "field, value",
    [("n_min", "null"), ("n_min", "[0]"), ("a_inf", "null"), ("a_inf", "[1]"),
     ("a", '{"x": 1}'), ("n_max", "1e400"), ("a_inf", '"1.5"'), ("w", "[true, true, true]"),
     ("b", '["0.3", 0.0, -0.4]'), ("n_min", "true")],
)
def test_mistyped_field_exits_two_naming_it(tmp_path, field, value):
    """A field of the wrong JSON type, or an integer too large for one, is
    bad input: exit 2 naming the field, not a traceback and exit 1.  JSON
    strings and booleans are not numbers, though float() and int() take
    them."""
    base = {**TWO_IMPURITY_INPUT, **(ONE_SITE_AT_ONE if value == "true" else {})}
    text = json.dumps({**base, field: "VALUE"}).replace('"VALUE"', value)
    path = tmp_path / "seq.json"
    path.write_text(text)
    proc = run_cli("scatter", "--input", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"input error: {field} must be")


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def shifted(n_min):
    """The two-impurity input with its window moved to start at n_min."""
    return dict(TWO_IMPURITY_INPUT, n_min=n_min, n_max=int(n_min) + 2)


@pytest.mark.parametrize("n_min", [1e20, -2**63, 2**62 - 1, -2**62 - 1],
                         ids=["1e20", "-2**63", "2**62-1", "-2**62-1"])
def test_window_past_the_site_index_bound_exits_two(tmp_path, n_min):
    """Sites are int64 indices, so a window reaching past |n| = 2**62 is
    bad input: exit 2 with one stderr line, not an IndexError traceback,
    which exit 1 would mistake for a failed check."""
    path = write_input(tmp_path, shifted(n_min))
    code, out, err = run_in_process(["scatter", "--input", path, "--grid", "64"])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: window [") and err.count("\n") == 1


@pytest.mark.parametrize("n_min", [2**62 - 2, -2**62], ids=["2**62-2", "-2**62"])
def test_window_at_the_site_index_bound_is_admitted(tmp_path, n_min):
    """The bound itself is admitted.  So far from the origin the tail fits
    disagree today: a numerical fault, one stderr line, not a traceback."""
    path = write_input(tmp_path, shifted(n_min))
    code, out, err = run_in_process(["scatter", "--input", path, "--grid", "64"])
    assert code in (0, 1, 3)
    assert code == 0 or (out == "" and err.count("\n") == 1)


@pytest.mark.xfail(strict=True, reason=(
    "residuals depend on where the window sits: moved from n_min = -1 to 1000, "
    "this window's identities fail six rows, up to 7.4e-9 against 1e-9"
))
def test_identities_pass_on_a_window_moved_to_site_1000(tmp_path):
    """A shift by s changes no physics: T stays, and R and L pick up
    z^(-2s) and z^(2s).  At n_min = -1 the report's worst row is 4.0e-11."""
    path = write_input(tmp_path, shifted(1000))
    code, _, _ = run_in_process(["identities", "--input", path, "--breakpoints=1001"])
    assert code == 0


def test_zero_grid_exits_two(tmp_path, single_site_file):
    proc = run_cli("scatter", "--input", single_site_file, "--grid", "0")
    assert proc.returncode == 2


def test_grid_too_large_for_memory_exits_two(tmp_path):
    """numpy refuses the grid's 7 PiB of points before allocating any of
    it; that is input too large, one line on stderr, not a traceback."""
    path = write_input(tmp_path, TWO_IMPURITY_INPUT)
    proc = run_cli("scatter", "--input", path, "--grid", "1000000000000000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("input too large: ")
    assert proc.stderr.count("\n") == 1


def test_malformed_breakpoints_exit_two(single_site_file):
    proc = run_cli("factorize", "--input", single_site_file, "--breakpoints", "1,x")
    assert proc.returncode == 2


def test_non_increasing_breakpoints_exit_two(single_site_file):
    proc = run_cli("factorize", "--input", single_site_file, "--breakpoints", "4,4")
    assert proc.returncode == 2


def test_far_junction_breakpoints_report_as_the_window_edge(tmp_path):
    """A breakpoint at or past n_max + 1 splits the sequence into the same
    two fragments, and one at or below n_min - 1 likewise, so identities
    checks it at that edge site: far past the window, and past int64, it
    exits 0 and prints the edge breakpoint's report byte for byte.
    factorize admits the same breakpoints."""
    path = write_input(tmp_path, TWO_IMPURITY_INPUT)
    n_min, n_max = TWO_IMPURITY_INPUT["n_min"], TWO_IMPURITY_INPUT["n_max"]
    for edge, points in ((n_max + 1, (10_002, 10**20)), (n_min - 1, (-10_002, -(10**20)))):
        want = run_cli("identities", "--input", path, f"--breakpoints={edge}")
        assert want.returncode == 0
        for point in points:
            proc = run_cli("identities", "--input", path, f"--breakpoints={point}")
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, want.stdout, ""), point
            proc = run_cli("factorize", "--input", path, f"--breakpoints={point}")
            assert proc.returncode == 0, point


def test_degenerate_grid_exits_three(single_site_file):
    """A delta far below the guard floor pushes grid points into the
    degenerate zone around z = -1; that is a numerical fault, not an
    input error."""
    proc = run_cli("identities", "--input", single_site_file, "--delta", "1e-12")
    assert proc.returncode == 3
    assert "fault" in proc.stderr


def test_overflowing_window_faults_instead_of_printing_nan(tmp_path):
    """An undamped window at the 10,000-site cap overflows the solutions.

    The two 1/T fits then both read nan, which a plain mismatch bound
    lets through; scatter must exit 3 with nothing on stdout instead of
    tabulating nan.
    """
    rng = np.random.default_rng(0)
    n = 10_000
    payload = {
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0, "n_min": 0, "n_max": n - 1,
        "b": (0.5 * rng.standard_normal(n)).tolist(),
        "a": (1.0 + 0.1 * rng.uniform(size=n)).tolist(),
        "w": (1.0 + 0.1 * rng.uniform(size=n)).tolist(),
    }
    proc = run_cli("scatter", "--input", write_input(tmp_path, payload))
    assert proc.returncode == 3
    assert "nan" not in proc.stdout
    assert proc.stdout == ""
    assert "not finite at theta" in proc.stderr


def test_overflowing_window_reports_only_the_fault(tmp_path):
    """The overflow inside the recursion is reported once, by the tail fit.

    numpy's own overflow and invalid-value warnings from the kernel would
    name its source path and line numbers; stderr must hold the one fault
    line and nothing else.  So also where 1 / a of a subnormal coupling
    overflows, as the tail-fit sweep computes its operands, and where
    couplings of 1e-300 overflow only in the tail fit's own arithmetic,
    for scatter and for factorize.
    """
    seq = overflowing_sequence()
    overflowing = {
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
        "n_min": seq.window.n_min, "n_max": seq.window.n_max,
        "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
    }
    subnormal = dict(TWO_IMPURITY_INPUT, a=[1.0, 1e-310, 1.0])
    tiny = dict(TWO_IMPURITY_INPUT, a_inf=1e-300, a=[1e-300, 1e-300, 1e-300])
    runs = [
        (overflowing, ["scatter"]),
        (subnormal, ["scatter"]),
        (tiny, ["scatter"]),
        (tiny, ["factorize", "--breakpoints", "0"]),
    ]
    for spec, args in runs:
        proc = run_cli(*args, "--input", write_input(tmp_path, spec))
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert re.fullmatch(r"numerical fault: tail fit is not finite at theta = \S+", lines[0])


def test_overflowing_identities_with_breakpoints_reports_only_the_fault(tmp_path):
    """identities on the overflowing window faults in the identity sweep's
    tail fit.  Its other rows are reduced block by block before the fit,
    quietly, and never printed, so stderr holds the fault line alone.  A
    breakpoint far past the window is checked at the window's edge, so it
    changes nothing before that fault."""
    seq = overflowing_sequence()
    path = write_input(tmp_path, {
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
        "n_min": seq.window.n_min, "n_max": seq.window.n_max,
        "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
    })
    for points in ("5000", "5000,20000"):
        proc = run_cli("identities", "--input", path, "--grid", "16", f"--breakpoints={points}")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "numerical fault: tail fit is not finite at theta = -3.14059\n"


def undamped_window(seed, length, amplitude):
    """The bench's undamped family: unit limits, b ~ amplitude * N(0, 1),
    a and w in 1 + [0, 0.1), drawn in that order after n_min."""
    rng = np.random.default_rng(seed)
    n_min = int(rng.integers(-12, 13))
    a = 1.0 + 0.1 * rng.random(length)
    b = amplitude * rng.standard_normal(length)
    w = 1.0 + 0.1 * rng.random(length)
    return {
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0, "n_min": n_min, "n_max": n_min + length - 1,
        "a": a.tolist(), "b": b.tolist(), "w": w.tolist(),
    }


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


LONG_UNDAMPED = undamped_window(911, 2000, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, flags", [
    (dict(TWO_IMPURITY_INPUT, a=[1.0, 1e-160, 1.0], b=[0.0, 0.0, 0.0]),
     ["--grid", "64", "--breakpoints", "1"]),
    (dict(TWO_IMPURITY_INPUT, b=[0.3, 0.0, 0.0], w=[1e300, 1.0, 1.0]), []),
    (LONG_UNDAMPED, ["--grid", "64", "--breakpoints", "505,1005,1505"]),
], ids=["tiny-coupling", "huge-weight", "undamped-2000"])
def test_report_row_that_is_not_finite_exits_three(tmp_path, spec, flags):
    """1/|T| past about 1e154 overflows 1/(T T~), long before the tail fits
    fault at 1e308.  Such a row is a numerical fault, not a nan in the
    report: exit 3 and one stderr line naming the row and theta, with no
    numpy warning on the way."""
    assert LONG_UNDAMPED["n_min"] == 6
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["identities", "--input", write_input(tmp_path, spec), *flags])
    if out.getvalue():
        strict_json(out.getvalue())
    assert code == 3
    assert err.getvalue() == (
        "numerical fault: product_left residual is not finite at theta = -3.14059\n"
    )


@pytest.mark.parametrize("command", ["scatter", "identities"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_tolerance_that_is_not_positive_and_finite_exits_two(single_site_file, command, value):
    """No residual passes a nan bar and every one passes inf; and a nan
    would print as "tolerance": nan, which is not JSON."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = cli.main([command, "--input", single_site_file, f"--tol={value}"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("input error: tolerance must be positive and finite")


def test_tolerance_flag_can_force_failure(single_site_file):
    # honest residuals around 1e-10 fail a 1e-16 bar; exit code must say so
    proc = run_cli("identities", "--input", single_site_file, "--tol", "1e-16")
    assert proc.returncode == 1


def test_in_process_calls_match_fresh_runs(tmp_path):
    """One process keeps one parser and builds a grid per command.

    Neither may carry state from one call into the next: a run of calls
    in one process, with a parse error, an invalid file and a numerical
    fault between them, must print and exit exactly as fresh processes do.
    """
    seq = overflowing_sequence()
    good = write_input(tmp_path, TWO_IMPURITY_INPUT, "good.json")
    bad = write_input(tmp_path, {**TWO_IMPURITY_INPUT, "w": [1.0, -1.0, 1.0]}, "bad.json")
    over = write_input(tmp_path, {
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
        "n_min": seq.window.n_min, "n_max": seq.window.n_max,
        "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
    }, "over.json")
    calls = [
        ["scatter", "--input", good],
        ["identities", "--input", good, "--breakpoints=-1,1", "--grid", "64"],
        ["scatter", "--input", good, "--grid", "many"],
        ["factorize", "--input", good, "--breakpoints=0", "--format", "csv"],
        ["factorize", "--input", bad, "--breakpoints=0"],
        ["scatter", "--input", good, "--grid", "64", "--format", "json"],
        ["scatter", "--input", over, "--grid", "16"],
        ["identities", "--input", good, "--format", "csv"],
        ["factorize", "--input", good, "--breakpoints=-1,0,1", "--grid", "64"],
        ["scatter", "--input", good],
    ]

    def in_process(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    got = [in_process(argv) for argv in calls]
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = [(p.returncode, p.stdout) for p in pool.map(lambda a: run_cli(*a), calls)]
    assert [code for code, _ in got] == [0, 0, 2, 0, 2, 0, 3, 0, 0, 0]
    for argv, mine, theirs in zip(calls, got, fresh):
        assert mine == theirs, argv


def sequence_input(seq):
    """The coefficient file of seq, every float round-tripping through JSON."""
    lim = seq.limits
    return {
        "a_inf": lim.a_inf, "b_inf": lim.b_inf, "w_inf": lim.w_inf,
        "n_min": seq.window.n_min, "n_max": seq.window.n_max,
        "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
    }


TABLE_FIELDS = ("theta", "lambda", "re_T", "im_T", "re_R", "im_R", "re_L", "im_L", "unitarity")


def direct_table(seq, grid, fmt):
    """The scatter table of scattering_values over the whole grid, zeros as
    +0.0, each row formatted on its own with 17 significant digits."""
    t, r, l = (values + 0.0 for values in scattering_values(seq, grid.zs))
    unitarity = [abs(t_i) ** 2 + abs(r_i) ** 2 for t_i, r_i in zip(t.tolist(), r.tolist())]
    columns = (t.real, t.imag, r.real, r.imag, l.real, l.imag)
    rows = zip(grid.thetas.tolist(), grid.lams.tolist(), *map(np.ndarray.tolist, columns), unitarity)
    if fmt == "csv":
        lines = [",".join(TABLE_FIELDS), *(",".join("%.17g" % v for v in row) for row in rows)]
        return "\n".join(lines) + "\n"
    objects = [
        "  {" + ", ".join('"%s": %.17g' % field for field in zip(TABLE_FIELDS, row)) + "}"
        for row in rows
    ]
    return "[\n" + ",\n".join(objects) + "\n]\n"


def zero_lambda_sequence(count, k):
    """A sequence whose band image is exactly 0 at point k of a count-point
    grid: b_inf = -a_inf Re(z + 1/z) there, in Python's complex arithmetic."""
    z = complex(sample_circle(UNIT_LIMITS, count, 1e-3).zs[k])
    a_inf, w_inf = 1.3, 0.8
    b_inf = -a_inf * (z + 1.0 / z).real
    limits = Limits(a_inf, b_inf, w_inf)
    return make_sequence(0, [a_inf, 1.4], [b_inf + 0.3, b_inf], [w_inf, 1.0], limits)


def direct_report(named):
    """The report of maxima over the whole grid, at the default tolerance."""
    rows = [(name, value, 1e-9, value <= 1e-9) for name, value in named.items()]
    return cli._render_report(rows, "json")


def test_cli_computes_each_conjugate_pair_once_and_prints_the_whole_grid(tmp_path):
    """The CLI computes and formats one point of each conjugate pair of its
    grid.  Its table, in either format and on stdout or in a file, is the
    whole grid's, computed and formatted directly, with every zero printed
    as +0.0, and its reports print the maxima over the whole grid.  The
    free lattice's R = 0, the single site's purely imaginary R / T and the
    weight-only impurity's R have exact zero parts, whose sign the
    arithmetic at z and at conj(z) need not share (the impurity's is -0.0
    at one point of the half at 4, 8 and 64 points), and the last
    sequence's band image is exactly 0 at an upper point and its
    conjugate."""
    rng = np.random.default_rng(29)
    seqs = [free_sequence(), *hand_fixtures(), random_sequence(rng), random_sequence(rng)]
    seqs.append(make_sequence(0, [1.0, 1.0], [0.0, 0.0], [2.0, 2.0]))
    seqs += [
        make_sequence(0, [lim.a_inf, 1.1 * lim.a_inf], [0.3 * lim.a_inf, 0.0],
                      [lim.w_inf, 1.2 * lim.w_inf], lim)
        for lim in LARGE_LIMITS
    ]
    runs = [(seq, count) for seq in seqs for count in (1, 2, 3, 4, 7, 8, 63, 64)]
    runs.append((single_site_sequence(), 512))
    runs.append((zero_lambda_sequence(64, 40), 64))
    frag = Fragmentation((0,))
    for seq, count in runs:
        path = write_input(tmp_path, sequence_input(seq))
        grid = sample_circle(seq.limits, count, 1e-3)
        for fmt in ("csv", "json"):
            argv = ["scatter", "--input", path, "--grid", str(count), "--format", fmt]
            assert run_in_process(argv) == (0, direct_table(seq, grid, fmt), ""), (fmt, seq, count)
            table = tmp_path / f"table.{fmt}"
            assert run_in_process([*argv, "--output", str(table)]) == (0, "", "")
            assert table.read_text() == direct_table(seq, grid, fmt), (fmt, seq, count)
        cells = [line.split(",") for line in table.with_suffix(".csv").read_text().splitlines()]
        assert "-0" not in {cell for row in cells for cell in row}
        named = {"factorization": factorization_residuals(seq, frag, grid.zs)}
        reports = [
            ("factorize", _grid_maxima(named, grid.zs)),
            ("identities", _identities_report(seq, frag, grid.zs)),
        ]
        for command, want in reports:
            argv = [command, "--input", path, "--grid", str(count), "--breakpoints=0"]
            code, out, err = run_in_process(argv)
            assert (code, err) == (0 if all(v <= 1e-9 for v in want.values()) else 1, "")
            assert out == direct_report(want), (command, seq, count)
    # rows 1 + 40 and 1 + 24 of the last table, the header first
    assert cells[41][1] == cells[25][1] == "0"


def test_cli_fault_names_the_theta_of_the_whole_grid(tmp_path):
    """A barrier of b = -3 over 520 sites: solutions overflow near lam = 2,
    at theta = +-0.45 on 7 points, not at the grid's first point.  The CLI
    computes one point of each conjugate pair, and faults at the theta a
    direct call over the whole grid names, the pair's point of negative
    theta, which comes first."""
    seq = make_sequence(0, [1.0] * 520, [-3.0] * 520, [1.0] * 520)
    path = write_input(tmp_path, sequence_input(seq))
    frag = Fragmentation((260,))
    for count in (7, 9, 16):
        zs = sample_circle(seq.limits, count, 1e-3).zs
        direct = [
            ("scatter", lambda: scattering_values(seq, zs)),
            ("factorize", lambda: factorization_residuals(seq, frag, zs)),
            ("identities", lambda: _identities_report(seq, frag, zs)),
        ]
        for command, call in direct:
            with pytest.raises(NumericalFault, match="at theta = -0[.]") as fault:
                call()
            argv = [command, "--input", path, "--grid", str(count), "--breakpoints=260"]
            assert run_in_process(argv) == (3, "", f"numerical fault: {fault.value}\n")
