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

from jacobiscatter import cli
from conftest import hand_fixtures, overflowing_sequence

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


def test_junction_breakpoint_past_the_reach_exits_two(tmp_path):
    """A junction check spans the window and the breakpoint's cover, so a
    breakpoint one site further out than MAX_WINDOW_SITES is bad input:
    identities exits 2 naming it, instead of recursing over that range.
    The reach is checked before the grid, so a degenerate grid does not
    turn the bad input into a numerical fault.  factorize has no junction
    solutions and keeps accepting it."""
    path = write_input(tmp_path, TWO_IMPURITY_INPUT)
    for point, grid in ((10_002, ()), (-10_002, ()), (10_002, ("--delta", "1e-9"))):
        proc = run_cli("identities", "--input", path, f"--breakpoints={point}", *grid)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"breakpoint {point} lies 10001 sites outside" in proc.stderr
    proc = run_cli("factorize", "--input", path, "--breakpoints=10002")
    assert proc.returncode == 0


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
    overflows, as the tail-fit sweep computes its operands.
    """
    seq = overflowing_sequence()
    overflowing = {
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
        "n_min": seq.window.n_min, "n_max": seq.window.n_max,
        "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
    }
    subnormal = dict(TWO_IMPURITY_INPUT, a=[1.0, 1e-310, 1.0])
    for spec in (overflowing, subnormal):
        proc = run_cli("scatter", "--input", write_input(tmp_path, spec))
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert re.fullmatch(r"numerical fault: tail fit is not finite at theta = \S+", lines[0])


def test_overflowing_identities_with_breakpoints_reports_only_the_fault(tmp_path):
    """identities on the overflowing window faults in the identity sweep's
    tail fit.  Its other rows are reduced block by block before the fit,
    quietly, and never printed, so stderr holds the fault line alone.  A
    breakpoint out of the junctions' reach is bad input, reported before
    any recursion, so it exits 2."""
    seq = overflowing_sequence()
    path = write_input(tmp_path, {
        "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
        "n_min": seq.window.n_min, "n_max": seq.window.n_max,
        "a": seq.a_values.tolist(), "b": seq.b_values.tolist(), "w": seq.w_values.tolist(),
    })
    proc = run_cli("identities", "--input", path, "--grid", "16", "--breakpoints=5000")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "numerical fault: tail fit is not finite at theta = -3.14059\n"
    proc = run_cli("identities", "--input", path, "--grid", "16", "--breakpoints=5000,20000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "input error: breakpoint 20000 lies 10001 sites outside the window [0, 9999]; "
        "junction checks admit at most 10000\n"
    )


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
    """One process keeps one parser and builds a grid context per command.

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
