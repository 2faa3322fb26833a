"""tools/ab_time.py times two trees in one process and compares their output.

The tests run it at a twentieth of the bench's window sizes and one
timed pass: the tree against itself must match on every op and print
each workload's times and ratios, overall and per subcommand, each
subcommand's change/base ratio followed by its own A/A ratio, on the
default workloads and on the opt-in many-breakpoints one, with that
one's traced peaks, and against a copy whose table format was changed
it must name the ops that differ.  python -B keeps the tool from
writing bytecode next to it, so it writes only temporary files.
"""

import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_time.py")
WORKLOADS = ("long-scatter", "fragment-checks", "small-batch")


def ab_time(*args):
    return subprocess.run([sys.executable, "-B", TOOL, *args, "--scale", "0.05", "--rounds", "1"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_tree_against_itself_matches_and_prints_every_ratio():
    proc = ab_time(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in WORKLOADS:
        assert any(line.startswith(f"seed 911 {name}: ") and line.endswith(" 0 differ")
                   for line in lines), name
    for prefix in ("  median pass: change ", "  change/base: median ",
                   "  control/base (A/A): median "):
        assert sum(line.startswith(prefix) for line in lines) == len(WORKLOADS), prefix
    # each workload's subcommands: scatter runs in all three, factorize and
    # identities in fragment-checks and small-batch
    for command, count in (("scatter", 3), ("factorize", 2), ("identities", 2)):
        prefix = f"  {command} change/base: median "
        after = [following for line, following in zip(lines, lines[1:]) if line.startswith(prefix)]
        assert len(after) == count, command
        # each followed by the subcommand's own A/A ratio
        assert all(line.startswith(f"  {command} control/base (A/A): median ") for line in after)
    assert all(line.endswith(" of 1 passes") for line in lines if line.startswith("  change/base: "))
    assert "many-breakpoints" not in proc.stdout


def test_many_breakpoints_runs_when_named():
    """150 sites, at 1 and 15 breakpoints, the scaled 30 and 300."""
    proc = ab_time(ROOT, "--workloads", "many-breakpoints")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "seed 911 many-breakpoints: 2 ops, 0 differ"
    assert sum(line.startswith("  change/base: median ") for line in lines) == 1
    assert sum(line.startswith("  identities change/base: median ") for line in lines) == 1
    assert sum(line.startswith("  identities control/base (A/A): median ") for line in lines) == 1
    assert not any(line.startswith(("  scatter ", "  factorize ")) for line in lines)
    # one traced peak per op, of each tree
    peaks = [line for line in lines if " traced peak: " in line]
    assert [line.split(" traced peak: ")[0] for line in peaks] == [
        "  identities:n150-k1", "  identities:n150-k15"
    ]
    assert all(re.fullmatch(r"  \S+ traced peak: change [\d.]+ MB, base [\d.]+ MB, "
                            r"control [\d.]+ MB", line) for line in peaks), peaks


def test_changed_output_is_named(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "jacobiscatter" / "cli.py"
    text = cli.read_text()
    assert '_FIELD_FORMAT = "%.17g"' in text
    cli.write_text(text.replace('_FIELD_FORMAT = "%.17g"', '_FIELD_FORMAT = "%.16g"'))
    proc = ab_time(str(tmp_path), "--workloads", "small-batch")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "  differs: scatter:readme" in lines
    assert "  differs: factorize:readme" not in lines
