"""tools/same_output.py runs the bench workloads on two trees and compares.

Both tests run it at a hundredth of the bench's window sizes: the tree
against itself must match on every op of every workload, and against a
copy whose report format was changed it must name the ops that differ.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "same_output.py")


def same_output(*args):
    return subprocess.run([sys.executable, TOOL, *args, "--scale", "0.01", "--seeds", "7"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_tree_matches_itself_on_every_workload():
    proc = same_output(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in ("long-scatter", "fragment-checks", "small-batch"):
        assert any(line.startswith(f"seed 7 {name}: ") and line.endswith(" 0 differ")
                   for line in lines), name


def test_changed_output_is_named(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "jacobiscatter" / "cli.py"
    text = cli.read_text()
    assert '_CSV_ROW = ",".join(["%.17g"]' in text
    cli.write_text(text.replace('_CSV_ROW = ",".join(["%.17g"]', '_CSV_ROW = ",".join(["%.16g"]'))
    proc = same_output(str(tmp_path), "--workloads", "small-batch")
    assert proc.returncode == 1
    assert "  differs: scatter:readme" in proc.stdout.splitlines()
    # the report rows are printed apart from the table rows
    assert "  differs: factorize:readme" not in proc.stdout.splitlines()
