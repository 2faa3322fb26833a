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
    return subprocess.run([sys.executable, "-B", TOOL, *args, "--scale", "0.01", "--seeds", "7"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_tree_matches_itself_on_every_workload():
    proc = same_output(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in ("long-scatter", "fragment-checks", "small-batch"):
        assert any(line.startswith(f"seed 7 {name}: ") and line.endswith(" 0 differ")
                   for line in lines), name


def test_changed_output_is_named(tmp_path):
    """The copy prints tables with 16 digits and a note on stderr, and
    its determinant row is off by one: each differing op is named with
    what differs, and a report op with its changed rows alone."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    package = tmp_path / "src" / "jacobiscatter"
    edits = {
        "cli.py": [
            ('_FIELD_FORMAT = "%.17g"', '_FIELD_FORMAT = "%.16g"'),
            ("    seq = _load_sequence(config.input_path)\n    grid = _grid_for(seq, config)\n",
             "    seq = _load_sequence(config.input_path)\n    grid = _grid_for(seq, config)\n"
             "    print('note', file=sys.stderr)\n"),
        ],
        "transition.py": [("    return np.abs(det - 1.0)\n", "    return np.abs(det - 1.0) + 1.0\n")],
    }
    for name, replacements in edits.items():
        text = (package / name).read_text()
        for old, new in replacements:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        (package / name).write_text(text)
    proc = same_output(str(tmp_path), "--workloads", "small-batch")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    # BASE, the copy, before this tree
    at = lines.index("  differs: scatter:readme")
    assert lines[at + 1 : at + 3] == ["    stderr 'note' -> ''", "    stdout"]
    # the report rows are printed apart from the table rows
    assert "  differs: factorize:readme" not in lines
    at = lines.index("  differs: identities:readme")
    assert lines[at + 1 : at + 3] == ["    exit code 1 -> 0", "    stdout"]
    row = lines[at + 3]
    assert row.startswith("      transition_determinant: 1") and row.endswith(", pass false -> true")
    # the other rows kept their bytes
    assert lines[at + 4].startswith(("  differs: ", "seed "))
