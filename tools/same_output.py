"""Check that two source trees give the same CLI output on the bench workloads.

    python tools/same_output.py BASE [--seeds 911,3,42] [--scale 1] [--workloads ...]

BASE is a source checkout, given as a directory, or a git revision of
this repository, checked out into a temporary directory as base_tree.py
describes.  For each seed and workload the inputs are built once, by
this tree's bench/workloads.py, into a temporary directory.  Every op
then runs as ``python -m jacobiscatter ...`` in a fresh subprocess, once
on this tree's src and once on BASE's.  Each op whose stdout, stderr or
exit code differs is named, with what differs, BASE's before this
tree's: the exit codes, stderr's last lines, and for a report each row
whose printed residual or pass flag changed.  The exit code is 1 if any
op differs.  Only the temporary directory is written to, and for a
revision also git's worktree records under .git/worktrees, which are
pruned on start and on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from base_tree import ROOT, base_tree

WORKLOADS = ("long-scatter", "fragment-checks", "small-batch")
# subprocesses at once: one op of each tree
WORKERS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="source checkout directory or git revision")
    parser.add_argument("--seeds", default="911,3,42", help="comma-separated bench seeds")
    parser.add_argument("--scale", type=float, default=1.0, help="window scale, in (0, 1]")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    args.seeds = [int(seed) for seed in args.seeds.split(",")]
    args.workloads = args.workloads.split(",")
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown or not 0 < args.scale <= 1:
        parser.error(f"workloads must be among {WORKLOADS} and --scale in (0, 1]")
    return args


def run_op(src: str, argv: list[str], cwd: str) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of one CLI call on the package in src."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "jacobiscatter", *argv],
                          capture_output=True, env=env, cwd=cwd)
    # a warning names the file it came from, which lies in either tree
    return proc.returncode, proc.stdout, proc.stderr.replace(src.encode(), b"<src>")


def report_rows(stdout: bytes) -> dict[str, tuple[str, str]]:
    """A JSON report's rows, check -> (max_residual, pass) as printed; {} otherwise.

    The bench's ops print reports in the CLI's default format, JSON.
    """
    text = stdout.decode()
    if not text.startswith('[\n  {"check": '):
        return {}
    # parse_float=str keeps each residual as printed
    rows = json.loads(text, parse_float=str)
    return {row["check"]: (row["max_residual"], json.dumps(row["pass"])) for row in rows}


def last_line(stderr: bytes) -> str:
    lines = stderr.decode(errors="replace").strip().splitlines()
    return repr(lines[-1] if lines else "")


def differences(before: tuple[int, bytes, bytes], after: tuple[int, bytes, bytes]) -> list[str]:
    """What differs between two runs of one op, each line before -> after."""
    (code_b, out_b, err_b), (code_a, out_a, err_a) = before, after
    lines = []
    if code_b != code_a:
        lines.append(f"exit code {code_b} -> {code_a}")
    if err_b != err_a:
        lines.append(f"stderr {last_line(err_b)} -> {last_line(err_a)}")
    if out_b != out_a:
        lines.append("stdout")
        rows_b, rows_a = report_rows(out_b), report_rows(out_a)
        for name in {**rows_b, **rows_a}:
            (residual_b, ok_b), (residual_a, ok_a) = (
                rows.get(name, ("absent", "absent")) for rows in (rows_b, rows_a)
            )
            if residual_b != residual_a or ok_b != ok_a:
                line = f"  {name}: {residual_b} -> {residual_a}"
                if ok_b != ok_a:
                    line += f", pass {ok_b} -> {ok_a}"
                lines.append(line)
    return lines


def compare(trees: list[str], args, work: str) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    differing = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for seed in args.seeds:
            for name in args.workloads:
                inputs = os.path.join(work, f"{name}-{seed}")
                ops = workloads.build(name, seed, inputs, scale=args.scale)
                results = [
                    [pool.submit(run_op, src, op.argv(), work) for src in trees] for op in ops
                ]
                bad = [(op.label, differences(theirs.result(), mine.result()))
                       for op, (mine, theirs) in zip(ops, results)
                       if mine.result() != theirs.result()]
                differing += len(bad)
                print(f"seed {seed} {name}: {len(ops)} ops, {len(bad)} differ")
                for label, lines in bad:
                    print(f"  differs: {label}")
                    for line in lines:
                        print(f"    {line}")
    return 1 if differing else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        with base_tree(args.base, work, "same_output") as base:
            return compare([os.path.join(ROOT, "src"), os.path.join(base, "src")], args, work)


if __name__ == "__main__":
    sys.exit(main())
