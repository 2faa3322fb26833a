"""Check that two source trees give the same CLI output on the bench workloads.

    python tools/same_output.py BASE [--seeds 911,3,42] [--scale 1] [--workloads ...]

BASE is a source checkout, given as a directory, or a git revision of
this repository, which is checked out with ``git worktree`` into a
temporary directory and removed again afterwards.  For each seed and
workload the inputs are built once, by this tree's bench/workloads.py,
into a temporary directory.  Every op then runs as ``python -m
jacobiscatter ...`` in a fresh subprocess, once on this tree's src and
once on BASE's.  Each op whose stdout, stderr or exit code differs is
named, and the exit code is 1 if any differs.  Only the temporary
directory is written to, and for a revision also git's worktree records
under .git/worktrees, which are pruned on start and on exit.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True)


def run_op(src: str, argv: list[str], cwd: str) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of one CLI call on the package in src."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "jacobiscatter", *argv],
                          capture_output=True, env=env, cwd=cwd)
    # a warning names the file it came from, which lies in either tree
    return proc.returncode, proc.stdout, proc.stderr.replace(src.encode(), b"<src>")


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
                bad = [op.label for op, (mine, theirs) in zip(ops, results)
                       if mine.result() != theirs.result()]
                differing += len(bad)
                print(f"seed {seed} {name}: {len(ops)} ops, {len(bad)} differ")
                for label in bad:
                    print(f"  differs: {label}")
    return 1 if differing else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        if os.path.isdir(args.base):
            base = os.path.abspath(args.base)
            return compare([os.path.join(ROOT, "src"), os.path.join(base, "src")], args, work)
        try:
            revision = git("rev-parse", "--verify", args.base + "^{commit}").stdout.strip()
        except subprocess.CalledProcessError:
            sys.exit(f"same_output: {args.base} is neither a directory nor a git revision")
        checkout = os.path.join(work, "base")
        # drop the record of a checkout that an earlier, killed run left behind
        git("worktree", "prune")
        git("worktree", "add", "--detach", checkout, revision)
        try:
            return compare([os.path.join(ROOT, "src"), os.path.join(checkout, "src")], args, work)
        finally:
            git("worktree", "remove", "--force", checkout)
            git("worktree", "prune")


if __name__ == "__main__":
    sys.exit(main())
