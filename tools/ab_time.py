"""Time two source trees on the bench workloads in one process, op by op.

    python tools/ab_time.py BASE [--workloads small-batch] [--seed 911] [--rounds 10]

BASE is a source checkout, given as a directory, or a git revision of
this repository, checked out into a temporary directory as base_tree.py
describes.  This tree's package, BASE's and a second copy of BASE's,
the A/A control, are copied into a temporary directory under names of
their own and imported into this process.  For each workload the inputs
are built once, by this tree's bench/workloads.py, into that directory.

Every op first runs once on each tree, as ``cli.main(argv)`` with stdout
and stderr captured, and each op whose exit code, stdout or stderr
differs between any two trees is named.  Then --rounds passes run every
op on all three trees, one op after another, rotating which tree runs
first from op to op and from pass to pass, so that the trees see the
same host speed.  Printed per workload: each tree's median pass time;
the ratios change/base and control/base of the passes, as median, min
and max; the passes in which the change was faster than BASE; the
per-op ratios change/base and control/base, each the geometric mean
over ops of the op's median ratio over the passes, which pairs every
op's time with BASE's in the same pass and so spreads less than the
pass ratios; and, per
subcommand the workload runs, the change/base and control/base ratios
of its ops' summed time in each pass, which show which subcommand a
change moved and by how much that subcommand's passes spread alone.
Each control/base ratio is the resolution of the measurement: a
change/base ratio inside its range is noise.  The exit code is 1 if
any op differs.

The workload many-breakpoints runs only when --workloads names it:
identities on one undamped 3,000-site window, drawn by bench/workloads.py
at the seed, with 30 and then 300 even breakpoints.  --scale shrinks the
window and both counts.  After its timed passes each of its ops runs once
more on each tree under tracemalloc, outside the timing, and its traced
peak is printed per tree, in MB.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from base_tree import ROOT, base_tree

WORKLOADS = ("long-scatter", "fragment-checks", "small-batch")
# opt-in, outside the default set
MANY_BREAKPOINTS = "many-breakpoints"
PACKAGE = "jacobiscatter"
# this tree, BASE, and BASE again as the A/A control
TREES = ("change", "base", "control")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="source checkout directory or git revision")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=911, help="bench seed")
    parser.add_argument("--rounds", type=int, default=10, help="timed passes per workload")
    parser.add_argument("--scale", type=float, default=1.0, help="window scale, in (0, 1]")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    known = (*WORKLOADS, MANY_BREAKPOINTS)
    unknown = set(args.workloads) - set(known)
    if unknown or not 0 < args.scale <= 1 or args.rounds < 1:
        parser.error(f"workloads must be among {known}, --scale in (0, 1], --rounds >= 1")
    return args


def load(src: str, name: str, packages: str):
    """The cli module of the package in src, imported as package name."""
    shutil.copytree(os.path.join(src, PACKAGE), os.path.join(packages, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name + ".cli")


def run_op(cli, argv: list[str]) -> tuple[float, tuple[int, str, str]]:
    """(seconds, (exit code, stdout, stderr)) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    # a warning names the file it came from, which lies in each tree's copy
    where = os.path.dirname(os.path.dirname(cli.__file__))
    return elapsed, (code, out.getvalue(), err.getvalue().replace(where, "<src>"))


def traced_peak(cli, argv: list[str]) -> int:
    """The tracemalloc peak, in bytes, of one cli.main call."""
    tracemalloc.start()
    try:
        run_op(cli, argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spread(values: list[float]) -> str:
    return f"median {statistics.median(values):.3f}, min {min(values):.3f}, max {max(values):.3f}"


def per_op(op_times: list, tree: int) -> float:
    """The geometric mean over ops of each op's median, over the passes,
    of its time on tree over its time on BASE in the same pass."""
    logs = [math.log(statistics.median(t / b for t, b in zip(times[tree], times[1])))
            for times in op_times]
    return math.exp(statistics.fmean(logs))


def many_breakpoints(workloads, seed: int, directory: str, scale: float) -> list:
    """The ops of the many-breakpoints workload, their input written under directory."""
    os.makedirs(directory, exist_ok=True)
    length = max(12, int(3_000 * scale))
    spec = workloads.undamped_window(np.random.default_rng(seed), length, 0.05)
    path = workloads.write_input(directory, f"undamped-n{length}", spec)
    counts = [max(1, int(k * scale)) for k in (30, 300)]
    return [workloads.Op(f"identities:n{length}-k{k}", "identities", path,
                         workloads.even_breakpoints(spec, k)) for k in counts]


def compare(clis: list, args, work: str) -> int:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    differing = 0
    for name in args.workloads:
        directory = os.path.join(work, name)
        if name == MANY_BREAKPOINTS:
            ops = many_breakpoints(workloads, args.seed, directory, args.scale)
        else:
            ops = workloads.build(name, args.seed, directory, scale=args.scale)
        argvs = [op.argv() for op in ops]
        bad = [op.label for op, argv in zip(ops, argvs)
               if len({run_op(cli, argv)[1] for cli in clis}) > 1]
        differing += len(bad)
        print(f"seed {args.seed} {name}: {len(ops)} ops, {len(bad)} differ")
        for label in bad:
            print(f"  differs: {label}")
        commands = list(dict.fromkeys(op.command for op in ops))
        # per pass, each tree's summed op time per subcommand
        passes = []
        # per op, each tree's time in each pass
        op_times = [[[] for _ in clis] for _ in ops]
        for round_ in range(args.rounds):
            totals = [dict.fromkeys(commands, 0.0) for _ in clis]
            for i, (op, argv) in enumerate(zip(ops, argvs)):
                first = (i + round_) % len(clis)
                for k in range(len(clis)):
                    tree = (first + k) % len(clis)
                    elapsed = run_op(clis[tree], argv)[0]
                    totals[tree][op.command] += elapsed
                    op_times[i][tree].append(elapsed)
            passes.append(totals)
        change, base, control = ([sum(times.values()) for times in tree] for tree in zip(*passes))
        medians = ", ".join(f"{tree} {statistics.median(times):.3f} s"
                            for tree, times in zip(TREES, (change, base, control)))
        print(f"  median pass: {medians}")
        wins = sum(mine < theirs for mine, theirs in zip(change, base))
        print(f"  change/base: {spread([c / b for c, b in zip(change, base)])}; "
              f"faster in {wins} of {len(passes)} passes")
        print(f"  control/base (A/A): {spread([c / b for c, b in zip(control, base)])}")
        for label, tree in (("change/base", 0), ("control/base (A/A)", 2)):
            print(f"  per-op {label}: geometric mean {per_op(op_times, tree):.3f}")
        for command in commands:
            # each tree's summed time of the command's ops over BASE's, per pass
            for label, tree in (("change/base", 0), ("control/base (A/A)", 2)):
                ratios = [times[tree][command] / times[1][command] for times in passes]
                print(f"  {command} {label}: {spread(ratios)}")
        if name == MANY_BREAKPOINTS:
            for op, argv in zip(ops, argvs):
                peaks = ", ".join(f"{tree} {traced_peak(cli, argv) / 2**20:.2f} MB"
                                  for tree, cli in zip(TREES, clis))
                print(f"  {op.label} traced peak: {peaks}")
    return 1 if differing else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as work:
        packages = os.path.join(work, "packages")
        os.makedirs(packages)
        sys.path.insert(0, packages)
        with base_tree(args.base, work, "ab_time") as base:
            sources = [os.path.join(tree, "src") for tree in (ROOT, base, base)]
            clis = [load(src, f"ab_{tree}", packages) for src, tree in zip(sources, TREES)]
        return compare(clis, args, work)


if __name__ == "__main__":
    sys.exit(main())
