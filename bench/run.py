"""Closed-loop benchmark of the jacobiscatter CLI, one client, in process.

    python3 bench/run.py --workload small-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory, never from an installed copy.  An operation is
one ``cli.main([...])`` call on a generated input file at the CLI
defaults, sent only after the previous one returned.  Each run:

1. sets up (import, seeded input generation, one warm-up call per
   subcommand) in this process and in SETUP_SAMPLES - 1 fresh ones, each
   set-up rescaled by a calibration run right after it; the first fresh
   one then runs the op list once to give the peak RSS, which in this
   process would depend on the heap layout earlier ops left;
2. runs the fixed operation list for a fixed number of passes, timing
   every operation, with tracing off, and times a fixed calibration
   computation after each operation, which gives the host's speed at
   that moment;
3. with --trace 1, interleaves traced passes whose spans give the
   per-module metrics, and requires their stdout to be byte-identical
   to the untraced passes;
4. classifies every output outside the timed region (classify.py).

Human-readable metrics go to stdout first; the last line is one JSON
object with the end-to-end metrics (--trace 0) or the per-module
metrics (--trace 1).  The full results record, with every report row
and sample count, goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PACKAGE = "jacobiscatter"

WORKLOADS = ("long-scatter", "fragment-checks", "small-batch")
# Seconds one pass, with its calibration, takes on the reference machine
# (2-core Xeon, Python 3.11, numpy 2.4).  --seconds / this fixes the pass
# count, so the parent
# and the change always run the same work and the tail percentile is
# taken over the same number of samples.
NOMINAL_PASS_SECONDS = {"long-scatter": 3.5, "fragment-checks": 7.0, "small-batch": 6.5}
MIN_PASSES = 3
TRACED_PASSES = 2
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
DIGITS_FLOOR = 1e-17  # gaps below this read as 17 digits of agreement

# Seconds one unit of the calibration computation takes on the reference
# machine, and its size: a recursion over CALIBRATION_SITES columns of a
# CALIBRATION_GRID-point complex grid, then CALIBRATION_LOOPS iterations
# of a plain Python loop.  After each op, units run until they took
# CALIBRATION_SHARE of the op's time, and at least one.
CALIBRATION_REFERENCE_S = 0.01
CALIBRATION_SHARE = 0.1
CALIBRATION_AFTER_SETUP_S = 0.1
CALIBRATION_SITES = 400
CALIBRATION_LOOPS = 15_000
CALIBRATION_GRID = 512

# The end-to-end metrics gated by BENCHMARK.json, name -> unit.
END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_agree_digits": "digits",
}


# Printed and recorded next to them, but not gated, name -> unit.  The
# raw times follow the host's speed, which swung by 20% within a minute
# and by up to 2.5x between runs on the reference machine.
DERIVED = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "error_share": "ratio",
    "check_fail_share": "ratio",
    "oracle_gap_log10": "log10",
    "op_ms_tail_percentile": "%",
    "op_samples": "count",
    "passes": "count",
    "setup_samples": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # window sizes and counts multiplied by this; below 1 only for smoke tests
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    # internal, for the fresh processes of setup_samples
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--memory-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --scale in (0, 1]")
    return args


def import_package():
    """Import the package from this checkout's src, or exit with an error."""
    init = os.path.join(SRC, PACKAGE, "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: no package source at {os.path.relpath(init, os.getcwd())}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH_DIR)
    import jacobiscatter.cli  # noqa: F401

    module = sys.modules[PACKAGE]
    if os.path.dirname(os.path.abspath(module.__file__)) != os.path.dirname(init):
        sys.exit(f"bench: {PACKAGE} imported from {module.__file__}, not from {SRC}")


def run_op(argv):
    """One operation: (seconds, exit code, stdout, exception or None)."""
    cli = sys.modules[PACKAGE + ".cli"]
    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)  # looked up per call, so tracing wrappers apply
        except SystemExit as exc:
            raised = f"SystemExit({exc.code})"
        except Exception as exc:  # an op that raises is counted, not fatal
            raised = f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), raised


def set_up(args, tag):
    """Import, generate inputs and warm up; returns (seconds, ops, directory)."""
    start = time.perf_counter()
    import_package()
    import workloads

    directory = os.path.join(OUT_DIR, f"inputs-{args.workload}-{args.seed}-{tag}-{os.getpid()}")
    ops = workloads.build(args.workload, args.seed, directory, args.scale)
    warm = workloads.write_input(directory, "warm-up", workloads.README_FIXTURE)
    for command in dict.fromkeys(op.command for op in ops):
        points = ("--breakpoints=0",) if command != "scatter" else ()
        run_op([command, "--input", warm, *points])
    return time.perf_counter() - start, ops, directory


def setup_samples(args):
    """The set-up samples of SETUP_SAMPLES - 1 fresh processes, and the peak
    RSS (MB) of the first one, which also runs the op list once after set-up."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--scale", repr(args.scale),
               "--setup-sample"]
    # A fixed glibc mmap threshold maps every array of 128 KiB or more on
    # its own and unmaps it when freed, so the peak counts live arrays and
    # not whether a freed one happened to be reused.
    memory_env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    results = []
    for index in range(SETUP_SAMPLES - 1):
        memory = index == 0
        proc = subprocess.run(command + ["--memory-pass"] * memory, capture_output=True,
                              text=True, timeout=150, cwd=ROOT,
                              env=memory_env if memory else None)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up sample failed: {proc.stderr.strip()[-500:]}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results, results[0]["peak_rss_mb"]


def peak_rss_mb():
    """This process's peak resident memory (Linux VmHWM).  Not ru_maxrss:
    it can start at the peak of the process that spawned this one, because
    Linux carries the spawning memory's peak over at exec."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


class Outputs:
    """Each op's first (exit code, stdout, exception), its run count, and
    whether any rerun printed something else.  Reruns are compared, not
    kept, so stored output does not grow the bench's own memory."""

    def __init__(self, count):
        self.first = [None] * count
        self.runs = [0] * count
        self.differs = [False] * count

    def add(self, index, result):
        if self.first[index] is None:
            self.first[index] = result
        elif result != self.first[index]:
            self.differs[index] = True
        self.runs[index] += 1


class Calibration:
    """A fixed computation shaped like the package's work, timed to read
    the host's speed.  A unit is a three-term recursion over the columns of
    a grid-by-sites complex array, as the Jost recursion runs (on the
    circle, so the values stay bounded), then a plain Python loop."""

    def __init__(self):
        import numpy as np

        self.drive = np.cos(np.linspace(0.1, 3.0, CALIBRATION_GRID))
        # allocated once, so no unit depends on what the allocator has free,
        # and filled, so no unit pays for first-touch page faults
        self.vals = np.ones((CALIBRATION_GRID, CALIBRATION_SITES), complex)
        self.units, self.seconds = 0, 0.0

    def run(self, seconds):
        """Run units for at least the given seconds, and at least one."""
        vals, drive = self.vals, self.drive
        units, start = 0, time.perf_counter()
        while units == 0 or time.perf_counter() - start < seconds:
            vals[:, 0], vals[:, 1] = 1.0, 1.0j
            for k in range(1, CALIBRATION_SITES - 1):
                vals[:, k + 1] = (drive * vals[:, k] - 0.5 * vals[:, k - 1]) / 0.5
            total = 0
            for k in range(CALIBRATION_LOOPS):
                total += k * k % 7
            units += 1
        self.units += units
        self.seconds += time.perf_counter() - start

    def speed(self):
        """Reference over measured seconds of a unit, over the units run
        since the last call."""
        speed = CALIBRATION_REFERENCE_S * self.units / self.seconds
        self.units, self.seconds = 0, 0.0
        return speed


def timed_pass(ops, outputs, tracer=None, calibration=None):
    """Run every op once, recording its output; return the latencies.
    With a calibration, run it after each op for CALIBRATION_SHARE of the
    op's time."""
    latencies = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{index}.{outputs.runs[index]}"  # op index, then how often it ran before
        elapsed, *result = run_op(op.argv())
        latencies.append(elapsed)
        outputs.add(index, tuple(result))
        if calibration is not None:
            calibration.run(CALIBRATION_SHARE * elapsed)
    return latencies


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def references(package):
    """The bench's own recomputations on the CLI's default grid, as
    classify.classify expects them: the transfer route's (T, R, L) for a
    scatter op, and a report's factorization and determinant residuals."""
    lattice, spectral, oracle, transition = (
        package.lattice, package.spectral, package.oracle, package.transition)
    import numpy as np
    from classify import EXCLUSION_DELTA, GRID_COUNT
    from workloads import fragment_specs

    def grid_for(spec):
        seq = lattice.validate_sequence(spec)
        return seq, spectral.sample_circle(seq.limits, GRID_COUNT, EXCLUSION_DELTA)

    def route(spec):
        seq, grid = grid_for(spec)
        start = time.perf_counter()
        values = oracle.transfer_matrix_values(seq, grid.zs)
        return values, grid.thetas, time.perf_counter() - start

    def recompute(spec, breakpoints):
        seq, grid = grid_for(spec)
        zs = grid.zs
        whole = transition.transition_entries(seq, zs)
        det = whole[:, 0, 0] * whole[:, 1, 1] - whole[:, 0, 1] * whole[:, 1, 0]
        residuals = {"transition_determinant": float(np.max(np.abs(det - 1.0)))}
        if breakpoints:
            parts = [lattice.validate_sequence(part) for part in fragment_specs(spec, breakpoints)]
            product = transition.transition_entries(parts[0], zs)
            for part in parts[1:]:
                product = product @ transition.transition_entries(part, zs)
            residuals["factorization"] = float(np.max(np.abs(product - whole)))
        return residuals

    return route, recompute


def classify_all(ops, outputs, package):
    """Verdict per op from its first output; reruns must repeat it byte for byte."""
    from classify import classify

    route, recompute = references(package)
    verdicts, problems = [], []
    for op, (code, stdout, raised), differs in zip(ops, outputs.first, outputs.differs):
        with open(op.input_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        verdict = classify(op.command, spec, code, stdout, raised, route, recompute,
                           op.breakpoints or ())
        verdicts.append(verdict)
        if differs:
            problems.append(f"{op.label}: output differs between passes")
        if verdict.wrong:
            problems.append(f"{op.label}: {verdict.reason}")
    return verdicts, problems


def run_passes(ops, passes, outputs, traced_count, calibration):
    """Untraced passes, the first traced_count of them each followed by a
    traced one.  Returns the untraced walls (the sum of their op latencies),
    the same rescaled to the reference speed, their latencies, the traced
    walls, the layer metrics of each traced pass, and the tracer."""
    from spans import Tracer, layer_metrics

    tracer = Tracer(PACKAGE)
    untraced, rescaled, traced, latencies, per_pass = [], [], [], [], []
    for index in range(passes):
        pass_latencies = timed_pass(ops, outputs, calibration=calibration)
        latencies += pass_latencies
        untraced.append(sum(pass_latencies))
        # the host's speed during the pass, from the calibration run after each op
        rescaled.append(untraced[-1] * calibration.speed())
        if index >= traced_count:
            continue
        first_span = len(tracer.spans)
        with tracer:
            start = time.perf_counter()
            timed_pass(ops, outputs, tracer)
            traced.append(time.perf_counter() - start)
        bytes_out = sum(len(stdout.encode()) for _, stdout, _ in outputs.first)
        per_pass.append(layer_metrics(tracer.spans, first_span, bytes_out))
    return untraced, rescaled, latencies, traced, per_pass, tracer


def machine():
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), "")
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def end_to_end(walls, rescaled, latencies, setups, peak_rss_mb, verdicts):
    ops = len(verdicts)
    errors = sum(v.outcome == "error" for v in verdicts)
    checks = sum(v.outcome == "check_failed" for v in verdicts)
    digits = [-math.log10(max(v.oracle_gap, DIGITS_FLOOR)) for v in verdicts
              if v.oracle_gap is not None]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "wall_ref_s": statistics.median(rescaled),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        # mean over scatter ops; 0 when no scatter op printed finite values
        "oracle_agree_digits": statistics.fmean(digits) if digits else 0.0,
    }
    extra = {
        "wall_s": statistics.median(walls),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_ms,
        "error_share": errors / ops,
        "check_fail_share": checks / ops,
        "oracle_gap_log10": -min(digits) if digits else None,  # the worst op
        "op_ms_tail_percentile": tail_pct,
        "op_samples": len(latencies),
        "passes": len(walls),
        "setup_samples": len(setups),
    }
    return metrics, extra


def print_table(title, rows):
    print(f"== {title}")
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {shown:>14s} {unit}")


def setup_speed():
    """The host's speed right after a set-up.  The calibration is dropped
    after, so its buffer does not count in the memory pass's peak."""
    calibration = Calibration()
    calibration.run(CALIBRATION_AFTER_SETUP_S)
    return calibration.speed()


def main(argv=None):
    args = parse_args(argv)
    if args.setup_sample:
        seconds, ops, directory = set_up(args, "sample")
        result = {"setup_s": seconds * setup_speed(), "setup_raw_s": seconds}
        if args.memory_pass:
            timed_pass(ops, Outputs(len(ops)))
            result["peak_rss_mb"] = peak_rss_mb()
        shutil.rmtree(directory, ignore_errors=True)
        print(json.dumps(result))
        return 0

    setup_raw_s, ops, directory = set_up(args, "main")
    setup = {"setup_s": setup_raw_s * setup_speed(), "setup_raw_s": setup_raw_s}
    try:
        return measure(args, setup, ops)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure(args, setup, ops):
    package = sys.modules[PACKAGE]
    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_SECONDS[args.workload]))
    outputs = Outputs(len(ops))
    phases = [time.perf_counter()]  # how long each phase of the run took, for the record
    walls, rescaled, latencies, traced_walls, per_pass, tracer = run_passes(
        ops, passes, outputs, TRACED_PASSES if args.trace else 0, Calibration())
    phases.append(time.perf_counter())
    samples, peak_mb = setup_samples(args)
    phases.append(time.perf_counter())
    setups = [sample["setup_s"] for sample in [setup] + samples]
    raw_setups = [sample["setup_raw_s"] for sample in [setup] + samples]

    verdicts, problems = classify_all(ops, outputs, package)
    phases.append(time.perf_counter())
    e2e, extra = end_to_end(walls, rescaled, latencies, setups, peak_mb, verdicts)
    attempted = sum(outputs.runs)
    failed = sum(runs for runs, v in zip(outputs.runs, verdicts) if v.outcome != "ok")

    print_table(f"{args.workload} seed {args.seed}: end to end, tracing off",
                [(name, e2e[name], END_TO_END[name]) for name in END_TO_END]
                + [(name, extra[name], DERIVED[name]) for name in DERIVED])

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": machine(),
        "end_to_end": e2e, "derived": extra,
        "phase_seconds": dict(zip(("passes", "setup_samples", "verification"),
                                  (b - a for a, b in zip(phases, phases[1:])))),
        "setup_samples_s": setups, "setup_samples_raw_s": raw_setups,
        "pass_walls_s": walls, "pass_walls_ref_s": rescaled,
        "operations": [
            {"label": op.label, "argv": op.argv()[:1] + op.argv()[3:],
             "exit": first[0], "raised": first[2], "outcome": v.outcome,
             "reason": v.reason, "oracle_gap": v.oracle_gap, "recomputed": v.recomputed,
             "rows": [{"check": c, "max_residual": r, "pass": p} for c, r, p in v.rows],
             "latency_ms": [1e3 * x for x in latencies[i::len(ops)]]}
            for i, (op, first, v) in enumerate(zip(ops, outputs.first, verdicts))
        ],
        "problems": problems,
    }
    metrics = {name: {"value": e2e[name], "unit": END_TO_END[name]} for name in END_TO_END}

    if args.trace:
        from spans import LAYER_UNITS

        layers = {}
        for name in LAYER_UNITS:
            if name in ("oracle.transfer_ms", "trace.overhead_share"):
                continue
            values = [p[name] for p in per_pass]
            if LAYER_UNITS[name] not in ("count", "B"):
                layers[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
            layers[name] = values[0]
        layers["oracle.transfer_ms"] = 1e3 * sum(v.oracle_seconds for v in verdicts)
        layers["trace.overhead_share"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        print_table("per module, traced passes (per pass)",
                    [(name, layers[name], LAYER_UNITS[name]) for name in LAYER_UNITS])
        record["per_layer"] = layers
        record["traced_pass_walls_s"] = traced_walls
        metrics = {name: {"value": layers[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer.dump(stem + "-spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"problem: {problem}")
    print(f"results record: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
