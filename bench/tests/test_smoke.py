"""Smoke test of the benchmark: tiny windows, every workload, both modes.

Run from the repository root with ``python -m pytest bench/tests``.  The
--scale flag shrinks every window so that a run takes a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
# the in-process tests import the package source and the bench modules
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    for m in wanted:  # every metric is also printed by name and unit
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in proc.stdout.splitlines()), m["name"]


def test_tracer_wraps_imported_copies_and_restores_them():
    import jacobiscatter.cli as cli
    import jacobiscatter.jost as jost
    import jacobiscatter.scattering as scattering
    import spans

    originals = (cli.sample_circle, jost.require_admissible, scattering.jost_values)
    with spans.Tracer("jacobiscatter"):
        wrapped = (cli.sample_circle, jost.require_admissible, scattering.jost_values)
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert (cli.sample_circle, jost.require_admissible, scattering.jost_values) == originals


def test_same_seed_gives_same_inputs(tmp_path):
    import workloads

    for name in ("first", "second"):
        workloads.build("small-batch", 3, str(tmp_path / name), scale=0.1)
    for entry in os.listdir(tmp_path / "first"):
        assert (tmp_path / "first" / entry).read_bytes() == (tmp_path / "second" / entry).read_bytes()


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_report_residual_far_below_its_recomputation_is_a_wrong_answer():
    from classify import classify

    report = json.dumps([{"check": "factorization", "max_residual": 1e-15,
                          "tolerance": 1e-9, "pass": True}])

    def recompute(value):
        return lambda spec, breakpoints: {"factorization": value}

    honest = classify("factorize", {}, 0, report, None, None, recompute(2e-15), (0,))
    assert honest.outcome == "ok" and not honest.wrong
    hidden = classify("factorize", {}, 0, report, None, None, recompute(1e-6), (0,))
    assert hidden.outcome == "error" and hidden.wrong
