"""Seeded inputs and fixed operation lists for the three bench workloads.

Every input is drawn from numpy's PCG64 generator seeded with the bench
seed, written as a coefficient JSON file, and handed to the CLI by path;
the CLI never sees the seed.  Three coefficient families are drawn:

* ``damped``: the random family of the test suite's conftest, with the
  deviation amplitudes scaled like 1/N so that 1/|T| stays small;
* ``amp0.05`` and ``amp0.5``: undamped windows on the unit limits with
  b ~ amp * N(0, 1) and a, w in 1 + [0, 0.1).  Their 1/|T| grows
  exponentially with N, which is the regime where the package's absolute
  residuals and its overflow guard are known to break.

No operation sets --grid, --delta or --tol: each runs at the CLI
defaults (512 points, delta 1e-3, tol 1e-9), so the known defects stay
visible instead of being tuned away.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

FAMILIES = ("damped", "amp0.05", "amp0.5")
UNDAMPED_AMPLITUDE = {"amp0.05": 0.05, "amp0.5": 0.5}

# The README's three-site example input, added verbatim to small-batch.
README_FIXTURE = {
    "a_inf": 1.0, "b_inf": 0.0, "w_inf": 1.0,
    "n_min": -1, "n_max": 1,
    "a": [1.0, 1.0, 1.0],
    "b": [0.3, 0.0, -0.4],
    "w": [1.0, 1.0, 1.0],
}

SMALL_BATCH_WINDOWS = 50  # the conftest family's fixture count
FACTORIZE_BREAKPOINTS = 8
IDENTITIES_BREAKPOINTS = 3


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, input file and extra arguments."""

    label: str
    command: str
    input_path: str
    breakpoints: tuple[int, ...] | None = None

    def argv(self) -> list[str]:
        args = [self.command, "--input", self.input_path]
        if self.breakpoints:
            # the = form keeps argparse from reading "-3,4" as an option
            args.append("--breakpoints=" + ",".join(str(p) for p in self.breakpoints))
        return args


def damped_window(rng: np.random.Generator, length: int) -> dict:
    """The conftest random family at a given length."""
    rng.integers(1, 41)  # conftest draws its length here; kept so the draws line up
    n_min = int(rng.integers(-12, 13))
    a_inf = rng.uniform(0.7, 1.4)
    b_inf = rng.uniform(-0.5, 0.5)
    w_inf = rng.uniform(0.7, 1.4)
    amp_a = min(0.6, 1.0 / length) * a_inf
    amp_b = min(1.9, 1.4 / length)
    amp_w = min(0.6, 1.0 / length) * w_inf
    a = a_inf + amp_a * rng.uniform(-1.0, 1.0, size=length)
    b = b_inf + amp_b * rng.uniform(-1.0, 1.0, size=length)
    w = w_inf + amp_w * rng.uniform(-1.0, 1.0, size=length)
    return _spec(a_inf, b_inf, w_inf, n_min, a, b, w)


def undamped_window(rng: np.random.Generator, length: int, amplitude: float) -> dict:
    """Unit limits, b ~ amplitude * N(0, 1), a and w in 1 + [0, 0.1)."""
    n_min = int(rng.integers(-12, 13))
    a = 1.0 + 0.1 * rng.random(length)
    b = amplitude * rng.standard_normal(length)
    w = 1.0 + 0.1 * rng.random(length)
    return _spec(1.0, 0.0, 1.0, n_min, a, b, w)


def family_window(rng: np.random.Generator, family: str, length: int) -> dict:
    if family == "damped":
        return damped_window(rng, length)
    return undamped_window(rng, length, UNDAMPED_AMPLITUDE[family])


def random_breakpoints(rng: np.random.Generator, spec: dict, count: int) -> tuple[int, ...]:
    """The conftest recipe with a given count: points drawn around the
    window, duplicates dropped."""
    lo = spec["n_min"] - 1
    hi = spec["n_max"] + 2
    return tuple(sorted(set(int(p) for p in rng.integers(lo, hi, size=count))))


def even_breakpoints(spec: dict, count: int) -> tuple[int, ...]:
    """count breakpoints splitting the window into count + 1 near-equal slabs."""
    length = spec["n_max"] - spec["n_min"] + 1
    return tuple(spec["n_min"] - 1 + (j * length) // (count + 1) for j in range(1, count + 1))


def fragment_specs(spec: dict, breakpoints: tuple[int, ...]) -> list[dict]:
    """The limit-padded fragments, left to right: fragment j keeps the
    values on sites n_{j-1} < n <= n_j and the limits on the rest of the
    window.  Cut here, not by the package, for the bench's recomputation."""
    sites = range(spec["n_min"], spec["n_max"] + 1)
    bounds = (-np.inf, *breakpoints, np.inf)
    parts = []
    for low, high in zip(bounds, bounds[1:]):
        keep = [low < n <= high for n in sites]
        parts.append(_spec(spec["a_inf"], spec["b_inf"], spec["w_inf"], spec["n_min"],
                           *([v if k else spec[f"{key}_inf"] for v, k in zip(spec[key], keep)]
                             for key in "abw")))
    return parts


def _spec(a_inf, b_inf, w_inf, n_min, a, b, w) -> dict:
    return {
        "a_inf": float(a_inf), "b_inf": float(b_inf), "w_inf": float(w_inf),
        "n_min": n_min, "n_max": n_min + len(a) - 1,
        "a": [float(x) for x in a],
        "b": [float(x) for x in b],
        "w": [float(x) for x in w],
    }


def write_input(directory: str, name: str, spec: dict) -> str:
    path = os.path.join(directory, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        # repr of a float round-trips, so the CLI reads back the drawn values
        json.dump(spec, fh)
    return path


def long_scatter(rng, directory, scale=1.0):
    # Two 3,000-site windows per family against one 10,000-site window, so
    # the median latency sits inside the 3,000-site class and the tail
    # inside the 10,000-site class instead of on the step between them.
    ops = []
    for family in FAMILIES:
        for index, length in enumerate((3_000, 3_000, 10_000)):
            n = max(3, int(length * scale))
            name = f"{family}-n{n}-{index}"
            path = write_input(directory, name, family_window(rng, family, n))
            ops.append(Op(f"scatter:{name}", "scatter", path))
    return ops


def fragment_checks(rng, directory, scale=1.0):
    ops = []
    for family in FAMILIES:
        short, long = (max(12, int(n * scale)) for n in (200, 1_000))
        short_spec = family_window(rng, family, short)
        long_spec = family_window(rng, family, long)
        short_path = write_input(directory, f"{family}-n{short}", short_spec)
        long_path = write_input(directory, f"{family}-n{long}", long_spec)
        ops.append(Op(f"factorize:{family}-n{long}", "factorize", long_path,
                      even_breakpoints(long_spec, FACTORIZE_BREAKPOINTS)))
        ops.append(Op(f"identities:{family}-n{short}", "identities", short_path,
                      even_breakpoints(short_spec, IDENTITIES_BREAKPOINTS)))
        ops.append(Op(f"scatter:{family}-n{long}", "scatter", long_path))
        # cheap, but a second scatter op per family halves the seed-to-seed
        # spread of oracle_agree_digits
        ops.append(Op(f"scatter:{family}-n{short}", "scatter", short_path))
    return ops


def small_batch(rng, directory, scale=1.0):
    bp_rng = np.random.default_rng(rng.integers(2**63))
    specs = [("readme", README_FIXTURE, (0,))]
    count = max(1, int(SMALL_BATCH_WINDOWS * scale))
    # conftest draws the length from 1..40 and the breakpoint count from
    # 1..4; here both are spread evenly over those ranges in a seeded
    # order, so every seed asks for the same number of sites and fragments
    lengths = rng.permutation(np.linspace(1, 40, count).round().astype(int))
    point_counts = bp_rng.permutation(np.arange(count) % 4 + 1)
    for k, (length, point_count) in enumerate(zip(lengths, point_counts)):
        spec = damped_window(rng, int(length))
        points = random_breakpoints(bp_rng, spec, int(point_count))
        specs.append((f"damped{k:02d}-n{length}", spec, points))
    ops = []
    for name, spec, points in specs:
        path = write_input(directory, name, spec)
        ops.append(Op(f"scatter:{name}", "scatter", path))
        ops.append(Op(f"factorize:{name}", "factorize", path, points))
        ops.append(Op(f"identities:{name}", "identities", path, points))
    return ops


OP_LISTS = {
    "long-scatter": long_scatter,
    "fragment-checks": fragment_checks,
    "small-batch": small_batch,
}


def build(workload: str, seed: int, directory: str, scale: float = 1.0) -> list[Op]:
    """Write the workload's inputs under directory and return its op list.

    The same seed gives byte-identical files and the same op list.  scale
    shrinks window sizes and counts for quick smoke runs.
    """
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    return OP_LISTS[workload](rng, directory, scale)
