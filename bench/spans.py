"""Spans around the package's public functions, recorded from outside it.

The package source is not edited.  Tracer.install swaps each traced
module attribute for a timing wrapper, and also every copy another
package module took with ``from .x import y``, because callers look
those names up in their own module.  Tracer.restore puts every original
back.  Spans (name, start, end, parent, op id) stay in memory until the
run ends; the self time of a span is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute) pairs that get a span; every per-module metric
# below is computed from these spans alone.
TRACED = (
    ("lattice", "validate_sequence"),
    ("lattice", "coefficient_arrays"),
    ("lattice", "fragment"),
    ("spectral", "sample_circle"),
    ("spectral", "require_admissible"),
    ("jost", "jost_values"),
    ("scattering", "scattering_amplitudes"),
    ("scattering", "identity_sweep"),
    ("transition", "transition_entries"),
    ("transition", "determinant_residuals"),
    ("transition", "factorization_residuals"),
    ("transition", "junction_residual_sweep"),
    ("cli", "main"),
)

# Bytes of one complex128 solution value, for jost.bytes_computed.
COMPLEX_BYTES = 16
# Sites past the effective support that a solution still needs: the tail
# fits read two exact plane-wave sites on each side.
SUPPORT_MARGIN = 2

COUNT, MS, RATIO = "count", "ms", "ratio"

# name -> unit, in report order.  layer_metrics gives the per-pass values
# of all but the last two, which come from the verification and the walls.
LAYER_UNITS = {
    "jost.recursions": COUNT,
    "jost.site_points": COUNT,
    "jost.self_ms": MS,
    "jost.ns_per_site_point": "ns",
    "jost.bytes_computed": "B",
    "jost.support_site_share": RATIO,
    "lattice.fragment_calls": COUNT,
    "lattice.fragment_ms": MS,
    "lattice.coefficient_arrays_calls": COUNT,
    "lattice.coefficient_arrays_ms": MS,
    "lattice.validate_ms": MS,
    "spectral.sample_circle_ms": MS,
    "spectral.require_admissible_calls": COUNT,
    "spectral.require_admissible_ms": MS,
    "scattering.tailfit_calls": COUNT,
    "scattering.tailfit_self_ms": MS,
    "scattering.identity_sweep_self_ms": MS,
    "transition.entries_calls": COUNT,
    "transition.entries_ms": MS,
    "transition.factorization_self_ms": MS,
    "transition.junction_sweep_calls": COUNT,
    "transition.junction_sweep_self_ms": MS,
    "transition.determinant_ms": MS,
    "cli.self_ms": MS,
    "cli.bytes_out": "B",
    "oracle.transfer_ms": MS,
    "trace.overhead_share": RATIO,
}


class Tracer:
    """Records spans from wrapped package functions while installed."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op, points, support_points]
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._effective_support = None

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package or name.startswith(self.package + "."))]
        lattice = sys.modules[f"{self.package}.lattice"]
        self._effective_support = lattice.effective_support
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, name: str, fn):
        is_jost = name == "jost.jost_values"

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, 0, 0, parent, self.op, 0, 0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if is_jost:
                seq = args[0] if args else kwargs["seq"]
                span[5], span[6] = self._jost_points(seq, *result)
            return result

        return traced

    def _jost_points(self, seq, values, lo):
        """(grid points x solution sites, the part inside support +- margin)."""
        points, sites = values.shape
        support = self._effective_support(seq)
        if support.free:
            return points * sites, 0
        first = max(lo, support.window.n_min - SUPPORT_MARGIN)
        last = min(lo + sites - 1, support.window.n_max + SUPPORT_MARGIN)
        return points * sites, points * max(0, last - first + 1)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times in ns since the first span)."""
        base = self.spans[0][1] if self.spans else 0
        keys = ("name", "start_ns", "end_ns", "parent", "op", "site_points", "support_points")
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                record = dict(zip(keys, span))
                record["id"] = i
                record["start_ns"] -= base
                record["end_ns"] -= base
                fh.write(json.dumps(record) + "\n")


def layer_metrics(spans: list[list], start: int, bytes_out: int) -> dict:
    """Per-module metrics of one traced pass, spans[start:] being that pass."""
    child_ns = defaultdict(int)
    calls = defaultdict(int)
    total = defaultdict(float)
    for span in spans[start:]:
        duration = span[2] - span[1]
        calls[span[0]] += 1
        total[span[0]] += duration / 1e6
        if span[3] is not None:
            child_ns[span[3]] += duration
    own = defaultdict(float)
    for index, span in enumerate(spans[start:], start):
        own[span[0]] += (span[2] - span[1] - child_ns[index]) / 1e6
    points = sum(span[5] for span in spans[start:])
    support_points = sum(span[6] for span in spans[start:])
    return {
        "jost.recursions": calls["jost.jost_values"],
        "jost.site_points": points,
        "jost.self_ms": own["jost.jost_values"],
        "jost.ns_per_site_point": own["jost.jost_values"] * 1e6 / points if points else 0.0,
        "jost.bytes_computed": COMPLEX_BYTES * points,
        "jost.support_site_share": support_points / points if points else 0.0,
        "lattice.fragment_calls": calls["lattice.fragment"],
        "lattice.fragment_ms": total["lattice.fragment"],
        "lattice.coefficient_arrays_calls": calls["lattice.coefficient_arrays"],
        "lattice.coefficient_arrays_ms": total["lattice.coefficient_arrays"],
        "lattice.validate_ms": total["lattice.validate_sequence"],
        "spectral.sample_circle_ms": total["spectral.sample_circle"],
        "spectral.require_admissible_calls": calls["spectral.require_admissible"],
        "spectral.require_admissible_ms": total["spectral.require_admissible"],
        "scattering.tailfit_calls": calls["scattering.scattering_amplitudes"],
        "scattering.tailfit_self_ms": own["scattering.scattering_amplitudes"],
        "scattering.identity_sweep_self_ms": own["scattering.identity_sweep"],
        "transition.entries_calls": calls["transition.transition_entries"],
        "transition.entries_ms": total["transition.transition_entries"],
        "transition.factorization_self_ms": own["transition.factorization_residuals"],
        "transition.junction_sweep_calls": calls["transition.junction_residual_sweep"],
        "transition.junction_sweep_self_ms": own["transition.junction_residual_sweep"],
        "transition.determinant_ms": total["transition.determinant_residuals"],
        "cli.self_ms": own["cli.main"],
        "cli.bytes_out": bytes_out,
    }
