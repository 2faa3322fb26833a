"""Sort each CLI operation's result into ok, check_failed or error.

Runs outside every timed region.  An operation is an error when it
raises, exits 2 or 3 (or with any code the CLI does not define), prints
output that does not parse, prints a non-finite value, or, for
``scatter``, prints coefficients that disagree with the transfer route
of ``jacobiscatter.oracle`` by more than the README's 1e-10.  A report
that exits 1 with well-formed rows is a check failure: some residual
exceeded --tol.  Everything else is ok.  Both errors and check failures
count as failed operations.

The ``factorization`` and ``transition_determinant`` rows of a report
are also recomputed here, independently of the report path: from the
package's ``transition_entries`` on the whole window and on fragments
the bench cuts itself, multiplied by the bench.  A printed residual more
than RESIDUAL_SLACK times below its recomputation is a wrong answer.

An error makes the whole bench run incorrect only when it is a wrong
answer that passes for a right one: output that does not parse, a report
whose exit code contradicts its rows, or finite coefficients further
than WRONG_ANSWER_TOL from the transfer route.  A printed nan, an exit
code, or a gap between ROUTE_TOL and WRONG_ANSWER_TOL still counts as an
error, but does not make the run incorrect: on 3,000 to 10,000 sites the
transfer route itself drifts by up to about 1e-8 near z = +1 and -1
(the Wronskian route sides with the tail fit there), so a gap that small
cannot tell a wrong answer from the reference's own drift.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

ROUTE_TOL = 1e-10  # README: the extraction routes agree pairwise to 1e-10
WRONG_ANSWER_TOL = 1e-6
# A printed residual may sit this far below the bench's recomputation
# (summation order may change), and residuals under the floor all agree.
RESIDUAL_SLACK = 100.0
RESIDUAL_FLOOR = 1e-12
TABLE_FIELDS = ("theta", "lambda", "re_T", "im_T", "re_R", "im_R", "re_L", "im_L", "unitarity")
GRID_COUNT = 512  # CLI defaults, which no bench operation overrides
EXCLUSION_DELTA = 1e-3

_NON_FINITE = re.compile(r"(?<![A-Za-z_])-?(nan|inf)(?![A-Za-z_])")


@dataclass
class Verdict:
    """Outcome of one operation, with the raw data the results record keeps."""

    outcome: str  # "ok", "check_failed" or "error"
    reason: str = ""
    wrong: bool = False  # an error that passes for a right answer
    rows: list = field(default_factory=list)  # report rows, reports only
    oracle_gap: float | None = None  # scatter only: worst gap to the transfer route
    oracle_seconds: float = 0.0
    recomputed: dict = field(default_factory=dict)  # reports only: the bench's residuals


def classify(command: str, spec: dict, code, stdout: str, raised: str | None,
             oracle, recompute, breakpoints=()) -> Verdict:
    """Classify one result.  oracle(spec) gives ((T, R, L), grid angles,
    seconds); recompute(spec, breakpoints) gives residuals by row name."""
    if raised is not None:
        return Verdict("error", f"raised {raised}")
    if code in (2, 3):
        return Verdict("error", f"exit {code}")
    if code not in (0, 1):
        return Verdict("error", f"undefined exit code {code!r}")
    if _NON_FINITE.search(stdout):
        return Verdict("error", f"non-finite value with exit {code}")
    if command == "scatter":
        return _classify_table(spec, code, stdout, oracle)
    return _classify_report(code, stdout, lambda: recompute(spec, breakpoints))


def _classify_table(spec, code, stdout, oracle) -> Verdict:
    if code != 0:
        return Verdict("error", f"scatter exit {code}", wrong=True)
    lines = stdout.splitlines()
    if not lines or tuple(lines[0].split(",")) != TABLE_FIELDS:
        return Verdict("error", "malformed table header", wrong=True)
    try:
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError:
        return Verdict("error", "malformed table row", wrong=True)
    if table.shape != (GRID_COUNT, len(TABLE_FIELDS)):
        return Verdict("error", f"table shape {table.shape}", wrong=True)
    (t_ref, r_ref, l_ref), zs_theta, seconds = oracle(spec)
    if not np.array_equal(table[:, 0], zs_theta):
        return Verdict("error", "grid angles differ from the default grid", wrong=True)
    printed = (
        table[:, 2] + 1j * table[:, 3],
        table[:, 4] + 1j * table[:, 5],
        table[:, 6] + 1j * table[:, 7],
    )
    gap = max(
        float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        for got, want in zip(printed, (t_ref, r_ref, l_ref))
    )
    if not math.isfinite(gap):
        return Verdict("error", "transfer route not finite", oracle_seconds=seconds)
    if gap > ROUTE_TOL:
        return Verdict(
            "error", f"off the transfer route by {gap:.3e}", wrong=gap > WRONG_ANSWER_TOL,
            oracle_gap=gap, oracle_seconds=seconds,
        )
    return Verdict("ok", oracle_gap=gap, oracle_seconds=seconds)


def _classify_report(code, stdout, recompute) -> Verdict:
    try:
        report = json.loads(stdout)
        rows = [(r["check"], float(r["max_residual"]), bool(r["pass"])) for r in report]
        consistent = all(
            isinstance(r["pass"], bool) and r["pass"] == (r["max_residual"] <= r["tolerance"])
            for r in report
        )
    except (ValueError, TypeError, KeyError):
        return Verdict("error", "malformed report", wrong=True)
    if not rows or not consistent or (code == 0) != all(ok for _, _, ok in rows):
        return Verdict("error", "exit code or pass flags contradict the residuals",
                       wrong=True, rows=rows)
    recomputed = recompute()
    printed = {name: residual for name, residual, _ in rows}
    for name, value in recomputed.items():
        if name in printed and RESIDUAL_SLACK * max(printed[name], RESIDUAL_FLOOR) < value:
            return Verdict("error", f"{name} residual {printed[name]:.3e} is below the "
                           f"recomputed {value:.3e}", wrong=True, rows=rows,
                           recomputed=recomputed)
    return Verdict("ok" if code == 0 else "check_failed", rows=rows, recomputed=recomputed)
