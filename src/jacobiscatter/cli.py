"""Command-line front end: coefficient files in, tables and reports out.

Three subcommands share one flag set:

    jacobiscatter scatter    --input coeffs.json [--grid N] [--delta D]
    jacobiscatter factorize  --input coeffs.json --breakpoints 0,3
    jacobiscatter identities --input coeffs.json [--breakpoints 0]

scatter writes one row per grid point (theta, band energy, Re/Im of the
three coefficients, unitarity defect), factorize compares the transition
matrix against its fragment product, identities sweeps every proved
relation.  Exit codes: 0 all checks pass, 1 a residual exceeded the
tolerance, 2 bad input or input too large for memory, 3 numerical
fault.  Output is byte-deterministic for a fixed config: floats are
printed with 17 significant digits and JSON is assembled by hand rather
than through a serializer.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from json import JSONDecodeError, load as _json_load

import numpy as np

from .errors import CoefficientError, NumericalFault
from .lattice import (
    CoefficientSequence,
    Fragmentation,
    IndexWindow,
    fragment,
    validate_sequence,
)
from .scattering import _grid_maxima, scattering_values
from .spectral import CircleGrid, sample_circle
from .transition import _identities_report, factorization_residuals

_TABLE_FIELDS = (
    "theta",
    "lambda",
    "re_T",
    "im_T",
    "re_R",
    "im_R",
    "re_L",
    "im_L",
    "unitarity",
)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything one subcommand run needs."""

    input_path: str
    grid_count: int = 512
    exclusion_delta: float = 1e-3
    tolerance: float = 1e-9
    breakpoints: tuple[int, ...] | None = None
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.grid_count < 1:
            raise ValueError(f"grid count must be at least 1, got {self.grid_count}")
        if not 0.0 < self.exclusion_delta < 1.0:
            raise ValueError(
                f"exclusion delta must lie in (0, 1), got {self.exclusion_delta}"
            )
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")


def _load_sequence(path: str) -> CoefficientSequence:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = _json_load(fh)
        except JSONDecodeError as exc:
            raise CoefficientError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CoefficientError(f"{path} must hold a single coefficient object")
    return validate_sequence(raw)


def _grid_for(seq: CoefficientSequence, config: RunConfig) -> CircleGrid:
    return sample_circle(seq.limits, config.grid_count, config.exclusion_delta)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        return
    # newline='' keeps the bytes identical across platforms
    with open(output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# one printf template per table row, 17 significant digits per field
_CSV_ROW = ",".join(["%.17g"] * len(_TABLE_FIELDS))
_JSON_ROW = "  {" + ", ".join(f'"{name}": %.17g' for name in _TABLE_FIELDS) + "}"


def _render_table(rows: list[tuple[float, ...]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(_TABLE_FIELDS)]
        lines.extend(_CSV_ROW % row for row in rows)
        return "\n".join(lines) + "\n"
    return "[\n" + ",\n".join(_JSON_ROW % row for row in rows) + "\n]\n"


def _render_report(rows: list[tuple[str, float, float, bool]], fmt: str) -> str:
    if fmt == "csv":
        lines = ["check,max_residual,tolerance,pass"]
        lines.extend(
            f"{name},{_fmt(residual)},{_fmt(tol)},{'true' if ok else 'false'}"
            for name, residual, tol, ok in rows
        )
        return "\n".join(lines) + "\n"
    objects = [
        '  {"check": "%s", "max_residual": %s, "tolerance": %s, "pass": %s}'
        % (name, _fmt(residual), _fmt(tol), "true" if ok else "false")
        for name, residual, tol, ok in rows
    ]
    return "[\n" + ",\n".join(objects) + "\n]\n"


def run_scatter(config: RunConfig) -> int:
    """Sweep the grid and write the coefficient table.  Exit 0 on success."""
    seq = _load_sequence(config.input_path)
    grid = _grid_for(seq, config)
    t, r, l = scattering_values(seq, grid.zs)
    rows = list(
        zip(
            grid.thetas.tolist(),
            grid.lams.tolist(),
            t.real.tolist(),
            t.imag.tolist(),
            r.real.tolist(),
            r.imag.tolist(),
            l.real.tolist(),
            l.imag.tolist(),
            [abs(t_i) ** 2 + abs(r_i) ** 2 for t_i, r_i in zip(t.tolist(), r.tolist())],
        )
    )
    _emit(_render_table(rows, config.format), config.output_path)
    return 0


def _corrupted_padding(parts: list[CoefficientSequence]) -> list[CoefficientSequence]:
    """Negative control: damage one padded entry of the first fragment.

    The damaged site carries b_inf + 1/2 where the limit belongs, so the
    fragment product detaches from the whole transition matrix and the
    factorization run must exit 1.
    """
    first = parts[0]
    wider = IndexWindow(first.window.n_min, first.window.n_max + 1)
    lim = first.limits
    bad = CoefficientSequence(
        lim,
        wider,
        np.append(first.a_values, lim.a_inf),
        np.append(first.b_values, lim.b_inf + 0.5),
        np.append(first.w_values, lim.w_inf),
    )
    return [bad] + list(parts[1:])


def run_factorize(config: RunConfig, corrupt_padding: bool = False) -> int:
    """Compare the transition matrix with its fragment product on the grid."""
    if not config.breakpoints:
        raise ValueError("factorize requires --breakpoints")
    seq = _load_sequence(config.input_path)
    frag = Fragmentation(tuple(config.breakpoints))
    grid = _grid_for(seq, config)
    parts = _corrupted_padding(fragment(seq, frag)) if corrupt_padding else None
    residuals = factorization_residuals(seq, frag, grid.zs, parts=parts)
    return _write_report(_grid_maxima({"factorization": residuals}, grid.zs), config)


def run_identities(config: RunConfig) -> int:
    """Sweep every identity; junction checks join in when breakpoints are given."""
    seq = _load_sequence(config.input_path)
    frag = Fragmentation(tuple(config.breakpoints)) if config.breakpoints else None
    return _write_report(_identities_report(seq, frag, _grid_for(seq, config).zs), config)


def _write_report(named: dict[str, float], config: RunConfig) -> int:
    """Write one report row per residual: exit 0 if all pass, 1 otherwise."""
    rows = [
        (name, residual, config.tolerance, residual <= config.tolerance)
        for name, residual in named.items()
    ]
    _emit(_render_report(rows, config.format), config.output_path)
    return 0 if all(ok for _, _, _, ok in rows) else 1


def _parse_breakpoints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"breakpoints must be comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="coefficient file (JSON)")
    common.add_argument(
        "--grid", type=int, default=512, help="number of circle points (default 512)"
    )
    common.add_argument(
        "--delta",
        type=float,
        default=1e-3,
        help="chordal exclusion radius around +1 and -1 (default 1e-3)",
    )
    common.add_argument(
        "--tol", type=float, default=1e-9, help="pass/fail tolerance (default 1e-9)"
    )
    common.add_argument(
        "--breakpoints",
        type=_parse_breakpoints,
        default=None,
        help="comma-separated fragmentation breakpoints, e.g. 0,3",
    )
    common.add_argument("--output", default=None, help="write here instead of stdout")
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="output form (default: csv for scatter, json for reports)",
    )
    parser = argparse.ArgumentParser(
        prog="jacobiscatter",
        description="Scattering data and factorization checks for Jacobi systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("scatter", parents=[common], help="tabulate T, R, L over the grid")
    fact = sub.add_parser(
        "factorize", parents=[common], help="check the fragment product formula"
    )
    fact.add_argument(
        "--corrupt-fragment-padding", action="store_true", help=argparse.SUPPRESS
    )
    sub.add_parser("identities", parents=[common], help="check every proved relation")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use; parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = RunConfig(
            input_path=args.input,
            grid_count=args.grid,
            exclusion_delta=args.delta,
            tolerance=args.tol,
            breakpoints=args.breakpoints,
            output_path=args.output,
            format=args.format or ("csv" if args.command == "scatter" else "json"),
        )
        if args.command == "scatter":
            return run_scatter(config)
        if args.command == "factorize":
            return run_factorize(
                config, corrupt_padding=args.corrupt_fragment_padding
            )
        return run_identities(config)
    except NumericalFault as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an array larger than memory before allocating it
        print(f"input too large: {exc}", file=sys.stderr)
        return 2
