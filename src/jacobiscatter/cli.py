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
import math
import sys
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
from .spectral import _band_images, _pair_half, sample_circle
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
# the table's field format: 17 significant digits, as _fmt prints the reports
_FIELD_FORMAT = "%.17g"


def _load_sequence(path: str) -> CoefficientSequence:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = _json_load(fh)
        except JSONDecodeError as exc:
            raise CoefficientError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CoefficientError(f"{path} must hold a single coefficient object")
    return validate_sequence(raw)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        return
    # newline='' keeps the bytes identical across platforms
    with open(output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _conjugate_row(row: str) -> str:
    """The csv table row at conj(z), from the row at z: theta and the
    imaginary parts negated as text, where 0 and nan print no sign."""
    fields = row.split(",")
    for j in (0, 3, 5, 7):  # theta, im_T, im_R, im_L
        text = fields[j]
        fields[j] = text[1:] if text[0] == "-" else text if text in ("0", "nan") else "-" + text
    return ",".join(fields)


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


def run_scatter(args: argparse.Namespace) -> int:
    """Sweep the grid and write the coefficient table.  Exit 0 on success.

    Each conjugate pair's row is computed and formatted once, as csv text
    over _pair_half of the grid, and row i > count // 2 is the text of row
    count - i, its conjugate's, with theta and the imaginary parts negated;
    json rows take their fields from that text.  This is the whole grid's
    table byte for byte: atan2 is odd and abs even; in Python's complex
    arithmetic the band image's real part at conj(z) has the bits it has
    at z, an exact zero's sign too (+0.0 at both); T, R and L at conj(z)
    are those at z conjugated but for the sign of an exact zero, and + 0.0
    makes every zero +0.0.
    """
    seq = _load_sequence(args.input)
    grid = sample_circle(seq.limits, args.grid, args.delta)
    zs = _pair_half(grid)
    t, r, l = (values + 0.0 for values in scattering_values(seq, zs))
    row = ",".join([_FIELD_FORMAT] * len(_TABLE_FIELDS))
    rows = [
        row % fields
        for fields in zip(
            map(math.atan2, zs.imag.tolist(), zs.real.tolist()),
            _band_images(seq.limits, zs.tolist()),
            *(part.tolist() for values in (t, r, l) for part in (values.real, values.imag)),
            [abs(t_i) ** 2 + abs(r_i) ** 2 for t_i, r_i in zip(t.tolist(), r.tolist())],
        )
    ]
    count = len(grid)
    # rows count // 2 + 1, ..., count - 1 from rows count - count // 2 - 1, ..., 1
    rows += map(_conjugate_row, rows[count - count // 2 - 1 : 0 : -1])
    if args.format == "csv":
        table = "\n".join([",".join(_TABLE_FIELDS), *rows]) + "\n"
    else:
        template = "  {" + ", ".join(f'"{name}": %s' for name in _TABLE_FIELDS) + "}"
        table = "[\n" + ",\n".join(template % tuple(text.split(",")) for text in rows) + "\n]\n"
    _emit(table, args.output)
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


def run_factorize(args: argparse.Namespace) -> int:
    """Compare the transition matrix with its fragment product on the grid."""
    if not args.breakpoints:
        raise ValueError("factorize requires --breakpoints")
    seq = _load_sequence(args.input)
    frag = Fragmentation(args.breakpoints)
    # the maxima over one point of each conjugate pair are the grid's
    zs = _pair_half(sample_circle(seq.limits, args.grid, args.delta))
    parts = _corrupted_padding(fragment(seq, frag)) if args.corrupt_fragment_padding else None
    residuals = factorization_residuals(seq, frag, zs, parts=parts)
    return _write_report(_grid_maxima({"factorization": residuals}, zs), args)


def run_identities(args: argparse.Namespace) -> int:
    """Sweep every identity; junction checks join in when breakpoints are given."""
    seq = _load_sequence(args.input)
    frag = Fragmentation(args.breakpoints) if args.breakpoints else None
    zs = _pair_half(sample_circle(seq.limits, args.grid, args.delta))
    return _write_report(_identities_report(seq, frag, zs), args)


def _write_report(named: dict[str, float], args: argparse.Namespace) -> int:
    """Write one report row per residual: exit 0 if all pass, 1 otherwise."""
    rows = [(name, residual, args.tol, residual <= args.tol) for name, residual in named.items()]
    _emit(_render_report(rows, args.format), args.output)
    return 0 if all(ok for _, _, _, ok in rows) else 1


def _parse_breakpoints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"breakpoints must be comma-separated integers, got {text!r}"
        ) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use; parsing leaves it as it was."""
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


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    args.format = args.format or ("csv" if args.command == "scatter" else "json")
    try:
        if args.grid < 1:
            raise ValueError(f"grid count must be at least 1, got {args.grid}")
        if not 0.0 < args.delta < 1.0:
            raise ValueError(f"exclusion delta must lie in (0, 1), got {args.delta}")
        if not 0.0 < args.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {args.tol}")
        if args.command == "scatter":
            return run_scatter(args)
        if args.command == "factorize":
            return run_factorize(args)
        return run_identities(args)
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
