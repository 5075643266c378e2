"""Command-line surface: one-shot design, Monte Carlo simulation, SVG plots.

Exit codes are a stable contract for scripting: 0 success, 1 usage or
input error, 2 design fell back to the identity matrix.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import math
import sys

from .channel import ChannelRealization, load_matrix
from .chart import render_line_chart
from .errors import IfrxError, InvalidInputError, ParseError
from .harness import DEFAULT_PRIME, ExperimentConfig, run_sweep, write_csv
from .ifcore import optimal_projection
from .sdm import SearchConfig
from .select import METHOD_FALLBACK, design_if


# far more points than any sweep needs, and few enough to build at once
MAX_GRID_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CLI contract reserves 2 for
    # design fallback, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_value_list(text: str, kind=float) -> list:
    """Parse 'a:step:b' inclusive grids and comma lists into numbers."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"grid spec must be a:step:b, got {text!r}")
        try:
            floats = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"grid spec must be numeric, got {text!r}") from None
        if not all(map(math.isfinite, floats)):
            raise ParseError(f"grid spec must be finite, got {text!r}")
        if floats[1] <= 0:
            raise ParseError("grid step must be positive")
        # a + k * step exactly from the decimal text, in a context too wide
        # to round, and each point rounded to a float once, so a grid
        # neither drifts nor passes its end
        exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                Emin=decimal.MIN_EMIN)
        a, step, b = map(decimal.Decimal, parts)
        if b < a:
            raise ParseError("grid end must not precede its start")
        count = int(exact.divide_int(exact.subtract(b, a), step)) + 1
        if count > MAX_GRID_POINTS:
            raise ParseError(f"grid spec {text!r} has more than {MAX_GRID_POINTS} points")
        values = [float(exact.fma(k, step, a)) for k in range(count)]
    else:
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ParseError(f"cannot parse value list {text!r}") from None
        if not values:
            raise ParseError("value list is empty")
        for v in values:
            if not math.isfinite(v):
                raise ParseError(f"value list must be finite, got {v}")
    if kind is int:
        for v in values:
            if not v.is_integer():
                raise ParseError(f"expected integer values, got {v}")
        return [int(v) for v in values]
    return values


def cmd_design(args) -> int:
    ch = ChannelRealization(h=load_matrix(args.channel), power=args.power)
    l = ch.l
    if l < 2:
        raise InvalidInputError(f"channel matrix must be at least 2x2, got {l}x{l}")
    lines = args.lines if args.lines is not None else -(-l // 2)
    if not 1 <= lines <= l - 1:
        raise InvalidInputError(f"--lines must be in [1, {l - 1}] for L = {l}")
    design = design_if(ch, SearchConfig(bound_m=args.bound, lines_j=lines), args.method)

    print(f"method: {design.method}")
    print(f"success: {'yes' if design.success else 'no'}")
    print("A (integer rows):")
    for row in design.a:
        print("  " + " ".join(str(int(c)) for c in row))
    print("B (projection rows):")
    for row in optimal_projection(design.a, ch):
        print("  " + " ".join(f"{v:.6g}" for v in row))
    print("per-stream rates: " + " ".join(f"{r:.6f}" for r in design.report.per_stream))
    print(f"R_total: {design.report.total:.6f}")
    return 0 if design.method != METHOD_FALLBACK else 2


def cmd_simulate(args) -> int:
    snr_grid = parse_value_list(args.snr_db, float)
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    lines = args.lines if args.lines is not None else -(-args.l // 2)
    if args.prime < 0:
        raise InvalidInputError("--prime must be a prime, or 0 to disable the check")
    cfg = ExperimentConfig(
        l=args.l,
        snr_db_grid=tuple(snr_grid),
        trials=args.trials,
        bound_m=args.bound,
        lines_j=lines,
        master_seed=args.seed,
        methods=methods,
        prime_p=args.prime or None,
    )
    sweep = {"snr": "snr", "lines": "lines_j", "bound": "bound_m"}[args.sweep]
    if args.sweep_values is not None:
        values = parse_value_list(args.sweep_values, float if sweep == "snr" else int)
    elif sweep == "snr":
        values = snr_grid
    else:
        raise InvalidInputError("--sweep-values is required for lines/bound sweeps")

    aggregates = run_sweep(cfg, sweep, values)
    write_csv(aggregates, args.out)

    for method in cfg.methods:
        rows = [a for a in aggregates if a.method == method]
        where = ""
        if sweep != "snr":
            # a lines or bound sweep reports its last value, by name
            rows = [a for a in rows if a.sweep_value == rows[-1].sweep_value]
            where = f"{sweep}={rows[-1].sweep_value}, "
        best = max(rows, key=lambda a: a.snr_db)
        print(f"{method}: avg min-form rate {best.avg_rate_min:.4f} at {where}{best.snr_db:g} dB "
              f"(success prob {best.success_prob:.3f})")
    print(f"wrote {len(aggregates)} aggregate rows to {args.out}")
    return 0


def cmd_plot(args) -> int:
    with open(args.in_csv, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise InvalidInputError(f"no header row in {args.in_csv}")
            for column in (args.x, args.y, args.series):
                if column not in reader.fieldnames:
                    raise InvalidInputError(f"column {column!r} not found in {args.in_csv}")
            rows = []
            for row in reader:
                # DictReader files a short row's missing fields as None, a
                # long row's extra ones under the key None
                if None in row or None in row.values():
                    raise InvalidInputError(f"line {reader.line_num} of {args.in_csv} does not "
                                            f"have the header's {len(reader.fieldnames)} fields")
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.in_csv} is not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            # the DictReader's own line_num stops at the last row it returned
            raise ParseError(f"line {reader.reader.line_num} of {args.in_csv} is not CSV "
                             f"({exc})") from None
    if not rows:
        raise InvalidInputError(f"no data rows in {args.in_csv}")

    groups: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        try:
            point = (float(row[args.x]), float(row[args.y]))
        except ValueError:
            raise InvalidInputError(
                f"non-numeric value in column {args.x!r} or {args.y!r}"
            ) from None
        for column, value in zip((args.x, args.y), point):
            if not math.isfinite(value):
                raise InvalidInputError(f"non-finite value {row[column]!r} in column {column!r}")
        groups.setdefault(row[args.series], []).append(point)

    svg = render_line_chart(list(groups.items()), x_label=args.x, y_label=args.y,
                            title=args.title)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    print(f"wrote {args.out} ({len(groups)} series)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ifrx`` argument parser, built once per process."""
    parser = _Parser(prog="ifrx", description="Integer-forcing linear receiver design")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    d = sub.add_parser("design", help="design a receiver for one channel file")
    d.add_argument("--channel", required=True, help="matrix text file (rows of numbers, # comments)")
    d.add_argument("--power", type=float, required=True, help="transmit power P (noise variance 1)")
    d.add_argument("--bound", type=int, default=2, help="per-coordinate bound M (default 2)")
    d.add_argument("--lines", type=int, default=None, help="search lines J (default ceil(L/2))")
    d.add_argument("--method", choices=("sdm", "exhaustive"), default="sdm")
    d.set_defaults(func=cmd_design)

    s = sub.add_parser("simulate", help="seeded Monte Carlo sweep, writes aggregate CSV")
    s.add_argument("--l", type=int, required=True, help="antenna count L")
    s.add_argument("--snr-db", default="0:5:30", help="a:step:b grid or comma list (default 0:5:30)")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--bound", type=int, default=2)
    s.add_argument("--lines", type=int, default=None, help="default ceil(L/2)")
    s.add_argument("--seed", type=int, default=1, help="master seed (u64)")
    s.add_argument("--methods", default="if-sdm,mmse,zf,capacity",
                   help="comma list from if-sdm,if-exhaustive,mmse,zf,capacity")
    s.add_argument("--sweep", choices=("snr", "lines", "bound"), default="snr")
    s.add_argument("--sweep-values", default=None,
                   help="values for the swept parameter (required for lines/bound)")
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                   help=f"prime for recovery checks, 0 disables (default {DEFAULT_PRIME})")
    s.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot", help="render an aggregate CSV as an SVG line chart")
    p.add_argument("--in", dest="in_csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--x", required=True, help="x-axis column name")
    p.add_argument("--y", required=True, help="y-axis column name")
    p.add_argument("--series", required=True, help="column defining one line per value")
    p.add_argument("--title", default="")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (IfrxError, OSError) as exc:
        print(f"ifrx: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
