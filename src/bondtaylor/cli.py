"""Command line front end.

Subcommands:

  coeffs     print the series coefficients c_k(r) as generalized polynomials
  price      evaluate price or log-price partial sums at given maturities
  yield     yield curve in percent from the log-price series
  exact-cir  closed-form CIR bond price
  fd         finite-difference PDE price (oracle for models without a
             closed form), optionally dumping the whole profile
  table      recompute one embedded reference table and compare cell by cell

Typical use:

  bondtaylor coeffs --model configs/cir.cfg --target logprice --order 5
  bondtaylor price --model configs/cir.cfg --r 0.05 --tau 1 --order 7 --converge
  bondtaylor yield --model configs/cir.cfg --r 0.05 --taus 1,2,5 --order 6
  bondtaylor exact-cir --alpha 0.00315 --beta -0.0555 --sigma 0.0894 --r 0.05 --tau 2
  bondtaylor fd --model configs/dothan_s2_0.01.cfg --r 0.035 --tau 10
  bondtaylor table --id dothan-grid --format csv

Exit codes: 0 success, 1 usage or config error, 2 numerical domain error,
3 reference-table mismatch.  Output goes to stdout or to --out; --format
picks aligned text (default) or CSV with a header row.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from .errors import ConfigError, DomainError, check_yield_maturity
from .closedform import cir_exact_price
from .genpoly import to_text
from .model import CIRParams, parse_model_config
from .series import (eval_partial_sum, log_coeffs, partial_sums, price_coeffs,
                     yield_from_price)
from .tables import TABLE_IDS, build_table


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _render(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]
    lines = []
    for record in [header] + rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(record, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _parse_taus(text: str) -> list[float]:
    taus = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            taus.append(float(piece))
        except ValueError:
            raise ConfigError(f"bad maturity {piece!r} in --taus") from None
    return taus


def _series_for(args, model):
    build = price_coeffs if args.target == "price" else log_coeffs
    return build(model, args.order)


def _maturities(args) -> list[float]:
    if args.tau is not None and args.taus is not None:
        raise ConfigError("use --tau or --taus, not both")
    if args.tau is not None:
        return [args.tau]
    if args.taus is not None:
        return _parse_taus(args.taus)
    raise ConfigError("one of --tau or --taus is required")


def cmd_coeffs(args) -> tuple[str, int]:
    model = parse_model_config(args.model)
    series = _series_for(args, model)
    if args.format == "csv":
        rows = [[str(k), to_text(c)] for k, c in enumerate(series.coeffs)]
        return _render(["order", "coefficient"], rows, "csv"), 0
    lines = [f"c[{k}] = {to_text(c)}" for k, c in enumerate(series.coeffs)]
    return "\n".join(lines) + "\n", 0


def cmd_price(args) -> tuple[str, int]:
    model = parse_model_config(args.model)
    series = _series_for(args, model)
    taus = _maturities(args)
    if args.converge:
        header = ["tau"] + [f"order{k}" for k in range(series.order + 1)]
        rows = [[f"{tau:g}"] + [f"{s:.6f}" for s in partial_sums(series, tau, args.r)]
                for tau in taus]
    else:
        header = ["tau", args.target]
        rows = [[f"{tau:g}", f"{eval_partial_sum(series, tau, args.r):.6f}"]
                for tau in taus]
    return _render(header, rows, args.format), 0


def cmd_yield(args) -> tuple[str, int]:
    model = parse_model_config(args.model)
    taus = _parse_taus(args.taus)
    series = (price_coeffs if args.from_price else log_coeffs)(model, args.order)
    rows = []
    for tau in taus:  # each sum checks tau >= 0 before its yield checks tau > 0
        value = eval_partial_sum(series, tau, args.r)
        if args.from_price:
            y = yield_from_price(value, tau)
        else:  # R = -f_J / tau skips the exp/log round trip
            check_yield_maturity(tau)
            y = -value / tau
        rows.append([f"{tau:g}", f"{100.0 * y + 0.0:.5f}"])  # + 0.0: a zero prints unsigned
    return _render(["tau", "yield_pct"], rows, args.format), 0


def _render_price(args, price: float) -> str:
    if args.format == "csv":
        return _render(["tau", "r", "price"],
                       [[f"{args.tau:g}", f"{args.r:g}", f"{price:.6f}"]], "csv")
    return f"{price:.6f}\n"


def cmd_exact_cir(args) -> tuple[str, int]:
    params = CIRParams(args.alpha, args.beta, args.sigma)
    return _render_price(args, cir_exact_price(params, args.tau, args.r)), 0


def cmd_fd(args) -> tuple[str, int]:
    # the FD oracle, and with it numpy and scipy, loads only for this command
    from dataclasses import replace

    from .fdsolver import default_grid, fd_price_at, fd_solve

    model = parse_model_config(args.model)
    grid = default_grid(args.r, args.tau)
    flags = dict(r_max=args.rmax, n_r=args.nr, n_t=args.nt)
    given = {field: v for field, v in flags.items() if v is not None}
    if given:  # one grid named in full, --rmax optional: a single march, no Richardson
        if args.nr is None or args.nt is None:
            raise ConfigError("an explicit grid needs both --nr and --nt")
        grid = replace(grid, richardson=False, **given)
    sol = fd_solve(model, args.tau, grid)
    if args.profile:
        rows = [[repr(j * grid.h), repr(float(v))]
                for j, v in enumerate(sol.values)]
        return _render(["r", "price"], rows, args.format), 0
    return _render_price(args, fd_price_at(sol, args.r)), 0


def cmd_table(args) -> tuple[str, int]:
    report = build_table(args.id)
    dec = report.decimals
    rows = []
    for cell in report.cells:
        ref = "" if cell.reference is None else f"{cell.reference:.{dec}f}"
        dev = "" if cell.deviation is None else f"{cell.deviation:.3e}"
        rows.append([cell.row, cell.column, f"{cell.computed:.{dec}f}",
                     ref, dev, cell.status, cell.note])
    text = _render(["row", "column", "computed", "reference", "deviation",
                    "status", "note"], rows, args.format)
    if args.format == "text":
        n_pass, n_flag, n_fail = report.counts()
        text += (f"{report.table_id}: {n_pass} pass, {n_flag} flagged, "
                 f"{n_fail} fail\n")
    return text, 0 if report.passed else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="bondtaylor",
                     description="Taylor-series bond pricing for one-factor "
                                 "short-rate models")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("csv", "text"), default="text",
                        help="output format (default text)")
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write output to FILE instead of stdout")
    with_model = _Parser(add_help=False)
    with_model.add_argument("--model", required=True, metavar="FILE",
                            help="model config file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common, with_model],
                       help="series coefficients as generalized polynomials")
    p.add_argument("--target", choices=("price", "logprice"), default="price")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser("price", parents=[common, with_model],
                       help="partial-sum prices or log prices")
    p.add_argument("--target", choices=("price", "logprice"), default="price")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--r", type=float, required=True, help="short rate")
    p.add_argument("--tau", type=float, default=None, help="single maturity")
    p.add_argument("--taus", default=None,
                   help="comma-separated list of maturities")
    p.add_argument("--converge", action="store_true",
                   help="emit partial sums for every order 0..J")
    p.set_defaults(handler=cmd_price)

    p = sub.add_parser("yield", parents=[common, with_model],
                       help="yield curve in percent")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--taus", required=True,
                   help="comma-separated list of maturities")
    p.add_argument("--from-price", action="store_true",
                   help="derive yields from the price series instead of the "
                        "log-price series")
    p.set_defaults(handler=cmd_yield)

    p = sub.add_parser("exact-cir", parents=[common],
                       help="closed-form CIR bond price")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.set_defaults(handler=cmd_exact_cir)

    p = sub.add_parser("fd", parents=[common, with_model],
                       help="finite-difference PDE price")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--nr", type=int, default=None)
    p.add_argument("--nt", type=int, default=None)
    p.add_argument("--profile", action="store_true",
                   help="dump the whole (r, price) profile")
    p.set_defaults(handler=cmd_fd)

    p = sub.add_parser("table", parents=[common],
                       help="recompute an embedded reference table")
    p.add_argument("--id", required=True, choices=TABLE_IDS)
    p.set_defaults(handler=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        text, code = args.handler(args)
    except ValueError as exc:  # DomainError is a ValueError, ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    if args.out is not None:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
