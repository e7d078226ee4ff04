"""Command line front end.

Subcommands:

  coeffs     print the series coefficients c_k(r) as generalized polynomials
  price      evaluate price or log-price partial sums at given maturities
  yield     yield curve in percent from the log-price series
  exact-cir  closed-form CIR bond price
  fd         finite-difference PDE price on the default Richardson grid
             (oracle for models without a closed form)
  table      recompute one embedded reference table and compare cell by cell

Typical use:

  bondtaylor coeffs --model configs/cir.cfg --target logprice --order 5
  bondtaylor price --model configs/cir.cfg --r 0.05 --tau 1 --order 7 --converge
  bondtaylor yield --model configs/cir.cfg --r 0.05 --taus 1,2,5 --order 10
  bondtaylor exact-cir --alpha 0.00315 --beta -0.0555 --sigma 0.0894 --r 0.05 --tau 2
  bondtaylor fd --model configs/dothan_s2_0.01.cfg --r 0.035 --tau 10
  bondtaylor table --id dothan-grid --format csv

Exit codes: 0 success, 1 usage or config error, 2 numerical domain error (among
them a price, yield or fd number whose error estimate exceeds half its last
printed digit; a series sum of order J is estimated by the two terms past it,
and price --converge prints every partial sum unchecked), 3 reference-table
mismatch.
Output goes to stdout or to --out; --format picks aligned text (default) or
CSV with a header row.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from pathlib import Path

from .errors import ConfigError, DomainError, check_yield_maturity
from .closedform import cir_exact_price
from .genpoly import to_text
from .model import CIRParams, parse_model_config
from .series import log_coeffs, partial_sums, price_coeffs, yield_from_price
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


def _fixed(value: float, decimals: int) -> str:
    """value at fixed decimals; one that rounds to zero prints unsigned."""
    text = f"{value:.{decimals}f}"
    return text[1:] if text[0] == "-" and not text.strip("-0.") else text


def _parse_taus(text: str) -> list[float]:
    taus = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            taus.append(float(piece))
        except ValueError:
            raise ConfigError(f"bad maturity {piece!r} in --taus") from None
    return taus


def _series_for(args, past: int = 0):
    build = price_coeffs if args.target == "price" else log_coeffs
    return build(parse_model_config(args.model), args.order, past=past)


def cmd_coeffs(args) -> tuple[str, int]:
    series = _series_for(args)
    if args.format == "csv":
        rows = [[str(k), to_text(c)] for k, c in enumerate(series.coeffs)]
        return _render(["order", "coefficient"], rows, "csv"), 0
    lines = [f"c[{k}] = {to_text(c)}" for k, c in enumerate(series.coeffs)]
    return "\n".join(lines) + "\n", 0


# half a unit in the sixth decimal: the most a price that price or fd prints may be off
_HALF_ULP = 5e-7
# price and yield build two orders past the printed sum, whose terms estimate its error
_PAST = 2


def _certified(value: float, error: float, half_ulp: float, what: str, tau: float,
               r: float) -> float:
    """value, or DomainError where its error estimate exceeds half_ulp or is NaN."""
    if not error <= half_ulp:
        raise DomainError(f"cannot print {what} at tau={tau:g}, r={r:g}: its error "
                          f"estimate {error:.3g} exceeds the half-ulp {half_ulp:.3g}")
    return value


def _series_sum(sums: list[float], half_ulp: float, tau: float, r: float) -> float:
    """S_J of the partial sums S_0..S_{J+2}, certified by the size of the two
    terms past it, |S_{J+1} - S_J| + |S_{J+2} - S_{J+1}|, plus the rounding
    2^-53 max_{k<=J} |S_k|."""
    s_j, s_j1, s_j2 = sums[-3:]
    error = abs(s_j1 - s_j) + abs(s_j2 - s_j1) + 2.0 ** -53 * max(map(abs, sums[:-2]))
    return _certified(s_j, error, half_ulp, f"the order-{len(sums) - 3} sum", tau, r)


def cmd_price(args) -> tuple[str, int]:
    series = _series_for(args, 0 if args.converge else _PAST)
    taus = [args.tau] if args.taus is None else _parse_taus(args.taus)
    header = ["tau"] + ([f"order{k}" for k in range(series.order + 1)]
                       if args.converge else [args.target])
    rows = []
    for tau in taus:  # every partial sum unchecked, or the order-J one checked
        sums = partial_sums(series, tau, args.r)
        shown = sums if args.converge else [_series_sum(sums, _HALF_ULP, tau, args.r)]
        rows.append([f"{tau:g}"] + [_fixed(s, 6) for s in shown])
    return _render(header, rows, args.format), 0


def cmd_yield(args) -> tuple[str, int]:
    model = parse_model_config(args.model)
    taus = _parse_taus(args.taus)
    series = (price_coeffs if args.from_price else log_coeffs)(model, args.order, past=_PAST)
    rows = []
    for tau in taus:
        sums = partial_sums(series, tau, args.r)  # checks tau >= 0 before tau > 0
        check_yield_maturity(tau)
        # the printed yield in percent to 5 decimals is R to 5e-8, so the
        # log price f = -R tau to 5e-8 tau, and the price to 5e-8 tau P, P = S_J
        half_ulp = 5e-8 * tau * (abs(sums[-3]) if args.from_price else 1.0)
        value = _series_sum(sums, half_ulp, tau, args.r)
        # R = -f_J / tau skips the exp/log round trip
        y = yield_from_price(value, tau) if args.from_price else -value / tau
        rows.append([f"{tau:g}", _fixed(100.0 * y, 5)])
    return _render(["tau", "yield_pct"], rows, args.format), 0


def _render_price(args, price: float) -> str:
    text = _fixed(price, 6)
    if args.format == "csv":
        return _render(["tau", "r", "price"], [[f"{args.tau:g}", f"{args.r:g}", text]], "csv")
    return text + "\n"


def cmd_exact_cir(args) -> tuple[str, int]:
    for flag in ("alpha", "beta", "sigma"):  # as a config file refuses them
        if not math.isfinite(getattr(args, flag)):
            raise ConfigError(f"--{flag} must be finite, got {getattr(args, flag)}")
    params = CIRParams(args.alpha, args.beta, args.sigma)
    return _render_price(args, cir_exact_price(params, args.tau, args.r)), 0


def cmd_fd(args) -> tuple[str, int]:
    # the FD oracle, and with it numpy and scipy, loads only for this command
    from .fdsolver import default_grid, fd_error_at, fd_price_at, fd_solve

    sol = fd_solve(parse_model_config(args.model), args.tau, default_grid(args.r, args.tau))
    price = fd_price_at(sol, args.r)  # refuses a rate off the grid first
    price = _certified(price, fd_error_at(sol, args.r), _HALF_ULP, "the FD price",
                       args.tau, args.r)
    return _render_price(args, price), 0


def cmd_table(args) -> tuple[str, int]:
    report = build_table(args.id)
    dec = report.decimals
    rows = []
    for cell in report.cells:
        ref = "" if cell.reference is None else _fixed(cell.reference, dec)
        dev = "" if cell.deviation is None else f"{cell.deviation:.3e}"
        rows.append([cell.row, cell.column, _fixed(cell.computed, dec),
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
    when = p.add_mutually_exclusive_group(required=True)
    when.add_argument("--tau", type=float, help="single maturity")
    when.add_argument("--taus", help="comma-separated list of maturities")
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
