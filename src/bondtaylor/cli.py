"""Command line front end.

Subcommands:

  coeffs     print the series coefficients c_k(r) as generalized polynomials
  price      evaluate price or log-price partial sums at given maturities
  yield      yield curve in percent from the log-price series, or from the
             price series with --from-price
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

Exit codes: 0 success, 1 usage or config error (among them an --order J outside
[0, 30]: price and yield build to order J + 2, and series.MAX_ORDER is 32), 2
numerical domain error (among them a series sum S_J whose error estimate e, the
two terms past it, leaves a printed digit open, where S_J - e and S_J + e would
print differently, and an fd price whose estimate exceeds half its last digit;
price --converge prints every partial sum unchecked), 3 reference-table mismatch.
Output goes to stdout or to --out; --format picks aligned text (default) or
CSV with a header row.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys
from pathlib import Path

from .errors import ConfigError, DomainError, check_yield_maturity
from .closedform import cir_exact_price
from .genpoly import to_text
from .model import CIRParams, parse_model_config
from .series import MAX_ORDER, log_coeffs, partial_sums, price_coeffs, yield_from_price
from .tables import TABLE_IDS, build_table


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # - and a digit or .digit start a value (-5e-05, -1,2); argparse reads only -1 and -.5
        self._negative_number_matcher = re.compile(r"-\.?\d")

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


# price and yield build two orders past the printed sum, whose terms estimate its error
_PAST = 2


def _series_for(args, extra: int = 0):
    model = parse_model_config(args.model)  # a bad config is reported before a bad order
    if not 0 <= args.order <= MAX_ORDER - _PAST:
        raise ValueError(f"order must be in [0, {MAX_ORDER - _PAST}], got {args.order}")
    build = price_coeffs if args.target == "price" else log_coeffs
    return build(model, args.order + extra)


def cmd_coeffs(args) -> tuple[str, int]:
    series = _series_for(args)
    if args.format == "csv":
        rows = [[str(k), to_text(c)] for k, c in enumerate(series.coeffs)]
        return _render(["order", "coefficient"], rows, "csv"), 0
    lines = [f"c[{k}] = {to_text(c)}" for k, c in enumerate(series.coeffs)]
    return "\n".join(lines) + "\n", 0


def _series_sum(sums: list[float], decimals: int, show, tau: float, r: float) -> str:
    """show(S_J) at fixed decimals, from the partial sums S_0..S_{J+_PAST}, where
    S_J's error estimate e fixes every printed digit: show(S_J - e) and
    show(S_J + e) print the same, else DomainError.  e is the size of the
    _PAST terms past J, |S_{J+1} - S_J| + |S_{J+2} - S_{J+1}|, plus the
    rounding 2^-53 max_{k<=J} |S_k|."""
    j = len(sums) - 1 - _PAST
    error = 0.0  # added left to right, which sum() does not do from Python 3.12
    for a, b in zip(sums[j:], sums[j + 1:]):
        error += abs(b - a)
    error += 2.0 ** -53 * max(map(abs, sums[:j + 1]))
    try:
        low, value, high = (show(s) for s in (sums[j] - error, sums[j], sums[j] + error))
    except DomainError:  # an end show cannot take: a price not positive and finite has no yield
        low = value = high = math.nan
    text = _fixed(value, decimals)  # an end that is NaN or infinite prints no digits
    if not (math.isfinite(value) and _fixed(low, decimals) == text == _fixed(high, decimals)):
        raise DomainError(f"cannot print the order-{j} sum at tau={tau:g}, r={r:g}: "
                          f"its error estimate {error:.3g} does not fix its printed digits")
    return text


def cmd_price(args) -> tuple[str, int]:
    series = _series_for(args, 0 if args.converge else _PAST)
    taus = [args.tau] if args.taus is None else _parse_taus(args.taus)
    header = ["tau"] + ([f"order{k}" for k in range(series.order + 1)]
                       if args.converge else [args.target])
    rows = []
    for tau in taus:  # every partial sum unchecked, or the order-J one checked
        sums = partial_sums(series, tau, args.r)
        shown = ([_fixed(s, 6) for s in sums] if args.converge
                 else [_series_sum(sums, 6, float, tau, args.r)])
        rows.append([f"{tau:g}"] + shown)
    return _render(header, rows, args.format), 0


def cmd_yield(args) -> tuple[str, int]:
    series = _series_for(args, _PAST)
    rows = []
    for tau in _parse_taus(args.taus):
        sums = partial_sums(series, tau, args.r)  # checks tau >= 0 before tau > 0
        check_yield_maturity(tau)
        # in percent; from the log price f, R = -f / tau skips the exp/log round trip
        percent = ((lambda p: 100.0 * yield_from_price(p, tau)) if args.target == "price"
                   else (lambda f: 100.0 * (-f / tau)))
        rows.append([f"{tau:g}", _series_sum(sums, 5, percent, tau, args.r)])
    return _render(["tau", "yield_pct"], rows, args.format), 0


def _render_price(args, price: float) -> str:
    text = _fixed(price, 6)
    if args.format == "csv":
        return _render(["tau", "r", "price"], [[f"{args.tau:g}", f"{args.r:g}", text]], "csv")
    return text + "\n"


def cmd_exact_cir(args) -> tuple[str, int]:
    params = CIRParams(args.alpha, args.beta, args.sigma)
    return _render_price(args, cir_exact_price(params, args.tau, args.r)), 0


def cmd_fd(args) -> tuple[str, int]:
    # the FD oracle, and with it numpy and scipy, loads only for this command
    from .fdsolver import default_grid, fd_error_at, fd_price_at, fd_solve

    sol = fd_solve(parse_model_config(args.model), args.tau, default_grid(args.r, args.tau))
    price = fd_price_at(sol, args.r)  # refuses a rate off the grid first
    error = fd_error_at(sol, args.r)
    if not error <= 5e-7:  # half a unit in the sixth decimal; NaN fails too
        raise DomainError(f"cannot print the FD price at tau={args.tau:g}, r={args.r:g}: its "
                          f"error estimate {error:.3g} exceeds the half-ulp 5e-07")
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
    p.add_argument("--from-price", dest="target", action="store_const", const="price",
                   default="logprice",
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
