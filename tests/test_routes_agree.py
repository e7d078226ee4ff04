"""Every printed number agrees with an independent reference, or is refused.

The `fd` route and the series route against the CIR closed form, which
shares no code with either: an exit-0 price must carry the closed form's six
decimals, and a price the route's error estimate cannot certify must exit 2
with one error line and nothing on stdout.
"""

import argparse
import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bondtaylor import cli
from bondtaylor.closedform import cir_exact_log_price, cir_exact_price, cir_exact_yield
from bondtaylor.errors import DomainError
from bondtaylor.model import CIRParams, parse_model_config

# configs/cir.cfg holds the parameters of the cir_params fixture
CIR = Path(__file__).resolve().parents[1] / "configs" / "cir.cfg"
FD_RATES = (0.0, 1e-9, 0.01, 0.035, 0.05, 0.1, 0.2)
FD_TAUS = (0.25, 1.0, 5.0, 10.0, 30.0)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_fd_prints_the_cir_closed_form_or_refuses(cir_params):
    # before the refusal, 11 of these 35 points printed a wrong last digit
    # with exit 0: r <= 1e-9 at tau >= 5, r = 0.01 at tau = 10, and every rate
    # but 0.05 at tau = 30
    refused = []
    for r in FD_RATES:
        for tau in FD_TAUS:
            code, out, err = _run(["fd", "--model", str(CIR), "--r", repr(r),
                                   "--tau", repr(tau)])
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                refused.append((r, tau))
            else:
                assert (code, out) == (0, cli._fixed(cir_exact_price(cir_params, tau, r), 6) + "\n")
    # r <= 1e-9 at tau >= 5, r = 0.01 at tau >= 10, r = 0.2 at tau >= 10 and
    # every rate at tau = 30; no maturity up to 1 is refused
    assert len(refused) == 13


def test_fd_estimate_covers_interpolation_in_the_first_cell(cir_params):
    # a rate below half a base cell is interpolated between nodes 0 and 1;
    # the node estimates alone fell short of the error at 11 of these 20
    # points, and `fd` printed 0.993194 at r = 0.00041, tau = 2 (exact 0.993193)
    from bondtaylor.fdsolver import default_grid, fd_error_at, fd_price_at, fd_solve

    model = parse_model_config(CIR)
    for r in (1e-5, 1e-4, 2e-4, 3e-4, 4.1e-4):
        for tau in (0.25, 1.0, 2.0, 5.0):
            sol = fd_solve(model, tau, default_grid(r, tau))
            error = abs(fd_price_at(sol, r) - cir_exact_price(cir_params, tau, r))
            assert fd_error_at(sol, r) >= error, (r, tau)
    code, out, err = _run(["fd", "--model", str(CIR), "--r", "0.00041", "--tau", "2"])
    assert (code, out) == (2, "") and "its error estimate 6.21e-07 exceeds" in err


def _yield_pct(params, tau, r):
    return 100.0 * cir_exact_yield(params, tau, r)


SERIES_ORDERS = (4, 6, 8, 10, 12, 16, 20, 30)
SERIES_RATES = (0.0, 0.005, 0.01, 0.03, 0.05, 0.1, 0.2)
SERIES_TAUS = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0)


def test_series_prints_the_cir_closed_form_digits_or_refuses(cir_params, monkeypatch):
    # `price` (both targets) and `yield` (both routes) build two orders past J
    # and print show(S_J) only where show(S_J - e) and show(S_J + e) agree, e
    # being the two terms past J; each series is built once here.  On these
    # 1232 points per command the routes print 781 price and log-price sums,
    # 392 log-route yields and 363 price-route yields, each with the closed
    # form's digits.  Where the estimate had only to stay within the half-ulp,
    # they printed 802, 410 and 377, and 10, 9 and 3 of them showed a last
    # digit the closed form does not round to.  The three-term shape rule
    # printed 997 sums, 192 of them off by more than the half-ulp
    build = cli._series_for
    built = {}

    def series_for(args, past=0):
        key = (args.target, args.order, past)
        if key not in built:
            built[key] = build(args, past)
        return built[key]

    monkeypatch.setattr(cli, "_series_for", series_for)
    printed, off = {}, []
    for command, target, exact, decimals in (
            (cli.cmd_price, "price", cir_exact_price, 6),
            (cli.cmd_price, "logprice", cir_exact_log_price, 6),
            (cli.cmd_yield, "logprice", _yield_pct, 5),
            (cli.cmd_yield, "price", _yield_pct, 5)):
        route = (command.__name__, target)
        printed[route] = 0
        for order in SERIES_ORDERS:
            for r in SERIES_RATES:
                for tau in SERIES_TAUS:
                    args = argparse.Namespace(model=str(CIR), target=target, order=order, r=r,
                                              tau=tau, taus=repr(tau), converge=False,
                                              format="csv")
                    if command is cli.cmd_price:
                        args.taus = None
                    try:
                        text, _ = command(args)
                    except DomainError:
                        continue
                    printed[route] += 1
                    if text.splitlines()[1].split(",")[1] != cli._fixed(
                            exact(cir_params, tau, r), decimals):
                        off.append((route, order, r, tau))
    assert list(printed.values()) == [377, 404, 392, 363]
    assert off == []
    # these printed 0.932338 (exact 0.263340) and -1.408079 (exact 0.140410)
    for r, tau, order in (("0.1", "20", "30"), ("0.2", "15", "6")):
        code, out, err = _run(["price", "--model", str(CIR), "--r", r, "--tau", tau,
                               "--order", order])
        assert (code, out) == (2, "") and err.count("\n") == 1


@pytest.fixture(scope="module")
def drawn_cfg(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "cir.cfg"


# route: its command words, the closed form it prints, and its decimals
ROUTES = {
    "price": (["price"], cir_exact_price, 6),
    "logprice": (["price", "--target", "logprice"], cir_exact_log_price, 6),
    "yield": (["yield"], _yield_pct, 5),
    "yield-from-price": (["yield", "--from-price"], _yield_pct, 5),
}


# CIR models drawn from item 14's box: a printed price or yield carries the
# closed form's digits.  With the last term as the estimate, the first two
# pinned commands printed 2.60593 (exact 2.60550) and 0.767617 (exact
# 0.767634)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(alpha=st.floats(0.0, 0.01), beta=st.floats(-0.3, 0.05), sigma=st.floats(0.01, 0.3),
       r=st.floats(0.0, 0.2), tau=st.floats(0.1, 20.0),
       order=st.sampled_from((2, 4, 6, 8, 10, 12, 16, 20)), route=st.sampled_from(sorted(ROUTES)))
@example(alpha=0.002550690257394217, beta=-0.12659771951782067, sigma=0.14035240878873406,
         r=0.03, tau=5.0, order=8, route="yield")
@example(alpha=0.005414124727934966, beta=0.028702206972478717, sigma=0.12054922892958159,
         r=0.0, tau=10.0, order=16, route="price")
# S_12 is 3.6e-7 below the exact 0.5310836274, and its estimate 4.0e-7 is
# within the half-ulp, which let it print 0.531083 where the closed form
# rounds to 0.531084
@example(alpha=0.0, beta=0.03125, sigma=0.09375, r=0.09375, tau=6.5, order=12, route="price")
def test_drawn_cir_series_prints_the_closed_form_or_refuses(drawn_cfg, alpha, beta, sigma,
                                                            r, tau, order, route):
    drawn_cfg.write_text(f"model = cir\nalpha = {alpha!r}\nbeta = {beta!r}\n"
                         f"sigma = {sigma!r}\n", encoding="utf-8")
    (command, *flags), exact, decimals = ROUTES[route]
    when = "--tau" if command == "price" else "--taus"
    code, out, err = _run([command, "--model", str(drawn_cfg), "--r", repr(r), when, repr(tau),
                           "--order", str(order), *flags, "--format", "csv"])
    if code == 2:
        assert out == "" and err.startswith("error: cannot print the order-")
    else:
        printed = out.splitlines()[1].split(",")[1]
        assert (code, printed) == (0, cli._fixed(exact(CIRParams(alpha, beta, sigma), tau, r),
                                                 decimals))
