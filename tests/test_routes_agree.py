"""Every printed number agrees with an independent reference, or is refused.

The `fd` route and the series route against the CIR closed form, which
shares no code with either: an exit-0 price must carry the closed form's six
decimals, and a price the route's error estimate cannot certify must exit 2
with one error line and nothing on stdout.
"""

import contextlib
import io
from pathlib import Path

from bondtaylor import cli
from bondtaylor.closedform import cir_exact_log_price, cir_exact_price
from bondtaylor.errors import DomainError
from bondtaylor.model import parse_model_config
from bondtaylor.series import log_coeffs, partial_sums, price_coeffs

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
    from bondtaylor.fdsolver import default_grid, fd_price_at, fd_solve

    model = parse_model_config(CIR)
    for r in (1e-5, 1e-4, 2e-4, 3e-4, 4.1e-4):
        for tau in (0.25, 1.0, 2.0, 5.0):
            sol = fd_solve(model, tau, default_grid(r, tau))
            error = abs(fd_price_at(sol, r) - cir_exact_price(cir_params, tau, r))
            assert cli._fd_error(sol, r, tau) >= error, (r, tau)
    code, out, err = _run(["fd", "--model", str(CIR), "--r", "0.00041", "--tau", "2"])
    assert (code, out) == (2, "") and "its error estimate 6.21e-07 exceeds" in err


SERIES_ORDERS = (4, 6, 8, 10, 12, 16, 20, 30)
SERIES_RATES = (0.0, 0.005, 0.01, 0.03, 0.05, 0.1, 0.2)
SERIES_TAUS = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0)


def test_series_sums_the_gate_prints_match_the_cir_closed_form(cir_params):
    # `price` applies cli._series_sum to each maturity's partial sums; on
    # these 1232 points it prints 768 sums and refuses 464.  The three-term
    # shape rule it replaced printed 997, and 192 of them were off by more
    # than the half-ulp.  The three left are points where the last term
    # happens to be small; the worst is off by 3.7e-6
    model = parse_model_config(CIR)
    off, printed = [], 0
    for target, build, exact in (("price", price_coeffs, cir_exact_price),
                                 ("logprice", log_coeffs, cir_exact_log_price)):
        for order in SERIES_ORDERS:
            series = build(model, order)
            for r in SERIES_RATES:
                for tau in SERIES_TAUS:
                    try:
                        value = cli._series_sum(partial_sums(series, tau, r), cli._HALF_ULP,
                                                tau, r)
                    except DomainError:
                        continue
                    printed += 1
                    if abs(value - exact(cir_params, tau, r)) > cli._HALF_ULP:
                        off.append((target, order, r, tau))
    assert printed == 768
    assert off == [("price", 10, 0.1, 5.0), ("logprice", 4, 0.01, 2.0),
                   ("logprice", 6, 0.0, 5.0)]
    # these printed 0.932338 (exact 0.263340) and -1.408079 (exact 0.140410)
    for r, tau, order in (("0.1", "20", "30"), ("0.2", "15", "6")):
        code, out, err = _run(["price", "--model", str(CIR), "--r", r, "--tau", tau,
                               "--order", order])
        assert (code, out) == (2, "") and err.count("\n") == 1
