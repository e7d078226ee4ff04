import math
from pathlib import Path

import pytest

from bondtaylor.cli import build_parser
from bondtaylor.closedform import (cir_exact_log_price, cir_exact_price,
                                   cir_exact_yield)
from bondtaylor.errors import DomainError
from bondtaylor.fdsolver import FDGrid, default_grid, fd_solve
from bondtaylor.model import (CIRParams, DothanParams, make_cir, make_ckls, make_dothan,
                              make_dothan_sigma2)
from bondtaylor.series import partial_sums, price_coeffs, yield_from_price

CIR = CIRParams(0.00315, -0.0555, 0.0894)
CIR_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "cir.cfg")
GRID = FDGrid(r_max=0.5, n_r=10, n_t=4)

# the entry points that check a time to maturity, each applied to tau
TAKES_TAU = {
    "partial_sums": lambda tau: partial_sums(price_coeffs(make_cir(CIR), 3), tau, 0.05),
    "default_grid": lambda tau: default_grid(0.05, tau),
    "fd_solve": lambda tau: fd_solve(make_cir(CIR), tau, GRID),
    "cir_exact_log_price": lambda tau: cir_exact_log_price(CIR, tau, 0.05),
    "cir_exact_price": lambda tau: cir_exact_price(CIR, tau, 0.05),
}


@pytest.mark.parametrize("tau", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(TAKES_TAU))
def test_one_maturity_rule_and_message(name, tau):
    with pytest.raises(DomainError) as exc:
        TAKES_TAU[name](tau)
    assert str(exc.value) == f"time to maturity must be nonnegative and finite, got {tau}"


def _cmd_yield(tau, *route):
    args = build_parser().parse_args(["yield", "--model", CIR_CFG, "--r", "0.05",
                                      "--taus", f"1,{tau}", "--order", "6", *route])
    return args.handler(args)


# the entry points that turn a price into a yield, each applied to tau
TAKES_YIELD_TAU = {
    "yield_from_price": lambda tau: yield_from_price(0.95, tau),
    "cmd_yield": _cmd_yield,
    "cmd_yield --from-price": lambda tau: _cmd_yield(tau, "--from-price"),
    "cir_exact_yield": lambda tau: cir_exact_yield(CIR, tau, 0.05),
}


@pytest.mark.parametrize("tau", [0.0, -0.0])
@pytest.mark.parametrize("name", sorted(TAKES_YIELD_TAU))
def test_one_yield_maturity_rule_and_message(name, tau):
    with pytest.raises(DomainError) as exc:
        TAKES_YIELD_TAU[name](tau)
    assert str(exc.value) == f"yield needs tau > 0, got {tau}"


@pytest.mark.parametrize("name", sorted(TAKES_YIELD_TAU))
def test_one_yield_maturity_rule_refuses_a_subnormal_tau(name):
    # the log route printed 4.99012 at tau = 1e-320 against a true 5.00000
    with pytest.raises(DomainError) as exc:
        TAKES_YIELD_TAU[name](5e-324)
    assert str(exc.value) == ("yield needs a normal tau, at least "
                              "2.2250738585072014e-308, got 5e-324")


# the entry points that take a volatility, each applied to a negative one; the
# records store it, and what uses it refuses it
TAKES_SIGMA = {
    "make_cir": (lambda s: make_cir(CIRParams(0.1, 0.0, s)), "sigma"),
    "make_dothan": (lambda s: make_dothan(DothanParams(0.005, s)), "sigma"),
    "cir_exact_log_price": (lambda s: cir_exact_log_price(CIRParams(0.1, 0.0, s), 1.0, 0.05),
                            "sigma"),
    "cir_exact_price": (lambda s: cir_exact_price(CIRParams(0.1, 0.0, s), 1.0, 0.05), "sigma"),
    "cir_exact_yield": (lambda s: cir_exact_yield(CIRParams(0.1, 0.0, s), 1.0, 0.05), "sigma"),
    "make_ckls": (lambda s: make_ckls(0.1, 0.0, s, 0.75), "sigma"),
    "make_dothan_sigma2": (lambda s: make_dothan_sigma2(0.005, s), "sigma2"),
}


@pytest.mark.parametrize("name", sorted(TAKES_SIGMA))
def test_one_sigma_rule_and_message(name):
    build, key = TAKES_SIGMA[name]
    with pytest.raises(ValueError) as exc:
        build(-0.01)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{key} must be nonnegative, got -0.01"


# the closed form's entry points, each given a parameter that is not finite;
# these raised DomainError "closed form overflowed", naming no parameter
TAKES_FINITE = {"cir_exact_log_price": cir_exact_log_price,
                "cir_exact_price": cir_exact_price, "cir_exact_yield": cir_exact_yield}


@pytest.mark.parametrize("key,value", [("alpha", math.nan), ("beta", math.inf),
                                       ("sigma", math.inf)])
@pytest.mark.parametrize("name", sorted(TAKES_FINITE))
def test_closed_form_refuses_a_non_finite_parameter(name, key, value):
    with pytest.raises(ValueError) as exc:
        TAKES_FINITE[name](CIR._replace(**{key: value}), 1.0, 0.05)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{key} must be finite, got {value}"
