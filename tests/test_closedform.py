import itertools
import math

import pytest

from bondtaylor import genpoly as gp
from bondtaylor.closedform import (cir_exact_log_price, cir_exact_price,
                                   cir_exact_yield, cir_psi)
from bondtaylor.errors import DomainError
from bondtaylor.fdsolver import FDGrid, fd_price_at, fd_solve
from bondtaylor.model import CIRParams, make_cir
from bondtaylor.series import log_coeffs, yield_from_price

TOL6 = 5e-7 + 1e-12

EXACT_PRICE_CELLS = {0.25: 0.987567, 1.0: 0.951115, 5.0: 0.780631}


def test_reference_price_cells(cir_params):
    for tau, ref in EXACT_PRICE_CELLS.items():
        assert abs(cir_exact_price(cir_params, tau, 0.05) - ref) <= TOL6


def test_tau_zero_is_par(cir_params):
    for r in (0.0, 0.05, 0.2):
        assert cir_exact_price(cir_params, 0.0, r) == 1.0


def test_reference_yield_cells(cir_params):
    assert abs(100 * cir_exact_yield(cir_params, 1.0, 0.05) - 5.01202) <= 5e-6 + 1e-12
    assert abs(100 * cir_exact_yield(cir_params, 0.25, 0.05) - 5.00425) <= 5e-6 + 1e-12


def test_yield_composition(cir_params):
    price = cir_exact_price(cir_params, 2.0, 0.05)
    assert cir_exact_yield(cir_params, 2.0, 0.05) == pytest.approx(
        yield_from_price(price, 2.0), abs=1e-14)


def test_psi_dominates_beta():
    for a, b, s in ((0.00315, -0.0555, 0.0894), (0.0, 0.3, 0.0), (1.0, -2.0, 0.5)):
        assert cir_psi(CIRParams(a, b, s)) >= abs(b)


def test_sigma_zero_beta_zero_limit():
    p = CIRParams(alpha=0.01, beta=0.0, sigma=0.0)
    for tau in (0.5, 1.0, 3.0):
        want = math.exp(-0.04 * tau - 0.01 * tau * tau / 2)
        assert cir_exact_price(p, tau, 0.04) == pytest.approx(want, abs=1e-15)


def test_sigma_zero_general_limit():
    # deterministic rate r(t) = e^{bt}(r + a/b) - a/b; price = exp(-integral)
    a, b, r = 0.02, -0.5, 0.06
    p = CIRParams(alpha=a, beta=b, sigma=0.0)
    for tau in (0.5, 2.0, 7.0):
        integral = (r + a / b) * (math.exp(b * tau) - 1.0) / b - a * tau / b
        assert cir_exact_log_price(p, tau, r) == pytest.approx(-integral,
                                                               abs=1e-12)


def test_sigma_to_zero_continuity():
    # the sigma branch differs from the deterministic limit by O(sigma^2);
    # much smaller sigma is refused because 2*alpha/sigma^2 amplifies
    # rounding of the log-A bracket
    p0 = CIRParams(0.00315, -0.0555, 0.0)
    p1 = CIRParams(0.00315, -0.0555, 1e-4)
    assert cir_exact_log_price(p1, 2.0, 0.05) == pytest.approx(
        cir_exact_log_price(p0, 2.0, 0.05), abs=1e-6)


def test_monotone_in_r_and_tau(cir_params):
    rs = [0.01 + 0.01 * k for k in range(20)]
    prices = [cir_exact_price(cir_params, 2.0, r) for r in rs]
    assert all(a > b for a, b in zip(prices, prices[1:]))
    taus = [0.25 * k for k in range(1, 21)]
    curve = [cir_exact_price(cir_params, t, 0.05) for t in taus]
    assert all(a > b for a, b in zip(curve, curve[1:]))
    assert all(0.0 < v <= 1.0 for v in curve)


def test_alpha_zero_beta_zero_vs_fd():
    # 2*alpha/sigma^2 = 0 makes the A factor 1, so log P is linear in r
    p = CIRParams(alpha=0.0, beta=0.0, sigma=0.0894)
    assert cir_exact_log_price(p, 1.5, 0.0) == 0.0
    model = make_cir(p)
    sol = fd_solve(model, 1.0, FDGrid(r_max=0.5, n_r=2000, n_t=1000))
    exact = cir_exact_price(p, 1.0, 0.05)
    assert abs(fd_price_at(sol, 0.05) - exact) <= 1e-5


@pytest.mark.parametrize("order", [1, 2])
def test_taylor_agreement_order(cir_params, cir_model, order):
    # |f_J(tau) - log P(tau)| / tau^{J+1} must stay bounded as tau -> 0,
    # with the limit |c_{J+1}(r)|
    r = 0.05
    series = log_coeffs(cir_model, order + 1)
    limit = abs(gp.evaluate(series.coeffs[order + 1], r))
    ratios = []
    for k in range(3, 11):
        tau = 2.0 ** -k
        f = sum(gp.evaluate(series.coeffs[j], r) * tau ** j
                for j in range(order + 1))
        err = abs(f - cir_exact_log_price(cir_params, tau, r))
        ratios.append(err / tau ** (order + 1))
    assert max(ratios) <= 2.0 * limit
    assert ratios[-1] == pytest.approx(limit, rel=0.1)


def test_domain_errors(cir_params):
    with pytest.raises(DomainError):
        cir_exact_price(cir_params, -1.0, 0.05)
    with pytest.raises(DomainError):
        cir_exact_price(cir_params, 1.0, -0.01)
    with pytest.raises(DomainError):
        cir_exact_price(cir_params, math.nan, 0.05)
    with pytest.raises(DomainError):
        cir_exact_yield(cir_params, 0.0, 0.05)


def _reference_log_price(a, b, s, tau, r):
    """The same formulas in mpmath at 60 digits (450 where sigma^2 is below
    double range), from the very floats the double code sees."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(450 if 0.0 < s < 1e-20 else 60):
        a, b, s, tau, r = map(mp.mpf, (a, b, s, tau, r))
        if s == 0:
            if b == 0:
                return -r * tau - a * tau * tau / 2
            return a * tau / b - (r + a / b) * mp.expm1(b * tau) / b
        psi = mp.sqrt(b * b + 2 * s * s)
        em = -mp.expm1(-psi * tau)
        base = (psi - b) * em + 2 * psi * mp.exp(-psi * tau)
        log_a = (2 * a / (s * s)) * (mp.log(2 * psi) + (psi - b) * tau / 2
                                     - (psi * tau + mp.log(base)))
        return float(log_a - 2 * em / base * r)


@pytest.mark.parametrize("alpha", [0.00315, 0.05])
def test_log_price_matches_60_digit_oracle_or_is_refused(alpha):
    # near sigma = 0 and beta = 0 the double formulas lose digits; each value
    # is within 1e-9 max(1, |ln P|) of the oracle or refused, never wrong, and
    # from sigma = 1e-3 up none is refused
    wrong, refused = [], []
    for sigma, b, tau, r in itertools.product(
            (0.0, 1e-170, 1e-12, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 0.0894, 0.5),
            (-0.2, -0.0555, -1e-12, 0.0, 1e-12, 0.3),
            (0.25, 1.0, 10.0, 30.0, 100.0), (0.0, 0.05, 0.2)):
        try:
            got = cir_exact_log_price(CIRParams(alpha, b, sigma), tau, r)
        except DomainError:
            refused.append(sigma)
            continue
        want = _reference_log_price(alpha, b, sigma, tau, r)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            wrong.append((sigma, b, tau, r, got, want))
    assert wrong == []
    assert max(refused) < 1e-3


def test_refusal_band_at_the_paper_drift():
    # the paper's alpha and beta at r = 0.05: refused at sigma = 3e-5, priced
    # at every quarter-year maturity to 100 from sigma = 1e-4 up
    taus = [0.25 * k for k in range(1, 401)]
    with pytest.raises(DomainError, match="sigma=3e-05"):
        for tau in taus:
            cir_exact_log_price(CIRParams(0.00315, -0.0555, 3e-5), tau, 0.05)
    for sigma in (1e-4, 1e-3):
        for tau in taus:
            cir_exact_log_price(CIRParams(0.00315, -0.0555, sigma), tau, 0.05)


def test_alpha_zero_is_refused_where_psi_minus_beta_cancels():
    # with alpha = 0 only B(tau) r is left, and psi - beta ~ sigma^2 / beta
    # carries psi's rounding into B
    p = CIRParams(0.0, 0.3, 1e-6)
    with pytest.raises(DomainError, match="sigma=1e-06"):
        cir_exact_log_price(p, 100.0, 0.2)
    assert cir_exact_log_price(p, 0.25, 0.2) == pytest.approx(
        _reference_log_price(0.0, 0.3, 1e-6, 0.25, 0.2), rel=1e-9)


@pytest.mark.parametrize("p,tau", [
    (CIRParams(0.00315, 1e10, 0.0894), 1.0),  # e^{-psi tau} underflows, psi = beta
    (CIRParams(0.00315, 10.0, 0.0), 100.0),   # expm1(beta tau) overflows
])
def test_overflow_and_vanishing_denominator_are_domain_errors(p, tau):
    with pytest.raises(DomainError, match="closed form overflowed"):
        cir_exact_log_price(p, tau, 0.05)


def test_price_overflow_is_a_domain_error():
    # ln P = 0.5 alpha tau^2 = 5000 is finite, its exp is not
    with pytest.raises(DomainError, match="price overflowed"):
        cir_exact_price(CIRParams(-100.0, 0.0, 0.0), 10.0, 0.0)
