import dataclasses
import math
import random
import sys
import threading
from pathlib import Path

import pytest

from bondtaylor import genpoly as gp
from bondtaylor.errors import DomainError, TermLimitError
from bondtaylor.genpoly import GenPoly
from bondtaylor.model import parse_model_config
from bondtaylor.series import (LOGPRICE, MAX_ORDER, PRICE, eval_partial_sum,
                               exp_compose, log_coeffs, partial_sums,
                               pde_residual_coeffs, price_coeffs, yield_curve,
                               yield_from_price)

ALPHA, BETA, SIGMA = 0.00315, -0.0555, 0.0894

# reference cells carry 6 decimals; 1e-12 pad keeps boundary halves stable
TOL6 = 5e-7 + 1e-12


def test_series_shape_and_anchors(cir_model):
    for build, target, c0 in ((price_coeffs, PRICE, gp.const(1.0)),
                              (log_coeffs, LOGPRICE, GenPoly())):
        s = build(cir_model, 5)
        assert s.target == target
        assert len(s.coeffs) == 6
        assert s.coeffs[0] == c0
        # both recursions share c_1 = -r, bit for bit
        assert s.coeffs[1].terms == ((-1.0, 1.0),)


def test_cir_price_c2_by_hand(cir_model):
    c2 = price_coeffs(cir_model, 2).coeffs[2]
    ref = gp.canonicalize([(-ALPHA / 2, 0.0), (-BETA / 2, 1.0), (0.5, 2.0)])
    assert gp.approx_equal(c2, ref, 1e-15)


def test_cir_price_partial_sums(cir_model):
    sums = partial_sums(price_coeffs(cir_model, 4), 1.0, 0.05)
    for got, ref in zip(sums[1:], (0.950000, 0.951062, 0.951121, 0.951115)):
        assert abs(got - ref) <= TOL6


def test_dothan_price_c2_and_partial_sums(dothan02_model):
    c2 = price_coeffs(dothan02_model, 2).coeffs[2]
    ref = gp.canonicalize([(-0.005 / 2, 1.0), (0.5, 2.0)])
    assert gp.approx_equal(c2, ref, 1e-15)
    sums = partial_sums(price_coeffs(dothan02_model, 3), 3.0, 0.035)
    for got, ref in zip(sums[1:], (0.895000, 0.899725, 0.899721)):
        assert abs(got - ref) <= TOL6


def test_zero_model_price_coeffs_exact(zero_model):
    s = price_coeffs(zero_model, 8)
    fact = 1.0
    for k, c in enumerate(s.coeffs):
        if k:
            fact *= k
        want = (-1.0) ** k / fact
        if k == 0:
            assert c == gp.const(1.0)
        else:
            (coeff, exp), = c.terms
            assert exp == float(k)
            assert abs(coeff - want) <= 1e-15


def test_zero_model_log_coeffs_exact(zero_model):
    s = log_coeffs(zero_model, 6)
    assert s.coeffs[0] == GenPoly()
    assert s.coeffs[1].terms == ((-1.0, 1.0),)
    assert all(c == GenPoly() for c in s.coeffs[2:])


def test_cir_log_c2_by_hand(cir_model):
    c2 = log_coeffs(cir_model, 2).coeffs[2]
    ref = gp.canonicalize([(-ALPHA / 2, 0.0), (-BETA / 2, 1.0)])
    assert gp.approx_equal(c2, ref, 1e-15)


def test_cir_log_partial_sums(cir_model):
    sums = partial_sums(log_coeffs(cir_model, 4), 1.0, 0.05)
    for got, ref in zip(sums[1:], (-0.050000, -0.050188, -0.050117, -0.050120)):
        assert abs(got - ref) <= TOL6


def _cir_printed_log_c345():
    # closed-form c_3..c_5 of the log expansion, written out by hand
    a, b, s2 = ALPHA, BETA, SIGMA * SIGMA
    c3 = gp.canonicalize([(-b * a / 6, 0.0), ((-b * b + s2) / 6, 1.0)])
    c4 = gp.canonicalize([(a * (s2 - b * b) / 24, 0.0),
                          ((3 * b * s2 + b * (s2 - b * b)) / 24, 1.0)])
    c5 = gp.canonicalize([(b * a * (4 * s2 - b * b) / 120, 0.0),
                          ((s2 * (7 * b * b - 4 * s2)
                            + b * b * (4 * s2 - b * b)) / 120, 1.0)])
    return c3, c4, c5


def test_cir_log_c3_c4_c5_match_closed_forms(cir_model):
    s = log_coeffs(cir_model, 5)
    for k, ref in zip((3, 4, 5), _cir_printed_log_c345()):
        assert gp.approx_equal(s.coeffs[k], ref, 1e-12), f"c_{k} mismatch"


def test_partial_sums_prefix_property(cir_model):
    s = price_coeffs(cir_model, 7)
    tau = 0.8
    sums = partial_sums(s, tau, 0.05)
    assert len(sums) == 8
    assert sums[-1] == eval_partial_sum(s, tau, 0.05)
    # each entry extends the previous by one term
    tau_pow, acc = 1.0, 0.0
    for k, c in enumerate(s.coeffs):
        acc += gp.evaluate(c, 0.05) * tau_pow
        assert sums[k] == pytest.approx(acc, abs=1e-15)
        tau_pow *= tau


def test_eval_at_tau_zero(cir_model):
    assert eval_partial_sum(price_coeffs(cir_model, 6), 0.0, 0.07) == 1.0
    assert eval_partial_sum(log_coeffs(cir_model, 6), 0.0, 0.07) == 0.0


def test_negative_tau_rejected(cir_model):
    with pytest.raises(DomainError):
        eval_partial_sum(price_coeffs(cir_model, 3), -0.5, 0.05)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_non_finite_tau_rejected(cir_model, tau):
    with pytest.raises(DomainError, match="finite"):
        partial_sums(price_coeffs(cir_model, 3), tau, 0.05)


@pytest.mark.parametrize("order", [-1, 31, 2.5, True])
def test_order_guard(cir_model, order):
    with pytest.raises(ValueError):
        price_coeffs(cir_model, order)
    with pytest.raises(ValueError):
        log_coeffs(cir_model, order)


def test_max_order_is_30():
    assert MAX_ORDER == 30


def test_yield_from_price_examples():
    # reference yields quoted to 5 decimals in percent; inputs are themselves
    # rounded prices, so the propagated slack is about 2e-7 on the raw yield
    assert yield_from_price(0.951115, 1.0) == pytest.approx(0.0501202, abs=2e-7)
    assert yield_from_price(0.780631, 5.0) == pytest.approx(0.0495306, abs=2e-7)
    assert yield_from_price(math.exp(-0.1), 2.0) == pytest.approx(0.05, abs=1e-15)


@pytest.mark.parametrize("price,tau", [(0.0, 1.0), (-0.5, 1.0), (0.9, 0.0), (0.9, -1.0)])
def test_yield_from_price_domain(price, tau):
    with pytest.raises(DomainError):
        yield_from_price(price, tau)


def test_yield_curve_cir_order6(cir_model):
    curve = yield_curve(cir_model, 6, 0.05, [1.0, 3.0, 5.0])
    for (tau, rate), ref in zip(curve, (5.01202, 5.00064, 4.95288)):
        assert abs(100.0 * rate - ref) <= 5e-6 + 1e-12


def test_yield_curve_zero_model_flat(zero_model):
    curve = yield_curve(zero_model, 8, 0.0321, [0.5, 1.0, 2.0, 7.0])
    assert all(rate == pytest.approx(0.0321, abs=1e-15) for _, rate in curve)


def test_yield_curve_single_tau_composition(cir_model):
    (tau, rate), = yield_curve(cir_model, 6, 0.05, [2.0])
    f = eval_partial_sum(log_coeffs(cir_model, 6), 2.0, 0.05)
    assert rate == pytest.approx(yield_from_price(math.exp(f), 2.0), abs=1e-14)


def test_yield_curve_rejects_nonpositive_tau(cir_model):
    with pytest.raises(DomainError):
        yield_curve(cir_model, 6, 0.05, [1.0, 0.0])


def test_exp_compose_matches_price_series(cir_model):
    price = price_coeffs(cir_model, 8)
    composed = exp_compose(log_coeffs(cir_model, 8))
    assert composed.target == PRICE
    for k in range(9):
        assert gp.approx_equal(composed.coeffs[k], price.coeffs[k], 1e-9)


def test_exp_compose_zero_model(zero_model):
    composed = exp_compose(log_coeffs(zero_model, 6))
    ref = price_coeffs(zero_model, 6)
    for k in range(7):
        assert gp.approx_equal(composed.coeffs[k], ref.coeffs[k], 1e-15)


def test_exp_compose_order_zero(cir_model):
    s = exp_compose(log_coeffs(cir_model, 0))
    assert s.coeffs == (gp.const(1.0),)


def test_exp_compose_rejects_price_series(cir_model):
    with pytest.raises(ValueError):
        exp_compose(price_coeffs(cir_model, 3))


def test_residual_vanishes_cir_and_dothan(cir_model, dothan02_model):
    for model, order in ((cir_model, 5), (dothan02_model, 3)):
        res = pde_residual_coeffs(price_coeffs(model, order))
        assert len(res) == order + 1
        for k in range(order):
            assert gp.approx_equal(res[k], GenPoly(), 1e-12), f"order {k}"


def test_residual_leading_term_zero_model(zero_model):
    res = pde_residual_coeffs(price_coeffs(zero_model, 4))
    for k in range(4):
        assert res[k] == GenPoly()
    (coeff, exp), = res[4].terms
    assert exp == 5.0
    assert coeff == pytest.approx(-1.0 / 24.0, abs=1e-18)


def test_residual_rejects_log_series(cir_model):
    with pytest.raises(ValueError):
        pde_residual_coeffs(log_coeffs(cir_model, 3))


def test_residual_property_random_models(random_model_factory):
    rng = random.Random(20240814)
    for _ in range(10):
        model = random_model_factory(rng)
        res = pde_residual_coeffs(price_coeffs(model, 6))
        worst = max((abs(c) for poly in res[:6] for c, _ in poly.terms),
                    default=0.0)
        assert worst < 1e-10


def test_determinism(cir_model):
    a = price_coeffs(cir_model, 8)
    b = price_coeffs(cir_model, 8)
    assert a.coeffs == b.coeffs
    la = log_coeffs(cir_model, 8)
    lb = log_coeffs(cir_model, 8)
    assert la.coeffs == lb.coeffs


def test_fractional_exponent_model_series(cir_model):
    # CKLS with gamma=0.75 produces fractional exponents in the coefficients
    from bondtaylor.model import make_ckls
    m = make_ckls(0.01, -0.2, 0.1, 0.75)
    s = price_coeffs(m, 4)
    exps = {p for c in s.coeffs for _, p in c.terms}
    assert any(abs(p - round(p)) > 1e-9 for p in exps)
    val = eval_partial_sum(s, 0.5, 0.05)
    assert 0.9 < val < 1.0
    with pytest.raises(DomainError):
        eval_partial_sum(s, 0.5, 0.0)


# --- the per-rate coefficient values partial_sums keeps -------------------

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
R1, R2 = 0.05, 0.031
CACHE_TAUS = (0.0, 0.25, 1.0, 3.0)


def _uncached_sums(s, tau, r):
    """partial_sums without reuse: every c_k evaluated, same order of sums."""
    out, acc, tau_pow = [], 0.0, 1.0
    for c in s.coeffs:
        acc += gp.evaluate(c, r) * tau_pow
        tau_pow *= tau
        out.append(acc)
    return out


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Count gp.evaluate calls made from here on."""
    calls = []
    real = gp.evaluate

    def counting(a, r):
        calls.append(r)
        return real(a, r)
    monkeypatch.setattr(gp, "evaluate", counting)
    return calls


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
@pytest.mark.parametrize("cfg", ["cir.cfg", "vasicek.cfg", "dothan_s2_0.02.cfg", "ckls.cfg"])
def test_partial_sums_with_reuse_equal_uncached_loop(cfg, build):
    s = build(parse_model_config(CONFIGS / cfg), 10)
    for r in (R1, R1, R2, R1, R2):
        for tau in CACHE_TAUS:
            assert partial_sums(s, tau, r) == _uncached_sums(s, tau, r)


def test_partial_sums_evaluates_once_per_rate_change(cir_model, evaluate_calls):
    s = log_coeffs(cir_model, 10)
    for r in (R1, R1, R2, R1, R2):
        for tau in CACHE_TAUS:
            partial_sums(s, tau, r)
    # four rate changes (r1, r2, r1, r2), eleven coefficients each
    assert evaluate_calls == [R1] * 11 + [R2] * 11 + [R1] * 11 + [R2] * 11


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
def test_domain_error_at_r_zero_is_not_kept(build):
    s = build(parse_model_config(CONFIGS / "ckls.cfg"), 10)
    partial_sums(s, 1.0, R1)
    for _ in range(2):  # a refused rate stays refused
        with pytest.raises(DomainError, match="cannot evaluate exponent"):
            partial_sums(s, 1.0, 0.0)
    assert partial_sums(s, 2.0, R1) == _uncached_sums(s, 2.0, R1)
    assert partial_sums(s, 2.0, R2) == _uncached_sums(s, 2.0, R2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_domain_error_at_non_finite_r_is_not_kept(cir_model, bad):
    s = price_coeffs(cir_model, 10)
    partial_sums(s, 1.0, R1)
    for _ in range(2):
        with pytest.raises(DomainError, match="not finite"):
            partial_sums(s, 1.0, bad)
    assert partial_sums(s, 2.0, R2) == _uncached_sums(s, 2.0, R2)
    assert partial_sums(s, 2.0, R1) == _uncached_sums(s, 2.0, R1)


def test_maturity_checked_first_when_rate_is_kept(cir_model):
    s = price_coeffs(cir_model, 6)
    partial_sums(s, 1.0, R1)
    with pytest.raises(DomainError,
                       match="time to maturity must be nonnegative and finite, got inf"):
        partial_sums(s, math.inf, R1)


def test_evaluated_series_compares_hashes_and_prints_as_fresh(cir_model, evaluate_calls):
    s = price_coeffs(cir_model, 6)
    fresh = price_coeffs(cir_model, 6)
    before = repr(s)
    partial_sums(s, 1.0, R1)
    assert s == fresh and hash(s) == hash(fresh)
    assert repr(s) == before == repr(fresh)
    copy = dataclasses.replace(s)
    assert copy == s
    evaluate_calls.clear()
    assert partial_sums(copy, 1.0, R1) == partial_sums(s, 1.0, R1)
    assert len(evaluate_calls) == 7  # the copy evaluated afresh, s reused


def test_threads_sharing_a_series_never_mix_rates(cir_model):
    s = log_coeffs(cir_model, 10)
    rates = (R1, R2, 0.07)
    want = {r: _uncached_sums(s, 1.5, r) for r in rates}
    bad = []

    def work(k):
        for i in range(8000):
            r = rates[(i + k) % len(rates)]
            got = partial_sums(s, 1.5, r)
            if got != want[r]:
                bad.append((r, got))
    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


@pytest.mark.parametrize("build,prefix", [(price_coeffs, "price series order "),
                                          (log_coeffs, "log series order ")])
def test_term_limit_names_the_series_order(monkeypatch, build, prefix):
    # a 40-pair cap trips inside the log convolution, not only in its operator
    monkeypatch.setattr(gp, "_MAX_RAW_TERMS", 40)
    with pytest.raises(TermLimitError) as exc:
        build(parse_model_config(CONFIGS / "ckls.cfg"), 30)
    assert str(exc.value).startswith(prefix)
