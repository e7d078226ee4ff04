import math
import operator
import random
import re
import sys
import threading
from pathlib import Path

import pytest

from bondtaylor import cli
from bondtaylor import genpoly as gp
from bondtaylor import series as series_module
from bondtaylor.errors import DomainError
from bondtaylor.genpoly import GenPoly
from bondtaylor.model import make_ckls, make_custom, parse_model_config
from bondtaylor.series import (MAX_ORDER, TaylorSeries, log_coeffs,
                               partial_sums, price_coeffs, yield_from_price)
from reference import approx_equal, exp_compose, pairs, pde_residual
from reference import evaluate as reference_evaluate

ALPHA, BETA, SIGMA = 0.00315, -0.0555, 0.0894
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# reference cells carry 6 decimals; 1e-12 pad keeps boundary halves stable
TOL6 = 5e-7 + 1e-12


def test_series_shape_and_anchors(cir_model):
    # c_0 alone tells a price series from a log series
    for build, c0 in ((price_coeffs, gp.const(1.0)), (log_coeffs, GenPoly())):
        s = build(cir_model, 5)
        assert len(s.coeffs) == 6
        assert s.coeffs[0] == c0
        # both recursions share c_1 = -r, bit for bit
        assert s.coeffs[1] == gp.term(-1.0, 1.0)


def test_cir_price_c2_by_hand(cir_model):
    c2 = price_coeffs(cir_model, 2).coeffs[2]
    ref = gp.canonicalize([(-ALPHA / 2, 0.0), (-BETA / 2, 1.0), (0.5, 2.0)])
    assert approx_equal(c2, ref, 1e-15)


def test_cir_price_partial_sums(cir_model):
    sums = partial_sums(price_coeffs(cir_model, 4), 1.0, 0.05)
    for got, ref in zip(sums[1:], (0.950000, 0.951062, 0.951121, 0.951115)):
        assert abs(got - ref) <= TOL6


def test_dothan_price_c2_and_partial_sums(dothan02_model):
    c2 = price_coeffs(dothan02_model, 2).coeffs[2]
    ref = gp.canonicalize([(-0.005 / 2, 1.0), (0.5, 2.0)])
    assert approx_equal(c2, ref, 1e-15)
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
            (coeff, exp), = pairs(c)
            assert exp == float(k)
            assert abs(coeff - want) <= 1e-15


def test_zero_model_log_coeffs_exact(zero_model):
    s = log_coeffs(zero_model, 6)
    assert s.coeffs[0] == GenPoly()
    assert s.coeffs[1] == gp.term(-1.0, 1.0)
    assert all(c == GenPoly() for c in s.coeffs[2:])


def test_cir_log_c2_by_hand(cir_model):
    c2 = log_coeffs(cir_model, 2).coeffs[2]
    ref = gp.canonicalize([(-ALPHA / 2, 0.0), (-BETA / 2, 1.0)])
    assert approx_equal(c2, ref, 1e-15)


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
        assert approx_equal(s.coeffs[k], ref, 1e-12), f"c_{k} mismatch"


def test_partial_sums_prefix_property(cir_model):
    s = price_coeffs(cir_model, 7)
    tau = 0.8
    sums = partial_sums(s, tau, 0.05)
    assert len(sums) == 8
    # each entry extends the previous by one term
    tau_pow, acc = 1.0, 0.0
    for k, c in enumerate(s.coeffs):
        acc += gp.evaluate(c, 0.05) * tau_pow
        assert sums[k] == pytest.approx(acc, abs=1e-15)
        tau_pow *= tau


@pytest.mark.parametrize("model,build", [("cir_model", price_coeffs),
                                         ("cir_model", log_coeffs),
                                         ("zero_model", price_coeffs)])
def test_overflowed_partial_sum_rejected(request, model, build):
    # inf, nan and -inf sums: once one is not finite, no later one is
    s = build(request.getfixturevalue(model), 3)
    with pytest.raises(DomainError, match=r"partial sum overflowed at tau=1e\+200, r=0.05"):
        partial_sums(s, 1e200, 0.05)


def test_eval_at_tau_zero(cir_model):
    assert partial_sums(price_coeffs(cir_model, 6), 0.0, 0.07)[-1] == 1.0
    assert partial_sums(log_coeffs(cir_model, 6), 0.0, 0.07)[-1] == 0.0


def test_negative_tau_rejected(cir_model):
    with pytest.raises(DomainError):
        partial_sums(price_coeffs(cir_model, 3), -0.5, 0.05)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_non_finite_tau_rejected(cir_model, tau):
    with pytest.raises(DomainError, match="finite"):
        partial_sums(price_coeffs(cir_model, 3), tau, 0.05)


@pytest.mark.parametrize("order", [-1, 33, 2.5, True])
def test_order_guard(cir_model, order):
    with pytest.raises(ValueError):
        price_coeffs(cir_model, order)
    with pytest.raises(ValueError):
        log_coeffs(cir_model, order)


def test_max_order_is_32_and_the_cli_prints_to_30(cir_model):
    # the CLI prints S_J for J <= 30 and builds two orders past it
    assert MAX_ORDER == 32 and MAX_ORDER - cli._PAST == 30
    assert len(price_coeffs(cir_model, MAX_ORDER).coeffs) == 33
    for build in (price_coeffs, log_coeffs):
        for order, message in ((MAX_ORDER + 1, "order must be in [0, 32], got 33"),
                               (2.0, "order must be an integer, got 2.0")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(cir_model, order)


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
def test_past_orders_extend_the_series_and_leave_its_head(cir_model, build):
    # price and yield build two orders past the printed J; c_0..c_J are built
    # the same either way, so S_J keeps its bits
    for model in (cir_model, parse_model_config(CONFIGS / "ckls.cfg")):
        for order in (0, 1, 2, 7, MAX_ORDER - 2):
            longer = build(model, order + 2)
            assert longer.order == order + 2
            assert longer.coeffs[:order + 1] == build(model, order).coeffs


def test_yield_from_price_examples():
    # reference yields quoted to 5 decimals in percent; inputs are themselves
    # rounded prices, so the propagated slack is about 2e-7 on the raw yield
    assert yield_from_price(0.951115, 1.0) == pytest.approx(0.0501202, abs=2e-7)
    assert yield_from_price(0.780631, 5.0) == pytest.approx(0.0495306, abs=2e-7)
    assert yield_from_price(math.exp(-0.1), 2.0) == pytest.approx(0.05, abs=1e-15)


@pytest.mark.parametrize("price,tau", [(0.0, 1.0), (-0.5, 1.0), (math.nan, 1.0),
                                       (math.inf, 1.0), (0.9, 0.0), (0.9, -1.0)])
def test_yield_from_price_domain(price, tau):
    with pytest.raises(DomainError):
        yield_from_price(price, tau)


def test_zero_model_log_series_gives_a_flat_yield():
    series = log_coeffs(parse_model_config(CONFIGS / "zero.cfg"), 8)
    for tau in (0.5, 1.0, 2.0, 7.0):
        f = partial_sums(series, tau, 0.0321)[-1]
        assert -f / tau == pytest.approx(0.0321, abs=1e-15)
        assert yield_from_price(math.exp(f), tau) == pytest.approx(-f / tau, abs=1e-14)


def test_exp_compose_matches_price_series(cir_model):
    price = price_coeffs(cir_model, 8)
    composed = exp_compose(log_coeffs(cir_model, 8))
    assert composed.coeffs[0] == gp.const(1.0)
    for k in range(9):
        assert approx_equal(composed.coeffs[k], price.coeffs[k], 1e-9)


def test_exp_compose_zero_model(zero_model):
    composed = exp_compose(log_coeffs(zero_model, 6))
    ref = price_coeffs(zero_model, 6)
    for k in range(7):
        assert approx_equal(composed.coeffs[k], ref.coeffs[k], 1e-15)


def test_exp_compose_order_zero(cir_model):
    s = exp_compose(log_coeffs(cir_model, 0))
    assert s.coeffs == (gp.const(1.0),)


def test_exp_compose_rejects_price_series(cir_model):
    with pytest.raises(ValueError):
        exp_compose(price_coeffs(cir_model, 3))


# a coefficient right to rounding leaves a few ulps of its power's terms; the
# price recursion with its drift sign flipped leaves 1.0 on every shipped
# config with a drift
RESIDUAL_TOL = 1e-14
LATTICE_CONFIGS = sorted(p.name for p in CONFIGS.glob("*.cfg"))


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
@pytest.mark.parametrize("cfg", LATTICE_CONFIGS)
def test_series_solves_its_pde_exactly(cfg, build):
    res = pde_residual(build(parse_model_config(CONFIGS / cfg), 8))
    assert len(res) == 8
    assert max(res) < RESIDUAL_TOL


def test_residual_sees_a_flipped_drift(cir_model):
    # coefficients built with -mu in place of mu, checked against the model
    flipped = make_custom([(-c, p) for c, p in pairs(cir_model.drift)], pairs(cir_model.vol2))
    for build in (price_coeffs, log_coeffs):
        wrong = build(flipped, 8)._replace(model=cir_model)
        assert max(pde_residual(wrong)) > 0.01


def test_residual_sees_one_perturbed_coefficient(dothan02_model):
    s = price_coeffs(dothan02_model, 6)
    (c, n), *rest = s.coeffs[4].terms
    moved = s.coeffs[:4] + (s.coeffs[4]._replace(terms=((c * (1.0 + 1e-12), n), *rest)),) + s.coeffs[5:]
    res = pde_residual(s._replace(coeffs=moved))
    assert max(pde_residual(s)) < RESIDUAL_TOL
    assert res[3] > 1e-13 and res[4] > 1e-13
    assert max(res[:3] + res[5:]) < RESIDUAL_TOL


def test_residual_property_random_models(random_model_factory):
    rng = random.Random(20240814)
    for _ in range(10):
        model = random_model_factory(rng)
        assert max(pde_residual(price_coeffs(model, 6))) < RESIDUAL_TOL


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
    exps = {p for c in s.coeffs for _, p in pairs(c)}
    assert any(abs(p - round(p)) > 1e-9 for p in exps)
    val = partial_sums(s, 0.5, 0.05)[-1]
    assert 0.9 < val < 1.0
    with pytest.raises(DomainError):
        partial_sums(s, 0.5, 0.0)


# --- the per-rate coefficient values partial_sums keeps -------------------

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
def evaluations(monkeypatch):
    """Log what partial_sums evaluates from here on: ("table", polys) for each
    exponent table built, (r, number of values) for each rate evaluated from
    one, and ("evaluate", r) for each gp.evaluate call."""
    log = []
    real_table, real_values, real_evaluate = gp.table, gp.values, gp.evaluate

    def table(polys):
        polys = tuple(polys)
        log.append(("table", polys))
        return real_table(polys)

    def values(tab, r):
        out = real_values(tab, r)
        log.append((r, len(out)))
        return out

    def evaluate(a, r):
        log.append(("evaluate", r))
        return real_evaluate(a, r)
    monkeypatch.setattr(gp, "table", table)
    monkeypatch.setattr(gp, "values", values)
    monkeypatch.setattr(gp, "evaluate", evaluate)
    return log


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
@pytest.mark.parametrize("cfg", ["cir.cfg", "vasicek.cfg", "dothan_s2_0.02.cfg", "ckls.cfg"])
def test_partial_sums_with_reuse_equal_uncached_loop(cfg, build):
    s = build(parse_model_config(CONFIGS / cfg), 10)
    for r in (R1, R1, R2, R1, R2):
        for tau in CACHE_TAUS:
            assert partial_sums(s, tau, r) == _uncached_sums(s, tau, r)


def test_partial_sums_evaluates_once_per_rate_change(cir_model, evaluations):
    s = log_coeffs(cir_model, 10)
    for r in (R1, R1, R2, R1, R2):
        for tau in CACHE_TAUS:
            partial_sums(s, tau, r)
    # one table of the series' own c_0..c_10 and vol2, then four rate changes
    # (r1, r2, r1, r2), eleven coefficients and vol2 each, and no gp.evaluate call
    polys = (*s.coeffs, s.model.vol2)
    assert evaluations == [("table", polys), (R1, 12), (R2, 12), (R1, 12), (R2, 12)]
    assert all(map(operator.is_, evaluations[0][1], polys))


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
def test_domain_error_at_r_zero_is_not_kept(build):
    s = build(parse_model_config(CONFIGS / "ckls.cfg"), 10)
    partial_sums(s, 1.0, R1)
    for _ in range(2):  # a refused rate stays refused
        with pytest.raises(DomainError, match="cannot evaluate exponent"):
            partial_sums(s, 1.0, 0.0)
    assert partial_sums(s, 2.0, R1) == _uncached_sums(s, 2.0, R1)
    assert partial_sums(s, 2.0, R2) == _uncached_sums(s, 2.0, R2)


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
def test_domain_error_at_negative_vol2_is_not_kept(build):
    # vol2 = sigma^2 r of CIR is negative at r < 0, where every c_k(r) evaluates
    s = build(parse_model_config(CONFIGS / "cir.cfg"), 10)
    partial_sums(s, 1.0, R1)
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^vol2 is negative at r=-0\.05$"):
            partial_sums(s, 1.0, -0.05)
    assert partial_sums(s, 2.0, R1) == _uncached_sums(s, 2.0, R1)
    assert partial_sums(s, 2.0, R2) == _uncached_sums(s, 2.0, R2)
    assert partial_sums(s, 1.0, 0.0) == _uncached_sums(s, 1.0, 0.0)  # vol2(0) = 0


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
def test_negative_rate_kept_where_vol2_is_nonnegative(build):
    s = build(parse_model_config(CONFIGS / "vasicek.cfg"), 10)
    assert partial_sums(s, 1.0, -0.01) == _uncached_sums(s, 1.0, -0.01)


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
def test_a_rate_given_as_a_str_is_read_as_its_float(build):
    # the rate is read once with float(): "-0.05" is refused with -0.05's
    # message, and "0.05" sums as 0.05 does, bit for bit
    s = build(parse_model_config(CONFIGS / "cir.cfg"), 4)
    for r in ("-0.05", -0.05):
        with pytest.raises(DomainError, match=r"^vol2 is negative at r=-0\.05$"):
            partial_sums(s, 1.0, r)
    from_str = partial_sums(s, 1.0, "0.05")
    assert [x.hex() for x in from_str] == [x.hex() for x in partial_sums(s, 1.0, 0.05)]


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


def test_evaluated_series_compares_hashes_and_prints_as_fresh(cir_model, evaluations):
    s = price_coeffs(cir_model, 6)
    fresh = price_coeffs(cir_model, 6)
    before = repr(s)
    partial_sums(s, 1.0, R1)
    assert s == fresh and hash(s) == hash(fresh)
    assert repr(s) == before == repr(fresh)
    copy = TaylorSeries(s.coeffs, s.model)
    assert copy == s
    evaluations.clear()
    from_copy = partial_sums(copy, 1.0, R1)
    assert series_module._last[0] is copy
    assert partial_sums(s, 1.0, R1) == from_copy
    assert series_module._last[0] is s
    # an equal copy misses the slot s holds and builds its own table, then s
    # misses the slot the copy took and builds one again: c_0..c_6 and vol2
    # are evaluated each time
    polys = (*s.coeffs, s.model.vol2)
    assert evaluations == [("table", polys), (R1, 8), ("table", polys), (R1, 8)]
    partial_sums(s, 2.0, R1)
    assert len(evaluations) == 4  # s holds the slot again


def test_every_exponent_source_uses_the_correctly_rounded_double():
    # 17-digit gammas put numerators past 2**53, where dividing by float(den)
    # rounds twice; the exponent table, gp.evaluate, to_text and the FD
    # profile must all raise r to the one double n / den, and a derivative
    # must scale c by it.  R = 2**64 turns an ulp of an exponent near 1 into
    # tens of ulps of R**p.  The FD profile refuses a negative exponent, and
    # names the one it would use.
    import numpy as np

    from bondtaylor.fdsolver import _eval_profile
    R = 2.0 ** 64

    def fd_power(one):
        try:
            return _eval_profile(one, np.array([R]))[0]
        except DomainError as exc:
            return np.power(R, float(str(exc).split()[1]))

    rng = random.Random(3)
    seen, factors, mismatched = 0, 0, []
    for _ in range(200):
        gamma = rng.uniform(0.7, 0.9)
        s = log_coeffs(make_ckls(0.01, -0.2, 0.08, gamma), 6)
        polys = (*s.coeffs, s.model.vol2)
        exps, rows, table_polys = gp.table(polys)
        assert table_polys == polys
        for row, a in zip(rows, polys, strict=True):
            for (c, i), (c_a, n) in zip(row, a.terms, strict=True):
                p, one = exps[i], GenPoly(((1.0, n),), a.den)
                seen += 1
                if (c != c_a or p != n / a.den or gp.evaluate(one, R) != R ** p
                        or float(gp.to_text(one).partition(":")[2]) != p
                        or fd_power(one) != np.power(R, p)):
                    mismatched.append((gamma, n, a.den))
                if n:  # the derivative of c_a r**p has the coefficient c_a * p
                    factors += 1
                    if gp.derivative(GenPoly(((c_a, n),), a.den)).terms[0][0] != c_a * p:
                        mismatched.append((gamma, n, a.den, "derivative"))
    assert seen == 7000 and factors == 6000 and mismatched == []


@pytest.mark.parametrize("build", [price_coeffs, log_coeffs])
def test_table_sums_are_evaluate_sums_where_numerators_pass_2_53(build):
    # 2 gamma = 16176916901183807 / 10**16, a 17-digit numerator: an exponent
    # divided by float(den) moves c_k(r) and vol2(r) by ulps, too few to
    # reach a sum at these rates, so the values themselves are compared too,
    # with the series' table and with the reference evaluator's loop
    s = build(make_ckls(0.01, -0.2, 0.08, 0.8088458450591903), 10)
    for r in (0.04, 0.05, 0.1):
        for tau in CACHE_TAUS:
            assert partial_sums(s, tau, r) == _uncached_sums(s, tau, r)
        table = series_module._last[3]
        assert gp.values(table, r) == [reference_evaluate(a, r) for a in table[2]]


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


@pytest.mark.parametrize("build,message", [
    (price_coeffs, "price series order 7: product needs 56 raw terms, over the 40-term budget"),
    (log_coeffs, "log series order 10: product needs 51 raw terms, over the 40-term budget")])
def test_term_limit_names_the_series_order(monkeypatch, build, message):
    # a 40-pair cap trips inside the log convolution, not only in its operator
    monkeypatch.setattr(gp, "_MAX_RAW_TERMS", 40)
    with pytest.raises(DomainError) as exc:
        build(parse_model_config(CONFIGS / "ckls.cfg"), 30)
    assert type(exc.value) is DomainError and str(exc.value) == message


OVERFLOWING = make_custom([(1e300, 0.0), (1.0, 1.0)], [(1e300, 2.0)])


@pytest.mark.parametrize("build,model,message", [
    (price_coeffs, OVERFLOWING, "price series order 4: non-finite term (coeff=inf, exponent=0.0)"),
    (log_coeffs, OVERFLOWING, "log series order 4: non-finite term (coeff=inf, exponent=1.0)"),
    # c_2 = -5e307 r^5 is finite, its derivative is not
    (log_coeffs, make_custom([(1e308, 5.0)], []),
     "log series order 2: non-finite term (coeff=-inf, exponent=4.0)"),
    # an exact sum of two exponents past a double, not an inf exponent
    (price_coeffs, make_custom([], [(1e-320, 1.5e308)]),
     "price series order 4: non-finite term (coeff=1.873105526621828e-25, exponent=inf)")])
def test_overflow_names_the_series_order(build, model, message):
    with pytest.raises(DomainError) as exc:
        build(model, 8)
    assert type(exc.value) is DomainError and str(exc.value) == message


def test_log_series_does_not_differentiate_its_last_coefficient():
    # the order-8 build above refuses c_2's derivative; an order-2 build never
    # reads it, and returns its finite c_2
    s = log_coeffs(make_custom([(1e308, 5.0)], []), 2)
    assert s.coeffs[2] == gp.term(-5e307, 5.0)


def test_log_convolution_forms_each_mirrored_pair_once(monkeypatch):
    calls = []
    real = gp.dot

    def counting(pairs, *polys):
        pairs = list(pairs)
        calls.extend(pairs)
        return real(pairs, *polys)
    monkeypatch.setattr(gp, "dot", counting)
    log_coeffs(parse_model_config(CONFIGS / "ckls.cfg"), 30)
    # steps k = 1..29: k // 2 + 1 products in the sum, plus drift and vol2;
    # all k + 1 products of the unpaired sum would make 522
    assert len(calls) == sum(k // 2 + 3 for k in range(1, 30)) == 297
