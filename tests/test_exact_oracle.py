"""The price and log recursions rerun in exact rationals, sharing no genpoly code.

Coefficients and exponents are Fractions, so the only rounding left is in the
float series under test: each float c_k must lie within 1e-14 of the largest
|coefficient| of the exact c_k, term by term.  The model's float drift and
vol2 terms, each exponent the Fraction n / den, are the exact inputs of both,
and the exponents of the two must match exactly.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from bondtaylor.model import parse_model_config
from bondtaylor.series import log_coeffs, price_coeffs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ORDER = 30
REL_TOL = Fraction(1e-14)


def _poly(terms):
    out = {}
    for c, p in terms:
        out[p] = out[p] + c if p in out else c
    return {p: c for p, c in out.items() if c}


def _d(a):
    return _poly((c * p, p - 1) for p, c in a.items())


def _mul(a, b):
    return _poly((ca * cb, pa + pb) for pa, ca in a.items() for pb, cb in b.items())


def _add(*polys):
    return _poly((c, p) for a in polys for p, c in a.items())


def _scale(a, s):
    return _poly((c * s, p) for p, c in a.items())


def _exact_coeffs(model, target, order):
    mu = _poly((Fraction(c), Fraction(n, model.drift.den)) for c, n in model.drift.terms)
    half_s2 = _poly((Fraction(c) / 2, Fraction(n, model.vol2.den)) for c, n in model.vol2.terms)
    neg_r = {Fraction(1): Fraction(-1)}
    if target == "price":
        cs = [{Fraction(0): Fraction(1)}]
        for k in range(order):
            d1 = _d(cs[k])
            raw = _add(_mul(mu, d1), _mul(half_s2, _d(d1)), _mul(neg_r, cs[k]))
            cs.append(_scale(raw, Fraction(1, k + 1)))
        return cs
    cs, ds = [{}, neg_r], [{}, _d(neg_r)]
    for k in range(1, order):
        # sum_i c_i' c_{k-i}' pairs each i < k - i with its mirror
        pairs = [_scale(_mul(ds[i], ds[k - i]), 1 if 2 * i == k else 2) for i in range(k // 2 + 1)]
        inner = _add(*pairs, _d(ds[k]))
        cs.append(_scale(_add(_mul(mu, ds[k]), _mul(half_s2, inner)), Fraction(1, k + 1)))
        ds.append(_d(cs[-1]))
    return cs


# the price series of every config; the log series of one config per model
CASES = ([(cfg, "price") for cfg in sorted(p.name for p in CONFIGS.glob("*.cfg"))]
         + [(cfg, "logprice") for cfg in ("cir.cfg", "ckls.cfg", "dothan_s2_0.02.cfg",
                                         "vasicek.cfg", "zero.cfg")])
# the exact CKLS log series takes about 3 s at J = 30 and 0.2 s at J = 20
SHORTER = {("ckls.cfg", "logprice"): 20}


@pytest.mark.parametrize("cfg,target", CASES)
def test_float_coefficients_match_exact_rationals(cfg, target):
    model = parse_model_config(CONFIGS / cfg)
    build = price_coeffs if target == "price" else log_coeffs
    order = SHORTER.get((cfg, target), ORDER)
    floats = build(model, order).coeffs
    exact = _exact_coeffs(model, target, order)
    assert len(floats) == len(exact) == order + 1
    for k, (f, e) in enumerate(zip(floats, exact)):
        got = {Fraction(n, f.den): Fraction(c) for c, n in f.terms}
        bound = REL_TOL * max(map(abs, e.values()), default=0)
        for p in got.keys() | e.keys():
            assert abs(got.get(p, 0) - e.get(p, 0)) <= bound, (k, float(p))
