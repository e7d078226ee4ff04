"""The series against the merge they replaced: a stable sort of every raw term
list on the exponent, sequential merging, and sums folded two at a time.

On the lattice exponents of every shipped config the terms must be bit for
bit the same.  For a non-lattice CKLS elasticity, exponents that differ by
less than MERGE_TOL may be summed in another grouping: the exponents and term
counts must still agree, the coefficients to rounding.
"""

from pathlib import Path

import pytest

from bondtaylor import genpoly as gp
from bondtaylor.genpoly import GenPoly
from bondtaylor.model import make_ckls, parse_model_config
from bondtaylor.series import exp_compose, log_coeffs, price_coeffs

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
ORDER = 30


def _canon(raw):
    merged = []  # [representative exponent, coefficient sum]
    for p, c in sorted(((p, c) for c, p in raw), key=lambda t: t[0]):
        if merged and p - merged[-1][0] < gp.MERGE_TOL:
            merged[-1][1] += c
        else:
            merged.append([p, c])
    return GenPoly(tuple((c, p) for p, c in merged if c != 0.0))


def _add(a, b):
    return _canon(a.terms + b.terms)


def _mul(a, b):
    return _canon([(ca * cb, pa + pb) for ca, pa in a.terms for cb, pb in b.terms])


def _scale(a, s):
    return _canon([(c * s, p) for c, p in a.terms])


def _d(a):
    return _canon([(c * p, p - 1.0) for c, p in a.terms])


def _old_price(m, order):
    cs = [gp.const(1.0)]
    for k in range(order):
        c = cs[k]
        op = _add(_add(_mul(m.drift, _d(c)), _scale(_mul(m.vol2, _d(_d(c))), 0.5)),
                  _scale(_mul(gp.term(1.0, 1.0), c), -1.0))
        cs.append(_scale(op, 1.0 / (k + 1)))
    return cs


def _old_log(m, order):
    cs = [GenPoly(), gp.term(-1.0, 1.0)]
    ds = [GenPoly(), _d(cs[1])]
    for k in range(1, order):
        conv = GenPoly()
        for i in range(k + 1):
            conv = _add(conv, _mul(ds[i], ds[k - i]))
        raw = _add(_mul(m.drift, ds[k]), _scale(_mul(m.vol2, _add(conv, _d(ds[k]))), 0.5))
        cs.append(_scale(raw, 1.0 / (k + 1)))
        ds.append(_d(cs[-1]))
    return cs


def _old_exp(cs):
    b = [gp.const(1.0)]
    for n in range(1, len(cs)):
        acc = GenPoly()
        for k in range(1, n + 1):
            acc = _add(acc, _scale(_mul(cs[k], b[n - k]), float(k)))
        b.append(_scale(acc, 1.0 / n))
    return b


def test_configs_found():
    assert CONFIGS


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.name)
def test_lattice_configs_bit_identical_to_sort_merge(cfg):
    m = parse_model_config(cfg)
    price, log = price_coeffs(m, ORDER), log_coeffs(m, ORDER)
    # repr tells 0.0 from -0.0 as well as every last bit
    assert repr(price.coeffs) == repr(tuple(_old_price(m, ORDER)))
    old_log = _old_log(m, ORDER)
    assert repr(log.coeffs) == repr(tuple(old_log))
    assert repr(exp_compose(log).coeffs) == repr(tuple(_old_exp(old_log)))


@pytest.mark.parametrize("gamma", [0.7, 2 / 3, 0.78341])
@pytest.mark.parametrize("build, old", [(price_coeffs, _old_price), (log_coeffs, _old_log)])
def test_non_lattice_ckls_agrees_to_rounding(gamma, build, old):
    m = make_ckls(0.00315, -0.0555, 0.0894, gamma)
    for new_c, old_c in zip(build(m, ORDER).coeffs, old(m, ORDER), strict=True):
        assert [p for _, p in new_c.terms] == [p for _, p in old_c.terms]
        scale = max((abs(c) for c, _ in old_c.terms), default=0.0)
        for (a, _), (b, _) in zip(new_c.terms, old_c.terms):
            assert abs(a - b) <= 1e-14 * scale
