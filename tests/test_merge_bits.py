"""The series against restatements of its merges: a stable sort of a raw term
list on the exponent, then a sequential fold.

Each recursion step sums its products in one merge (genpoly.dot).  On the
lattice exponents of every shipped config the terms must be bit for bit those
of a stable sort of all the step's raw terms, folded in turn.  The merge it
replaced, one per product with the sums folded two at a time, groups the
additions otherwise: on every config and for a non-lattice CKLS elasticity
the exponents and term counts must agree with it, the coefficients to
rounding.  The log series also agrees to rounding with the recursion that
forms all k + 1 products of its convolution, unpaired, on every shipped
config.

scale and derivative skip the merge where it cannot change a bit; on any
terms at all they, and a product with a one-term first factor, must give
_merge's bits, or raise its exception.  What merges is left is one per price
order and two per log order.
"""

import math
from itertools import groupby
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from bondtaylor import genpoly as gp
from bondtaylor.errors import DomainError, TermLimitError
from bondtaylor.genpoly import GenPoly
from bondtaylor.model import make_ckls, parse_model_config
from bondtaylor.series import log_coeffs, price_coeffs
from reference import exp_compose

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


def _step(pairs, *polys):
    # one merge per step: every raw product, pair after pair, then the polys
    return _canon([(ca * cb, pa + pb) for a, b in pairs for ca, pa in a.terms
                   for cb, pb in b.terms] + [t for q in polys for t in q.terms])


def _new_price(m, order):
    half, neg_r = _scale(m.vol2, 0.5), gp.term(-1.0, 1.0)
    cs = [gp.const(1.0)]
    for k in range(order):
        d1 = _d(cs[k])
        op = _step([(m.drift, d1), (half, _d(d1)), (neg_r, cs[k])])
        cs.append(_scale(op, 1.0 / (k + 1)))
    return cs


def _new_log(m, order):
    half = _scale(m.vol2, 0.5)
    cs = [GenPoly(), gp.term(-1.0, 1.0)]
    ds = [GenPoly(), _d(cs[1])]
    for k in range(1, order):
        inner = _step([(_scale(ds[i], 2.0) if 2 * i < k else ds[i], ds[k - i])
                       for i in range(k // 2 + 1)], _d(ds[k]))
        cs.append(_scale(_step([(m.drift, ds[k]), (half, inner)]), 1.0 / (k + 1)))
        ds.append(_d(cs[-1]))
    return cs


def _old_price(m, order):
    # one merge per product, the merged products then added two at a time
    cs = [gp.const(1.0)]
    for k in range(order):
        c = cs[k]
        op = _add(_add(_mul(m.drift, _d(c)), _scale(_mul(m.vol2, _d(_d(c))), 0.5)),
                  _scale(_mul(gp.term(1.0, 1.0), c), -1.0))
        cs.append(_scale(op, 1.0 / (k + 1)))
    return cs


def _old_log(m, order):
    # the convolution pairs mirrors as log_coeffs does: (2 c_i') c_{k-i}' for
    # i < k - i, then c_{k/2}'^2; doubling is exact, so only the merges differ
    cs = [GenPoly(), gp.term(-1.0, 1.0)]
    ds = [GenPoly(), _d(cs[1])]
    for k in range(1, order):
        conv = GenPoly()
        for i in range(k // 2 + 1):
            conv = _add(conv, _mul(_scale(ds[i], 2.0) if 2 * i < k else ds[i], ds[k - i]))
        raw = _add(_mul(m.drift, ds[k]), _scale(_mul(m.vol2, _add(conv, _d(ds[k]))), 0.5))
        cs.append(_scale(raw, 1.0 / (k + 1)))
        ds.append(_d(cs[-1]))
    return cs


def _unpaired_log(m, order):
    # log_coeffs before mirrored pairs: every product c_i' c_{k-i}', i = 0..k
    cs = [GenPoly(), gp.term(-1.0, 1.0)]
    ds = [GenPoly(), gp.derivative(cs[1])]
    half_vol2 = gp.scale(m.vol2, 0.5)
    for k in range(1, order):
        inner = gp.add(*(gp.mul(ds[i], ds[k - i]) for i in range(k + 1)),
                       gp.derivative(ds[k]))
        raw = gp.add(gp.mul(m.drift, ds[k]), gp.mul(half_vol2, inner))
        cs.append(gp.scale(raw, 1.0 / (k + 1)))
        ds.append(gp.derivative(cs[-1]))
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
    assert repr(price.coeffs) == repr(tuple(_new_price(m, ORDER)))
    new_log = _new_log(m, ORDER)
    assert repr(log.coeffs) == repr(tuple(new_log))
    assert repr(exp_compose(log).coeffs) == repr(tuple(_old_exp(new_log)))


def _assert_agree_to_rounding(new, old):
    for new_c, old_c in zip(new, old, strict=True):
        assert [p for _, p in new_c.terms] == [p for _, p in old_c.terms]
        scale = max((abs(c) for c, _ in old_c.terms), default=0.0)
        for (a, _), (b, _) in zip(new_c.terms, old_c.terms):
            assert abs(a - b) <= 1e-14 * scale


NON_LATTICE = [0.7, 2 / 3, 0.78341]


def _ckls(gamma):
    return make_ckls(0.00315, -0.0555, 0.0894, gamma)


PER_PRODUCT = [(price_coeffs, _old_price), (log_coeffs, _old_log)]


@pytest.mark.parametrize("gamma", NON_LATTICE)
@pytest.mark.parametrize("build, old", PER_PRODUCT)
def test_non_lattice_ckls_agrees_to_rounding(gamma, build, old):
    m = _ckls(gamma)
    _assert_agree_to_rounding(build(m, ORDER).coeffs, old(m, ORDER))


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda p: p.name)
@pytest.mark.parametrize("build, old", PER_PRODUCT)
def test_configs_agree_with_per_product_merges_to_rounding(cfg, build, old):
    m = parse_model_config(cfg)
    _assert_agree_to_rounding(build(m, ORDER).coeffs, old(m, ORDER))


@settings(derandomize=True, max_examples=6, deadline=None)
@given(gamma=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
       .filter(lambda g: not (g * 2.0 ** 10).is_integer()))
def test_drawn_gamma_agrees_with_per_product_merges(gamma):
    m = _ckls(gamma)
    _assert_agree_to_rounding(price_coeffs(m, 24).coeffs, _old_price(m, 24))
    _assert_agree_to_rounding(log_coeffs(m, 24).coeffs, _old_log(m, 24))


@pytest.mark.parametrize("model", [*map(parse_model_config, CONFIGS), *map(_ckls, NON_LATTICE)],
                         ids=[*(p.name for p in CONFIGS), *(f"ckls_gamma_{g:.5g}" for g in NON_LATTICE)])
def test_paired_log_agrees_with_unpaired_to_rounding(model):
    _assert_agree_to_rounding(log_coeffs(model, ORDER).coeffs, _unpaired_log(model, ORDER))


def _outcome(op, *args):
    try:
        return [(c.hex(), p.hex()) for c, p in op(*args).terms]
    except (DomainError, TermLimitError) as exc:
        return type(exc), str(exc)


_ULP1 = 2.0 ** -52  # the spacing of doubles just above 1
_COEFF = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e300, -1e308])
# gaps of MERGE_TOL within a few ulps of 1, which rounding in p - 1 or pa + pb
# can take below MERGE_TOL, or wide ones
_GAP = st.integers(-3, 3).map(lambda j: gp.MERGE_TOL + j * _ULP1) | st.floats(0.0, 3.0)
_START = (st.sampled_from([0.0, 1e-20, 0.6 * _ULP1, 1.0, -1.0]) | st.floats(-40.0, 40.0)
          | st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _terms(draw):
    ps = [draw(_START)]
    for gap in draw(st.lists(_GAP, max_size=6)):
        ps.append(ps[-1] + gap)
    if draw(st.booleans()):  # a directly built GenPoly need not be sorted
        ps = draw(st.permutations(ps))
    return [(draw(_COEFF), p) for p in ps]


_FACTOR = st.tuples(_COEFF, st.sampled_from([1.0, 0.5, 1.4, 2 / 3, 0.0]) | _START)

_T = gp.MERGE_TOL


@settings(derandomize=True, max_examples=400, deadline=None)
@given(terms=_terms(), s=_COEFF, factor=_FACTOR)
@example(terms=[(1.0, 2.0), (3.0, 1.0)], s=2.0, factor=(1.0, 1.0))  # unsorted
@example(terms=[(1.0, 1e-20), (2.0, 1e-20 + _T)], s=1.0, factor=(1.0, 1.0))  # p - 1 shrinks
@example(terms=[(1.0, 0.6 * _ULP1), (2.0, 0.6 * _ULP1 + _T)], s=1.0,
         factor=(-1.0, 1.0))  # pa + pb shrinks near 1
@example(terms=[(1e-300, 1.0), (-1e-300, 2.0)], s=1e-300, factor=(-1e-300, 1.0))  # +-0.0
@example(terms=[(1e300, 1.0), (1.0, 2.0)], s=1e300, factor=(1e300, 1.0))  # inf
@example(terms=[(1.0, 1.0), (math.nan, 2.0)], s=1.0, factor=(math.nan, 1.0))  # NaN
def test_skipped_merges_give_the_merge_bits(terms, s, factor):
    a = GenPoly(tuple(terms))
    ca, pa = factor
    assert _outcome(gp.scale, a, s) == _outcome(gp._merge, [(c * s, p) for c, p in terms])
    assert (_outcome(gp.derivative, a)
            == _outcome(gp._merge, [(c * p, p - 1.0) for c, p in terms]))
    assert (_outcome(gp.mul, GenPoly(((ca, pa),)), a)
            == _outcome(gp._merge, [(ca * cb, pa + pb) for cb, pb in terms]))


def _rule(pairs, *polys):
    # dot restated: the raw-term budget first, then a stable sort on the
    # exponent, each exact exponent summed in input order, runs within
    # MERGE_TOL folded onto their smallest, and the checks of _merge
    n_raw = sum(len(a.terms) * len(b.terms) for a, b in pairs)
    if n_raw > gp._MAX_RAW_TERMS:
        raise TermLimitError(f"product needs {n_raw} raw terms, over the "
                             f"{gp._MAX_RAW_TERMS}-term budget")
    raw = [(ca * cb, pa + pb) for a, b in pairs for ca, pa in a.terms for cb, pb in b.terms]
    runs = []  # [representative exponent, coefficient sum]
    for p, group in groupby(sorted(raw + [t for q in polys for t in q.terms],
                                   key=lambda t: t[1]), key=lambda t: t[1]):
        total = 0.0
        for c, _ in group:
            total += c
        if runs and p - runs[-1][0] < gp.MERGE_TOL:
            runs[-1][1] += total
        else:
            runs.append([p, total])
    for p, c in runs:
        if not math.isfinite(c):
            raise DomainError(f"non-finite term (coeff={c!r}, exponent={p!r})")
    out = tuple((c, p) for p, c in runs if c != 0.0)
    if len(out) > gp.MAX_TERMS:
        raise TermLimitError(f"result has {len(out)} terms, over the {gp.MAX_TERMS}-term budget")
    return GenPoly(out)


def _parent_mul(a, b):
    # mul before dot: the budget, then one merge per product
    n_raw = len(a.terms) * len(b.terms)
    if n_raw > gp._MAX_RAW_TERMS:
        raise TermLimitError(f"product needs {n_raw} raw terms, over the "
                             f"{gp._MAX_RAW_TERMS}-term budget")
    acc = {}
    for ca, pa in a.terms:
        for cb, pb in b.terms:
            acc[pa + pb] = acc.get(pa + pb, 0.0) + ca * cb
    return gp._merge((), acc)


def _parent_add(*polys):
    return gp._merge(t for a in polys for t in a.terms)


# finite exponents on a few half-integers, some nudged by a fraction of
# MERGE_TOL so that products land on distinct exponents that fold together;
# one coefficient in 30 is zero, huge or not finite
_EXP = st.builds(lambda n, j: n / 2.0 + j * 0.4 * gp.MERGE_TOL,
                 st.integers(-1, 2), st.sampled_from([0, 0, 1, 2]))
_SPECIAL = st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e308, -1e308, math.inf, -math.inf, math.nan])
_DOT_COEFF = st.builds(lambda k, c, special: special if k == 0 else c,
                       st.integers(0, 29), st.floats(-4.0, 4.0), _SPECIAL)
_POLY = st.lists(st.tuples(_DOT_COEFF, _EXP), max_size=4).map(lambda t: GenPoly(tuple(t)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_POLY, _POLY), max_size=3), polys=st.lists(_POLY, max_size=3))
@example(pairs=[(GenPoly(((1e200, 0.0),)), GenPoly(((1e200, 1.0),)))], polys=[])  # inf product
@example(pairs=[], polys=[GenPoly(((1e308, 1.0),)), GenPoly(((1e308, 1.0),))])  # overflowed sum
@example(pairs=[(GenPoly(((1.0, 0.0), (1.0, 0.5))), GenPoly(((1.0, float(k)),)))
                for k in range(16)], polys=[])  # more raw terms than the budget
@example(pairs=[], polys=[GenPoly(tuple((1.0, float(k)) for k in range(11)))])  # MAX_TERMS
@example(pairs=[(GenPoly(((2.0, 1.0),)), GenPoly(tuple((1.0, float(k)) for k in range(31))))],
         polys=[])  # a one-term factor over the budget
@example(pairs=[(GenPoly(((1.0, 0.0),)), GenPoly(((1.0, 0.0),))),
                (GenPoly(((2.0 ** -53, 0.0),)), GenPoly(((1.0, 0.0),)))],
         polys=[GenPoly(((-1.0, 0.0),))])  # products first: 1 + 2**-53 - 1 is 0
def test_dot_is_one_merge_of_every_raw_term(pairs, polys):
    with patch.object(gp, "MAX_TERMS", 10), patch.object(gp, "_MAX_RAW_TERMS", 30):
        assert _outcome(gp.dot, pairs, *polys) == _outcome(_rule, pairs, *polys)
        for a, b in pairs:
            assert _outcome(gp.mul, a, b) == _outcome(_parent_mul, a, b)
        assert _outcome(gp.add, *polys) == _outcome(_parent_add, *polys)
        if pairs:
            assert _outcome(gp.add, *pairs[0]) == _outcome(_parent_add, *pairs[0])


def test_scale_and_derivative_skip_the_merge_and_each_step_merges_once(monkeypatch):
    calls = 0
    merge = gp._merge

    def counted(*args):
        nonlocal calls
        calls += 1
        return merge(*args)

    model = parse_model_config(CONFIGS[0].parent / "cir.cfg")
    monkeypatch.setattr(gp, "_merge", counted)
    counts = []
    for build in (price_coeffs, log_coeffs):
        calls = 0
        build(model, ORDER)
        counts.append(calls)
    # 212 and 459 when every operation merged, 61 and 116 with one merge per
    # product; now one per price order and two per log order
    assert counts == [31, 58]
