"""The series against the merge they replaced: a stable sort of every raw term
list on the exponent, sequential merging, and sums folded two at a time.

On the lattice exponents of every shipped config the terms must be bit for
bit the same.  For a non-lattice CKLS elasticity, exponents that differ by
less than MERGE_TOL may be summed in another grouping: the exponents and term
counts must still agree, the coefficients to rounding.  The log series also
agrees to rounding with the recursion that forms all k + 1 products of its
convolution, unpaired, on every shipped config.

scale, derivative and a product with a one-term first factor skip the merge
where it cannot change a bit; on any terms at all they must give _merge's
bits, or raise its exception.
"""

import math
from pathlib import Path

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


def _old_price(m, order):
    cs = [gp.const(1.0)]
    for k in range(order):
        c = cs[k]
        op = _add(_add(_mul(m.drift, _d(c)), _scale(_mul(m.vol2, _d(_d(c))), 0.5)),
                  _scale(_mul(gp.term(1.0, 1.0), c), -1.0))
        cs.append(_scale(op, 1.0 / (k + 1)))
    return cs


def _old_log(m, order):
    # the convolution pairs mirrors as log_coeffs does: (2 c_i') c_{k-i}' for
    # i < k - i, then c_{k/2}'^2; doubling is exact, so the merge is what is pinned
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
    assert repr(price.coeffs) == repr(tuple(_old_price(m, ORDER)))
    old_log = _old_log(m, ORDER)
    assert repr(log.coeffs) == repr(tuple(old_log))
    assert repr(exp_compose(log).coeffs) == repr(tuple(_old_exp(old_log)))


def _assert_agree_to_rounding(new, old):
    for new_c, old_c in zip(new, old, strict=True):
        assert [p for _, p in new_c.terms] == [p for _, p in old_c.terms]
        scale = max((abs(c) for c, _ in old_c.terms), default=0.0)
        for (a, _), (b, _) in zip(new_c.terms, old_c.terms):
            assert abs(a - b) <= 1e-14 * scale


NON_LATTICE = [0.7, 2 / 3, 0.78341]


def _ckls(gamma):
    return make_ckls(0.00315, -0.0555, 0.0894, gamma)


@pytest.mark.parametrize("gamma", NON_LATTICE)
@pytest.mark.parametrize("build, old", [(price_coeffs, _old_price), (log_coeffs, _old_log)])
def test_non_lattice_ckls_agrees_to_rounding(gamma, build, old):
    m = _ckls(gamma)
    _assert_agree_to_rounding(build(m, ORDER).coeffs, old(m, ORDER))


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


def test_scale_derivative_and_one_term_products_skip_the_merge(monkeypatch):
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
    # 212 and 459 when every operation merged
    assert counts == [61, 116]
