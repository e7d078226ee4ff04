"""Exponents are exact: the series against restatements of its merges, in
exact rational exponents.

Each exponent is an integer numerator over the polynomial's denominator, so
two terms meet exactly where their exponents are equal and no tolerance folds
near ones together.  Each recursion step sums its products in one merge
(genpoly.dot).  On the lattice exponents of every shipped config the terms must
be bit for bit those of a stable sort of all the step's raw terms on the exact
exponent, each exponent's coefficients summed in turn.  The merge it replaced,
one per product with the sums added two at a time, groups the additions
otherwise: on every config and for a non-lattice CKLS elasticity the
exponents must be equal, the coefficients equal to rounding.  So must the log
recursion that forms all k + 1 products of its convolution, unpaired.
"""

import math
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from bondtaylor import genpoly as gp
from bondtaylor.cli import main
from bondtaylor.errors import DomainError
from bondtaylor.genpoly import GenPoly
from bondtaylor.model import CIRParams, make_cir, make_ckls, parse_model_config
from bondtaylor.series import MAX_ORDER, log_coeffs, price_coeffs
from reference import exp_compose

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
ORDER = 30


def _exact(a):
    return [(c, Fraction(n, a.den)) for c, n in a.terms]


def _poly(terms):
    """Terms (c, Fraction p) as a GenPoly over the least common denominator."""
    den = math.lcm(*[p.denominator for _, p in terms])
    return GenPoly(tuple((c, int(p * den)) for c, p in terms), den)


def _canon(raw):
    # a stable sort on the exact exponent, each exponent's coefficients summed
    # in input order from 0.0, exact zeros dropped
    out = []
    for p, group in groupby(sorted(raw, key=lambda t: t[1]), key=lambda t: t[1]):
        total = 0.0
        for c, _ in group:
            total += c
        if total != 0.0:
            out.append((total, p))
    return _poly(out)


def _d(a):
    return _canon([(c * float(p), p - 1) for c, p in _exact(a) if p])


def _step(pairs, *polys):
    # one merge per step: every raw product, pair after pair, then the polys
    return _canon([(ca * cb, pa + pb) for a, b in pairs for ca, pa in _exact(a)
                   for cb, pb in _exact(b)] + [t for q in polys for t in _exact(q)])


def _scale(a, s):
    return _canon([(c * s, p) for c, p in _exact(a)])


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
        d1 = gp.derivative(c)
        op = gp.add(gp.add(gp.mul(m.drift, d1),
                           gp.scale(gp.mul(m.vol2, gp.derivative(d1)), 0.5)),
                    gp.scale(gp.mul(gp.term(1.0, 1.0), c), -1.0))
        cs.append(gp.scale(op, 1.0 / (k + 1)))
    return cs


def _old_log(m, order):
    # the convolution pairs mirrors as log_coeffs does: (2 c_i') c_{k-i}' for
    # i < k - i, then c_{k/2}'^2; doubling is exact, so only the merges differ
    cs = [GenPoly(), gp.term(-1.0, 1.0)]
    ds = [GenPoly(), gp.derivative(cs[1])]
    for k in range(1, order):
        conv = GenPoly()
        for i in range(k // 2 + 1):
            conv = gp.add(conv, gp.mul(gp.scale(ds[i], 2.0) if 2 * i < k else ds[i], ds[k - i]))
        raw = gp.add(gp.mul(m.drift, ds[k]),
                     gp.scale(gp.mul(m.vol2, gp.add(conv, gp.derivative(ds[k]))), 0.5))
        cs.append(gp.scale(raw, 1.0 / (k + 1)))
        ds.append(gp.derivative(cs[-1]))
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
            acc = gp.add(acc, gp.scale(gp.mul(cs[k], b[n - k]), float(k)))
        b.append(gp.scale(acc, 1.0 / n))
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
        assert new_c.den == old_c.den
        assert [n for _, n in new_c.terms] == [n for _, n in old_c.terms]
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


def test_near_lattice_gamma_keeps_its_own_terms():
    # gamma = 1/2 + 1e-13 is CKLS, not CIR: r**(1 + 2e-13) meets no integer power
    cir = make_cir(CIRParams(0.00315, -0.0555, 0.0894))
    near = _ckls(0.5 + 1e-13)
    assert gp.to_text(near.vol2) == "0.007992359999999999:1.0000000000002"
    assert sum(len(c.terms) for c in price_coeffs(cir, 24).coeffs) == 324
    assert sum(len(c.terms) for c in price_coeffs(near, 24).coeffs) == 4119


def test_coeffs_print_exact_exponents(tmp_path, capsys):
    # 4 - 2 * 1.4 - ... : the exponents 0.4 and 0.8 of c_4, once printed as
    # 0.3999999999999999 and 0.7999999999999998
    cfg = tmp_path / "ckls.cfg"
    cfg.write_text("model = ckls\nalpha = 0.00315\nbeta = -0.0555\nsigma = 0.0894\ngamma = 0.7\n")
    for target in ("price", "logprice"):
        assert main(["coeffs", "--model", str(cfg), "--target", target, "--order", "4"]) == 0
        c4 = capsys.readouterr().out.splitlines()[-1]
        exps = [t.split(":")[1] for t in c4.split(" = ")[1].split(", ")]
        assert exps[:4] == ["0", "0.4", "0.8", "1"]


@pytest.mark.parametrize("model", [make_cir(CIRParams(0.00315, -0.0555, 0.0894)),
                                   *map(_ckls, (0.7, 0.75, 0.5 + 1e-13))])
def test_text_round_trip_is_exact(model):
    # every exponent here is the shortest repr of its double, so to_text
    # writes it out exactly and from_text reads back the same polynomial
    for build in (price_coeffs, log_coeffs):
        for c in build(model, 12).coeffs:
            assert gp.from_text(gp.to_text(c)) == c


def test_each_step_is_one_dot(monkeypatch):
    calls = 0
    dot = gp.dot

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return dot(*args, **kwargs)

    model = parse_model_config(CONFIGS[0].parent / "cir.cfg")
    monkeypatch.setattr(gp, "dot", counted)
    counts = []
    for build in (price_coeffs, log_coeffs):
        calls = 0
        build(model, ORDER)
        counts.append(calls)
    # one merge per price order and two per log order, each order's 1/(k+1)
    # riding on its last, none in scale or derivative; c_0 = 1 of the price
    # series is one more
    assert counts == [31, 58]


def _outcome(op, *args):
    try:
        return [(c.hex(), Fraction(n, r.den)) for r in [op(*args)] for c, n in r.terms]
    except DomainError as exc:
        return type(exc), str(exc)


def _rule(pairs, *polys):
    # dot restated: the raw-term budget first, then a stable sort on the exact
    # exponent, each exponent summed in input order, and the checks of the merge
    n_raw = sum(len(a.terms) * len(b.terms) for a, b in pairs)
    if n_raw > gp._MAX_RAW_TERMS:
        raise DomainError(f"product needs {n_raw} raw terms, over the "
                          f"{gp._MAX_RAW_TERMS}-term budget")
    raw = [(ca * cb, pa + pb) for a, b in pairs for ca, pa in _exact(a) for cb, pb in _exact(b)]
    raw += [t for q in polys for t in _exact(q)]
    sums = []
    for p, group in groupby(sorted(raw, key=lambda t: t[1]), key=lambda t: t[1]):
        total = 0.0
        for c, _ in group:
            total += c
        sums.append((total, p))
    for c, p in sums:
        if not math.isfinite(c):
            raise DomainError(f"non-finite term (coeff={c!r}, exponent={float(p)!r})")
    out = [(c, p) for c, p in sums if c != 0.0]
    if len(out) > gp.MAX_TERMS:
        raise DomainError(f"result has {len(out)} terms, over the {gp.MAX_TERMS}-term budget")
    return _poly(out) if out else GenPoly()


# exponents on short decimals whose doubles do not add exactly (0.1 + 0.2);
# one coefficient in 30 is zero or huge, and one factor in 30 is not finite
_EXP = st.sampled_from([-1.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.4, 2.0])


def _draw_one_in_30(specials):
    return st.builds(lambda k, c, special: special if k == 0 else c,
                     st.integers(0, 29), st.floats(-4.0, 4.0), st.sampled_from(specials))


_COEFF = _draw_one_in_30([0.0, -0.0, 1e200, -1e200, 1e308, -1e308, math.inf, -math.inf, math.nan])
_POLY = st.lists(st.tuples(_draw_one_in_30([0.0, -0.0, 1e200, -1e200]), _EXP),
                 max_size=4).map(gp.canonicalize)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_POLY, _POLY), max_size=3), polys=st.lists(_POLY, max_size=3))
@example(pairs=[(gp.term(1e200, 0.0), gp.term(1e200, 1.0))], polys=[])  # inf product
@example(pairs=[], polys=[gp.term(1e308, 1.0), gp.term(1e308, 1.0)])  # overflowed sum
@example(pairs=[(gp.canonicalize([(1.0, 0.0), (1.0, 0.5)]), gp.term(1.0, float(k)))
                for k in range(16)], polys=[])  # more raw terms than the budget
@example(pairs=[], polys=[gp.canonicalize([(1.0, float(k)) for k in range(11)])])  # MAX_TERMS
@example(pairs=[(gp.term(1.0, 0.0), gp.term(1.0, 0.0)), (gp.term(2.0 ** -53, 0.0), gp.term(1.0, 0.0))],
         polys=[gp.term(-1.0, 0.0)])  # products first: 1 + 2**-53 - 1 is 0
@example(pairs=[(gp.term(1.0, 0.1), gp.term(1.0, 0.2))], polys=[gp.term(-1.0, 0.3)])  # exact zero
def test_dot_is_one_merge_of_every_raw_term(pairs, polys):
    with patch.object(gp, "MAX_TERMS", 10), patch.object(gp, "_MAX_RAW_TERMS", 30):
        assert _outcome(gp.dot, pairs, *polys) == _outcome(_rule, pairs, *polys)


def _bits(build):
    try:
        a = build()
        return [(c.hex(), n) for c, n in a.terms], a.den
    except DomainError as exc:
        return type(exc), str(exc)


_UNDERFLOWS = gp.canonicalize([(1.0, 0.0), (5e-324, 0.5)])  # over den 2; halved, 5e-324 is 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_POLY, _POLY), max_size=3), polys=st.lists(_POLY, max_size=3))
@example(pairs=[(gp.term(1.0, 0.1), gp.term(1.0, 0.2))], polys=[gp.term(-1.0, 0.3)])  # exact zero
@example(pairs=[], polys=[gp.term(1e308, 1.0), gp.term(1e308, 1.0)])  # inf sum
@example(pairs=[(gp.term(1e200, 0.0), gp.term(1e200, 1.0))], polys=[])  # inf product
@example(pairs=[(_UNDERFLOWS, gp.const(1.0))], polys=[])  # den 2 reduces to 1
def test_dot_factor_is_scale_of_dot(pairs, polys):
    # the series' 1/(k+1) for every order k: the factor scales each merged sum
    # before the checks, which then see the terms and den scale would
    for k in range(MAX_ORDER):
        s = 1.0 / (k + 1)
        assert (_bits(lambda: gp.dot(pairs, *polys, factor=s))
                == _bits(lambda: gp.scale(gp.dot(pairs, *polys), s)))


def test_a_factor_that_underflows_a_term_reduces_den():
    assert _UNDERFLOWS.den == 2
    assert gp.dot([(_UNDERFLOWS, gp.const(1.0))], factor=0.5) == GenPoly(((0.5, 0),), 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=_POLY, s=_COEFF)
def test_scale_and_derivative_give_the_merge_bits(a, s):
    # neither sorts: numerators keep their order, and only a zero drops out
    assert _outcome(gp.scale, a, s) == _outcome(_rule, [], _poly([(c * s, p) for c, p in _exact(a)]))
    assert _outcome(gp.derivative, a) == _outcome(_rule, [], _d(a))
