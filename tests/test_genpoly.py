import functools
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bondtaylor import genpoly as gp
from bondtaylor.errors import DomainError
from bondtaylor.genpoly import GenPoly
from reference import approx_equal, pairs
from reference import evaluate as reference_evaluate

ALPHA, BETA = 0.00315, -0.0555


def test_canonicalize_merges_duplicate_exponents():
    assert gp.canonicalize([(1.0, 0.0), (2.0, 0.0)]) == gp.const(3.0)


def test_canonicalize_drops_cancellations():
    assert gp.canonicalize([(1.0, 1.0), (-1.0, 1.0)]) == GenPoly()


def test_canonicalize_keeps_cir_drift_as_is():
    drift = gp.canonicalize([(ALPHA, 0.0), (BETA, 1.0)])
    assert drift == GenPoly(((ALPHA, 0), (BETA, 1)), 1)


def test_canonicalize_sorts_by_exponent():
    p = gp.canonicalize([(2.0, 3.0), (1.0, -1.0), (4.0, 0.5)])
    assert [e for _, e in pairs(p)] == [-1.0, 0.5, 3.0]


def test_canonicalize_keeps_near_equal_exponents_apart():
    # each exponent is the exact decimal of its repr: 1 and 1 + 1e-13 are two
    p = gp.canonicalize([(1.0, 1.0), (1.0, 1.0 + 1e-13)])
    assert p == GenPoly(((1.0, 10 ** 13), (1.0, 10 ** 13 + 1)), 10 ** 13)
    assert gp.canonicalize([(2.0, 1.4), (3.0, 0.0)]) == GenPoly(((3.0, 0), (2.0, 7)), 5)


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
def test_canonicalize_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        gp.canonicalize([bad])


def test_canonicalize_term_budget():
    with pytest.raises(DomainError, match="^result has 100001 terms, over the 100000-term budget$"):
        gp.canonicalize([(1.0, float(k)) for k in range(gp.MAX_TERMS + 1)])


def test_add_examples():
    one_plus_r = gp.canonicalize([(1.0, 0.0), (1.0, 1.0)])
    assert gp.add(one_plus_r, gp.term(-1.0, 1.0)) == gp.const(1.0)
    p = gp.canonicalize([(0.5, 0.0), (2.0, 2.5)])
    assert gp.add(p, GenPoly()) == p


def test_add_gives_twice_cir_price_c2():
    # r^2 + (-alpha - beta r), one recursion step by hand
    minus_drift = gp.canonicalize([(-ALPHA, 0.0), (-BETA, 1.0)])
    out = gp.add(gp.term(1.0, 2.0), minus_drift)
    assert out == GenPoly(((-ALPHA, 0), (-BETA, 1), (1.0, 2)))


def test_mul_examples():
    r = gp.term(1.0, 1.0)
    assert gp.mul(r, r) == gp.term(1.0, 2.0)
    ckls_vol2 = gp.term(0.01, 1.5)
    assert gp.mul(ckls_vol2, gp.const(1.0)) == ckls_vol2
    p = gp.canonicalize([(-0.005, 0.0), (2.0, 1.0)])
    assert gp.mul(p, gp.const(0.5)) == gp.canonicalize([(-0.0025, 0.0), (1.0, 1.0)])


def test_mul_raw_pair_budget():
    big = gp.canonicalize([(1.0, float(k)) for k in range(1001)])
    with pytest.raises(DomainError, match="^product needs 1002001 raw terms, over the 1000000-term budget$"):
        gp.mul(big, big)


def test_mul_raw_pair_budget_checked_before_any_work():
    class Unread(tuple):  # a term tuple that fails if mul reads a term
        def __iter__(self):
            raise AssertionError("mul read the terms before checking the budget")
    big = GenPoly(Unread((1.0, float(k)) for k in range(1001)))
    with pytest.raises(DomainError, match="1002001 raw terms, over the 1000000-term budget"):
        gp.mul(big, big)
    # each pair alone passes the budget, the two together do not
    half = GenPoly(Unread((1.0, float(k)) for k in range(500)))
    with pytest.raises(DomainError, match="1001000 raw terms, over the 1000000-term budget"):
        gp.dot([(big, half), (half, big)], big)


def test_mul_overflow_rejected():
    with pytest.raises(DomainError, match="non-finite term"):
        gp.mul(gp.term(1e200, 0.0), gp.term(1e200, 0.0))


@pytest.mark.parametrize("op", [lambda: gp.add(gp.term(1e308, 1.0), gp.term(1e308, 1.0)),
                                lambda: gp.scale(gp.term(1.0, 2.0), math.inf),
                                lambda: gp.scale(gp.term(2.0, 2.0), math.nan)])
def test_non_finite_output_rejected(op):
    # the inputs are finite; the sum or product is not
    with pytest.raises(DomainError, match="non-finite term"):
        op()


def test_add_of_nothing_is_zero():
    assert gp.add() == GenPoly()
    assert gp.add(GenPoly(), GenPoly()) == GenPoly()


def test_add_keeps_near_equal_exponents_apart():
    # distinct exponents a few ulps apart, given largest first, sort and stay
    out = gp.add(gp.term(1.0, 1.0 + 8e-13), gp.term(2.0, 1.0 + 4e-13), gp.term(4.0, 1.0))
    assert pairs(out) == [(4.0, 1.0), (2.0, 1.0 + 4e-13), (1.0, 1.0 + 8e-13)]
    assert len(gp.add(gp.term(1.0, 2.0 + 5e-13), gp.term(1.0, 2.0)).terms) == 2
    # and a sum of products lands on the exponent it names, not near it
    assert gp.mul(gp.term(1.0, 0.1), gp.term(1.0, 0.2)) == gp.term(1.0, 0.3)
    assert gp.mul(gp.term(1.0, 0.5), gp.term(1.0, 0.5)) == gp.term(1.0, 1.0)


def test_scale_examples():
    p = gp.canonicalize([(1.0, 0.5), (2.0, 2.0)])
    assert gp.scale(p, 1.0) == p
    assert gp.scale(p, 0.0) == GenPoly()
    # Dothan price c2 = (r^2 - mu r)/2
    mu = 0.005
    base = gp.canonicalize([(1.0, 2.0), (-mu, 1.0)])
    assert gp.scale(base, 0.5) == GenPoly(((-mu / 2.0, 1), (0.5, 2)))


def test_derivative_examples():
    assert gp.derivative(gp.term(1.0, 2.0)) == gp.term(2.0, 1.0)
    assert gp.derivative(gp.const(7.0)) == GenPoly()
    half_c2 = gp.canonicalize([(-ALPHA / 2, 0.0), (-BETA / 2, 1.0), (0.5, 2.0)])
    assert gp.derivative(half_c2) == gp.canonicalize([(-BETA / 2, 0.0), (1.0, 1.0)])


def test_derivative_subtracts_den_exactly():
    # r**1.4 -> 1.4 r**0.4: the numerator 7 over 5 becomes 2, not 0.3999999999999999
    assert gp.derivative(gp.term(1.0, 1.4)) == GenPoly(((1.4, 2),), 5)
    assert gp.to_text(gp.derivative(gp.derivative(gp.term(1.0, 1.4)))) == "0.5599999999999999:-0.6"
    # two exponents 2 ulps apart whose p - 1.0 round alike stay two terms
    p = -8191.499999999997
    q = math.nextafter(math.nextafter(p, 0.0), 0.0)
    assert p - 1.0 == q - 1.0
    a = gp.canonicalize([(1.0, p), (2.0, q)])
    assert [c for c, _ in gp.derivative(a).terms] == [p, 2.0 * q]


def test_evaluate_examples():
    assert gp.evaluate(gp.term(-1.0, 1.0), 0.05) == -0.05
    cir_c2 = gp.canonicalize([(-ALPHA / 2, 0.0), (-BETA / 2, 1.0), (0.5, 2.0)])
    assert gp.evaluate(cir_c2, 0.05) == pytest.approx(0.0010625, abs=1e-12)
    assert gp.evaluate(gp.term(1.0, 0.5), 0.25) == pytest.approx(0.5, abs=1e-15)


def test_evaluate_integer_exponents_at_zero():
    p = gp.canonicalize([(3.0, 0.0), (2.0, 1.0)])
    assert gp.evaluate(p, 0.0) == 3.0


@pytest.mark.parametrize("r", [0.0, -0.1])
def test_evaluate_rejects_fractional_exponent_at_nonpositive_r(r):
    with pytest.raises(DomainError):
        gp.evaluate(gp.term(1.0, 0.5), r)


def test_evaluate_rejects_negative_exponent_at_zero():
    with pytest.raises(DomainError):
        gp.evaluate(gp.term(1.0, -1.0), 0.0)


def test_evaluate_power_overflow_is_domain_error():
    # math.pow raises OverflowError where r**p exceeds a double
    with pytest.raises(DomainError, match="evaluation overflowed at r=1e\\+200"):
        gp.evaluate(gp.term(1.0, 2.0), 1e200)


# exponents negative, fractional, of 17 digits (their sums put numerators past
# 2**53) and large; coefficients that overflow at moderate rates
_EXPONENTS = st.one_of(
    st.integers(-3, 6).map(float), st.sampled_from([0.5, 1.5, -0.5, 2.5]),
    st.floats(1.0, 2.0), st.floats(-3.0, 2.0),
    st.sampled_from([400.0, 1000.0, 2.0 ** 60, 1e17]))
_COEFFS = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([1e300, -1e300, -1e-300]))
_RAW = st.lists(st.tuples(_COEFFS, _EXPONENTS), max_size=5)
_RATES = (0.0, -0.0, -0.01, 1e200, -1e200, math.inf, -math.inf, math.nan,
          0.05, 0.7, 1.0, 3.0, 1e-300, -2.0)


@st.composite
def _polys(draw):
    """Up to five polys, some of them products, none refused on the way."""
    out = []
    for raw, other in draw(st.lists(st.tuples(_RAW, st.none() | _RAW), min_size=1, max_size=5)):
        try:
            a = gp.canonicalize(raw)
            out.append(a if other is None else gp.mul(a, gp.canonicalize(other)))
        except DomainError:  # a product past a double's range
            pass
    return out


def _outcome(f):
    try:
        return [v.hex() for v in f()]
    except DomainError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_polys())
# at r <= 0: a row that overflows before a row with exponent 1/2, and a
# fractional exponent whose double is an integer, 2**60 + 2 gamma
@example([gp.term(1e300, 2.0), gp.term(1.0, 0.5)])
@example([gp.mul(gp.term(1.0, 2.0 ** 60), gp.term(1.0, 1.6176916901183807))])
def test_values_are_the_reference_evaluator_row_by_row(polys):
    # each row's value bit for bit, or the first refusal of the rows in order;
    # a table of no rows refuses a non-finite r all the same
    assume(polys)
    table = gp.table(polys)
    for r in _RATES:
        assert (_outcome(lambda: gp.values(table, r))
                == _outcome(lambda: [reference_evaluate(a, r) for a in polys]))


def test_approx_equal_examples():
    p = gp.canonicalize([(1.0, 0.0), (-2.0, 1.5)])
    assert approx_equal(p, p, 0.0)
    shifted = gp.add(p, gp.const(1e-6))
    assert not approx_equal(p, shifted, 1e-9)
    assert approx_equal(p, shifted, 1e-5)


def test_text_round_trip():
    p = gp.from_text("0.00315:0, -0.0555:1")
    assert p == GenPoly(((0.00315, 0), (-0.0555, 1)))
    assert gp.to_text(p) == "0.00315:0, -0.0555:1"
    assert gp.to_text(GenPoly()) == "0"
    # an integral coefficient prints as an int below 1e16 and as its repr from it
    assert gp.to_text(gp.const(9999999999999998.0)) == "9999999999999998:0"
    assert gp.to_text(gp.const(1e16)) == "1e+16:0"
    assert gp.from_text("0") == GenPoly()
    assert gp.from_text("") == GenPoly()
    assert gp.from_text(gp.to_text(gp.term(2.5, -0.75))) == gp.term(2.5, -0.75)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(p=st.floats(allow_nan=False, allow_infinity=False))
@example(p=1e-05)
@example(p=1e-4)
@example(p=-2.5e-300)
@example(p=5e-324)
@example(p=9999999999999998.0)
@example(p=1e16)
@example(p=1.2345678901234567e16)
@example(p=1234567890123456.8)
@example(p=1.7976931348623157e308)
def test_an_exponent_read_from_a_double_prints_as_its_repr(p):
    # the exact decimal of a double's shortest repr is that repr, laid out alike
    a = gp.term(1.0, p)
    want = str(int(p)) if p.is_integer() and abs(p) < 1e16 else repr(p)
    assert gp.to_text(a) == f"1:{want}"
    assert gp.from_text(gp.to_text(a)) == a


def test_from_text_keeps_every_digit_of_an_exponent():
    # more digits than a double holds: 1 + 1e-20 is 1.0 as a double
    p = gp.from_text("2:1.00000000000000000001, 3:1")
    assert p == GenPoly(((3.0, 10 ** 20), (2.0, 10 ** 20 + 1)), 10 ** 20)
    assert gp.to_text(p) == "3:1, 2:1.00000000000000000001"
    # any text float() reads; one whose double is 0 is the exponent 0
    assert gp.from_text(" 1 : +.5E1_0 , 1:-0.25e-2") == GenPoly(((1.0, -1), (1.0, 5 * 10 ** 9 * 400)), 400)
    assert gp.from_text("1:1e-400, 2:0") == gp.const(3.0)
    with pytest.raises(DomainError, match=r"non-finite term \(coeff=1.0, exponent=inf\)"):
        gp.from_text("1:1e400")
    # a den that divides no power of ten prints the nearest double
    assert gp.to_text(GenPoly(((1.0, 1),), 3)) == "1:0.3333333333333333"


@pytest.mark.parametrize("text", ["1:", "1:2:3", "a:1", "1;2"])
def test_from_text_rejects_malformed(text):
    with pytest.raises(DomainError):
        gp.from_text(text)


# Random instances on a dyadic exponent lattice: merges are exact, so the
# ring identities hold to float accuracy rather than depending on knife-edge
# exponent comparisons.
exponents = st.integers(min_value=-128, max_value=256).map(lambda n: n / 64.0)
coeffs = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
polys = st.lists(st.tuples(coeffs, exponents), max_size=8).map(gp.canonicalize)


@given(polys, polys)
def test_add_commutative(a, b):
    assert approx_equal(gp.add(a, b), gp.add(b, a), 1e-9)


@given(polys, polys, polys)
def test_add_associative(a, b, c):
    assert approx_equal(gp.add(gp.add(a, b), c), gp.add(a, gp.add(b, c)), 1e-9)


@given(polys, polys)
def test_mul_commutative(a, b):
    assert approx_equal(gp.mul(a, b), gp.mul(b, a), 1e-9)


@given(polys, polys, polys)
def test_mul_associative(a, b, c):
    assert approx_equal(gp.mul(gp.mul(a, b), c), gp.mul(a, gp.mul(b, c)), 1e-9)


@given(polys, polys, polys)
def test_distributive(a, b, c):
    lhs = gp.mul(a, gp.add(b, c))
    rhs = gp.add(gp.mul(a, b), gp.mul(a, c))
    assert approx_equal(lhs, rhs, 1e-9)


@given(polys)
def test_identities(a):
    assert approx_equal(gp.add(a, GenPoly()), a, 0.0)
    assert approx_equal(gp.mul(a, gp.const(1.0)), a, 1e-12)


@given(polys, polys)
def test_product_rule(a, b):
    lhs = gp.derivative(gp.mul(a, b))
    rhs = gp.add(gp.mul(gp.derivative(a), b), gp.mul(a, gp.derivative(b)))
    assert approx_equal(lhs, rhs, 1e-9)


@given(polys, polys)
def test_evaluate_is_ring_homomorphism(a, b):
    r = 0.7
    prod = gp.evaluate(gp.mul(a, b), r)
    assert math.isclose(prod, gp.evaluate(a, r) * gp.evaluate(b, r),
                        rel_tol=1e-9, abs_tol=1e-9)


@given(polys)
def test_canonicalize_idempotent(a):
    assert gp.canonicalize(pairs(a)) == a
    assert gp.from_text(gp.to_text(a)) == a


# Integer and half-integer exponents: every merge is of exactly equal
# exponents, so the n-ary sum must add each exponent's coefficients in the
# same order as the binary fold, bit for bit.
half_polys = st.lists(st.tuples(coeffs, st.integers(-8, 16).map(lambda n: n / 2.0)),
                      max_size=8).map(gp.canonicalize)


@given(st.lists(half_polys, max_size=6))
def test_nary_add_equals_binary_fold(ps):
    folded = functools.reduce(gp.add, ps, GenPoly())
    assert repr(gp.add(*ps).terms) == repr(folded.terms)
