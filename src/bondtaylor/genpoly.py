"""Sparse univariate polynomials with exact rational exponents.

A generalized polynomial is a finite sum a(r) = sum_i c_i * r**(n_i / den) of
double coefficients over integer numerators and one denominator.  Real
exponents arise because constant-elasticity volatility functions contribute
terms like sigma^2 * r**(2*gamma), and differentiation never pulls an exponent
back onto the integers.  An exponent is read as the exact decimal of its
shortest repr (2*gamma = 1.4 is 7/5) and stays exact: a product adds
numerators over a common den, a derivative subtracts den.

Canonical form: terms (c, n) in strictly ascending n, no coefficient exactly
0.0, den the least that serves; the zero polynomial is no terms over den 1.
Every operation sums the coefficients of each exponent in input order, sorts
and drops exact zeros, so identical inputs give bit-identical terms.  It
rejects a non-finite term: a non-finite input, an inf or nan product, an
overflowed sum, or a sum of exponents past the range of a double.

A sum of products, dot(pairs, *polys) = sum_i a_i b_i + sum_j p_j, is merged
once, not product by product: the raw products ca*cb of each pair (a's terms
outer, b's inner), pair after pair, then the terms of the p_j in turn, are
the input of that one sum.  mul and add are its one-pair and no-pair cases.
With factor=s, dot multiplies each exponent's sum by s before the checks, so
it gives the terms, den and refusals of scale(dot(pairs, *polys), s); only a
sum that underflows to zero is dropped before the term budget counts it.

Evaluation reads polys through one table(polys): each distinct exponent once, as
n / den divided int by int, and each poly a row.  values(table, r) raises r to
each exponent once and sums each row in term order.  It refuses a non-finite r,
then row by row a fractional or negative exponent at r <= 0 (0**0 is 1) and a
sum past a double's range.  evaluate is its one-row case.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import DomainError

MAX_TERMS = 100_000

# dot forms every pairwise product before merging; cap their number so a
# runaway sum of products fails before any of that work.
_MAX_RAW_TERMS = 10 * MAX_TERMS


class GenPoly(NamedTuple):
    """Canonical terms ((coeff, n), ...), each c * r**(n / den); build through canonicalize."""

    terms: tuple[tuple[float, int], ...] = ()
    den: int = 1

    def __bool__(self) -> bool:
        return bool(self.terms)


def _canonical(terms: list[tuple[float, int]], den: int) -> GenPoly:
    """Terms (c, n) over den, in strictly ascending n, as a GenPoly."""
    cs = [c for c, _ in terms]
    if not math.isfinite(sum(cs)):  # so is any inf or nan term, or an overflow
        for c, n in terms:
            if not math.isfinite(c):
                raise DomainError(f"non-finite term (coeff={c!r}, exponent={n / den!r})")
    if 0.0 in cs:  # -0.0 too
        terms = [t for t in terms if t[0]]
    if len(terms) > MAX_TERMS:
        raise DomainError(f"result has {len(terms)} terms, over the {MAX_TERMS}-term budget")
    g = den
    for _, n in terms:
        g = math.gcd(g, n)
        if g == 1:
            return GenPoly(tuple(terms), den)
    return GenPoly(tuple((c, n // g) for c, n in terms), den // g) if terms else GenPoly()


def canonicalize(raw_terms: Iterable[tuple[float, float]]) -> GenPoly:
    """Sum each exponent's coefficients, sort, drop zeros, refuse non-finite terms; an
    exponent is the exact decimal of its shortest repr, so two meet where their doubles do."""
    terms = []
    for c, p in raw_terms:
        c, p = float(c), float(p)
        if not math.isfinite(p):
            raise DomainError(f"non-finite term (coeff={c!r}, exponent={p!r})")
        mantissa, _, power = repr(p).partition("e")
        whole, _, frac = mantissa.partition(".")
        e = int(power or 0) - len(frac)  # repr(p) = whole.frac * 10**e
        terms.append(GenPoly(((c, int(whole + frac) * 10 ** max(e, 0)),), 10 ** max(-e, 0)))
    return add(*terms)  # over their common den


def const(c: float) -> GenPoly:
    return canonicalize([(c, 0.0)])


def term(c: float, p: float) -> GenPoly:
    return canonicalize([(c, p)])


def dot(pairs: Iterable[tuple[GenPoly, GenPoly]], *polys: GenPoly, factor: float = 1.0) -> GenPoly:
    """factor * (sum_i a_i * b_i over the pairs (a_i, b_i), plus the polys), in one merge."""
    pairs = tuple(pairs)
    n_raw, den = 0, 1
    for a, b in pairs:
        n_raw += len(a.terms) * len(b.terms)
        if a.den != den or b.den != den:
            den = math.lcm(den, a.den, b.den)
    if n_raw > _MAX_RAW_TERMS:
        raise DomainError(f"product needs {n_raw} raw terms, over the {_MAX_RAW_TERMS}-term budget")
    for a in polys:
        den = den if a.den == den else math.lcm(den, a.den)
    acc: dict[int, float] = {}
    get = acc.get
    for a, b in pairs:  # each factor over den: k = 1 but where an operand's den differs
        ka, kb = den // a.den, den // b.den
        b_terms = b.terms if kb == 1 else [(c, n * kb) for c, n in b.terms]
        for ca, na in (a.terms if ka == 1 else [(c, n * ka) for c, n in a.terms]):
            for cb, nb in b_terms:
                n = na + nb
                acc[n] = get(n, 0.0) + ca * cb
    for a in polys:
        for c, n in (a.terms if a.den == den else [(c, n * (den // a.den)) for c, n in a.terms]):
            acc[n] = get(n, 0.0) + c
    ns = sorted(acc)
    try:  # only a sum of numerators leaves a double's range, at an end
        ns and (ns[0] / den, ns[-1] / den)
    except OverflowError:
        n = max(ns[0], ns[-1], key=abs)
        raise DomainError(f"non-finite term (coeff={acc[n]!r}, "
                          f"exponent={math.inf if n > 0 else -math.inf!r})") from None
    return _canonical([(acc[n] * factor, n) for n in ns], den)


def add(*polys: GenPoly) -> GenPoly:
    return dot((), *polys)


def mul(a: GenPoly, b: GenPoly) -> GenPoly:
    return dot([(a, b)])


def scale(a: GenPoly, s: float) -> GenPoly:
    return _canonical([(c * s, n) for c, n in a.terms], a.den)


def derivative(a: GenPoly) -> GenPoly:
    # c * r**p -> c*p * r**(p-1), constants dropping out; p = n / den correctly rounded
    den = a.den
    return _canonical([(c * (n / den), n - den) for c, n in a.terms if n], den)


def table(polys: Iterable[GenPoly]) -> tuple:
    """The polys' distinct exponents, each n / den, their rows of (c, exponent index), the polys."""
    polys, index = tuple(polys), {}
    rows = [[(c, index.setdefault(n / a.den, len(index))) for c, n in a.terms] for a in polys]
    return tuple(index), rows, polys


def _power(x: float, p: float) -> float:
    try:  # x <= 0: nan for an exponent x does not admit, inf past a double's range
        return x ** p if p >= 0.0 and p.is_integer() else math.nan
    except OverflowError:  # a row that holds either is refused, in row order
        return math.inf


def values(tab: tuple, r: float) -> list[float]:
    """Each row of a table evaluated at r, in order; see the module docstring."""
    exps, rows, polys = tab
    x = float(r)
    if not math.isfinite(x):
        raise DomainError(f"evaluation point {r!r} is not finite")
    try:  # x > 0 admits every exponent: a new rate takes this one comprehension
        powers = [x ** p for p in exps] if x > 0.0 else [_power(x, p) for p in exps]
    except OverflowError:  # at x > 0 the first row it enters is refused, as any would be
        raise DomainError(f"evaluation overflowed at r={x}") from None
    out = []
    for row, a in zip(rows, polys):
        if x <= 0.0:
            for _, n in a.terms:
                if n < 0 or n % a.den:
                    raise DomainError(f"cannot evaluate exponent {n / a.den} at r={x}")
        v = 0.0
        for c, i in row:
            v += c * powers[i]
        if not math.isfinite(v):
            raise DomainError(f"evaluation overflowed at r={x}")
        out.append(v)
    return out


def evaluate(a: GenPoly, r: float) -> float:
    """a(r), refused where values refuses; values' one-row case."""
    return values(table((a,)), r)[0]


def _fmt_number(x: float) -> str:
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def to_text(a: GenPoly) -> str:
    """Render as 'c1:p1, c2:p2, ...' in ascending exponent order; zero is '0'."""
    return ", ".join(f"{_fmt_number(c)}:{_fmt_number(n / a.den)}" for c, n in a.terms) or "0"


def from_text(text: str) -> GenPoly:
    """Parse the to_text format.  Empty string and '0' both give the zero polynomial."""
    s = text.strip()
    if s in ("", "0"):
        return GenPoly()
    raw = []
    for chunk in s.split(","):
        piece = chunk.strip()
        try:  # exactly two numbers, or unpacking fails too
            c, p = map(float, piece.split(":"))
        except ValueError:
            raise DomainError(f"malformed term {piece!r}; expected coeff:exponent") from None
        raw.append((c, p))
    return canonicalize(raw)
