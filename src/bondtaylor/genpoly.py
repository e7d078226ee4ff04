"""Sparse univariate polynomials with real exponents.

A generalized polynomial is a finite sum

    a(r) = sum_i  c_i * r**p_i

where coefficients c_i and exponents p_i are both doubles.  Real exponents are
needed because constant-elasticity volatility functions contribute terms like
sigma^2 * r**(2*gamma) for arbitrary gamma, and differentiation only ever
multiplies a term by its exponent, so nothing pulls exponents back onto the
integers.

Canonical form: terms sorted by strictly ascending exponent, no two exponents
within MERGE_TOL, no coefficient exactly 0.0; the zero polynomial is the empty
term tuple.  Every operation sums the coefficients of each exact exponent in
input order, then sorts only the distinct exponents, folds each run of them
within MERGE_TOL of its smallest onto it and drops exact zeros, so identical
inputs give bit-identical term tuples.  It rejects a non-finite merged term:
a non-finite input, an inf or nan product or an overflowed sum always
leaves one.

A sum of products, dot(pairs, *polys) = sum_i a_i b_i + sum_j p_j, is merged
once, not product by product: the raw products ca*cb of each pair (a's terms
outer, b's inner), pair after pair, then the terms of the p_j in turn, are
the input of that one sum.  mul and add are its one-pair and no-pair cases.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import DomainError, TermLimitError

MERGE_TOL = 1e-12
MAX_TERMS = 100_000

# dot forms every pairwise product before merging; cap their number so a
# runaway sum of products fails before any of that work.
_MAX_RAW_TERMS = 10 * MAX_TERMS


class GenPoly(NamedTuple):
    """Canonical term list ((coeff, exponent), ...) in ascending exponent order.

    Build instances through canonicalize / const / term rather than directly,
    so the canonical-form invariants hold.
    """

    terms: tuple[tuple[float, float], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.terms)


def _merge(terms: Iterable[tuple[float, float]], acc: dict[float, float] | None = None) -> GenPoly:
    """Add the terms to acc (exact exponent -> coefficient sum), then canonicalize."""
    acc = {} if acc is None else acc
    for c, p in terms:
        acc[p] = acc.get(p, 0.0) + c
    merged: list[list[float]] = []  # [representative exponent, coefficient sum]
    for p in sorted(acc):
        if merged and p - merged[-1][0] < MERGE_TOL:
            merged[-1][1] += acc[p]
        else:
            merged.append([p, acc[p]])
    for p, c in merged:
        if not (math.isfinite(c) and math.isfinite(p)):
            raise DomainError(f"non-finite term (coeff={c!r}, exponent={p!r})")
    out = tuple((c, p) for p, c in merged if c != 0.0)
    if len(out) > MAX_TERMS:
        raise TermLimitError(f"result has {len(out)} terms, over the {MAX_TERMS}-term budget")
    return GenPoly(out)


def _merge_ascending(terms: list[tuple[float, float]]) -> GenPoly:
    """_merge(terms), without its work where that work cannot change a bit.

    With finite terms whose exponents ascend at least MERGE_TOL apart, _merge
    sums each coefficient onto 0.0, which leaves it as it is or turns -0.0
    into 0.0, sorts what is sorted and folds nothing: its result is the terms
    without exact zeros.  Any other list, unsorted or with a gap that rounding
    shrank, goes to _merge, which raises as it always does.
    """
    prev = -math.inf
    for c, p in terms:
        if not (p - prev >= MERGE_TOL and math.isfinite(c) and math.isfinite(p)):
            return _merge(terms)
        prev = p
    out = tuple([t for t in terms if t[0] != 0.0])
    if len(out) > MAX_TERMS:
        raise TermLimitError(f"result has {len(out)} terms, over the {MAX_TERMS}-term budget")
    return GenPoly(out)


def canonicalize(raw_terms: Iterable[tuple[float, float]]) -> GenPoly:
    """Sort, merge near-equal exponents, drop exact-zero coefficients.

    Exponents within MERGE_TOL of the first exponent of a merge run collapse
    into that run.  Non-finite coefficients or exponents are rejected: one
    leaves a non-finite merged term, which _merge checks before dropping zeros.
    """
    return _merge((float(c), float(p)) for c, p in raw_terms)


def const(c: float) -> GenPoly:
    return canonicalize([(c, 0.0)])


def term(c: float, p: float) -> GenPoly:
    return canonicalize([(c, p)])


def dot(pairs: Iterable[tuple[GenPoly, GenPoly]], *polys: GenPoly) -> GenPoly:
    """sum_i a_i * b_i over the pairs (a_i, b_i), plus the polys, in one merge."""
    pairs = tuple(pairs)
    n_raw = sum(len(a.terms) * len(b.terms) for a, b in pairs)
    if n_raw > _MAX_RAW_TERMS:
        raise TermLimitError(f"product needs {n_raw} raw terms, over the {_MAX_RAW_TERMS}-term budget")
    acc: dict[float, float] = {}
    get = acc.get
    for a, b in pairs:
        for ca, pa in a.terms:
            for cb, pb in b.terms:
                p = pa + pb
                acc[p] = get(p, 0.0) + ca * cb
    return _merge(chain.from_iterable(a.terms for a in polys), acc)


def add(*polys: GenPoly) -> GenPoly:
    return dot((), *polys)


def mul(a: GenPoly, b: GenPoly) -> GenPoly:
    return dot([(a, b)])


def scale(a: GenPoly, s: float) -> GenPoly:
    return _merge_ascending([(c * s, p) for c, p in a.terms])


def derivative(a: GenPoly) -> GenPoly:
    # c * r**p -> c*p * r**(p-1); constant terms get coefficient 0 and drop out
    return _merge_ascending([(c * p, p - 1.0) for c, p in a.terms])


def evaluate(a: GenPoly, r: float) -> float:
    """Evaluate a at the point r.

    r must be positive whenever a fractional or negative exponent is present;
    otherwise any real r is admissible (0**0 counts as 1).
    """
    x = float(r)
    if not math.isfinite(x):
        raise DomainError(f"evaluation point {r!r} is not finite")
    total = 0.0
    try:
        for c, p in a.terms:
            if x <= 0.0 and (p < 0.0 or not p.is_integer()):
                raise DomainError(f"cannot evaluate exponent {p} at r={x}")
            total += c * math.pow(x, p)
    except OverflowError:  # math.pow raises where x**p exceeds a double
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"evaluation overflowed at r={x}")
    return total


def _fmt_number(x: float) -> str:
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def to_text(a: GenPoly) -> str:
    """Render as 'c1:p1, c2:p2, ...' in ascending exponent order; zero is '0'."""
    if not a.terms:
        return "0"
    return ", ".join(f"{_fmt_number(c)}:{_fmt_number(p)}" for c, p in a.terms)


def from_text(text: str) -> GenPoly:
    """Parse the to_text format.  Empty string and '0' both give the zero polynomial."""
    s = text.strip()
    if s in ("", "0"):
        return GenPoly()
    raw = []
    for chunk in s.split(","):
        piece = chunk.strip()
        parts = piece.split(":")
        if len(parts) != 2:
            raise DomainError(f"malformed term {piece!r}; expected coeff:exponent")
        try:
            raw.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise DomainError(f"malformed term {piece!r}; expected coeff:exponent") from None
    return canonicalize(raw)
