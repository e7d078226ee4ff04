"""Reference code the tests check the library against; none of it is API.

`pde_residual` substitutes a truncated series into its PDE in exact rational
arithmetic on the float terms, sharing no code with `series` or `genpoly`, so
an error in the operator the recursions are built from cannot cancel out of
it.  `exp_compose` is a second route to the price series, `approx_equal`
compares two polynomials term by term, and `pairs` reads a polynomial's terms
as (coefficient, exponent) doubles.
"""

from fractions import Fraction

from bondtaylor import genpoly as gp
from bondtaylor.series import TaylorSeries


def pairs(a: gp.GenPoly) -> list[tuple[float, float]]:
    """a's terms as (coefficient, exponent), the exponent n / den as a double."""
    return [(c, n / a.den) for c, n in a.terms]


def _exact(a):
    # exponents stay floats: on a lattice model their sums and differences
    # are exact, and a float hashes much faster than a Fraction
    return [(Fraction(c), p) for c, p in pairs(a)]


def _d(terms):
    return [(c * Fraction(p), p - 1.0) for c, p in terms if p != 0.0]


def _times(a, b):
    return [(ca * cb, pa + pb) for ca, pa in a for cb, pb in b]


def pde_residual(s: TaylorSeries) -> list[float]:
    """Relative residual of each power tau^0..tau^(order-1) of the PDE.

    Substitutes P = sum_{k<=J} c_k tau^k into

        -P_tau + mu P_r + (1/2) s2 P_rr - r P = 0,

    or f = ln P = sum_k c_k tau^k into

        -f_tau + mu f_r + (1/2) s2 (f_rr + f_r^2) - r = 0,

    in exact rationals; c_0 = 1 marks a price series and c_0 = 0 a log one.  Entry k is the largest |sum of the terms| / (sum of
    their magnitudes) over the powers r^p of the tau^k coefficient: 0 for
    exact coefficients, a few ulps for coefficients right to rounding, and
    up to 1 for wrong ones.  Exponents meet only where their doubles are
    equal, which on a lattice model is where they are equal.
    """
    mu = _exact(s.model.drift)
    half_s2 = [(c / 2, p) for c, p in _exact(s.model.vol2)]
    cs = [_exact(c) for c in s.coeffs]
    d1 = [_d(c) for c in cs]
    out = []
    for k in range(s.order):
        terms = (_times(mu, d1[k]) + _times(half_s2, _d(d1[k]))
                 + [(-(k + 1) * c, p) for c, p in cs[k + 1]])
        if s.coeffs[0]:  # a price series
            terms += [(-c, p + 1.0) for c, p in cs[k]]
        else:
            terms += _times(half_s2, [t for i in range(k + 1) for t in _times(d1[i], d1[k - i])])
            if k == 0:
                terms.append((Fraction(-1), 1.0))
        total, size = {}, {}
        for c, p in terms:  # every term is nonzero, so each size is positive
            total[p] = total.get(p, 0) + c
            size[p] = size.get(p, 0.0) + abs(float(c))
        out.append(max((abs(float(total[p])) / size[p] for p in total), default=0.0))
    return out


def exp_compose(s: TaylorSeries) -> TaylorSeries:
    """Exponentiate a log-price series termwise: b = exp(c) as formal series.

    Uses b_0 = 1, n b_n = sum_{k=1}^{n} k c_k b_{n-k}, valid because c_0 = 0.
    """
    if s.coeffs[0]:
        raise ValueError(f"exp_compose expects a log-price series, whose c_0 is 0, "
                         f"got c_0 = {s.coeffs[0]}")
    b = [gp.const(1.0)]
    for n in range(1, s.order + 1):
        acc = gp.add(*(gp.scale(gp.mul(s.coeffs[k], b[n - k]), float(k))
                       for k in range(1, n + 1)))
        b.append(gp.scale(acc, 1.0 / n))
    return TaylorSeries(tuple(b), s.model)


def approx_equal(a: gp.GenPoly, b: gp.GenPoly, tol: float) -> bool:
    """True iff every coefficient of the (merged) difference is within tol.

    Terms of a and b with equal exponents cancel against each other; a term
    with no counterpart must itself have magnitude <= tol.
    """
    diff = gp.add(a, gp.scale(b, -1.0))
    return all(abs(c) <= tol for c, _ in diff.terms)
