"""Taylor coefficients of bond prices in time to maturity.

With time to maturity tau, the zero-coupon bond price P(tau, r) under a
one-factor short-rate model with time-independent drift mu(r) and squared
volatility s2(r) solves

    -P_tau + mu(r) P_r + (1/2) s2(r) P_rr - r P = 0,       P(0, r) = 1.

Writing P = sum_k c_k(r) tau^k and matching powers of tau gives the price
recursion

    c_0 = 1,
    c_{k+1} = ( mu c_k' + (1/2) s2 c_k'' - r c_k ) / (k+1).

The log-price f = ln P solves the corresponding semilinear equation, whose
series f = sum_k c_k(r) tau^k satisfies

    c_0 = 0,   c_1 = -r,
    c_{k+1} = ( mu c_k' + (1/2) s2 sum_{i=0}^{k} c_i' c_{k-i}'
                + (1/2) s2 c_k'' ) / (k+1)          for k >= 1;

the -r source term enters only at order zero, which is what anchors c_1.
Every coefficient stays a GenPoly in r, so truncation is the only
approximation made here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

from . import genpoly as gp
from .errors import (DomainError, TermLimitError, check_maturity,
                     check_yield_maturity)
from .genpoly import GenPoly
from .model import ShortRateModel

PRICE = "price"
LOGPRICE = "logprice"

# series beyond this order are never useful at desk precision and the
# coefficient algebra starts to crawl
MAX_ORDER = 30

_NEG_R = gp.term(-1.0, 1.0)  # the polynomial -r


@dataclass(frozen=True)
class TaylorSeries:
    target: str  # PRICE or LOGPRICE
    order: int
    coeffs: tuple[GenPoly, ...]  # indices 0..order
    model: ShortRateModel
    # (r, (c_0(r), ..., c_order(r))) for the last rate partial_sums evaluated
    _at: tuple[float, tuple[float, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)


def _check_order(order: int) -> None:
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")


def _apply_operator(model: ShortRateModel, c: GenPoly) -> GenPoly:
    """The pricing operator mu c' + (1/2) s2 c'' - r c."""
    d1 = gp.derivative(c)
    d2 = gp.derivative(d1)
    # halving and negating are exact in binary (short of underflow), so scaling
    # the short factor gives the bits of scaling the merged product, one merge less
    return gp.add(gp.mul(model.drift, d1), gp.mul(gp.scale(model.vol2, 0.5), d2),
                  gp.mul(_NEG_R, c))


def price_coeffs(model: ShortRateModel, order: int) -> TaylorSeries:
    """Coefficients c_0..c_order of the bond-price series."""
    _check_order(order)
    coeffs = [gp.const(1.0)]
    for k in range(order):
        try:
            raw = _apply_operator(model, coeffs[k])
        except TermLimitError as exc:
            raise TermLimitError(f"price series order {k + 1}: {exc}") from None
        coeffs.append(gp.scale(raw, 1.0 / (k + 1)))
    return TaylorSeries(PRICE, order, tuple(coeffs), model)


def log_coeffs(model: ShortRateModel, order: int) -> TaylorSeries:
    """Coefficients c_0..c_order of the log-price series."""
    _check_order(order)
    coeffs = [GenPoly()]
    derivs = [GenPoly()]
    if order >= 1:
        coeffs.append(_NEG_R)
        derivs.append(gp.derivative(_NEG_R))
    half_vol2 = gp.scale(model.vol2, 0.5)  # exact, as in _apply_operator
    for k in range(1, order):
        try:
            # sum_i c_i' c_{k-i}' + c_k'' in one merge; the full range of i,
            # since the i=0 and i=k ends vanish only when c_0' does
            inner = gp.add(*(gp.mul(derivs[i], derivs[k - i]) for i in range(k + 1)),
                           gp.derivative(derivs[k]))
            raw = gp.add(gp.mul(model.drift, derivs[k]), gp.mul(half_vol2, inner))
        except TermLimitError as exc:
            raise TermLimitError(f"log series order {k + 1}: {exc}") from None
        nxt = gp.scale(raw, 1.0 / (k + 1))
        coeffs.append(nxt)
        derivs.append(gp.derivative(nxt))
    return TaylorSeries(LOGPRICE, order, tuple(coeffs), model)


def partial_sums(s: TaylorSeries, tau: float, r: float) -> list[float]:
    """Running partial sums sum_{k<=J} c_k(r) tau^k for J = 0..order.

    The series keeps c_k(r) for the last r it was evaluated at, so
    consecutive calls at one r evaluate each coefficient once: evaluate a
    surface rate-outer, maturity-inner.
    """
    check_maturity(tau)
    at = s._at  # one load, so a rate is never paired with another's values
    if at is None or at[0] != r:  # a NaN r never hits
        at = (r, tuple(gp.evaluate(c, r) for c in s.coeffs))
        object.__setattr__(s, "_at", at)  # only after every c_k(r) succeeded
    out = []
    acc = 0.0
    tau_pow = 1.0
    for v in at[1]:
        acc += v * tau_pow
        tau_pow *= tau
        out.append(acc)
    return out


def eval_partial_sum(s: TaylorSeries, tau: float, r: float) -> float:
    """The order-J partial sum sum_{k=0}^{J} c_k(r) tau^k at (tau, r)."""
    return partial_sums(s, tau, r)[-1]


def yield_from_price(price: float, tau: float) -> float:
    """Continuously compounded yield R = -ln(price) / tau."""
    check_yield_maturity(tau)
    if price <= 0.0:
        raise DomainError(f"yield needs a positive price, got {price}")
    return -log(price) / tau


def yield_curve(model: ShortRateModel, order: int, r: float, taus) -> list[tuple[float, float]]:
    """Yields from the log-price series: R(tau) = -f_J(tau, r) / tau.

    Working on the log series skips the exp/log round trip; `bondtaylor yield
    --from-price` exposes the alternative route through the price series.
    """
    series = log_coeffs(model, order)
    out = []
    for tau in taus:
        f = eval_partial_sum(series, tau, r)  # checks tau first, as the price route does
        check_yield_maturity(tau)
        out.append((tau, -f / tau))
    return out


def exp_compose(s: TaylorSeries) -> TaylorSeries:
    """Exponentiate a log-price series termwise: b = exp(c) as formal series.

    Uses b_0 = 1, n b_n = sum_{k=1}^{n} k c_k b_{n-k}, valid because c_0 = 0.
    """
    if s.target != LOGPRICE:
        raise ValueError(f"exp_compose expects a {LOGPRICE} series, got {s.target!r}")
    b = [gp.const(1.0)]
    for n in range(1, s.order + 1):
        acc = gp.add(*(gp.scale(gp.mul(s.coeffs[k], b[n - k]), float(k))
                       for k in range(1, n + 1)))
        b.append(gp.scale(acc, 1.0 / n))
    return TaylorSeries(PRICE, s.order, tuple(b), s.model)


def pde_residual_coeffs(s: TaylorSeries) -> list[GenPoly]:
    """Substitute a truncated price series into the pricing equation.

    Returns the tau^0..tau^order coefficients of
        -P_tau + mu P_r + (1/2) s2 P_rr - r P
    for P = sum_{k<=order} c_k tau^k.  For coefficients produced by
    price_coeffs everything through tau^(order-1) cancels and the tau^order
    entry is the leading truncation error.
    """
    if s.target != PRICE:
        raise ValueError(f"pde_residual_coeffs expects a {PRICE} series, got {s.target!r}")
    res = []
    for k in range(s.order + 1):
        coeff = _apply_operator(s.model, s.coeffs[k])
        if k < s.order:
            coeff = gp.add(coeff, gp.scale(s.coeffs[k + 1], -(k + 1.0)))
        res.append(coeff)
    return res
