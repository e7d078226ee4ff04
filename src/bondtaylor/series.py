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
The sum is symmetric in i <-> k-i and is formed with each mirrored pair once:

    sum_{i=0}^{k} c_i' c_{k-i}' = sum_{i<k-i} (2 c_i') c_{k-i}' + [k even] (c_{k/2}')^2,

with each 2 c_i' formed once and reused (doubling is exact in binary).
Each sum of products is one merge (genpoly.dot): a price order sums its
operator's three, a log order first the convolution with c_k'', then the
drift and vol2 products; each order's 1/(k+1) rides on its last merge, as
dot's factor.  Every coefficient stays a GenPoly in r, so truncation is the
only approximation made here.  A series is its coefficients and its model:
c_0 is 1 for a price series and 0 for a log series.  A longer build leaves
c_0..c_J as they were, so its order-J sum keeps its bits.
partial_sums reads c_k and vol2 through one genpoly.table per series, so each
distinct exponent is divided once per series and r raised to it once per rate.
"""

from __future__ import annotations

from math import inf, isfinite, log
from typing import NamedTuple

from . import genpoly as gp
from .errors import DomainError, check_maturity, check_yield_maturity
from .genpoly import GenPoly
from .model import ShortRateModel, check_vol2_at

# series beyond this order are never useful at desk precision and the
# coefficient algebra starts to crawl
MAX_ORDER = 32

_NEG_R = gp.term(-1.0, 1.0)  # the polynomial -r


class TaylorSeries(NamedTuple):
    coeffs: tuple[GenPoly, ...]  # c_0..c_order
    model: ShortRateModel

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


# (series, r, [c_0(r), ..., c_order(r)], its gp.table) last evaluated, for partial_sums
_last = None


def _check_order(order: int) -> None:
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")


def _apply_operator(drift: GenPoly, half_vol2: GenPoly, c: GenPoly, factor: float) -> GenPoly:
    """factor times the pricing operator mu c' + (1/2) s2 c'' - r c, given mu and s2/2."""
    # halving and negating are exact in binary (short of underflow), so scaling
    # the short factor once per series gives the bits of scaling each raw
    # product, and the three products are summed and scaled in one merge
    d1 = gp.derivative(c)
    d2 = gp.derivative(d1)
    return gp.dot([(drift, d1), (half_vol2, d2), (_NEG_R, c)], factor=factor)


def price_coeffs(model: ShortRateModel, order: int) -> TaylorSeries:
    """Coefficients c_0..c_order of the bond-price series, order <= MAX_ORDER."""
    _check_order(order)
    half_vol2 = gp.scale(model.vol2, 0.5)
    coeffs = [gp.const(1.0)]
    for k in range(order):
        try:
            coeffs.append(_apply_operator(model.drift, half_vol2, coeffs[k], 1.0 / (k + 1)))
        except DomainError as exc:  # an overflow or a term budget
            raise DomainError(f"price series order {k + 1}: {exc}") from None
    return TaylorSeries(tuple(coeffs), model)


def log_coeffs(model: ShortRateModel, order: int) -> TaylorSeries:
    """Coefficients c_0..c_order of the log-price series, order <= MAX_ORDER."""
    _check_order(order)
    coeffs = [GenPoly(), _NEG_R][:order + 1]  # c_0 = 0 and c_1 = -r, as far as order
    derivs = [GenPoly(), gp.derivative(_NEG_R)][:order + 1]
    twice = []  # twice[i] = 2 c_i' (exact), for each i < k - i
    half_vol2 = gp.scale(model.vol2, 0.5)  # exact, as in _apply_operator
    for k in range(1, order):
        try:
            if k % 2:
                twice.append(gp.scale(derivs[k // 2], 2.0))
            # sum_i c_i' c_{k-i}' + c_k'' in one merge, each mirrored pair
            # once; from i = 0, since that end vanishes only when c_0' does
            inner = gp.dot([(twice[i] if 2 * i < k else derivs[i], derivs[k - i])
                            for i in range(k // 2 + 1)],
                           gp.derivative(derivs[k]))
            nxt = gp.dot([(model.drift, derivs[k]), (half_vol2, inner)], factor=1.0 / (k + 1))
            if k + 1 < order:  # c_order' is never read
                derivs.append(gp.derivative(nxt))
        except DomainError as exc:  # an overflow or a term budget
            raise DomainError(f"log series order {k + 1}: {exc}") from None
        coeffs.append(nxt)
    return TaylorSeries(tuple(coeffs), model)


def partial_sums(s: TaylorSeries, tau: float, r: float) -> list[float]:
    """Running partial sums sum_{k<=J} c_k(r) tau^k for J = 0..order.

    A rate where the model's vol2 is negative is refused, and so is a sum
    that overflows.  The last series object keeps its table and its c_k(r) at
    the last rate, so one series at one r evaluates once (evaluate a surface
    rate-outer, maturity-inner) and at a new r takes one power per distinct
    exponent.  Another series, an equal copy too, builds its own table.
    """
    global _last
    check_maturity(tau)
    last = _last  # one load, so a rate is never paired with another's values
    if last is None or last[0] is not s or last[1] != r:  # a NaN r never hits
        table = last[3] if last and last[0] is s else gp.table((*s.coeffs, s.model.vol2))
        x = float(r)  # read once, so a rate given as a str is refused as a number
        *values, vol2 = gp.values(table, x)
        check_vol2_at(vol2, x)  # after c_k(r), whose messages come first
        last = (s, r, values, table)
        _last = last  # only after the rate passed every check
    out, acc, tau_pow = [], 0.0, 1.0
    for v in last[2]:
        acc += v * tau_pow
        tau_pow *= tau
        out.append(acc)
    if not isfinite(acc):  # an inf or nan sum stays one, so the last shows any
        raise DomainError(f"partial sum overflowed at tau={tau}, r={r}")
    return out


def yield_from_price(price: float, tau: float) -> float:
    """Continuously compounded yield R = -ln(price) / tau."""
    check_yield_maturity(tau)
    if not 0.0 < price < inf:  # NaN fails too
        raise DomainError(f"yield needs a positive finite price, got {price}")
    return -log(price) / tau

