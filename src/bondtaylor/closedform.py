"""Closed-form CIR bond prices.

For dr = (alpha + beta r) dt + sigma sqrt(r) dW the bond price is affine,
P(tau, r) = A(tau) exp(-B(tau) r), with psi = sqrt(beta^2 + 2 sigma^2) and

    B(tau) = 2 (e^{psi tau} - 1) / ( (psi - beta)(e^{psi tau} - 1) + 2 psi )
    A(tau) = [ 2 psi e^{(psi - beta) tau / 2} / ( (psi - beta)(e^{psi tau} - 1) + 2 psi ) ]^{2 alpha / sigma^2}

Everything is computed in log space with e^{-psi tau} factored out, so the
formulas stay finite for large psi*tau and accurate near tau = 0.

sigma = 0 collapses to the deterministic rate ODE dr = (alpha + beta r) dt,
whose price exp(-int_0^tau r(s) ds) is integrated analytically; the affine
exponent 2 alpha / sigma^2 blows up in that limit, so the branch is explicit.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_maturity, check_yield_maturity
from .model import CIRParams


def cir_psi(p: CIRParams) -> float:
    return math.sqrt(p.beta * p.beta + 2.0 * p.sigma * p.sigma)


def cir_exact_log_price(p: CIRParams, tau: float, r: float) -> float:
    """ln P(tau, r) under the CIR closed form."""
    check_maturity(tau)
    if not 0.0 <= r < math.inf:
        raise DomainError(f"short rate must be nonnegative and finite, got {r}")
    if tau == 0.0:
        return 0.0

    if p.sigma == 0.0:
        # deterministic limit: r(s) solves dr = (alpha + beta r) ds from r(0) = r
        if p.beta == 0.0:
            out = -r * tau - 0.5 * p.alpha * tau * tau
        else:
            growth = math.expm1(p.beta * tau)
            out = p.alpha * tau / p.beta - (r + p.alpha / p.beta) * growth / p.beta
        if not math.isfinite(out):
            raise DomainError(f"closed form overflowed at tau={tau}, r={r}")
        return out

    psi = cir_psi(p)
    em = -math.expm1(-psi * tau)  # 1 - e^{-psi tau}, accurate for small tau
    q = math.exp(-psi * tau)
    base = (psi - p.beta) * em + 2.0 * psi * q  # e^{-psi tau} * denominator
    b = 2.0 * em / base
    log_a = (2.0 * p.alpha / (p.sigma * p.sigma)) * (
        math.log(2.0 * psi) + 0.5 * (psi - p.beta) * tau - (psi * tau + math.log(base))
    )
    out = log_a - b * r
    if not math.isfinite(out):
        raise DomainError(f"closed form overflowed at tau={tau}, r={r}")
    return out


def cir_exact_price(p: CIRParams, tau: float, r: float) -> float:
    return math.exp(cir_exact_log_price(p, tau, r))


def cir_exact_yield(p: CIRParams, tau: float, r: float) -> float:
    check_yield_maturity(tau)
    return -cir_exact_log_price(p, tau, r) / tau
