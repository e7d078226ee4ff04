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
Near either limit rounding is amplified (2 alpha / sigma^2 times an O(sigma^2)
bracket; two O(1/beta) terms that cancel at sigma = 0), so ln P is refused
(DomainError) where its first-order rounding bound exceeds 1e-9 max(1, |ln P|).
Parameters are checked first (ValueError): sigma by the model's sign rule,
then alpha, beta and sigma must be finite.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_maturity, check_yield_maturity
from .model import CIRParams, _check_nonnegative

_U, _REL_TOL = 2.0 ** -53, 1e-9  # unit roundoff; the rounding bound accepted on ln P


def cir_psi(p: CIRParams) -> float:
    return math.sqrt(p.beta * p.beta + 2.0 * p.sigma * p.sigma)


def cir_exact_log_price(p: CIRParams, tau: float, r: float) -> float:
    """ln P(tau, r) under the CIR closed form."""
    _check_nonnegative("sigma", p.sigma)
    for name, value in zip(p._fields, p):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    check_maturity(tau)
    if not 0.0 <= r < math.inf:
        raise DomainError(f"short rate must be nonnegative and finite, got {r}")
    if tau == 0.0:
        return 0.0
    try:
        out, bound, cause = _log_price(p, tau, r)
    except (OverflowError, ZeroDivisionError):  # an exp overflowed, a denominator underflowed
        out = math.nan
    if not math.isfinite(out):
        raise DomainError(f"closed form overflowed at tau={tau}, r={r}")
    if _U * bound > _REL_TOL * max(1.0, abs(out)):
        raise DomainError(f"closed form too ill-conditioned at {cause}={getattr(p, cause)}, "
                          f"tau={tau}, r={r}: rounding may move ln P by {_U * bound:.1e}")
    return out


def _log_price(p: CIRParams, tau: float, r: float) -> tuple[float, float, str]:
    """ln P, the sum of the magnitudes its rounding scales with, and the name
    of the parameter whose smallness makes that sum large."""
    s2 = p.sigma * p.sigma
    if s2 == 0.0:  # sigma = 0, or so small that sigma^2 underflows
        # deterministic limit: r(s) solves dr = (alpha + beta r) ds from r(0) = r
        if p.beta == 0.0:
            return -r * tau - 0.5 * p.alpha * tau * tau, 0.0, ""
        drift = p.alpha * tau / p.beta
        decay = (r + p.alpha / p.beta) * math.expm1(p.beta * tau) / p.beta
        return drift - decay, abs(drift) + abs(decay), "beta"
    psi = cir_psi(p)
    em = -math.expm1(-psi * tau)  # 1 - e^{-psi tau}, accurate for small tau
    q = math.exp(-psi * tau)
    base = (psi - p.beta) * em + 2.0 * psi * q  # e^{-psi tau} * denominator
    b = 2.0 * em / base
    scale = 2.0 * p.alpha / s2
    terms = (math.log(2.0 * psi), 0.5 * (psi - p.beta) * tau, psi * tau, math.log(base))
    log_a = scale * (terms[0] + terms[1] - (terms[2] + terms[3]))
    # psi's rounding reaches ln(base) and b through psi - beta, small where beta ~ psi
    amplified = psi * em / base
    bound = abs(scale) * (sum(map(abs, terms)) + amplified) + abs(b * r) * amplified
    return log_a - b * r, bound, "sigma"


def cir_exact_price(p: CIRParams, tau: float, r: float) -> float:
    try:
        return math.exp(cir_exact_log_price(p, tau, r))
    except OverflowError:
        raise DomainError(f"closed form price overflowed at tau={tau}, r={r}") from None


def cir_exact_yield(p: CIRParams, tau: float, r: float) -> float:
    check_yield_maturity(tau)
    return -cir_exact_log_price(p, tau, r) / tau
