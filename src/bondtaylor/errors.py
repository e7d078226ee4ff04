"""Exception types shared across the package, and the maturity rules.

Each type has one CLI exit code: ConfigError exits 1, as a plain ValueError
does, and DomainError, a series build past a genpoly term budget too, exits 2.

A time to maturity tau must be nonnegative and finite: check_maturity, which
series, fdsolver and closedform call, fdsolver for every checkpoint too.  A
yield -ln(P)/tau needs a normal tau > 0 on top of that: check_yield_maturity.
"""

from math import inf
from sys import float_info


class DomainError(ValueError):
    """Numerical or domain violation: bad evaluation point, non-finite
    intermediate, unusable grid, and the like."""


class ConfigError(ValueError):
    """Malformed or inconsistent model configuration."""


def check_maturity(tau: float) -> None:
    """Raise DomainError unless 0 <= tau < inf (NaN fails too)."""
    if not 0.0 <= tau < inf:
        raise DomainError(f"time to maturity must be nonnegative and finite, got {tau}")


def check_yield_maturity(tau: float) -> None:
    """Raise DomainError unless tau > 0; a yield divides by tau.  A subnormal
    tau is refused too: -r tau keeps too few bits there to divide back."""
    if tau <= 0.0:
        raise DomainError(f"yield needs tau > 0, got {tau}")
    if tau < float_info.min:
        raise DomainError(f"yield needs a normal tau, at least {float_info.min}, got {tau}")
