"""Exception types shared across the package, and the one maturity rule.

The CLI maps these onto exit codes: ConfigError -> 1, DomainError -> 2.

A time to maturity tau must be nonnegative and finite.  check_maturity is the
only place that rule is written; series, fdsolver and closedform call it.
"""

from math import inf


class DomainError(ValueError):
    """Numerical or domain violation: bad evaluation point, non-finite
    intermediate, unusable grid, and the like."""


class TermLimitError(DomainError):
    """A polynomial operation would produce more terms than the budget allows."""


class ConfigError(ValueError):
    """Malformed or inconsistent model configuration."""


def check_maturity(tau: float) -> None:
    """Raise DomainError unless 0 <= tau < inf (NaN fails too)."""
    if not 0.0 <= tau < inf:
        raise DomainError(f"time to maturity must be nonnegative and finite, got {tau}")
