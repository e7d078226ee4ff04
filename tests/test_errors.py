import math

import pytest

from bondtaylor.closedform import cir_exact_log_price, cir_exact_price
from bondtaylor.errors import DomainError
from bondtaylor.fdsolver import FDGrid, default_grid, fd_solve
from bondtaylor.model import CIRParams, make_cir
from bondtaylor.series import partial_sums, price_coeffs

CIR = CIRParams(0.00315, -0.0555, 0.0894)
GRID = FDGrid(r_max=0.5, n_r=10, n_t=4)

# the entry points that check a time to maturity, each applied to tau
TAKES_TAU = {
    "partial_sums": lambda tau: partial_sums(price_coeffs(make_cir(CIR), 3), tau, 0.05),
    "default_grid": lambda tau: default_grid(0.05, tau),
    "fd_solve": lambda tau: fd_solve(make_cir(CIR), tau, GRID),
    "cir_exact_log_price": lambda tau: cir_exact_log_price(CIR, tau, 0.05),
    "cir_exact_price": lambda tau: cir_exact_price(CIR, tau, 0.05),
}


@pytest.mark.parametrize("tau", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(TAKES_TAU))
def test_one_maturity_rule_and_message(name, tau):
    with pytest.raises(DomainError) as exc:
        TAKES_TAU[name](tau)
    assert str(exc.value) == f"time to maturity must be nonnegative and finite, got {tau}"
