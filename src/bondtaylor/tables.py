"""Benchmark tables: embedded reference values and their reproduction.

Five reference tables ship with the package and are rebuilt on demand by
``build_table``:

  cir-price        CIR bond prices, closed form vs Taylor orders 4/5/6
  cir-yield        CIR yields in percent, closed form vs Taylor orders 4/5/6
  cir-converge     CIR partial sums J=0..7 (price and log price), tau=1
  dothan-converge  Dothan partial sums J=0..7 (price and log price), tau=3
  dothan-grid      Dothan prices x100, Taylor J=3/5/7 plus an FD oracle column

The reference constants are embedded read-only.  ``build_table`` owns each
table's id, printed decimals and tolerance: every computed cell is compared
against its reference at half an ulp of the last printed decimal (padded by
1e-12 so a value sitting exactly on a rounding boundary cannot flip the
verdict).  Three cells carry suspected misprints and are FLAGGED:
each is reported with a note that says why, and never failed.  A cell is
flagged exactly when it has a note.

Column routes worth knowing before reading the builders:

* cir-price order-J columns are exp(f_J) of the log-series partial sum f_J,
  not partial sums of the price series.  The raw price sums drift from the
  reference by up to 6e-4 at tau=5 while exp(f_J) reproduces all 30 cells,
  so the reference was evidently produced from the log route.
* cir-yield columns are R = -f_J/tau on the same log partial sums.
* dothan-grid Taylor columns are raw price-series partial sums (x100), and
  its exact column is cross-checked against the implicit FD solver since no
  tractable closed form is implemented for that model.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .closedform import cir_exact_price, cir_exact_yield
from .errors import ConfigError
from .model import CIRParams, make_cir, make_dothan_sigma2
from .series import log_coeffs, partial_sums, price_coeffs

_PAD = 1e-12


def _tol(decimals: int) -> float:
    """Half an ulp of the last printed decimal, padded."""
    return 0.5 * 10.0 ** -decimals + _PAD


class TableCell(NamedTuple):
    row: str
    column: str
    computed: float
    reference: float | None
    tolerance: float
    note: str = ""  # why the cell is flagged; empty on every other cell

    @property
    def flagged(self) -> bool:
        return bool(self.note)

    @property
    def deviation(self) -> float | None:
        if self.reference is None:
            return None
        return abs(self.computed - self.reference)

    @property
    def status(self) -> str:
        if self.flagged:
            return "FLAGGED"
        dev = self.deviation
        if dev is None or dev <= self.tolerance:
            return "PASS"
        return "FAIL"


class TableReport(NamedTuple):
    table_id: str
    decimals: int
    cells: tuple[TableCell, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.cells)

    def counts(self) -> tuple[int, int, int]:
        """(pass, flagged, fail) cell counts."""
        statuses = [c.status for c in self.cells]
        return (statuses.count("PASS"), statuses.count("FLAGGED"),
                statuses.count("FAIL"))


_CIR = CIRParams(alpha=0.00315, beta=-0.0555, sigma=0.0894)
_CIR_R = 0.05
_CIR_TAUS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)

_CIR_PRICE_EXACT = (0.987567, 0.975273, 0.963120, 0.951115, 0.927559,
                    0.904626, 0.882334, 0.860691, 0.819367, 0.780631)
# tau=3 order-6 reference is the corrected value; the source prints 0.960691,
# an obvious slip of the leading digit (it would exceed the tau=0.25 price).
_CIR_PRICE_FLAGS = {(3.0, 6): "printed 0.960691, compared against corrected 0.860691"}
_CIR_PRICE_TAYLOR = {
    4: (0.987567, 0.975273, 0.963120, 0.951115, 0.927559,
        0.904627, 0.882336, 0.860696, 0.819382, 0.780662),
    5: (0.987567, 0.975273, 0.963120, 0.951115, 0.927559,
        0.904626, 0.882333, 0.860688, 0.819348, 0.780565),
    6: (0.987567, 0.975273, 0.963120, 0.951115, 0.927559,
        0.904626, 0.882334, 0.860691, 0.819368, 0.780638),
}

_CIR_YIELD_EXACT = (5.00425, 5.00766, 5.01024, 5.01202, 5.01328,
                    5.01167, 5.00739, 5.00065, 4.98059, 4.95306)
_CIR_YIELD_TAYLOR = {
    4: (5.00425, 5.00766, 5.01023, 5.01201, 5.01327,
        5.01163, 5.00729, 5.00046, 4.98014, 4.95227),
    5: (5.00425, 5.00766, 5.01024, 5.01202, 5.01329,
        5.01169, 5.00745, 5.00078, 4.98115, 4.95474),
    6: (5.00425, 5.00766, 5.01024, 5.01202, 5.01328,
        5.01167, 5.00739, 5.00064, 4.98054, 4.95288),
}

_CIR_CONVERGE_PRICE = (1.000000, 0.950000, 0.951062, 0.951121,
                       0.951115, 0.951115, 0.951115, 0.951115)
_CIR_CONVERGE_LOG = (0.000000, -0.050000, -0.050188, -0.050117,
                     -0.050120, -0.050120, -0.050120, -0.050120)

_DOTHAN_MU = 0.005
_DOTHAN_R = 0.035
_DOTHAN_CONVERGE_PRICE = (1.000000, 0.895000, 0.899725, 0.899721,
                          0.899715, 0.899715, 0.899715, 0.899715)
_DOTHAN_CONVERGE_LOG = (0.000000, -0.105000, -0.105788, -0.105681,
                        -0.105677, -0.105678, -0.105678, -0.105678)

_DOTHAN_GRID_TAUS = (1.0, 2.0, 3.0, 4.0, 5.0, 10.0)
_DOTHAN_GRID = {
    0.01: {3: (96.5523, 93.2082, 89.9666, 86.8260, 83.7852, 70.0312),
           5: (96.5523, 93.2082, 89.9663, 86.8251, 83.7830, 69.9977),
           7: (96.5523, 93.2082, 89.9663, 86.8251, 83.7830, 69.9982),
           "exact": (96.5523, 93.2082, 89.9663, 86.8251, 83.7830, 69.9982)},
    0.02: {3: (96.5525, 93.2099, 89.9721, 86.8391, 83.8362, 70.4396),
           5: (96.5525, 93.2098, 89.9715, 86.8370, 83.8056, 70.1530),
           7: (96.5525, 93.2098, 89.9715, 86.8370, 83.8057, 70.1551),
           "exact": (96.5525, 93.2098, 89.9715, 86.8370, 83.8057, 70.1551)},
    0.03: {3: (96.5527, 93.2115, 89.9776, 86.8521, 83.8362, 70.4396),
           5: (96.5527, 93.2113, 89.9767, 86.8491, 83.8287, 70.3112),
           7: (96.5527, 93.2113, 89.9767, 86.8491, 83.8287, 70.3151),
           "exact": (96.5527, 93.2113, 89.9767, 86.8491, 83.8287, 70.3151)},
}
# The sigma2=0.02 J=3 entries at tau=5 and tau=10 duplicate the sigma2=0.03
# row to the digit, while c_3 provably depends on sigma2.  The recursion
# reproduces the 0.03 row exactly (83.836198, 70.439583) and lands far from
# the 0.02 prints (true values 83.810677, 70.235417), so the 0.02 cells are
# the copy slips.  They are reported without a reference.
_DOTHAN_GRID_FLAGS = {(0.02, 3, 5.0), (0.02, 3, 10.0)}


def _cir_table(tol, exact, exact_ref, taylor, taylor_ref, flags) -> list[TableCell]:
    """Closed form exact(tau) and Taylor columns taylor(f_J, tau) of the
    order-6 log partial sums f_J, J = 4/5/6, at r = 0.05 on every CIR tau;
    flags maps (tau, J) to the note of a flagged cell."""
    series = log_coeffs(make_cir(_CIR), 6)
    cells = []
    for i, tau in enumerate(_CIR_TAUS):
        row = f"tau={tau:g}"
        cells.append(TableCell(row, "exact", exact(tau), exact_ref[i], tol))
        sums = partial_sums(series, tau, _CIR_R)
        for order in (4, 5, 6):
            note = flags.get((tau, order), "")
            cells.append(TableCell(row, f"taylor_j{order}", taylor(sums[order], tau),
                                   taylor_ref[order][i], tol, note))
    return cells


def _converge_table(tol, model, tau, r, price_ref, log_ref) -> list[TableCell]:
    p_sums = partial_sums(price_coeffs(model, 7), tau, r)
    l_sums = partial_sums(log_coeffs(model, 7), tau, r)
    cells = []
    for k in range(8):
        row = f"order={k}"
        cells.append(TableCell(row, "price", p_sums[k], price_ref[k], tol))
        cells.append(TableCell(row, "logprice", l_sums[k], log_ref[k], tol))
    return cells


def _dothan_grid(tol) -> list[TableCell]:
    # the only table that needs the FD oracle, and with it numpy and scipy
    from .fdsolver import default_grid, fd_price_at, fd_solve_path

    # all checkpoint maturities divide 10, so one march per block suffices
    grid = default_grid(_DOTHAN_R, _DOTHAN_GRID_TAUS[-1])
    cells = []
    for sigma2 in (0.01, 0.02, 0.03):
        model = make_dothan_sigma2(_DOTHAN_MU, sigma2)
        series = price_coeffs(model, 7)
        sols = fd_solve_path(model, _DOTHAN_GRID_TAUS, grid)
        for i, tau in enumerate(_DOTHAN_GRID_TAUS):
            row = f"sigma2={sigma2:g} tau={tau:g}"
            sums = partial_sums(series, tau, _DOTHAN_R)
            for order in (3, 5, 7):
                printed = _DOTHAN_GRID[sigma2][order][i]
                slip = (sigma2, order, tau) in _DOTHAN_GRID_FLAGS
                note = (f"printed {printed:.4f} duplicates the sigma2=0.03 cell; "
                        "series value reported") if slip else ""
                cells.append(TableCell(row, f"taylor_j{order}", 100.0 * sums[order],
                                       None if slip else printed, tol, note))
            fd_value = 100.0 * fd_price_at(sols[tau], _DOTHAN_R)
            cells.append(TableCell(row, "exact", fd_value,
                                   _DOTHAN_GRID[sigma2]["exact"][i], tol))
    return cells


# id -> (printed decimals, builder(tol) -> cells); lambdas read the data at run time
_BUILDERS = {
    "cir-price": (6, lambda tol: _cir_table(
        tol, lambda tau: cir_exact_price(_CIR, tau, _CIR_R), _CIR_PRICE_EXACT,
        lambda f, tau: math.exp(f), _CIR_PRICE_TAYLOR, _CIR_PRICE_FLAGS)),
    "cir-yield": (5, lambda tol: _cir_table(
        tol, lambda tau: 100.0 * cir_exact_yield(_CIR, tau, _CIR_R), _CIR_YIELD_EXACT,
        lambda f, tau: -100.0 * f / tau, _CIR_YIELD_TAYLOR, {})),
    "cir-converge": (6, lambda tol: _converge_table(
        tol, make_cir(_CIR), 1.0, _CIR_R, _CIR_CONVERGE_PRICE, _CIR_CONVERGE_LOG)),
    "dothan-converge": (6, lambda tol: _converge_table(
        tol, make_dothan_sigma2(_DOTHAN_MU, 0.02), 3.0, _DOTHAN_R,
        _DOTHAN_CONVERGE_PRICE, _DOTHAN_CONVERGE_LOG)),
    "dothan-grid": (4, _dothan_grid),
}
TABLE_IDS = tuple(_BUILDERS)


def build_table(table_id: str) -> TableReport:
    """Recompute one reference table and compare cell by cell at its decimals."""
    try:
        decimals, builder = _BUILDERS[table_id]
    except KeyError:
        raise ConfigError(f"unknown table id {table_id!r}; "
                          f"choose from: {', '.join(TABLE_IDS)}") from None
    return TableReport(table_id, decimals, tuple(builder(_tol(decimals))))
