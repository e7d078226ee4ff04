"""Taylor-series zero coupon bond pricing for one-factor short-rate models.

The series coefficients of the bond price P(tau, r) and its logarithm are
generalized polynomials in r, produced by two recursions in `series`.  The
CIR closed form (`closedform`) and a Crank-Nicolson PDE solver (`fdsolver`)
serve as independent cross-checks; `tables` rebuilds the embedded benchmark
tables and `cli` exposes everything on the command line.

Only `fdsolver` needs numpy and scipy, so it is imported on first use: the
submodule `fdsolver` and its names FDGrid, FDSolution, default_grid,
fd_error_at, fd_price_at, fd_solve and fd_solve_path resolve through the
module `__getattr__` (PEP 562).  Series-only work never loads numpy or scipy.
"""

import importlib

from .closedform import cir_exact_log_price, cir_exact_price, cir_exact_yield
from .errors import ConfigError, DomainError, TermLimitError
from .genpoly import GenPoly, evaluate, from_text, to_text
from .model import (CIRParams, DothanParams, ShortRateModel, make_cir,
                    make_ckls, make_custom, make_dothan, parse_model_config,
                    parse_model_text)
from .series import (MAX_ORDER, TaylorSeries, log_coeffs, partial_sums,
                     price_coeffs, yield_from_price)
from .tables import TABLE_IDS, TableCell, TableReport, build_table

__version__ = "0.1.0"

__all__ = [
    "CIRParams", "ConfigError", "DomainError", "DothanParams", "FDGrid",
    "FDSolution", "GenPoly", "MAX_ORDER", "ShortRateModel", "TABLE_IDS",
    "TableCell", "TableReport", "TaylorSeries", "TermLimitError",
    "build_table", "cir_exact_log_price", "cir_exact_price",
    "cir_exact_yield", "default_grid", "evaluate", "fd_error_at",
    "fd_price_at", "fd_solve", "fd_solve_path", "from_text", "log_coeffs",
    "make_cir", "make_ckls", "make_custom", "make_dothan",
    "parse_model_config", "parse_model_text", "partial_sums",
    "price_coeffs", "to_text", "yield_from_price",
]

# the public names the eager imports above leave undefined: fdsolver's
_FD_NAMES = frozenset(__all__) - globals().keys()


def __getattr__(name):
    if name != "fdsolver" and name not in _FD_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import fdsolver`: the latter asks this
    # function for the attribute again and recurses
    fdsolver = importlib.import_module(__name__ + ".fdsolver")
    return fdsolver if name == "fdsolver" else getattr(fdsolver, name)


def __dir__():
    return sorted(set(globals()) | _FD_NAMES | {"fdsolver"})
