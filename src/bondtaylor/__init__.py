"""Taylor-series zero coupon bond pricing for one-factor short-rate models.

The series coefficients of the bond price P(tau, r) and its logarithm are
generalized polynomials in r, produced by two recursions in `series`.  The
CIR closed form (`closedform`) and a Crank-Nicolson PDE solver (`fdsolver`)
serve as independent cross-checks; `tables` rebuilds the embedded benchmark
tables and `cli` exposes everything on the command line.

`import bondtaylor` loads only the series core: `errors`, `genpoly`, `model`
and `series`.  The cross-checks `closedform`, `tables` and `fdsolver` load on
first use: each of them, and each public name it defines, resolves through
the module `__getattr__` (PEP 562).  A cold start without bytecode caching
compiles all the source it loads; only `fdsolver` needs numpy and scipy's
LAPACK extension (loaded without `scipy.linalg`, and except on Windows without
the `scipy` package), and series work loads neither.
"""

import importlib

from .errors import ConfigError, DomainError
from .genpoly import GenPoly, evaluate, from_text, to_text
from .model import (CIRParams, DothanParams, ShortRateModel, make_cir,
                    make_ckls, make_custom, make_dothan, parse_model_config,
                    parse_model_text)
from .series import (MAX_ORDER, TaylorSeries, log_coeffs, partial_sums,
                     price_coeffs, yield_from_price)

__version__ = "0.1.0"

__all__ = [
    "CIRParams", "ConfigError", "DomainError", "DothanParams", "FDGrid",
    "FDSolution", "GenPoly", "MAX_ORDER", "ShortRateModel", "TABLE_IDS",
    "TableCell", "TableReport", "TaylorSeries", "build_table",
    "cir_exact_log_price", "cir_exact_price", "cir_exact_yield",
    "default_grid", "evaluate", "fd_error_at", "fd_price_at", "fd_solve",
    "fd_solve_path", "from_text", "log_coeffs", "make_cir", "make_ckls",
    "make_custom", "make_dothan", "parse_model_config", "parse_model_text",
    "partial_sums", "price_coeffs", "to_text", "yield_from_price",
]

# each lazy submodule and each public name it defines -> that submodule
_LAZY = {
    **dict.fromkeys(("closedform", "cir_exact_log_price", "cir_exact_price",
                     "cir_exact_yield"), "closedform"),
    **dict.fromkeys(("tables", "TABLE_IDS", "TableCell", "TableReport",
                     "build_table"), "tables"),
    **dict.fromkeys(("fdsolver", "FDGrid", "FDSolution", "default_grid",
                     "fd_error_at", "fd_price_at", "fd_solve", "fd_solve_path"),
                    "fdsolver"),
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import ...`: the latter asks this function
    # for the attribute again and recurses
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
