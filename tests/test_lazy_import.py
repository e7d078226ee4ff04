"""`import bondtaylor` loads the series core only; the cross-checks
(`closedform`, `tables`, and the FD oracle with numpy and scipy) are imported
on first use.  The series path loads neither dataclasses nor inspect (its
records are NamedTuples; the import chain of dataclasses is about half of its
cold start), nor fractions and decimal (genpoly's exact exponents need neither).
The FD oracle loads numpy and scipy's LAPACK extension, read from its file:
neither the scipy.linalg package, whose import would double an `fd` command's
start, nor, except on Windows, the top-level scipy package.

Each check runs in a fresh interpreter, since the test process has long
since loaded all of them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CIR = "configs/cir.cfg"
SERIES_COMMANDS = [
    ["coeffs", "--model", CIR, "--order", "5"],
    ["price", "--model", CIR, "--r", "0.05", "--tau", "1", "--order", "7"],
    ["price", "--model", CIR, "--r", "0.05", "--taus", "1,2", "--converge"],
    ["yield", "--model", CIR, "--r", "0.05", "--taus", "1,2,5", "--order", "12"],
    ["yield", "--model", CIR, "--r", "0.05", "--taus", "1,2,5", "--order", "12",
     "--from-price"],
    ["exact-cir", "--alpha", "0.00315", "--beta", "-0.0555", "--sigma", "0.0894",
     "--r", "0.05", "--tau", "2"],
    ["table", "--id", "cir-converge"],
    ["table", "--id", "dothan-converge"],
]

# what the FD solver loads; fractions, decimal included, costs a cold start
# about as much as the series core, and exact exponents need neither
SOLVER = ("numpy", "scipy.linalg._flapack")
HEAVY = SOLVER + ("dataclasses", "decimal", "fractions", "inspect", "scipy", "scipy.linalg")
# what it does not load: the scipy package runs its __init__ only on Windows,
# where that adds the folder of scipy's BLAS DLLs
NOT_SOLVER = ("scipy.linalg",) if os.name == "nt" else ("scipy", "scipy.linalg")

# runs each argv list through main with stdout discarded, then prints the exit
# codes and which of the HEAVY modules are loaded
_CLI_PROBE = """
import contextlib, io, sys
from bondtaylor.cli import main
codes = []
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(codes, sorted(m for m in {heavy!r} if m in sys.modules))
"""

CORE = ["bondtaylor", "bondtaylor.errors", "bondtaylor.genpoly", "bondtaylor.model",
        "bondtaylor.series"]

_API_PROBE = """
import sys
import bondtaylor
loaded = lambda: sorted(m for m in sys.modules
                        if m.startswith("bondtaylor") or m in {heavy!r})
assert loaded() == {core!r}, loaded()
try:
    bondtaylor.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("bondtaylor.no_such_name resolved")
assert loaded() == {core!r}, loaded()
lazy = bondtaylor._LAZY
# in an order in which each loads no later one: tables imports closedform,
# and only fdsolver loads the heavy modules
homes = ["closedform", "tables", "fdsolver"]
assert sorted(set(lazy.values())) == sorted(homes), lazy
# __all__ is the one list of public names: each is eager or lazy, not both
eager = set(vars(bondtaylor)) & set(bondtaylor.__all__)
assert eager.isdisjoint(lazy) and eager | set(lazy) == set(bondtaylor.__all__) | set(homes)
for home in homes:
    name = "bondtaylor." + home
    assert name not in sys.modules, name
    first = next(n for n, h in lazy.items() if h == home and n != home)
    getattr(bondtaylor, first)
    module = sys.modules[name]
    assert getattr(bondtaylor, home) is module, home
    for n, h in lazy.items():
        if h == home and n != home:
            assert getattr(bondtaylor, n) is vars(module)[n], n
    if home != "fdsolver":
        assert not any(m in sys.modules for m in {heavy!r}), (home, loaded())
# the solver loads numpy and scipy's LAPACK extension, not scipy.linalg and,
# except on Windows, not scipy
assert all(m in sys.modules for m in {solver!r}), loaded()
assert not any(m in sys.modules for m in {not_solver!r}), loaded()
from bondtaylor import FDGrid, build_table
assert FDGrid is bondtaylor.fdsolver.FDGrid and build_table is bondtaylor.tables.build_table
assert set(bondtaylor.__all__) <= set(dir(bondtaylor))
print("ok")
"""


def _run(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_series_commands_load_neither_numpy_nor_scipy():
    out = _run(_CLI_PROBE.format(commands=SERIES_COMMANDS, heavy=HEAVY))
    assert out == f"{[0] * len(SERIES_COMMANDS)} []"


def test_lazy_names_resolve_on_first_use():
    assert _run(_API_PROBE.format(heavy=HEAVY, solver=SOLVER, not_solver=NOT_SOLVER,
                                  core=CORE)) == "ok"


FD_COMMANDS = [
    ["fd", "--model", CIR, "--r", "0.05", "--tau", "1"],
    ["table", "--id", "dothan-grid"],
]


def test_fd_commands_load_lapack_but_not_scipy_linalg():
    out = _run(_CLI_PROBE.format(commands=FD_COMMANDS, heavy=HEAVY))
    codes = f"{[0] * len(FD_COMMANDS)} "
    assert out.startswith(codes), out
    loaded = set(ast.literal_eval(out[len(codes):]))
    assert set(SOLVER) <= loaded and not loaded & {*NOT_SOLVER, "dataclasses"}, loaded


# factors and solves one random tridiagonal system with the solver's LAPACK,
# then with scipy.linalg.lapack imported after it, and prints both in hex
_LAPACK_PROBE = """
import os, sys
import numpy as np
from bondtaylor import fdsolver
assert "scipy.linalg" not in sys.modules
assert os.name == "nt" or "scipy" not in sys.modules
rng = np.random.default_rng(7)
dl, d, du, b = rng.random(5), rng.random(6) + 2.0, rng.random(5), rng.random(6)

def solve(lapack):
    dl2, d2, du2, du3, ipiv, info = lapack.dgttrf(dl, d, du)
    x, info2 = lapack.dgttrs(dl2, d2, du2, du3, ipiv, b)
    assert info == info2 == 0
    return [a.tobytes().hex() for a in (dl2, d2, du2, du3, ipiv, x)]

ours = solve(fdsolver.lapack)
from scipy.linalg import lapack
assert lapack.dgttrs is fdsolver.lapack.dgttrs
assert solve(lapack) == ours
print("ok")
"""


def test_scipy_linalg_imported_later_reuses_the_solvers_lapack():
    assert _run(_LAPACK_PROBE) == "ok"


# one FD price and its estimate in hex; {hide} makes the extension file
# unfindable, so the loader falls back to the scipy.linalg import
_FALLBACK_PROBE = """
import importlib.machinery, sys
{hide}
from bondtaylor import fdsolver
from bondtaylor.model import parse_model_config
print(fdsolver.lapack.__name__, "scipy.linalg" in sys.modules)
sol = fdsolver.fd_solve(parse_model_config("configs/dothan_s2_0.02.cfg"), 2.0,
                        fdsolver.default_grid(0.05, 2.0))
print(fdsolver.fd_price_at(sol, 0.05).hex(), fdsolver.fd_error_at(sol, 0.05).hex())
"""


def test_fallback_to_scipy_linalg_gives_the_same_fd_bits():
    direct = _run(_FALLBACK_PROBE.format(hide="")).splitlines()
    # the import system keeps its own copy of the suffix list, so only the
    # loader sees this one
    fallback = _run(_FALLBACK_PROBE.format(
        hide="importlib.machinery.EXTENSION_SUFFIXES = []")).splitlines()
    assert direct[0] == "scipy.linalg._flapack False"
    assert fallback[0] == "scipy.linalg.lapack True"
    assert fallback[1] == direct[1]


# every finder made blind to scipy, as if it were not installed
_NO_SCIPY_PROBE = """
import sys

class Blind:
    def __init__(self, finder):
        self.finder = finder

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] != "scipy":
            return self.finder.find_spec(name, path, target)

sys.meta_path[:] = map(Blind, sys.meta_path)
try:
    from bondtaylor import fdsolver
except ModuleNotFoundError as exc:
    print(exc.name)
"""


def test_without_scipy_the_solver_import_names_scipy():
    assert _run(_NO_SCIPY_PROBE) == "scipy"


_LOADED_PROBE = """
import sys
import {module}
print(" ".join(sorted(m for m in sys.modules if m.startswith("bondtaylor"))))
"""


@pytest.mark.parametrize("module, needed", [
    ("bondtaylor", {"bondtaylor.genpoly", "bondtaylor.model", "bondtaylor.series"}),
    ("bondtaylor.cli", {"bondtaylor.series", "bondtaylor.tables"}),
])
def test_tracer_finds_the_modules_it_counts_loaded(module, needed):
    """The benchmark's tracer wraps the functions of the bondtaylor modules
    that are loaded when it installs, and only those (`Tracer.install` in
    perfbench/tracing.py).  `perfbench/run.py` installs it right after
    `import bondtaylor`, and `perfbench/cli_launcher.py` right after
    `import bondtaylor.cli`.  A module that either import left to load on first
    use would run untraced, and its per-layer counts and self times would read
    0: the in-process workloads count `series`, `genpoly` and `model`, and the
    CLI workload counts `tables.build_table` and `series.price_coeffs`.  So
    these stay eager, while `closedform`, `tables` and `fdsolver` are lazy in
    the package itself."""
    assert needed <= set(_run(_LOADED_PROBE.format(module=module)).split())
