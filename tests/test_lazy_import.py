"""The FD oracle, and with it numpy and scipy, is imported on first use only,
and the series path loads neither dataclasses nor inspect (its records are
NamedTuples; the import chain of dataclasses is about half of its cold start).

Each check runs in a fresh interpreter, since the test process has long
since loaded all four.
"""

import os
import subprocess
import sys
from pathlib import Path

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

HEAVY = ("dataclasses", "inspect", "numpy", "scipy")

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

_API_PROBE = """
import sys
import bondtaylor
loaded = lambda: [m for m in ("bondtaylor.fdsolver",) + {heavy!r} if m in sys.modules]
assert loaded() == [], loaded()
fdsolver = bondtaylor.fdsolver
assert fdsolver is sys.modules["bondtaylor.fdsolver"]
# the solver keeps its dataclasses, and scipy.linalg loads dataclasses and inspect anyway
assert loaded() == ["bondtaylor.fdsolver", *{heavy!r}], loaded()
assert bondtaylor.fd_solve is fdsolver.fd_solve
from bondtaylor import FDGrid
assert FDGrid is fdsolver.FDGrid
for name in bondtaylor._FD_NAMES:
    assert getattr(bondtaylor, name) is getattr(fdsolver, name), name
assert set(bondtaylor.__all__) <= set(dir(bondtaylor))
try:
    bondtaylor.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("bondtaylor.no_such_name resolved")
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


def test_fd_names_resolve_on_first_use():
    assert _run(_API_PROBE.format(heavy=HEAVY)) == "ok"
