"""Smoke tests for the scripts under scripts/, run in-process."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CONFIGS = SCRIPTS.parent / "configs"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    code = 0
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out.splitlines()


def test_fd_convergence_script(monkeypatch, capsys):
    code, lines = run_script(monkeypatch, capsys, "fd_convergence.py", "--levels", "2")
    assert code == 0
    # a title, a header, one row per level, the orders (none with two
    # levels), the finest error and the default grid's answer
    assert len(lines) == 7
    assert lines[0].startswith("tau=1.0 exact=0.9511")
    assert [len(row.split()) for row in lines[2:4]] == [4, 4]
    assert lines[4] == "  observed orders: "
    assert lines[6].startswith("  default grid ")
    # the estimate `fd` gates on (fdsolver.fd_error_at) covers the true error
    estimate, error = (float(part.split()[-1]) for part in lines[6].split(", ")[-2:])
    assert estimate >= error
    # Crank-Nicolson at h = 0.001, dtau = 0.002 is within 1e-6 of the closed form
    assert float(lines[5].split("=")[1]) <= 1e-6


def test_reproduce_tables_script(monkeypatch, capsys):
    code, lines = run_script(monkeypatch, capsys, "reproduce_tables.py")
    assert code == 0
    ids = ["cir-price", "cir-yield", "cir-converge", "dothan-converge", "dothan-grid"]
    assert [line.split()[:2] for line in lines] == [[i, "ok"] for i in ids]


# the hex sweep's refused (model, target, rate, message), each at all five
# maturities: the first refusal the rate meets.  The shipped CKLS config
# (gamma = 3/4) has exponent 3/2, which r <= 0 does not admit, and so has the
# sweep's own CKLS model its 2 gamma; CIR's vol2 is negative at r < 0, and a
# coefficient that overflows comes first where it comes before either
CKLS_17 = "ckls_gamma_0.78341234567891234"
HEX_SWEEP_REFUSED = [
    ("cir.cfg", "price", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("cir.cfg", "price", "r=-0.01", "vol2 is negative at r=-0.01"),
    ("cir.cfg", "price", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("cir.cfg", "log", "r=-1e+200", "vol2 is negative at r=-1e+200"),
    ("cir.cfg", "log", "r=-0.01", "vol2 is negative at r=-0.01"),
    ("ckls.cfg", "price", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("ckls.cfg", "price", "r=-0.01", "cannot evaluate exponent 1.5 at r=-0.01"),
    ("ckls.cfg", "price", "r=0.0", "cannot evaluate exponent 1.5 at r=0.0"),
    ("ckls.cfg", "price", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("ckls.cfg", "log", "r=-1e+200", "cannot evaluate exponent 1.5 at r=-1e+200"),
    ("ckls.cfg", "log", "r=-0.01", "cannot evaluate exponent 1.5 at r=-0.01"),
    ("ckls.cfg", "log", "r=0.0", "cannot evaluate exponent 1.5 at r=0.0"),
    ("ckls.cfg", "log", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("dothan_s2_0.01.cfg", "price", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("dothan_s2_0.01.cfg", "price", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("dothan_s2_0.01.cfg", "log", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("dothan_s2_0.01.cfg", "log", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("dothan_s2_0.02.cfg", "price", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("dothan_s2_0.02.cfg", "price", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("dothan_s2_0.02.cfg", "log", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("dothan_s2_0.02.cfg", "log", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("dothan_s2_0.03.cfg", "price", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("dothan_s2_0.03.cfg", "price", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("dothan_s2_0.03.cfg", "log", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("dothan_s2_0.03.cfg", "log", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("vasicek.cfg", "price", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("vasicek.cfg", "price", "r=1e+200", "evaluation overflowed at r=1e+200"),
    ("zero.cfg", "price", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    ("zero.cfg", "price", "r=1e+200", "evaluation overflowed at r=1e+200"),
    (CKLS_17, "price", "r=-1e+200", "evaluation overflowed at r=-1e+200"),
    (CKLS_17, "price", "r=-0.01", "cannot evaluate exponent 1.5668246913578248 at r=-0.01"),
    (CKLS_17, "price", "r=0.0", "cannot evaluate exponent 1.5668246913578248 at r=0.0"),
    (CKLS_17, "price", "r=1e+200", "evaluation overflowed at r=1e+200"),
    (CKLS_17, "log", "r=-1e+200", "cannot evaluate exponent 1.5668246913578248 at r=-1e+200"),
    (CKLS_17, "log", "r=-0.01", "cannot evaluate exponent 1.5668246913578248 at r=-0.01"),
    (CKLS_17, "log", "r=0.0", "cannot evaluate exponent 1.5668246913578248 at r=0.0"),
    (CKLS_17, "log", "r=1e+200", "evaluation overflowed at r=1e+200"),
]


def test_hex_sweep_script(monkeypatch, capsys):
    code, lines = run_script(monkeypatch, capsys, "hex_sweep.py")
    assert code == 0
    # 7 configs and one built CKLS model x 2 targets x 11 rates x 5 maturities,
    # in a fixed order; the hex digits themselves depend on the platform's
    # libm, so none is pinned
    assert len(lines) == 880
    fields = [line.split(" ", 4) for line in lines]
    assert len({tuple(f[:4]) for f in fields}) == 880
    assert [f[0] for f in fields[::110]] == [*(p.name for p in sorted(CONFIGS.glob("*.cfg"))), CKLS_17]
    assert {f[1] for f in fields} == {"price", "log"}
    refused = [f for f in fields if f[4].startswith("DomainError: ")]
    assert sorted((f[0], f[1], f[2], f[4]) for f in refused) == sorted(
        (cfg, target, rate, "DomainError: " + message)
        for cfg, target, rate, message in HEX_SWEEP_REFUSED for _ in range(5))
    for f in fields:
        if f not in refused:
            float.fromhex(f[4])  # each other line is one float in hex
