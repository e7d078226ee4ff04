"""Smoke tests for the scripts under scripts/, run in-process."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_hex_sweep_script(monkeypatch, capsys):
    code, lines = run_script(monkeypatch, capsys, "hex_sweep.py")
    assert code == 0
    # 7 configs x 2 targets x 8 rates x 5 maturities, in a fixed order; the
    # hex digits themselves depend on the platform's libm, so none is pinned
    assert len(lines) == 560
    fields = [line.split(" ", 4) for line in lines]
    assert len({tuple(f[:4]) for f in fields}) == 560
    assert {f[1] for f in fields} == {"price", "log"}
    refused = [f for f in fields if f[4].startswith("DomainError: ")]
    # the shipped CKLS config (gamma = 3/4) has exponent 3/2, which r = 0 does not admit
    assert [f[:3] for f in refused] == [["ckls.cfg", t, "r=0.0"] for t in ("price", "log")
                                        for _ in range(5)]
    assert {f[4] for f in refused} == {"DomainError: cannot evaluate exponent 1.5 at r=0.0"}
    for f in fields:
        if f not in refused:
            float.fromhex(f[4])  # each other line is one float in hex
