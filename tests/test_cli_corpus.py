"""Golden CLI corpus: exit code and stdout of every command, byte for byte.

`cli_corpus.json` holds, for each command in COMMANDS, its argv, exit code
and stdout (split on newlines, so a changed line is one changed JSON line).
Paths in argv are relative to the repository root.  Regenerate the file
after an intended output change with

    PYTHONPATH=src python tests/test_cli_corpus.py

and review the diff line by line.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from bondtaylor import cli
from bondtaylor.tables import TABLE_IDS

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("cli_corpus.json")

CONFIGS = sorted(f"configs/{p.name}" for p in (ROOT / "configs").glob("*.cfg"))
TARGETS = ("price", "logprice")
CIR_ARGS = ["--alpha", "0.00315", "--beta", "-0.0555", "--sigma", "0.0894"]
FD_CONFIGS = ("configs/cir.cfg", "configs/ckls.cfg", "configs/dothan_s2_0.01.cfg",
              "configs/dothan_s2_0.02.cfg", "configs/dothan_s2_0.03.cfg",
              "configs/zero.cfg")
# maturities every command refuses with exit 2
BAD_TAUS = ("-1", "nan", "inf")


def _commands() -> list[list[str]]:
    cmds = []
    for cfg in CONFIGS:
        for target in TARGETS:
            for fmt in ("text", "csv"):
                cmds.append(["coeffs", "--model", cfg, "--target", target,
                             "--order", "6", "--format", fmt])
            cmds.append(["price", "--model", cfg, "--target", target,
                         "--r", "0.05", "--taus", "0.5,1,3", "--order", "8"])
            cmds.append(["price", "--model", cfg, "--target", target,
                         "--r", "0.05", "--tau", "2", "--order", "7",
                         "--converge", "--format", "csv"])
    for cfg in ("configs/cir.cfg", "configs/ckls.cfg", "configs/dothan_s2_0.02.cfg"):
        for route in ([], ["--from-price"]):
            cmds.append(["yield", "--model", cfg, "--r", "0.05",
                         "--taus", "0.25,1,5", "--order", "6"] + route)
    cmds.append(["yield", "--model", "configs/cir.cfg", "--r", "0.05",
                 "--taus", "1,2", "--order", "6", "--format", "csv"])
    for tau in ("0", "0.25", "2", "10"):
        cmds.append(["exact-cir"] + CIR_ARGS + ["--r", "0.05", "--tau", tau])
    cmds.append(["exact-cir"] + CIR_ARGS + ["--r", "0.05", "--tau", "2",
                                            "--format", "csv"])
    cmds.append(["exact-cir", "--alpha", "0.01", "--beta", "-0.2", "--sigma", "0",
                 "--r", "0.03", "--tau", "3"])
    for cfg in FD_CONFIGS:
        cmds.append(["fd", "--model", cfg, "--r", "0.05", "--tau", "1"])
    # the oracle has one scheme on one grid; its former knobs are usage errors
    cmds.append(["fd", "--model", "configs/cir.cfg", "--r", "0.05", "--tau", "2",
                 "--theta", "1", "--upper-boundary", "dirichlet0"])
    # output goes to stdout alone; the former --out is a usage error everywhere
    for argv in (["coeffs", "--model", "configs/cir.cfg"],
                 ["price", "--model", "configs/cir.cfg", "--r", "0.05", "--tau", "1"],
                 ["yield", "--model", "configs/cir.cfg", "--r", "0.05", "--taus", "1"],
                 ["exact-cir"] + CIR_ARGS + ["--r", "0.05", "--tau", "1"],
                 ["fd", "--model", "configs/cir.cfg", "--r", "0.05", "--tau", "1"],
                 ["table", "--id", TABLE_IDS[0]]):
        cmds.append(argv + ["--out", "x"])
    cmds.append(["fd", "--model", "configs/dothan_s2_0.01.cfg", "--r", "0.035",
                 "--tau", "1"])
    cmds.append(["fd", "--model", "configs/vasicek.cfg", "--r", "0.05", "--tau", "1"])
    # prices the error estimate cannot certify: stiff r dtau, long maturities,
    # r = 0 at tau = 5, a rate so large that both Richardson levels agree, and
    # one inside the first cell, whose interpolation error the nodes do not see
    for r, tau in (("1000", "1"), ("1e6", "1"), ("0.05", "1e9"), ("0.013", "30"),
                   ("0.05", "100"), ("0", "5"), ("1e12", "1"), ("0.00041", "2")):
        cmds.append(["fd", "--model", "configs/cir.cfg", "--r", r, "--tau", tau])
    for tau in BAD_TAUS:
        cmds.append(["fd", "--model", "configs/cir.cfg", "--r", "0.05", "--tau", tau])
        cmds.append(["exact-cir"] + CIR_ARGS + ["--r", "0.05", "--tau", tau])
        cmds.append(["price", "--model", "configs/cir.cfg", "--r", "0.05",
                     "--tau", tau])
    cmds.append(["exact-cir"] + CIR_ARGS + ["--r", "nan", "--tau", "1"])
    for route in ([], ["--from-price"]):
        cmds.append(["yield", "--model", "configs/cir.cfg", "--r", "0.05",
                     "--taus", "1,0"] + route)
    # an order-0 sum, refused by the size of c_1 and c_2
    cmds.append(["price", "--model", "configs/cir.cfg", "--target", "logprice",
                 "--order", "0", "--r", "0.05", "--taus", "1,30"])
    cmds.append(["yield", "--model", "configs/cir.cfg", "--r", "0.05", "--taus", "1,5",
                 "--order", "0"])
    for table_id in TABLE_IDS:
        for fmt in ("text", "csv"):
            cmds.append(["table", "--id", table_id, "--format", fmt])
    return cmds


COMMANDS = _commands()


@pytest.fixture(scope="module")
def corpus():
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    return {" ".join(rec["argv"]): rec for rec in records}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_corpus(argv, corpus, built_table, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "build_table", built_table)
    code = cli.main(argv)
    want = corpus[" ".join(argv)]
    assert code == want["code"]
    assert capsys.readouterr().out == "\n".join(want["stdout"])


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def regenerate() -> None:
    os.chdir(ROOT)
    records = []
    for argv in COMMANDS:
        code, out = _run(argv)
        records.append({"argv": argv, "code": code, "stdout": out.split("\n")})
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
