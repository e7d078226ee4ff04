import csv
import io
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bondtaylor import cli, fdsolver, tables
from bondtaylor.cli import main
from bondtaylor.closedform import cir_exact_yield
from bondtaylor.model import CIRParams, parse_model_text
from bondtaylor.series import log_coeffs, partial_sums

ROOT = Path(__file__).resolve().parents[1]
CIR_CFG = "model = cir\nalpha = 0.00315\nbeta = -0.0555\nsigma = 0.0894\n"
DOTHAN01_CFG = "model = dothan\nmu = 0.005\nsigma2 = 0.01\n"
DOTHAN02_CFG = "model = dothan\nmu = 0.005\nsigma2 = 0.02\n"
ZERO_CFG = "model = custom\ndrift_terms = 0\nvol2_terms = 0\n"
CKLS_CFG = "model = ckls\nalpha = 0.01\nbeta = -0.2\nsigma = 0.1\ngamma = 0.75\n"
VASICEK_CFG = "model = custom\ndrift_terms = 0.01:0, -0.1:1\nvol2_terms = 0.0001:0\n"
# nonnegative on the (0, 1] that parsing checks, negative beyond r = 10/9
NEG_VOL2_CFG = ("model = custom\ndrift_terms = 0.01:0, -0.1:1\n"
                "vol2_terms = 0.01:1, -0.009:2\n")


@pytest.fixture
def cfg(tmp_path):
    def write(text):
        path = tmp_path / f"m{abs(hash(text)) % 10000}.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_price_converge_reproduces_cir_row(cfg, capsys):
    code, out, _ = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "1", "--order", "7", "--converge"])
    assert code == 0
    values = [float(v) for v in out.splitlines()[1].split()[1:]]
    refs = [1.000000, 0.950000, 0.951062, 0.951121,
            0.951115, 0.951115, 0.951115, 0.951115]
    assert len(values) == 8
    for got, ref in zip(values, refs):
        assert abs(got - ref) <= 5e-7 + 1e-12


def test_price_logprice_converge_dothan_csv(cfg, capsys):
    code, out, _ = run(capsys, ["price", "--model", cfg(DOTHAN02_CFG),
                                "--target", "logprice", "--r", "0.035",
                                "--tau", "3", "--order", "7", "--converge",
                                "--format", "csv"])
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["tau"] + [f"order{k}" for k in range(8)]
    values = [float(v) for v in rows[1][1:]]
    refs = [0.000000, -0.105000, -0.105788, -0.105681,
            -0.105677, -0.105678, -0.105678, -0.105678]
    for got, ref in zip(values, refs):
        assert abs(got - ref) <= 5e-7 + 1e-12


def test_price_at_tau_zero(cfg, capsys):
    code, out, _ = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "0"])
    assert code == 0
    assert out.splitlines()[1].split()[1] == "1.000000"


def test_price_multiple_taus(cfg, capsys):
    code, out, _ = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", "0.5,1,2", "--order", "6",
                                "--format", "csv"])
    assert code == 0
    rows = parse_csv(out)
    assert [row[0] for row in rows[1:]] == ["0.5", "1", "2"]
    assert abs(float(rows[2][1]) - 0.951115) <= 5e-7


def test_yield_column_matches_closed_form(cfg, capsys):
    # the order-6 column of the paper's table is a truncation, 4.95288 at
    # tau = 5 against a true 4.95306, and is refused; `table --id cir-yield`
    # pins it.  At order 10 every cell prints the closed form's digits
    taus = "0.25,0.5,0.75,1,1.5,2,2.5,3,4,5"
    code, out, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", taus, "--order", "10", "--format", "csv"])
    assert code == 0
    rows = parse_csv(out)
    params = CIRParams(0.00315, -0.0555, 0.0894)
    assert rows == [["tau", "yield_pct"]] + [
        [tau, f"{100.0 * cir_exact_yield(params, float(tau), 0.05):.5f}"]
        for tau in taus.split(",")]
    code, out, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", taus, "--order", "6"])
    assert (code, out) == (2, "")


def test_yield_single_cell_order4_is_refused(cfg, capsys):
    # the order-4 sum gives 4.95227 against a true 4.95306, and the two terms
    # past it are -1.2e-4 and 9.3e-5; `table --id cir-yield` still prints the
    # paper's order-4 cell
    code, out, err = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                  "--taus", "5", "--order", "4"])
    assert (code, out) == (2, "")
    assert err == ("error: cannot print the order-4 sum at tau=5, r=0.05: its error "
                   "estimate 0.000217 does not fix its printed digits\n")


# (model, r, tau, command and flags): every one printed a wrong sum with exit
# 0 before the convergence check, -11120.880988 for the CIR price at tau = 30
# (exact 0.299214)
DIVERGED = [
    ("cir", "0.05", "20", ["price"]),
    ("cir", "0.05", "30", ["price"]),
    ("cir", "0.05", "20", ["price", "--target", "logprice"]),
    ("cir", "0.05", "30", ["price", "--target", "logprice"]),
    ("ckls", "0.01", "3", ["price"]),
    ("ckls", "0.01", "5", ["price"]),
    ("ckls", "0.01", "5", ["price", "--target", "logprice"]),
    ("dothan02", "0.035", "40", ["price"]),
    ("cir", "0.05", "30", ["yield"]),
    ("cir", "0.05", "30", ["yield", "--from-price"]),
]
MODEL_TEXT = {"cir": CIR_CFG, "ckls": CKLS_CFG, "dothan02": DOTHAN02_CFG}


@pytest.mark.parametrize("name,r,tau,command", DIVERGED,
                         ids=[f"{m}-tau{t}-" + "-".join(w.lstrip("-") for w in c)
                              for m, _, t, c in DIVERGED])
def test_diverged_sum_exits_2(cfg, capsys, name, r, tau, command):
    when = ["--tau", tau] if command[0] == "price" else ["--taus", tau]
    argv = [command[0], "--model", cfg(MODEL_TEXT[name]), "--r", r, *when, "--order", "30", *command[1:]]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    refusal = re.fullmatch(f"error: cannot print the order-30 sum at tau={tau}, r={r}: "
                           r"its error estimate (\S+) does not fix its printed digits\n", err)
    assert refusal and float(refusal[1]) > 5e-7
    if command[0] == "price":  # --converge prints every partial sum, unchecked
        code, out, _ = run(capsys, argv + ["--converge"])
        assert code == 0 and len(out.splitlines()[1].split()) == 1 + 31


def test_converged_ckls_sum_at_order_30_still_prints(cfg, capsys):
    code, out, _ = run(capsys, ["price", "--model", cfg(CKLS_CFG), "--r", "0.05",
                                "--tau", "5", "--order", "30"])
    assert (code, out) == (0, "tau  price\n5    0.779721\n")


def test_order_1_price_past_its_first_term_is_refused(cfg, capsys):
    # 1, then -r tau = -5, would print -4.000000; the next two terms of
    # exp(-5) are 12.5 and -20.8
    code, _, err = run(capsys, ["price", "--model", cfg(ZERO_CFG), "--r", "0.05",
                                "--tau", "100", "--order", "1"])
    assert code == 2 and "its error estimate 33.3 does not fix" in err
    # the order-0 sum, 1, printed 1.000000; c_1 and c_2 estimate its error
    code, out, err = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                                  "--tau", "1", "--order", "0"])
    assert (code, out, err) == (2, "", "error: cannot print the order-0 sum at tau=1, "
                                       "r=0.05: its error estimate 0.0511 does not fix "
                                       "its printed digits\n")
    # the zero model's log series is -r tau exactly: its last terms are zero
    code, out, _ = run(capsys, ["price", "--model", cfg(ZERO_CFG), "--r", "0.05",
                                "--tau", "100", "--target", "logprice"])
    assert (code, out) == (0, "tau  logprice\n100  -5.000000\n")


@pytest.mark.parametrize("tau", ["1e-11", "1e-12", "1e-14"])
def test_yield_from_price_at_tiny_tau_exits_2(cfg, capsys, tau):
    # these printed 5.00044, 4.99600 and 5.55112 against a true 5.00000: the
    # price keeps about 16 digits of 1 - r tau, too few for r
    code, out, err = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                  "--taus", tau, "--from-price"])
    assert (code, out) == (2, "")
    # the estimate is the rounding 2^-53 max |S_k|, the last term being ~1e-90,
    # and it moves the yield -100 ln(P) / tau by 1.11e-14 / tau percent
    assert err == (f"error: cannot print the order-8 sum at tau={tau}, r=0.05: its error "
                   f"estimate 1.11e-16 does not fix its printed digits\n")
    code, out, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", "1e-8", "--from-price"])
    assert (code, out) == (0, "tau    yield_pct\n1e-08  5.00000\n")


def test_yield_zero_model_flat(cfg, capsys):
    code, out, _ = run(capsys, ["yield", "--model", cfg(ZERO_CFG), "--r", "0.04",
                                "--taus", "0.5,1,5,10", "--format", "csv"])
    assert code == 0
    assert all(row[1] == "4.00000" for row in parse_csv(out)[1:])


def test_yield_from_price_route(cfg, capsys):
    code, out, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", "1", "--order", "7", "--from-price"])
    assert code == 0
    assert float(out.splitlines()[1].split()[1]) == pytest.approx(5.01202,
                                                                  abs=5e-5)


def test_exact_cir_cells(capsys):
    base = ["exact-cir", "--alpha", "0.00315", "--beta", "-0.0555",
            "--sigma", "0.0894", "--r", "0.05"]
    for tau, ref in (("2", "0.904626"), ("0", "1.000000"), ("4", "0.819367")):
        code, out, _ = run(capsys, base + ["--tau", tau])
        assert code == 0
        assert out.strip() == ref


def test_exact_cir_csv_header(capsys):
    code, out, _ = run(capsys, ["exact-cir", "--alpha", "0.00315", "--beta",
                                "-0.0555", "--sigma", "0.0894", "--r", "0.05",
                                "--tau", "2", "--format", "csv"])
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["tau", "r", "price"]
    assert rows[1] == ["2", "0.05", "0.904626"]


def test_exact_cir_nan_tau_names_the_maturity_rule(capsys):
    code, out, err = run(capsys, ["exact-cir", "--alpha", "0.00315", "--beta",
                                  "-0.0555", "--sigma", "0.0894", "--r", "0.05",
                                  "--tau", "nan"])
    assert (code, out) == (2, "")
    assert err == "error: time to maturity must be nonnegative and finite, got nan\n"


def test_fd_dothan_cell(cfg, capsys):
    code, out, _ = run(capsys, ["fd", "--model", cfg(DOTHAN01_CFG),
                                "--r", "0.035", "--tau", "10"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.699982, abs=2e-5)
    assert out == "0.699982\n"


def test_fd_rate_below_half_a_cell(cfg, capsys):
    # putting r = 1e-9 on a node would take 5e8 cells; the default grid keeps
    # its base cells and interpolates, and prints the closed-form price
    code, out, _ = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "1e-9",
                                "--tau", "1"])
    assert code == 0 and out == "0.998456\n"
    code, out, _ = run(capsys, ["exact-cir", "--alpha", "0.00315", "--beta", "-0.0555",
                                "--sigma", "0.0894", "--r", "1e-9", "--tau", "1"])
    assert out == "0.998456\n"


@pytest.mark.parametrize("r", ["100", "200", "300"])
def test_fd_price_rounding_to_zero_prints_unsigned(cfg, capsys, r):
    # the default grid's price at r = 100 is -2.8e-36, which printed -0.000000
    argv = ["fd", "--model", cfg(CIR_CFG), "--r", r, "--tau", "1"]
    assert run(capsys, argv) == (0, "0.000000\n", "")
    assert run(capsys, argv + ["--format", "csv"]) == (0, f"tau,r,price\n1,{r},0.000000\n", "")


def test_fd_cir_and_zero_model(cfg, capsys):
    code, out, _ = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "1"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.951115, abs=1e-5)
    code, out, _ = run(capsys, ["fd", "--model", cfg(ZERO_CFG), "--r", "0.05",
                                "--tau", "2"])
    assert code == 0
    # output is printed to 6 decimals, so half an ulp of that
    assert float(out.strip()) == pytest.approx(math.exp(-0.1), abs=5e-7)


@pytest.mark.parametrize("flag,value", [("--theta", "0"), ("--theta", "0.25"),
                                        ("--theta", "0.5"),
                                        ("--upper-boundary", "dirichlet0"),
                                        ("--upper-boundary", "linearity"),
                                        ("--rmax", "1"), ("--nr", "100"),
                                        ("--nt", "50"), ("--profile", None)])
def test_fd_refuses_removed_scheme_flags(cfg, capsys, flag, value):
    # the oracle is Crank-Nicolson with the linearity closure on its default
    # grid only; theta = 0 used to print -5.4e124 for the CIR price 0.951115
    # with exit 0, and --nr 10 --nt 200 at tau = 2 printed 0.904633 for 0.904626
    extra = [flag] if value is None else [flag, value]
    code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                  "--tau", "1"] + extra)
    assert (code, out) == (1, "") and flag in err


FD_UNCERTIFIED = [(CIR_CFG, "1000", "1"), (CIR_CFG, "1e6", "1"), (CIR_CFG, "0.013", "30"),
                  (CIR_CFG, "0", "5"), (CIR_CFG, "1e12", "1"), (CIR_CFG, "1e10", "0.5"),
                  (CIR_CFG, "1e300", "1"), (ZERO_CFG, "1e12", "1")]


@pytest.mark.parametrize("text,r,tau", FD_UNCERTIFIED,
                         ids=[f"{'zero' if t == ZERO_CFG else 'cir'}-r{r}-tau{tau}"
                              for t, r, tau in FD_UNCERTIFIED])
def test_fd_refuses_what_its_estimate_cannot_certify(cfg, capsys, text, r, tau):
    # each printed a wrong last digit or worse with exit 0: -0.000547,
    # 0.968426, 0.434778 and 0.965165, where the CIR closed form gives
    # 0.000000, 0.000000, 0.434776 and 0.965164; at the huge rates both
    # Richardson levels agree on about 1 (0.999998 at r = 1e10) for an exact 0
    code, out, err = run(capsys, ["fd", "--model", cfg(text), "--r", r, "--tau", tau])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot print the FD price at tau={float(tau):g}, "
                          f"r={float(r):g}: its error estimate ")
    assert err.endswith(" exceeds the half-ulp 5e-07\n") and err.count("\n") == 1


def test_fd_negative_tau_is_domain_error(cfg, capsys):
    code, _, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "-1"])
    assert code == 2 and "error" in err


def test_fd_refuses_a_negative_rate_before_marching(cfg, capsys, monkeypatch):
    # default_grid refuses the rate with the message fd_price_at gave after
    # both Richardson levels had marched (1.7 s at tau = 500)
    def march(*args):
        raise AssertionError("marched")

    monkeypatch.setattr(fdsolver, "_march", march)
    code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "-0.01",
                                  "--tau", "500"])
    assert (code, out, err) == (2, "", "error: r=-0.01 outside the grid [0, 0.5]\n")


@pytest.mark.parametrize("flags", [["--r", "0.05", "--tau", "inf"],
                                   ["--r", "0.05", "--tau", "nan"],
                                   ["--r", "nan", "--tau", "1"]],
                         ids=["tau-inf", "tau-nan", "r-nan"])
def test_fd_non_finite_input_is_domain_error(cfg, capsys, flags):
    # tau=inf used to escape main as an OverflowError from default_grid
    code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG)] + flags)
    assert code == 2 and out == "" and "must be" in err and "finite" in err


def test_fd_refuses_vol2_at_zero_rate(cfg, capsys):
    # the r=0 row assumes vol2(0) = 0; this used to print 0.688825 against
    # the exact Vasicek price 0.689273
    code, out, err = run(capsys, ["fd", "--model", cfg(VASICEK_CFG),
                                  "--r", "0.002", "--tau", "10"])
    assert code == 2 and out == ""
    assert "vol2(0)=0.0001" in err and "drift(0)=0.01" in err


def test_fd_refuses_negative_vol2_on_grid(cfg, capsys):
    code, out, err = run(capsys, ["fd", "--model", cfg(NEG_VOL2_CFG),
                                  "--r", "0.2", "--tau", "1"])
    assert code == 2 and out == ""
    # vol2 < 0 above r = 1/0.9; the first default-grid node past it, h = 2/600
    assert "vol2 is negative at r=1.11333 on the FD grid" in err


def test_fd_blow_up_prints_one_error_line(cfg, capsys, nan_at_step):
    # a march gone non-finite is one error line, not a numpy RuntimeWarning;
    # the default grid's coarse march at tau = 3 has 120 steps
    nan_at_step(84)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                      "--tau", "3"])
    assert (code, out, err) == (2, "", "error: non-finite values at step 84 of 120\n")


@pytest.mark.parametrize("text,profile", [
    (CKLS_CFG, "vol2"), (DOTHAN01_CFG, "vol2"),
    ("model = custom\ndrift_terms = 1:2\nvol2_terms = 0\n", "drift"),
], ids=["ckls", "dothan", "drift"])
def test_fd_at_an_extreme_rate_prints_one_error_line(cfg, capsys, text, profile):
    # the profile overflows on the grid; two numpy RuntimeWarnings came before
    # "non-finite values at step 1 of 40"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["fd", "--model", cfg(text), "--r", "1e300",
                                      "--tau", "1"])
    assert (code, out, err) == (2, "", f"error: {profile} is not finite at "
                                       f"r=1.66667e+298 on the FD grid\n")


@pytest.mark.parametrize("r", ["1e306", "2e307"])
def test_fd_at_a_rate_the_grid_cannot_reach_prints_one_error_line(cfg, capsys, r):
    # a traceback at 1e306, and "cannot convert float NaN to integer" with exit 1 at 2e307
    code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", r, "--tau", "1"])
    assert (code, out, err) == (2, "", f"error: the FD grid cannot stretch its cells to "
                                       f"r={float(r)!r}\n")


def test_fd_singular_matrix_exits_2(cfg, capsys, monkeypatch):
    def zero_pivot(dl, d, du):
        return dl, d, du, du[:-1], np.zeros(len(d), dtype=np.int32), 1
    monkeypatch.setattr(fdsolver.lapack, "dgttrf", zero_pivot)
    code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                  "--tau", "1"])
    assert code == 2 and out == "" and "singular tridiagonal matrix" in err


@pytest.mark.parametrize("table_id", ["cir-price", "cir-yield", "cir-converge",
                                      "dothan-converge"])
def test_table_command_passes(capsys, table_id):
    code, out, _ = run(capsys, ["table", "--id", table_id])
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("0 fail")


def test_table_dothan_grid_flags_visible(capsys, monkeypatch, built_table):
    monkeypatch.setattr(cli, "build_table", built_table)
    code, out, _ = run(capsys, ["table", "--id", "dothan-grid", "--format",
                                "csv"])
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["row", "column", "computed", "reference", "deviation",
                       "status", "note"]
    statuses = {row[5] for row in rows[1:]}
    assert statuses == {"PASS", "FLAGGED"}
    flagged = [row for row in rows[1:] if row[5] == "FLAGGED"]
    assert len(flagged) == 2
    assert all(row[3] == "" and row[4] == "" for row in flagged)


def test_table_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(tables, "_CIR_CONVERGE_PRICE", (0.5,) * 8)
    code, out, _ = run(capsys, ["table", "--id", "cir-converge"])
    assert code == 3
    assert "FAIL" in out


def test_csv_output_is_byte_stable(cfg, capsys):
    argv = ["table", "--id", "cir-converge", "--format", "csv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["coeffs", "--model", cfg(CIR_CFG), "--order", "6", "--format", "csv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_coeffs_text_and_csv(cfg, capsys):
    code, out, _ = run(capsys, ["coeffs", "--model", cfg(CIR_CFG),
                                "--target", "logprice", "--order", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c[0] = 0"
    assert lines[1] == "c[1] = -1:1"
    assert lines[2].startswith("c[2] = ")
    code, out, _ = run(capsys, ["coeffs", "--model", cfg(CIR_CFG),
                                "--order", "3", "--format", "csv"])
    rows = parse_csv(out)
    assert rows[0] == ["order", "coefficient"]
    assert len(rows) == 5
    assert rows[1] == ["0", "1:0"]
    assert rows[2] == ["1", "-1:1"]


def test_out_flag_writes_file(cfg, capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", "1,2", "--format", "csv",
                                "--out", str(target)])
    assert code == 0
    assert out == ""
    content = target.read_text(encoding="utf-8")
    assert content.startswith("tau,yield_pct\n")


def test_out_unwritable_exits_1(cfg, capsys, tmp_path):
    code, _, err = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", "1", "--out",
                                str(tmp_path / "no" / "dir" / "f.csv")])
    assert code == 1 and "cannot write" in err


def test_usage_errors_exit_1(cfg, capsys):
    assert run(capsys, ["price", "--model", cfg(CIR_CFG)])[0] == 1   # no --r
    assert run(capsys, ["table", "--id", "bogus"])[0] == 1
    assert run(capsys, ["bogus-command"])[0] == 1
    assert run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                        "--tau", "1", "--format", "xml"])[0] == 1
    assert run(capsys, [])[0] == 1


def test_tau_and_taus_conflict(cfg, capsys):
    code, _, err = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "1", "--taus", "1,2"])
    assert code == 1 and "not allowed with argument --tau" in err
    code, _, err = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05"])
    assert code == 1 and "--tau" in err


SERIES_ROUTES = {
    "coeffs": ["coeffs"],
    "price": ["price", "--r", "0.05", "--tau", "1"],
    "price --converge": ["price", "--r", "0.05", "--tau", "1", "--converge"],
    "yield": ["yield", "--r", "0.05", "--taus", "1"],
}


@pytest.mark.parametrize("order", ["31", "-1"])
@pytest.mark.parametrize("route", sorted(SERIES_ROUTES))
def test_order_out_of_range_exits_1(cfg, capsys, tmp_path, route, order):
    # every series route prints orders 0..30, whether or not it builds two past J
    code, out, err = run(capsys, SERIES_ROUTES[route] + ["--model", cfg(CIR_CFG),
                                                         "--order", order])
    assert (code, out, err) == (1, "", f"error: order must be in [0, 30], got {order}\n")
    # a config that cannot be read is reported before the order
    missing = tmp_path / "missing.cfg"
    code, out, err = run(capsys, SERIES_ROUTES[route] + ["--model", str(missing),
                                                         "--order", order])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read model config {missing}: ")


def test_bad_taus_exits_1(cfg, capsys):
    code, _, err = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", "1,zap"])
    assert code == 1 and "zap" in err


def test_config_error_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = cir\nwat\n", encoding="utf-8")
    code, _, err = run(capsys, ["price", "--model", str(bad), "--r", "0.05",
                                "--tau", "1"])
    assert code == 1 and "line 2" in err


def test_non_finite_config_value_exits_1(cfg, capsys):
    code, out, err = run(capsys, ["price", "--model", cfg(CIR_CFG.replace("0.00315", "inf")),
                                  "--r", "0.05", "--tau", "1"])
    assert (code, out, err) == (1, "", "error: line 2: value for 'alpha' must be finite, "
                                       "got 'inf'\n")


@pytest.mark.parametrize("text,message", [
    (CIR_CFG.replace("0.0894", "1e200"), "non-finite term (coeff=inf, exponent=1.0)"),
    ("model = ckls\nalpha = 0.01\nbeta = -0.2\nsigma = 1\ngamma = -200\n",
     "evaluation overflowed at r=0.001"),
], ids=["cir-sigma-overflows", "ckls-vol2-overflows"])
@pytest.mark.parametrize("argv", [["price", "--r", "0.05", "--tau", "1"], ["coeffs"]],
                         ids=["price", "coeffs"])
def test_preset_refused_by_its_constructor_exits_1(cfg, capsys, text, message, argv):
    code, out, err = run(capsys, [argv[0], "--model", cfg(text), *argv[1:]])
    assert (code, out, err) == (1, "", f"error: line 4: {message}\n")


def test_missing_model_file_exits_1(capsys):
    code, _, err = run(capsys, ["price", "--model", "/nope/missing.cfg",
                                "--r", "0.05", "--tau", "1"])
    assert code == 1 and "cannot read" in err


def test_model_file_not_utf8_names_the_file(capsys, tmp_path):
    # a latin-1 e-acute in a comment, and a binary file given as a config
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(("# café rates\n" + CIR_CFG).encode("latin-1"))
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x00")
    for path in (latin1, binary):
        code, out, err = run(capsys, ["price", "--model", str(path), "--r", "0.05",
                                      "--tau", "1"])
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read model config {path}: 'utf-8' codec")
        assert err.count("\n") == 1


def test_model_file_with_a_byte_order_mark_parses(capsys, tmp_path):
    # as Windows Notepad saves UTF-8; "model" read as "\ufeffmodel" and went missing
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + (ROOT / "configs" / "cir.cfg").read_bytes())
    code, out, err = run(capsys, ["price", "--model", str(path), "--r", "0.05", "--tau", "1"])
    assert (code, out.splitlines()[-1], err) == (0, "1    0.951115", "")


def test_negative_sigma_in_a_config_names_its_line(cfg, capsys):
    text = "model = cir\nalpha = 0.1\nbeta = 0\nsigma = -0.1\n"
    code, out, err = run(capsys, ["price", "--model", cfg(text), "--r", "0.05", "--tau", "1"])
    assert (code, out, err) == (1, "", "error: line 4: sigma must be nonnegative, got -0.1\n")


def test_negative_tau_price_is_domain_error(cfg, capsys):
    code, _, err = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "-2"])
    assert code == 2


@pytest.mark.parametrize("tau", ["inf", "nan"])
def test_non_finite_tau_price_is_domain_error(cfg, capsys, tau):
    # these printed "inf  nan" / "nan  nan" with exit 0
    code, out, err = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                                  "--tau", tau])
    assert code == 2 and out == "" and "finite" in err


def test_yield_tau_zero_is_domain_error(cfg, capsys):
    code, _, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                              "--taus", "0"])
    assert code == 2


@pytest.mark.parametrize("route", [[], ["--from-price"]], ids=["log", "from-price"])
def test_yield_nonpositive_tau_in_list_exits_2(cfg, capsys, route):
    code, out, err = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r",
                                  "0.05", "--taus", "1,0"] + route)
    assert code == 2 and out == "" and "tau > 0" in err


@pytest.mark.parametrize("route", [[], ["--from-price"]], ids=["log", "from-price"])
def test_yield_infinite_tau_in_list_exits_2(cfg, capsys, route):
    code, out, err = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r",
                                  "0.05", "--taus", "1,inf"] + route)
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("taus", ["1,-1", "1,0", "1,inf", "1,nan"])
def test_yield_routes_refuse_alike(cfg, capsys, taus):
    argv = ["yield", "--model", cfg(CIR_CFG), "--r", "0.05", "--taus", taus]
    log_route = run(capsys, argv)
    price_route = run(capsys, argv + ["--from-price"])
    assert log_route == price_route
    assert log_route[0] == 2


@pytest.mark.parametrize("route", [[], ["--from-price"]], ids=["log", "from-price"])
def test_yield_reports_the_first_refused_maturity(cfg, capsys, route):
    # tau = 0 passes the sum's tau >= 0 and fails the yield's tau > 0 before
    # tau = -1 is summed
    code, out, err = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r",
                                  "0.05", "--taus", "0,-1"] + route)
    assert (code, out, err) == (2, "", "error: yield needs tau > 0, got 0.0\n")


def test_yield_log_route_prints_minus_the_log_sum_over_tau(cfg, capsys):
    code, out, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", "2,0.5", "--order", "10", "--format", "csv"])
    series = log_coeffs(parse_model_text(CIR_CFG), 10)
    want = [[f"{tau:g}", f"{-100.0 * partial_sums(series, tau, 0.05)[-1] / tau:.5f}"]
            for tau in (2.0, 0.5)]
    assert code == 0 and parse_csv(out)[1:] == want


@pytest.mark.parametrize("argv", [
    ["price", "--tau", "1"],
    ["price", "--tau", "1", "--target", "logprice"],
    ["yield", "--taus", "1"],
    ["yield", "--taus", "1", "--from-price"],
], ids=" ".join)
def test_series_refuse_a_rate_where_vol2_is_negative(cfg, capsys, argv):
    # CIR's vol2 = sigma^2 r is negative at r < 0, where every c_k(r) evaluates
    code, out, err = run(capsys, argv + ["--model", cfg(CIR_CFG), "--r", "-0.05"])
    assert (code, out, err) == (2, "", "error: vol2 is negative at r=-0.05\n")


def test_price_refuses_a_rate_past_the_sampled_interval(cfg, capsys):
    # vol2 = 1 - 0.5 r passes the parse-time sampling of (0, 1] and turns
    # negative at r = 2; the series check at the evaluated rate refuses r = 3
    text = "model = custom\ndrift_terms = 0\nvol2_terms = 1:0, -0.5:1\n"
    code, out, err = run(capsys, ["price", "--model", cfg(text), "--r", "3", "--tau", "1"])
    assert (code, out, err) == (2, "", "error: vol2 is negative at r=3\n")


@pytest.mark.parametrize("text,argv", [
    (CIR_CFG, ["price", "--tau", "1e200"]),
    (ZERO_CFG, ["price", "--tau", "1e200"]),
    (CIR_CFG, ["yield", "--taus", "1e200"]),
    (CIR_CFG, ["yield", "--taus", "1e200", "--from-price"]),
], ids=["cir-price", "zero-price", "yield-log", "yield-from-price"])
def test_overflowed_partial_sum_exits_2(cfg, capsys, text, argv):
    # these printed inf, nan, nan and -inf with exit 0
    code, out, err = run(capsys, argv + ["--model", cfg(text), "--r", "0.05",
                                         "--order", "3"])
    assert (code, out, err) == (2, "", "error: partial sum overflowed at tau=1e+200, r=0.05\n")


@pytest.mark.parametrize("text,r", [(CIR_CFG, "1e200"), (CKLS_CFG, "1e160")],
                         ids=["cir", "ckls"])
def test_power_overflow_in_evaluation_exits_2(cfg, capsys, text, r):
    # math.pow's OverflowError escaped as a traceback with exit 1
    code, out, err = run(capsys, ["price", "--model", cfg(text), "--r", r, "--tau", "1"])
    assert (code, out, err) == (2, "", f"error: evaluation overflowed at r={float(r)}\n")


ZERO_YIELDS = (0, "tau  yield_pct\n1    0.00000\n5    0.00000\n")


@pytest.mark.parametrize("text,flags,expected", [
    # the order-0 log sum, c_0 = 0, printed 0.00000 for CIR's 5 percent; c_1
    # and c_2 refuse it
    (CIR_CFG, ["--r", "0.05", "--order", "0"], (2, "")),
    (ZERO_CFG, ["--r", "0"], ZERO_YIELDS),
    (ZERO_CFG, ["--r", "0", "--from-price"], ZERO_YIELDS),
    (ZERO_CFG, ["--r=-1e-12", "--order", "3"], ZERO_YIELDS),
], ids=["log-order0", "zero-model", "zero-model-from-price", "zero-model-tiny-rate"])
def test_yield_exactly_zero_prints_unsigned(cfg, capsys, text, flags, expected):
    # -value / tau and -log(1) / tau are -0.0, which used to print -0.00000,
    # and so did the -1e-10 of the tiny rate
    code, out, _ = run(capsys, ["yield", "--model", cfg(text), "--taus", "1,5"] + flags)
    assert (code, out) == expected


@pytest.mark.parametrize("flags,text,csv_text", [
    ([], "tau     logprice\n0.0001  0.000000\n", "tau,logprice\n0.0001,0.000000\n"),
    (["--converge"], "tau     order0    order1    order2    order3\n"
                     "0.0001  0.000000  0.000000  0.000000  0.000000\n",
     "tau,order0,order1,order2,order3\n0.0001,0.000000,0.000000,0.000000,0.000000\n"),
], ids=["sum", "converge"])
def test_price_rounding_to_zero_prints_unsigned(cfg, capsys, flags, text, csv_text):
    # c_2 tau^2 = -1.6e-11 at r = 0 made the last two sums print -0.000000
    argv = ["price", "--model", cfg(CIR_CFG), "--target", "logprice", "--r", "0",
            "--tau", "1e-4", "--order", "3"] + flags
    assert run(capsys, argv) == (0, text, "")
    assert run(capsys, argv + ["--format", "csv"]) == (0, csv_text, "")


@pytest.mark.parametrize("flag,value,message", [
    ("--alpha", "inf", "alpha must be finite, got inf"),
    ("--beta", "-inf", "beta must be finite, got -inf"),
    ("--sigma", "nan", "sigma must be nonnegative, got nan"),
], ids=["--alpha-inf", "--beta--inf", "--sigma-nan"])
def test_exact_cir_non_finite_parameter_exits_1(capsys, flag, value, message):
    # these exited 2, blaming the closed form for overflowing; the closed form
    # refuses them itself, a NaN sigma by the sign rule
    params = {"--alpha": "0", "--beta": "0", "--sigma": "0.1", flag: value}
    code, out, err = run(capsys, ["exact-cir", *(f"{k}={v}" for k, v in params.items()),
                                  "--r", "0.05", "--tau", "1"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flags,culprit", [
    (["--beta", "0", "--sigma", "1e-8", "--tau", "1"], "sigma=1e-08"),
    (["--beta=-0.0555", "--sigma", "1e-12", "--tau", "30"], "sigma=1e-12"),
    (["--beta", "1e-12", "--sigma", "0", "--tau", "10"], "beta=1e-12"),
    (["--beta=-1e-12", "--sigma", "1e-12", "--tau", "10"], "sigma=1e-12"),
    (["--beta", "1e10", "--sigma", "0.0894", "--tau", "1"], "overflowed"),
], ids=["sigma1e-8-beta0", "sigma1e-12-tau30", "sigma0-beta1e-12",
        "sigma1e-12-beta-1e-12", "beta1e10"])
def test_exact_cir_ill_conditioned_exits_2(capsys, flags, culprit):
    # near sigma = 0 or beta = 0 rounding swamps ln P (the first three are
    # exactly 0.949732, 0.201092 and 0.518145); in the last, e^{-psi tau}
    # underflows and psi = beta, so the scaled denominator is 0
    code, out, err = run(capsys, ["exact-cir", "--alpha", "0.00315", "--r", "0.05", *flags])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: closed form ")
    assert culprit in err


def test_exact_cir_sigma_squared_underflow_is_the_deterministic_price(capsys):
    # sigma^2 underflows to 0, so the sigma = 0 form prices it: exp(-int r ds)
    code, out, err = run(capsys, ["exact-cir", "--alpha", "0.00315", "--beta=-0.0555",
                                  "--sigma", "1e-170", "--r", "0.05", "--tau", "1"])
    assert (code, out, err) == (0, "0.951054\n", "")


def test_exact_cir_negative_sigma_exits_1(capsys):
    code, out, err = run(capsys, ["exact-cir", "--alpha", "0", "--beta", "0",
                                  "--sigma", "-1", "--r", "0.05", "--tau", "1"])
    assert (code, out, err) == (1, "", "error: sigma must be nonnegative, got -1.0\n")


@pytest.mark.parametrize("beta", [["--beta", "-5e-05"], ["--beta=-5e-05"]],
                         ids=["space", "equals"])
def test_negative_value_in_scientific_notation_is_a_value(capsys, beta):
    # argparse reads only -1 and -.5 as numbers: "--beta -5e-05" was a missing argument
    code, out, err = run(capsys, ["exact-cir", "--alpha", "0.00315", *beta, "--sigma", "0.0894",
                                  "--r", "0.05", "--tau", "1"])
    assert (code, out, err) == (0, "0.949798\n", "")


@pytest.mark.parametrize("when,message", [
    (["--r", "-1e-05", "--tau", "1"], "vol2 is negative at r=-1e-05"),
    (["--r", "0.05", "--taus", "-1,2"], "time to maturity must be nonnegative and finite, got -1.0"),
], ids=["rate", "taus"])
def test_negative_values_reach_the_domain_rules(cfg, capsys, when, message):
    code, out, err = run(capsys, ["price", "--model", cfg(CIR_CFG), *when])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_help_exits_0(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["price", "--help"])[0] == 0
