import csv
import io
import math
import warnings

import numpy as np
import pytest

from bondtaylor import cli, fdsolver, tables
from bondtaylor.cli import main
from bondtaylor.model import parse_model_text
from bondtaylor.series import eval_partial_sum, log_coeffs

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


def test_yield_order6_column(cfg, capsys):
    taus = "0.25,0.5,0.75,1,1.5,2,2.5,3,4,5"
    code, out, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", taus, "--order", "6", "--format", "csv"])
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["tau", "yield_pct"]
    got = [float(r[1]) for r in rows[1:]]
    refs = [5.00425, 5.00766, 5.01024, 5.01202, 5.01328,
            5.01167, 5.00739, 5.00064, 4.98054, 4.95288]
    for g, ref in zip(got, refs):
        assert abs(g - ref) <= 5e-6 + 1e-12


def test_yield_single_cell_order4(cfg, capsys):
    code, out, _ = run(capsys, ["yield", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--taus", "5", "--order", "4"])
    assert code == 0
    assert abs(float(out.splitlines()[1].split()[1]) - 4.95227) <= 5e-6 + 1e-12


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


def test_fd_cir_and_zero_model(cfg, capsys):
    code, out, _ = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "1"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.951115, abs=1e-5)
    code, out, _ = run(capsys, ["fd", "--model", cfg(ZERO_CFG), "--r", "0.05",
                                "--tau", "2", "--nr", "10", "--nt", "200"])
    assert code == 0
    # output is printed to 6 decimals, so half an ulp of that
    assert float(out.strip()) == pytest.approx(math.exp(-0.1), abs=5e-7)


def test_fd_profile_dump(cfg, capsys):
    code, out, _ = run(capsys, ["fd", "--model", cfg(ZERO_CFG), "--r", "0.05",
                                "--tau", "1", "--rmax", "0.5", "--nr", "5",
                                "--nt", "100", "--profile", "--format", "csv"])
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["r", "price"]
    assert len(rows) == 7
    for r_text, p_text in rows[1:]:
        assert float(p_text) == pytest.approx(math.exp(-float(r_text)),
                                              abs=1e-6)


def test_fd_grid_flags_validated(cfg, capsys):
    code, _, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "1", "--nr", "2", "--nt", "10"])
    assert code == 1 and "n_r" in err


def test_fd_explicit_grid_is_named_in_full(cfg, capsys):
    argv = ["fd", "--model", cfg(CIR_CFG), "--r", "0.05", "--tau", "10"]
    # --nr alone used to take n_t from the default grid's coarse level and
    # march once without extrapolation: 0.622123 with exit 0 (implicit Euler),
    # exact 0.621902
    for partial in (["--nr", "2000"], ["--nt", "400"], ["--rmax", "1"]):
        code, out, err = run(capsys, argv + partial)
        assert (code, out) == (1, "") and "--nr" in err and "--nt" in err
    # with both, r_max comes from the default grid and the grid marches once
    code, out, _ = run(capsys, argv + ["--nr", "2000", "--nt", "10000"])
    assert (code, out) == (0, "0.621902\n")


@pytest.mark.parametrize("flag,value", [("--theta", "0"), ("--theta", "0.25"),
                                        ("--theta", "0.5"),
                                        ("--upper-boundary", "dirichlet0"),
                                        ("--upper-boundary", "linearity")])
def test_fd_refuses_removed_scheme_flags(cfg, capsys, flag, value):
    # the oracle is Crank-Nicolson with the linearity closure only; theta = 0
    # used to print -5.4e124 for the CIR price 0.951115 with exit 0
    code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                  "--tau", "1", flag, value])
    assert (code, out) == (1, "") and flag in err


def test_fd_negative_tau_is_domain_error(cfg, capsys):
    code, _, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "-1"])
    assert code == 2 and "error" in err


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
    # a march gone non-finite is one error line, not a numpy RuntimeWarning
    nan_at_step(84)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                      "--tau", "1", "--nt", "100", "--nr", "10"])
    assert (code, out, err) == (2, "", "error: non-finite values at step 84 of 100\n")


def test_fd_singular_matrix_exits_2(cfg, capsys, monkeypatch):
    def zero_pivot(dl, d, du):
        return dl, d, du, du[:-1], np.zeros(len(d), dtype=np.int32), 1
    monkeypatch.setattr(fdsolver.lapack, "dgttrf", zero_pivot)
    code, out, err = run(capsys, ["fd", "--model", cfg(CIR_CFG), "--r", "0.05",
                                  "--tau", "1", "--nr", "10", "--nt", "4"])
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
    assert code == 1 and "not both" in err
    code, _, err = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05"])
    assert code == 1 and "--tau" in err


def test_order_out_of_range_exits_1(cfg, capsys):
    code, _, err = run(capsys, ["price", "--model", cfg(CIR_CFG), "--r", "0.05",
                                "--tau", "1", "--order", "31"])
    assert code == 1 and "order" in err


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
                                "--taus", "2,0.5", "--order", "6", "--format", "csv"])
    series = log_coeffs(parse_model_text(CIR_CFG), 6)
    want = [[f"{tau:g}", f"{-100.0 * eval_partial_sum(series, tau, 0.05) / tau:.5f}"]
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


@pytest.mark.parametrize("text,flags", [
    (CIR_CFG, ["--r", "0.05", "--order", "0"]),
    (CIR_CFG, ["--r", "0.05", "--order", "0", "--from-price"]),
    (ZERO_CFG, ["--r", "0"]),
], ids=["log-order0", "price-order0", "zero-model"])
def test_yield_exactly_zero_prints_unsigned(cfg, capsys, text, flags):
    # -value / tau and -log(1) / tau are -0.0, which used to print -0.00000
    code, out, _ = run(capsys, ["yield", "--model", cfg(text), "--taus", "1,5"] + flags)
    assert (code, out) == (0, "tau  yield_pct\n1    0.00000\n5    0.00000\n")


def test_exact_cir_negative_sigma_exits_1(capsys):
    code, _, _ = run(capsys, ["exact-cir", "--alpha", "0", "--beta", "0",
                              "--sigma", "-1", "--r", "0.05", "--tau", "1"])
    assert code == 1


def test_help_exits_0(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["price", "--help"])[0] == 0
