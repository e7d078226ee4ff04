from pathlib import Path

import pytest

from bondtaylor import fdsolver, tables
from bondtaylor.errors import ConfigError
from bondtaylor.fdsolver import FDGrid
from bondtaylor.model import parse_model_config
from bondtaylor.series import price_coeffs
from bondtaylor.tables import TABLE_IDS, TableCell, TableReport, build_table

ROOT = Path(__file__).resolve().parents[1]


def test_cell_status_logic():
    ok = TableCell("row", "col", 1.0000004, 1.0, 5e-7)
    assert ok.status == "PASS" and ok.deviation == pytest.approx(4e-7)
    bad = TableCell("row", "col", 1.001, 1.0, 5e-7)
    assert bad.status == "FAIL"
    flagged = TableCell("row", "col", 1.001, None, 5e-7, note="n")
    assert flagged.flagged and not ok.flagged and not bad.flagged
    assert flagged.status == "FLAGGED" and flagged.deviation is None
    # a flagged cell never fails, even with a reference attached
    assert TableCell("r", "c", 2.0, 1.0, 1e-9, note="n").status == "FLAGGED"


def test_report_pass_logic():
    cells = (TableCell("a", "x", 1.0, 1.0, 1e-9),
             TableCell("b", "x", 1.0, None, 1e-9, note="n"))
    rep = TableReport("t", 6, cells)
    assert rep.passed and rep.counts() == (1, 1, 0)
    rep2 = TableReport("t", 6,
                       cells + (TableCell("c", "x", 2.0, 1.0, 1e-9),))
    assert not rep2.passed and rep2.counts() == (1, 1, 1)


def test_unknown_table_id():
    with pytest.raises(ConfigError, match="unknown table id"):
        build_table("nope")


@pytest.mark.parametrize("table_id,n_cells,n_flagged", [
    ("cir-price", 40, 1),
    ("cir-yield", 40, 0),
    ("cir-converge", 16, 0),
    ("dothan-converge", 16, 0),
    ("dothan-grid", 72, 2),
])
def test_reference_tables_reproduce(built_table, table_id, n_cells, n_flagged):
    rep = built_table(table_id)
    assert rep.table_id == table_id
    assert len(rep.cells) == n_cells
    n_pass, n_flag, n_fail = rep.counts()
    assert n_fail == 0
    assert n_flag == n_flagged
    assert rep.passed


@pytest.mark.parametrize("table_id,decimals", [
    ("cir-price", 6), ("cir-yield", 5), ("cir-converge", 6),
    ("dothan-converge", 6), ("dothan-grid", 4),
])
def test_cell_tolerance_is_half_an_ulp_of_the_printed_decimals(built_table, table_id,
                                                               decimals):
    rep = built_table(table_id)
    assert rep.decimals == decimals
    assert {c.tolerance for c in rep.cells} == {0.5 * 10**-rep.decimals + 1e-12}


def test_cir_price_flagged_cell_detail():
    rep = build_table("cir-price")
    flagged = [c for c in rep.cells if c.flagged]
    assert len(flagged) == 1
    cell = flagged[0]
    assert cell.row == "tau=3" and cell.column == "taylor_j6"
    # compared against the corrected reference, and it agrees
    assert cell.reference == 0.860691
    assert cell.deviation <= 5e-7 + 1e-12
    assert "0.960691" in cell.note


def test_dothan_grid_flagged_cells_detail(built_table):
    rep = built_table("dothan-grid")
    flagged = {(c.row, c.column): c for c in rep.cells if c.flagged}
    assert set(flagged) == {("sigma2=0.02 tau=5", "taylor_j3"),
                            ("sigma2=0.02 tau=10", "taylor_j3")}
    by_row = {row: cell for (row, _), cell in flagged.items()}
    # the recursion values, frozen as regression constants
    assert by_row["sigma2=0.02 tau=5"].computed == pytest.approx(83.810677, abs=5e-5)
    assert by_row["sigma2=0.02 tau=10"].computed == pytest.approx(70.235417, abs=5e-5)
    assert all(c.reference is None for c in flagged.values())


def test_table_ids_exposed():
    assert set(TABLE_IDS) == {"cir-price", "cir-yield", "cir-converge",
                              "dothan-converge", "dothan-grid"}


def test_dothan_table_models_match_parsed_configs(monkeypatch):
    """The Dothan models the tables build are the ones configs/dothan_s2_*.cfg
    parse to, vol2 bit for bit (sqrt(0.01)^2 would be 0.010000000000000002)."""
    seen = []

    def spy(model, order):
        seen.append(model)
        return price_coeffs(model, order)

    monkeypatch.setattr(tables, "price_coeffs", spy)
    # only the models matter here, so march a coarse grid (steps at tau = 1..10)
    monkeypatch.setattr(fdsolver, "default_grid", lambda r, tau: FDGrid(0.5, 10, 10))
    build_table("dothan-converge")
    build_table("dothan-grid")
    parsed = {s2: parse_model_config(ROOT / "configs" / f"dothan_s2_{s2}.cfg")
              for s2 in ("0.01", "0.02", "0.03")}
    expected = [parsed[s2] for s2 in ("0.02", "0.01", "0.02", "0.03")]
    assert [m.vol2 for m in seen] == [m.vol2 for m in expected]
    assert [m.drift for m in seen] == [m.drift for m in expected]
