"""Tests of the benchmark's own references and checks.

    python3 -m pytest perfbench/test_checks.py -q

Every check must accept its reference and reject an output moved just past
its tolerance; the references must reproduce the paper's printed values and
each other.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import bondtaylor  # noqa: E402

JUST_PAST = 1.05


@pytest.fixture
def make_workload():
    made = []

    def make(name):
        if name == "cli":
            made.append(workloads.Cli(HERE.parent, run.child_env()))
            return made[-1]
        return {"quote": workloads.Quote, "deep": workloads.Deep,
                "oracle": workloads.Oracle}[name]()

    yield make
    for workload in made:
        workload.close()


def _ops(workload, tmp_path, n):
    shape = random.Random(f"{workload.name}:test:shape")
    params = random.Random(f"{workload.name}:test:params")
    return workload.make_ops(shape, params, max(n, workload.round_size), tmp_path, "t")[:n]


# --- references --------------------------------------------------------------

def test_cir_closed_form_reproduces_paper():
    a, b, s = ref.PAPER_CIR
    r = ref.PAPER_CIR_R
    for tau, price, yld in zip(ref.PAPER_CIR_TAUS, ref.PAPER_CIR_PRICE,
                               ref.PAPER_CIR_YIELD_PCT):
        assert abs(ref.cir_price(a, b, s, tau, r) - price) <= 5e-7
        assert abs(-100 * ref.cir_log_price(a, b, s, tau, r) / tau - yld) <= 5e-6


def test_lattice_series_matches_closed_forms():
    a, b, s = ref.PAPER_CIR
    series = ref.LatticeSeries(a, b, s * s, 1.0, 36)
    got = series.prices([0.5, 2.0, 4.0], [0.02, 0.05, 0.1])
    for i, tau in enumerate((0.5, 2.0, 4.0)):
        for j, r in enumerate((0.02, 0.05, 0.1)):
            assert abs(got[i, j] - ref.cir_price(a, b, s, tau, r)) <= 1e-13
    vas = ref.LatticeSeries(0.01, -0.1, 1e-4, 0.0, 36)
    got = vas.prices([1.0, 3.0], [0.002, 0.05])
    for i, tau in enumerate((1.0, 3.0)):
        for j, r in enumerate((0.002, 0.05)):
            assert abs(got[i, j] - ref.vasicek_price(0.01, -0.1, 1e-4, tau, r)) <= 1e-13


def test_lattice_series_reproduces_paper_dothan_grid():
    for s2, printed in ref.PAPER_DOTHAN_GRID.items():
        series = ref.LatticeSeries(0.0, ref.PAPER_DOTHAN_MU, s2, 2.0, 36)
        got = series.prices(ref.PAPER_DOTHAN_GRID_TAUS, [ref.PAPER_DOTHAN_R])[:, 0]
        for value, p in zip(got, printed):
            assert abs(value - p / 100) <= ref.PAPER_DOTHAN_PRICE_TOL


def test_hand_coefficients_match_lattice_series():
    a0, a1, s2, q = 0.012, -0.2, 0.0081, 1.55
    series = ref.LatticeSeries(a0, a1, s2, q, 3)
    r = 0.07
    c = series.coeff_values([r])[:, 0]
    mu = a0 + a1 * r
    assert abs(c[1] - ref.price_c1(r)) <= 1e-15
    assert abs(c[2] - ref.price_c2(r, mu)) <= 1e-15


def test_lattice_series_refuses_to_sum_past_convergence():
    series = ref.LatticeSeries(0.01, -0.2, 0.0894 ** 2, 1.0, 36)
    with pytest.raises(ValueError):
        series.prices([30.0], [0.05])


# --- checks ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["quote", "deep", "oracle", "cli"])
def test_checks_accept_reference_and_reject_just_past_tolerance(name, tmp_path, make_workload):
    workload = make_workload(name)
    for op in _ops(workload, tmp_path, workload.round_size):
        output = workload.run(bondtaylor, op)
        assert workloads.check(workload, op, output) == []
        want = workload.expectations(op, output)
        exact = {label: value for label, (value, _) in want.items()}
        assert workloads.compare(exact, want) == []
        for label, (value, tol) in want.items():
            step = JUST_PAST * tol if tol > 0 else 1.0
            for sign in (1.0, -1.0):
                moved = dict(exact, **{label: value + sign * step})
                problems = workloads.compare(moved, want)
                assert len(problems) == 1 and problems[0].startswith(label), label
            missing = {k: v for k, v in exact.items() if k != label}
            assert workloads.compare(missing, want) == [f"{label}: missing"]


def test_cli_check_rejects_a_reprinted_number(tmp_path, make_workload):
    workload = make_workload("cli")
    ops = _ops(workload, tmp_path, workload.round_size)
    exact_cir = next(op for op in ops if op["command"] == "exact-cir")
    text = workload.run(bondtaylor, exact_cir)
    value, tol = workload.expectations(exact_cir, text)["exact-cir"]
    assert workloads.check(workload, exact_cir, f"{value + JUST_PAST * tol:.9f}\n")
    assert workloads.check(workload, exact_cir, f"{value:.9f}\n") == []
    table = next(op for op in ops if op["command"] == "table")
    text = workload.run(bondtaylor, table)
    assert workloads.check(workload, table, text) == []
    bad = text.replace("16 pass, 0 flagged, 0 fail", "15 pass, 0 flagged, 1 fail")
    assert workloads.check(workload, table, bad)
    assert workloads.check(workload, table, "garbage\n")


def test_oracle_check_rejects_wrong_maturities(tmp_path, make_workload):
    workload = make_workload("oracle")
    op = next(o for o in _ops(workload, tmp_path, 7) if o["kind"] == "path")
    output = workload.run(bondtaylor, op)
    shifted = dict(output, taus=[t * 1.01 for t in output["taus"]])
    assert workloads.check(workload, op, shifted)


# --- tracing -----------------------------------------------------------------

def test_cli_launcher_traces_names_imported_into_other_modules(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(run.child_env(), PERFBENCH_SPANS=str(spans))
    proc = subprocess.run([sys.executable, str(HERE / "cli_launcher.py"), "table",
                           "--id", "cir-converge"], cwd=HERE.parent, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert "cir-converge: 16 pass, 0 flagged, 0 fail" in proc.stdout
    data = json.loads(spans.read_text())
    calls = dict(zip(data["names"], data["calls"]))
    # tables calls price_coeffs and log_coeffs through its own imported names
    assert calls["series.price_coeffs"] == 1 and calls["series.log_coeffs"] == 1
    assert calls["tables.build_table"] == 1 and calls["cli.cmd_table"] == 1
    assert calls["cli.main"] == 1 and calls["import"] == 1
    assert all(s >= 0.0 for s in data["self_s"])
    for k, (_name, start, end, parent, _op) in enumerate(data["spans"]):
        assert start <= end and parent < k


# --- benchmark definition ----------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == ["quote", "deep", "oracle", "cli"]


def test_tail_percentile_leaves_ten_beyond():
    for n in (40, 41, 70, 91, 1200):
        pct = run.tail_percentile(n)
        rank = math.ceil(pct / 100 * n)
        assert n - rank >= 10
        assert n - math.ceil((pct + 1) / 100 * n) < 10


def test_importtime_parser_counts_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |         20 |       scipy.linalg._x",
        "import time:        30 |         50 |     scipy.linalg",
        "import time:        10 |        210 |   bondtaylor.fdsolver",
        "import time:         5 |        215 | bondtaylor",
    ])
    got = run.parse_importtime(stderr)
    assert got == pytest.approx({"import.bondtaylor_s": 215e-6, "import.numpy_s": 150e-6,
                                 "import.scipy_s": 50e-6})
