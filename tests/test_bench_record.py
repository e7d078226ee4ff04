import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_parse_seeds():
    assert bench_record.parse_seeds("1-3,9") == [1, 2, 3, 9]
    assert bench_record.parse_seeds("4") == [4]


def test_spread_is_median_and_quartiles():
    assert bench_record.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_record.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def _runs(values):
    return [{"metrics": {"ops_per_s": v, "p50_ms": 1.0 / v}} for v in values]


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    runs = {"parent": _runs([2.0, 2.0, 3.0]), "change": _runs([4.0, 1.0, 3.0])}
    out = bench_record.summarize(runs, {"ops_per_s": "higher", "p50_ms": "lower"})
    assert out["ops_per_s"]["change_wins"] == 1
    assert out["p50_ms"]["change_wins"] == 1
    assert out["ops_per_s"]["pairs"] == 3
    assert out["ops_per_s"]["change"]["median"] == pytest.approx(3.0)
