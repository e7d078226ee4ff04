import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

import pytest

import bondtaylor
from test_public_api import CLI_OPTIONS

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_parse_seeds():
    assert bench_record.parse_seeds("1-3,9") == [1, 2, 3, 9]
    assert bench_record.parse_seeds("4") == [4]
    assert bench_record.parse_seeds("5-5") == [5]


@pytest.mark.parametrize("text, message", [
    ("3-1", "the range '3-1' descends"),
    ("1,,2", "'' is not a seed"),
    ("", "'' is not a seed"),
    ("1-", "'1-' is not a seed"),
    ("x", "'x' is not a seed"),
])
def test_parse_seeds_refuses_with_a_message(text, message):
    with pytest.raises(ValueError, match=message):
        bench_record.parse_seeds(text)


@pytest.mark.parametrize("seeds", ["3-1", "1,,2", ""])
def test_main_exits_2_on_bad_seeds_and_writes_nothing(seeds, tmp_path, capsys):
    record = 10 ** 9  # a record number no real run uses
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                           "--record", str(record), "--workloads", "quote",
                           "--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (bench_record.ROOT / f"BENCH_{record}.json").exists()


def test_spread_is_median_and_quartiles():
    assert bench_record.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_record.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def _runs(values, failed=None, correct=None):
    n = len(values)
    return [{"attempted": 10, "failed": f, "correct": c,
             "metrics": {"ops_per_s": v, "p50_ms": 1.0 / v}}
            for v, f, c in zip(values, failed or [0] * n, correct or [True] * n)]


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    runs = {"parent": _runs([2.0, 2.0, 3.0]), "change": _runs([4.0, 1.0, 3.0])}
    out = bench_record.summarize(runs, {"ops_per_s": "higher", "p50_ms": "lower"})
    assert out["ops_per_s"]["change_wins"] == 1
    assert out["p50_ms"]["change_wins"] == 1
    assert out["ops_per_s"]["pairs"] == 3
    assert out["ops_per_s"]["change"]["median"] == pytest.approx(3.0)


def test_summarize_records_run_health_per_side():
    runs = {"parent": _runs([2.0, 2.0, 3.0]),
            "change": _runs([4.0, 1.0, 3.0], failed=[0, 2, 1], correct=[True, False, True])}
    out = bench_record.summarize(runs, {"ops_per_s": "higher"})
    assert out["health"] == {
        "parent": {"attempted": 30, "failed": 0, "incorrect_runs": 0},
        "change": {"attempted": 30, "failed": 3, "incorrect_runs": 1}}


def test_main_records_the_environment_beside_the_runs(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(
        (bench_record.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git_rev", lambda tree: None)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    metrics = {m["name"]: 1.0 for m in bench["end_to_end"]}
    monkeypatch.setattr(bench_record, "run_once", lambda tree, workload, seed, seconds: {
        "seed": seed, "correct": True, "attempted": 10, "failed": 0, "metrics": metrics})
    assert bench_record.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                              "--record", "7", "--workloads", "quote", "--seeds", "1-2"]) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["environment"] == {
        "python": platform.python_version(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "cpu_count": os.cpu_count()}
    assert [r["seed"] for r in record["workloads"]["quote"]["runs"]["change"]] == [1, 2]


def test_src_lines_counts_the_package_source_of_a_tree(tmp_path):
    package = tmp_path / "src" / "bondtaylor"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n\n")
    (package / "b.py").write_text('"""doc"""\n')
    (package / "notes.txt").write_text("not source\n")  # only *.py counts
    assert bench_record.src_lines(tmp_path) == 4
    assert bench_record.src_lines(bench_record.ROOT) == sum(
        len(p.read_text().splitlines()) for p in (bench_record.ROOT / "src" / "bondtaylor").glob("*.py"))


def test_public_names_reads_all_without_importing_the_tree(tmp_path):
    package = tmp_path / "src" / "bondtaylor"
    package.mkdir(parents=True)
    assert bench_record.public_names(tmp_path) is None  # no __init__.py
    init = package / "__init__.py"
    # a tree that cannot be imported is still counted; the last __all__ holds
    init.write_text('raise ImportError("broken tree")\n__all__ = ["a"]\n'
                    '__all__ = [\n    "a", "b",\n    "c",\n]\n')
    assert bench_record.public_names(tmp_path) == 3
    init.write_text("__all__ = [\n")  # does not parse
    assert bench_record.public_names(tmp_path) is None
    init.write_text("names = ['a']\n")  # no __all__
    assert bench_record.public_names(tmp_path) is None
    assert bench_record.public_names(bench_record.ROOT) == len(bondtaylor.__all__)


def test_cli_options_counts_the_option_strings_of_a_trees_cli(tmp_path):
    assert bench_record.cli_options(bench_record.ROOT) == sum(
        len(options) for options in CLI_OPTIONS.values()) == 30
    assert bench_record.cli_options(tmp_path) is None  # no package


def test_main_records_each_trees_src_lines_beside_its_revision(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(
        (bench_record.ROOT / "BENCHMARK.json").read_text())
    for side, lines in (("p", 3), ("c", 2)):
        (tmp_path / side / "src" / "bondtaylor").mkdir(parents=True)
        (tmp_path / side / "src" / "bondtaylor" / "m.py").write_text("pass\n" * lines)
    # the parent's package has a public name, the change's has no __init__.py
    (tmp_path / "p" / "src" / "bondtaylor" / "__init__.py").write_text('__all__ = ["x"]\n')
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git_rev", lambda tree: tree.name)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    metrics = {m["name"]: 1.0 for m in bench["end_to_end"]}
    monkeypatch.setattr(bench_record, "run_once", lambda tree, workload, seed, seconds: {
        "seed": seed, "correct": True, "attempted": 10, "failed": 0, "metrics": metrics})
    assert bench_record.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                              "--record", "8", "--workloads", "quote", "--seeds", "1"]) == 0
    record = json.loads((tmp_path / "BENCH_8.json").read_text())
    assert record["revisions"] == {"parent": "p", "change": "c"}
    assert record["src_lines"] == {"parent": 4, "change": 2}
    assert record["public_names"] == {"parent": 1, "change": None}
    assert record["cli_options"] == {"parent": None, "change": None}  # neither has a cli
