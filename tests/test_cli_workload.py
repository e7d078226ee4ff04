"""The benchmark's `cli` workload draws only commands that exit 0.

The benchmark counts a command that exits nonzero as a failed operation, so a
print rule that refuses a drawn command fails there.  This draws the
operations of seeds 1-5 as `measure` in perfbench/run.py draws them and runs
each argv through cli.main in-process; nothing under perfbench/ is changed.
"""

import contextlib
import importlib.util
import io
import json
import math
import random
import sys
from pathlib import Path
from unittest import mock

import pytest

from bondtaylor import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# run.py imports workloads, and workloads its siblings, by bare name, as a
# script in perfbench/ does
with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
    workloads = _load("workloads")
    run = _load("run")


def _operations(seed: int, workdir: Path) -> list[dict]:
    """The `cli` workload's operations at one seed and the benchmark's run
    length, drawn as run.measure draws them."""
    workload = workloads.Cli(ROOT, {})
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    passes, size = workload.passes, workload.round_size
    rounds = max(math.ceil(run.MIN_OPS / passes / size),
                 round(seconds * workload.ops_per_s / passes / size))
    params = random.Random(f"cli:{seed}:params")
    ops = []
    for p in range(passes):
        shape = random.Random(f"cli:{seed}:shape")
        ops += workload.make_ops(shape, params, rounds * size, workdir, f"p{p}")
    return ops


@pytest.mark.parametrize("seed", range(1, 6))
def test_every_drawn_cli_command_exits_0(seed, tmp_path, built_table, monkeypatch):
    monkeypatch.setattr(cli, "build_table", built_table)
    ops = _operations(seed, tmp_path)
    failed = []
    for op in ops:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        if code != 0:
            failed.append((" ".join(op["argv"]), code, err.getvalue()))
    assert len(ops) == 40 and failed == []
