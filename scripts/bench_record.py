#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and record the medians.

    python3 scripts/bench_record.py --parent TREE --change TREE --record N \\
        --workloads cli,quote --seeds 1-10

TREE is the root of a source tree of bondtaylor (a clean checkout: the
benchmark builds what it runs from the source in it).  For each workload and
seed the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, T being run_seconds of BENCHMARK.json: the parent first
on odd pairs and the change first on even ones, so a slow phase of the host
falls on both sides alike.  It writes
BENCH_<N>.json at the root of this repository after every pair: every run's
metrics and, per workload and end-to-end metric, each side's median and
quartiles and how many pairs the change won (by the direction BENCHMARK.json
gives the metric; ties count for neither side), and per workload each side's
operations attempted and failed and runs not correct; under "src_lines" each
tree's line count of src/bondtaylor/*.py, as wc -l gives it; under
"public_names" the length of each tree's bondtaylor.__all__; under "cli_options"
the option strings of each tree's CLI subcommands; and under "environment"
the Python version, the CPU count and sys.flags.dont_write_bytecode.  With
bytecode caching off, as PYTHONDONTWRITEBYTECODE (which the runs inherit) sets
it, every cold start compiles the source it loads, which multiplies setup_s.
It reads BENCHMARK.json and runs
perfbench/run.py as they are; it changes neither.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,4,7' or a mix of both: '1-3,9'.  A piece that is empty or
    not a seed, or a descending range such as '3-1', raises ValueError."""
    seeds = []
    for piece in text.split(","):
        lo, dash, hi = piece.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            raise ValueError(f"--seeds {text!r}: {piece!r} is not a seed or a "
                             f"range of seeds") from None
        if last < first:
            raise ValueError(f"--seeds {text!r}: the range {piece!r} descends")
        seeds += range(first, last + 1)
    return seeds


def git_rev(tree: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def src_lines(tree: Path) -> int:
    """Lines of the package source in tree, src/bondtaylor/*.py, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "bondtaylor").glob("*.py"))


def public_names(tree: Path) -> int | None:
    """Length of the __all__ list in tree's src/bondtaylor/__init__.py, read with
    ast and not imported, so a tree that fails to import is counted too.  None
    if the file is missing, does not parse or assigns __all__ no list."""
    try:
        module = ast.parse((tree / "src" / "bondtaylor" / "__init__.py").read_bytes())
    except (OSError, SyntaxError):
        return None
    count = None
    for node in module.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            count = len(node.value.elts)
    return count


# run as python -B -c with the tree's src as argv[1]; prints the option count
_COUNT_OPTIONS = """
import argparse, pathlib, sys
from bondtaylor import cli
if pathlib.Path(cli.__file__).parents[1] != pathlib.Path(sys.argv[1]):
    sys.exit(f"imported {cli.__file__}, not the tree's")  # an installed bondtaylor
sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(sum(flag not in ("-h", "--help") for parser in sub.choices.values()
          for action in parser._actions for flag in action.option_strings))
"""


def cli_options(tree: Path) -> int | None:
    """Option strings summed over the subcommands of tree's build_parser(),
    -h/--help aside, counted in a child interpreter with tree's src on
    PYTHONPATH (and writing no bytecode into it).  None if that fails, or if
    the bondtaylor it imports is not tree's."""
    src = tree.resolve() / "src"
    done = subprocess.run([sys.executable, "-B", "-c", _COUNT_OPTIONS, str(src)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    return int(done.stdout) if done.returncode == 0 else None


def environment() -> dict:
    return {"python": platform.python_version(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
            "cpu_count": os.cpu_count()}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_record: {' '.join(cmd)} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, better: dict) -> dict:
    """Per side, under "health": the operations attempted and failed and the
    runs whose outputs were not all correct.  Per end-to-end metric: each
    side's median and quartiles, and the pairs the change won."""
    out = {"health": {side: {"attempted": sum(r["attempted"] for r in rs),
                             "failed": sum(r["failed"] for r in rs),
                             "incorrect_runs": sum(not r["correct"] for r in rs)}
                      for side, rs in runs.items()}}
    for name, direction in better.items():
        sides = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {**{side: spread(v) for side, v in sides.items()},
                     "change_wins": wins, "pairs": len(sides["parent"])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="change source tree")
    parser.add_argument("--record", type=int, required=True,
                        help="N of the BENCH_<N>.json to write")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated, e.g. cli,quote,deep,oracle")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1-3,11")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out_path = ROOT / f"BENCH_{args.record}.json"
    record = {"command": f"python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {seconds} --trace 0",
              "revisions": {side: git_rev(tree) for side, tree in trees.items()},
              "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
              "public_names": {side: public_names(tree) for side, tree in trees.items()},
              "cli_options": {side: cli_options(tree) for side, tree in trees.items()},
              "environment": environment(),
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {side: [] for side in SIDES}
        entry = record["workloads"][workload] = {"runs": runs}
        for k, seed in enumerate(seeds):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(trees[side], workload, seed, seconds))
            pair = {side: runs[side][-1]["metrics"] for side in SIDES}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {pair['parent'][name]:.4g}/{pair['change'][name]:.4g}"
                for name in better), file=sys.stderr)
            entry["summary"] = summarize(runs, better)
            out_path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
