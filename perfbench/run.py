"""Benchmark for bondtaylor: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload {quote,deep,oracle,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; bondtaylor is imported from ./src.
The seed fixes the list of operations.  The list is the workload's number of
passes, each of the same length; operation g of every pass has the same
cost-setting shape (order, maturity, rate, command) on different models.
The length of a pass is round(S * the workload's nominal rate / passes)
whole rounds, at least MIN_OPS operations in all, so it depends on S and
never on the speed of the machine.  Every output is checked against
`references` at the end of its pass, outside the timed operations.

Every time is a reference time (see hostspeed): the wall time scaled by
how much slower than nominal a fixed kernel ran right before and right
after it, so that the host's slow phases (up to 1.8 times slower, for
seconds to minutes) cancel out.  ops_per_s is operations over their summed
reference time; p50_ms is the median operation; tail_ms is the highest
percentile of operations with ten operations beyond it.  setup_s is the
median of seven cold starts spread over the gaps between the passes.

With --trace 0 the result holds the end-to-end metrics, measured without
tracing.  With --trace 1 the same operations run with spans around
bondtaylor's public functions, and the result holds the per-layer metrics;
the spans go to perfbench/out/trace-<workload>-seed<N>.csv.  The last line
of stdout is the JSON result; problems go to stderr.
"""

from __future__ import annotations

import os

# one thread for numpy's BLAS, here and in every child process
THREAD_VARS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

# cold starts for setup_s, spread evenly over the gaps before each pass and
# after the last one so they sample the whole run; one more start before them
# is discarded because it may still be writing bytecode caches
SETUP_STARTS = 7
IMPORT_PROBES = 5
# interpreter starts timed before and after each cold start (see hostspeed)
SETUP_KERNEL_UNITS = 2
# enough operations that tail_ms has ten beyond it and is not the maximum
MIN_OPS = 40

END_TO_END = (("ops_per_s", "1/s"), ("p50_ms", "ms"), ("tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))

TIMED_FUNCS = ("genpoly.mul", "genpoly.add", "genpoly.scale", "genpoly.derivative",
               "genpoly.canonicalize", "genpoly.evaluate", "series.price_coeffs",
               "series.log_coeffs", "series.partial_sums", "model.parse_model_config",
               "model.check_vol2_nonnegative", "fdsolver.fd_solve",
               "fdsolver.fd_solve_path", "fdsolver.fd_price_at",
               "closedform.cir_exact_price", "tables.build_table")
CLI_FUNCS = ("cli.main", "cli.cmd_coeffs", "cli.cmd_price", "cli.cmd_yield",
             "cli.cmd_exact_cir", "cli.cmd_fd", "cli.cmd_table")
COUNTS = ("genpoly.mul.raw_terms", "genpoly.canonicalize.terms_in",
          "genpoly.canonicalize.terms_out", "series.coeff_terms", "series.points",
          "genpoly.evaluate.terms", "fdsolver.steps", "fdsolver.node_steps")
# self time summed by the layers the workloads are meant to stress
GROUPS = {
    "self.evaluation_s": ("genpoly.evaluate", "series.partial_sums"),
    "self.construction_s": ("genpoly.mul", "genpoly.add", "genpoly.scale",
                            "genpoly.derivative", "genpoly.canonicalize",
                            "series.price_coeffs", "series.log_coeffs"),
    "self.model_s": ("model.parse_model_config", "model.check_vol2_nonnegative"),
    "self.fdsolver_s": ("fdsolver.fd_solve", "fdsolver.fd_solve_path",
                        "fdsolver.fd_price_at"),
    "self.closedform_s": ("closedform.cir_exact_price",),
    "self.tables_s": ("tables.build_table",),
    "self.cli_s": CLI_FUNCS,
    "self.import_s": ("import",),
    "self.unattributed_s": ("op",),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in the order they are printed."""
    names = [("import.bondtaylor_s", "s"), ("import.numpy_s", "s"),
             ("import.scipy_s", "s"), ("cli.python_start_s", "s")]
    for fn in TIMED_FUNCS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    names += [(f"{fn}.self_s", "s") for fn in CLI_FUNCS]
    names += [(c, "count") for c in COUNTS]
    names += [("genpoly.canonicalize.kept_ratio", "ratio"),
              ("fdsolver.ns_per_node_step", "ns")]
    names += [(g, "s") for g in GROUPS]
    names += [("trace.ops_per_s", "1/s"), ("trace.p50_ms", "ms"), ("host.kernel_ms", "ms")]
    return names


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_bondtaylor():
    if not (SRC / "bondtaylor" / "__init__.py").is_file():
        fail(f"no bondtaylor source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import bondtaylor
    if Path(bondtaylor.__file__).resolve().parent != SRC / "bondtaylor":
        fail(f"imported bondtaylor from {bondtaylor.__file__}, not from {SRC}")
    return bondtaylor


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=60)


def setup_probe(workload, ops, env):
    """A function that times one cold start of the workload's set-up, in
    reference seconds (see hostspeed)."""
    flags = {"cli": ["--cli"], "oracle": ["--fd"]}.get(workload.name, [])
    args = [str(HERE / "setup_probe.py"), *flags, *workload.probe_paths(ops)]
    speed = HostSpeed("start", SETUP_KERNEL_UNITS)

    def cold_start() -> float:
        before = speed.sample()
        elapsed = float(run_child(args, env).stdout)
        speed.sample()
        return speed.reference(elapsed, before)

    return cold_start


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing bondtaylor, numpy and scipy, from -X importtime.

    Lines come children first; a module's own line follows its imports, one
    indent level out.  A family's time is the cumulative time of its
    outermost entries, so numpy imported inside bondtaylor counts once.
    """
    roots: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        children = []
        while roots and roots[-1][0] > depth:
            children.insert(0, roots.pop())
        roots.append((depth, name.strip(), int(cum), children))

    def family_us(nodes, family: str) -> int:
        total = 0
        for _, name, cum, children in nodes:
            if name == family or name.startswith(family + "."):
                total += cum
            else:
                total += family_us(children, family)
        return total

    return {f"import.{f}_s": family_us(roots, f) * 1e-6
            for f in ("bondtaylor", "numpy", "scipy")}


def measure_imports(env) -> dict[str, float]:
    samples = [parse_importtime(run_child(["-X", "importtime", "-c", "import bondtaylor"],
                                          env).stderr)
               for _ in range(IMPORT_PROBES)]
    out = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    starts = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        run_child(["-c", "pass"], env)
        starts.append(time.perf_counter() - t0)
    out["cli.python_start_s"] = statistics.median(starts)
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten operations beyond it."""
    return max(0, math.floor(100 * (n - 10) / n))


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(tracer: Tracer, imports: dict, durations, kernel_s) -> dict:
    calls, self_s, counts = tracer.totals()
    values = dict(imports)
    for fn in TIMED_FUNCS:
        values[f"{fn}.calls"] = calls.get(fn, 0)
        values[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for fn in CLI_FUNCS:
        values[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for c in COUNTS:
        values[c] = counts.get(c, 0)
    terms_in = counts.get("genpoly.canonicalize.terms_in", 0)
    values["genpoly.canonicalize.kept_ratio"] = (
        counts.get("genpoly.canonicalize.terms_out", 0) / terms_in if terms_in else 0.0)
    node_steps = counts.get("fdsolver.node_steps", 0)
    fd_self = self_s.get("fdsolver.fd_solve", 0.0) + self_s.get("fdsolver.fd_solve_path", 0.0)
    values["fdsolver.ns_per_node_step"] = fd_self / node_steps * 1e9 if node_steps else 0.0
    for group, members in GROUPS.items():
        values[group] = sum(self_s.get(fn, 0.0) for fn in members)
    values["trace.ops_per_s"] = len(durations) / sum(durations)
    values["trace.p50_ms"] = statistics.median(durations) * 1e3
    values["host.kernel_ms"] = statistics.median(kernel_s) * 1e3
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("quote", "deep", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bt = import_bondtaylor()
    env = child_env()
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if args.workload == "cli":
        workload = workloads.Cli(ROOT, env, tracer, workdir)
    else:
        workload = {"quote": workloads.Quote, "deep": workloads.Deep,
                    "oracle": workloads.Oracle}[args.workload]()
    try:
        return measure(args, bt, env, out_dir, workdir, workload, tracer)
    finally:
        if args.workload == "cli":
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, bt, env, out_dir: Path, workdir: Path, workload, tracer) -> int:
    passes = workload.passes
    rounds = max(math.ceil(MIN_OPS / passes / workload.round_size),
                 round(args.seconds * workload.ops_per_s / passes / workload.round_size))
    per_pass = rounds * workload.round_size
    params = random.Random(f"{args.workload}:{args.seed}:params")
    ops = []
    for p in range(passes):
        shape = random.Random(f"{args.workload}:{args.seed}:shape")
        ops += workload.make_ops(shape, params, per_pass, workdir, f"p{p}")

    if tracer:
        imports = measure_imports(env)
        tracer.install()
    else:
        cold_start = setup_probe(workload, ops, env)
        cold_start()
    setup_times = []
    starts_in_gap = collections.Counter(round(k * passes / (SETUP_STARTS - 1))
                                        for k in range(SETUP_STARTS))

    speed = HostSpeed(workload.kernel, workload.kernel_units)
    outputs, elapsed, errors, problems = [], [], [], []
    perf = time.perf_counter
    for i, op in enumerate(ops):
        if i % per_pass == 0:
            if not tracer:
                setup_times += [cold_start() for _ in range(starts_in_gap[i // per_pass])]
            gc.collect()
            speed.sample()
        start = perf()
        try:
            if tracer:
                tracer.op = i
                with tracer.span("op"):
                    output = workload.run(bt, op)
            else:
                output = workload.run(bt, op)
        except Exception as exc:  # an operation that fails is counted, not fatal
            output = None
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        elapsed.append((perf() - start, len(speed.samples) - 1))
        speed.sample()
        outputs.append(output)
        if (i + 1) % per_pass == 0:
            # check each pass as it ends, so stored outputs do not count in
            # peak_rss_mb as the run goes on
            for k, output in enumerate(outputs, i + 1 - per_pass):
                if output is not None:
                    problems += [f"op {k}: {p}" for p in workloads.check(workload, ops[k], output)]
            outputs = []
    if not tracer:
        setup_times += [cold_start() for _ in range(starts_in_gap[passes])]
    durations = [speed.reference(wall, i, workload.kernel_window) for wall, i in elapsed]
    if args.workload == "cli":
        peak_kib = workload.peak_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for line in (errors + problems)[:20]:
        print(line, file=sys.stderr)

    if tracer:
        tracer.write_spans(out_dir / f"trace-{args.workload}-seed{args.seed}.csv")
        metrics = layer_metrics(tracer, imports, durations, speed.samples)
    else:
        ordered = sorted(durations)
        values = {"ops_per_s": len(ops) / sum(durations),
                  "p50_ms": statistics.median(durations) * 1e3,
                  "tail_ms": nearest_rank(ordered, tail_percentile(len(ops))) * 1e3,
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": peak_kib / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
