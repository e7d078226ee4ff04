"""The benchmark's four workloads.

A workload turns two seeded generators into a fixed list of operations
(`make_ops`): `shape` draws what sets an operation's cost (orders, maturities,
rates, kinds) and `params` draws the models.  Called again with `shape`
reseeded and `params` running on, it gives operations of the same cost on
other models, which the run uses as repeats (`passes` of them).  A workload runs
one operation through bondtaylor's public functions (`run`) and says what
the outputs should be.  `values(op, output)` names every number an operation
produced; `expectations(op, output)` gives each name its reference value and
tolerance, computed by `references` alone.  The output is passed only so the
oracle can read which checkpoint maturities the solver's grid allowed.
`check` compares the two.

Model families, each as drift a0 + a1 r and squared volatility s2 r^q:

    cir      alpha + beta r,   sigma^2 r
    vasicek  a0 + a1 r,        s2            (a bondtaylor "custom" model)
    dothan   mu r,             sigma2 r^2
    ckls     alpha + beta r,   sigma^2 r^(2 gamma), gamma off any lattice
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import references as ref


class OutputError(Exception):
    """An output that cannot be read as the numbers it should hold."""


# --- model families ----------------------------------------------------------

def draw(rng, family: str) -> dict:
    u = rng.uniform
    if family == "cir":
        return {"family": family, "alpha": u(0.002, 0.01), "beta": u(-0.2, -0.05),
                "sigma": u(0.05, 0.12)}
    if family == "vasicek":
        return {"family": family, "a0": u(0.005, 0.02), "a1": u(-0.3, -0.05),
                "s2": u(5e-5, 2e-4)}
    if family == "dothan":
        return {"family": family, "mu": u(0.0, 0.01), "s2": u(0.01, 0.03)}
    if family == "ckls":
        return {"family": family, "alpha": u(0.005, 0.015), "beta": u(-0.3, -0.1),
                "sigma": u(0.05, 0.1), "gamma": u(0.7, 0.9)}
    raise ValueError(family)


# The CKLS series' radius of convergence shrinks as r -> 0 (below r = 0.04 at
# tau = 3 the reference series can no longer be summed to 1e-12 in double
# precision), so CKLS rates start here in every workload.
CKLS_MIN_R = 0.04
# order of the reference price series; at the workloads' (tau, r) ranges its
# last two terms stay below 1e-12, which LatticeSeries.prices checks
REF_ORDER = 36


def rate_range(family: str, lo: float, hi: float) -> tuple[float, float]:
    return (max(lo, CKLS_MIN_R), hi) if family == "ckls" else (lo, hi)


def config_text(p: dict) -> str:
    f = p["family"]
    if f == "cir":
        return f"model = cir\nalpha = {p['alpha']!r}\nbeta = {p['beta']!r}\nsigma = {p['sigma']!r}\n"
    if f == "vasicek":
        return (f"model = custom\ndrift_terms = {p['a0']!r}:0, {p['a1']!r}:1\n"
                f"vol2_terms = {p['s2']!r}:0\n")
    if f == "dothan":
        return f"model = dothan\nmu = {p['mu']!r}\nsigma2 = {p['s2']!r}\n"
    return (f"model = ckls\nalpha = {p['alpha']!r}\nbeta = {p['beta']!r}\n"
            f"sigma = {p['sigma']!r}\ngamma = {p['gamma']!r}\n")


def coefficients(p: dict) -> tuple[float, float, float, float]:
    """(a0, a1, s2, q) with drift a0 + a1 r and squared volatility s2 r^q."""
    f = p["family"]
    if f == "cir":
        return p["alpha"], p["beta"], p["sigma"] ** 2, 1.0
    if f == "vasicek":
        return p["a0"], p["a1"], p["s2"], 0.0
    if f == "dothan":
        return 0.0, p["mu"], p["s2"], 2.0
    return p["alpha"], p["beta"], p["sigma"] ** 2, 2.0 * p["gamma"]


def build_model(bt, p: dict):
    m = bt.model
    f = p["family"]
    if f == "cir":
        return m.make_cir(m.CIRParams(p["alpha"], p["beta"], p["sigma"]))
    if f == "dothan":
        return m.make_dothan(m.DothanParams(p["mu"], math.sqrt(p["s2"])))
    if f == "ckls":
        return m.make_ckls(p["alpha"], p["beta"], p["sigma"], p["gamma"])
    raise ValueError(f)


def write_config(workdir: Path, name: str, p: dict) -> str:
    path = workdir / f"{name}.cfg"
    path.write_text(config_text(p), encoding="utf-8")
    return str(path)


def reference_prices(p: dict, taus, rs) -> list[list[float]]:
    """Reference P[a][m] at (taus[a], rs[m])."""
    f = p["family"]
    if f == "cir":
        return [[ref.cir_price(p["alpha"], p["beta"], p["sigma"], t, r) for r in rs]
                for t in taus]
    if f == "vasicek":
        return [[ref.vasicek_price(p["a0"], p["a1"], p["s2"], t, r) for r in rs]
                for t in taus]
    return ref.LatticeSeries(*coefficients(p), REF_ORDER).prices(taus, rs).tolist()


def stratified(rng, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi], one in each of n equal slices, in seeded order.

    The set of values barely moves with the seed, so neither does the median
    cost of operations whose cost grows with the value.
    """
    slots = list(range(n))
    rng.shuffle(slots)
    return [lo + (hi - lo) * (s + rng.random()) / n for s in slots]


def check(workload, op, output) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    try:
        got = workload.values(op, output)
        want = workload.expectations(op, output)
    except (OutputError, ValueError, IndexError, KeyError) as exc:
        return [f"cannot check: {exc}"]
    return compare(got, want)


def compare(got: dict, want: dict) -> list[str]:
    problems = []
    for label in sorted(set(got) ^ set(want)):
        problems.append(f"{label}: {'unexpected' if label in got else 'missing'}")
    for label, (value, tol) in want.items():
        if label in got and not abs(got[label] - value) <= tol:
            problems.append(f"{label}: got {got[label]!r}, want {value!r} within {tol:g}")
    return problems


# --- quote ---------------------------------------------------------------------

class Quote:
    """Parse four models and price a (tau, r) surface from each log series."""

    name = "quote"
    round_size = 1
    passes = 9
    ops_per_s = 45.0
    # host-speed kernel, calls per sample and samples on each side of an
    # operation (see hostspeed); a sample costs a tenth to a fifth of an
    # operation
    kernel, kernel_units, kernel_window = "python", 2, 1
    families = ("cir", "vasicek", "dothan", "ckls")
    order = 10
    n_tau, n_r = 24, 14
    tau_range = (0.1, 2.0)
    r_range = (0.03, 0.12)
    tol = 1e-8

    def make_ops(self, shape, params, n: int, workdir: Path, tag: str) -> list[dict]:
        ops = []
        for i in range(n):
            models = [draw(params, f) for f in self.families]
            ops.append({
                "params": models,
                "paths": [write_config(workdir, f"{tag}-{i}-{p['family']}", p) for p in models],
                "taus": sorted(shape.uniform(*self.tau_range) for _ in range(self.n_tau)),
                "rs": [sorted(shape.uniform(*rate_range(f, *self.r_range))
                              for _ in range(self.n_r)) for f in self.families],
            })
        return ops

    def probe_paths(self, ops) -> list[str]:
        return ops[0]["paths"]

    def run(self, bt, op) -> dict:
        out = {}
        for p, path, rs in zip(op["params"], op["paths"], op["rs"]):
            model = bt.model.parse_model_config(path)
            series = bt.series.log_coeffs(model, self.order)
            out[p["family"]] = [bt.series.partial_sums(series, tau, r)[-1]
                                for r in rs for tau in op["taus"]]
        return out

    def values(self, op, output) -> dict:
        return {f"{f} price[{k}]": math.exp(v)
                for f in self.families for k, v in enumerate(output[f])}

    def expectations(self, op, output) -> dict:
        want = {}
        for p, rs in zip(op["params"], op["rs"]):
            grid = reference_prices(p, op["taus"], rs)
            k = 0
            for m in range(self.n_r):
                for a in range(self.n_tau):
                    want[f"{p['family']} price[{k}]"] = (grid[a][m], self.tol)
                    k += 1
        return want


# --- deep ----------------------------------------------------------------------

def low_order_expectations(p: dict, r: float, tol: float) -> dict:
    a0, a1, s2, q = coefficients(p)
    mu = a0 + a1 * r
    vol2 = s2 * r ** q
    f = p["family"]
    return {f"{f} price c1": (ref.price_c1(r), tol),
            f"{f} price c2": (ref.price_c2(r, mu), tol),
            f"{f} log f1": (ref.log_f1(r), tol),
            f"{f} log f2": (ref.log_f2(mu), tol),
            f"{f} log f3": (ref.log_f3(mu, a1, vol2), tol)}


class Deep:
    """High-order price and log series of three models, read at a few points."""

    name = "deep"
    orders = tuple(range(24, 31))
    round_size = len(orders)
    passes = 6
    ops_per_s = 3.5
    kernel, kernel_units, kernel_window = "mixed", 1, 1
    families = ("cir", "dothan", "ckls")
    ckls_order = 24
    n_points = 4
    tau_range = (0.25, 2.5)
    r_range = (0.03, 0.12)
    tol = 1e-9
    coeff_tol = 1e-13

    def make_ops(self, shape, params, n: int, workdir: Path, tag: str) -> list[dict]:
        ops = []
        for _ in range(n // self.round_size):
            orders = list(self.orders)
            shape.shuffle(orders)
            for order in orders:
                ops.append({
                    "order": order,
                    "params": [draw(params, f) for f in self.families],
                    "points": [[(shape.uniform(*self.tau_range),
                                 shape.uniform(*rate_range(f, *self.r_range)))
                                for _ in range(self.n_points)] for f in self.families],
                })
        ops[0]["paths"] = [write_config(workdir, f"{tag}-0-{p['family']}", p)
                           for p in ops[0]["params"]]
        return ops

    def probe_paths(self, ops) -> list[str]:
        return ops[0]["paths"]

    def run(self, bt, op) -> dict:
        series, genpoly = bt.series, bt.genpoly
        out = {}
        for p, points in zip(op["params"], op["points"]):
            model = build_model(bt, p)
            order = self.ckls_order if p["family"] == "ckls" else op["order"]
            ps = series.price_coeffs(model, order)
            ls = series.log_coeffs(model, order)
            r0 = points[0][1]
            out[p["family"]] = {
                "price": [series.partial_sums(ps, t, r)[-1] for t, r in points],
                "log": [series.partial_sums(ls, t, r)[-1] for t, r in points],
                "low": [genpoly.evaluate(c, r0) for c in
                        (ps.coeffs[1], ps.coeffs[2], ls.coeffs[1], ls.coeffs[2], ls.coeffs[3])],
            }
        return out

    def values(self, op, output) -> dict:
        got = {}
        for f in self.families:
            o = output[f]
            for k, (pv, lv) in enumerate(zip(o["price"], o["log"], strict=True)):
                got[f"{f} price[{k}]"] = pv
                got[f"{f} exp(log)[{k}]"] = math.exp(lv)
            for name, v in zip(("price c1", "price c2", "log f1", "log f2", "log f3"),
                               o["low"], strict=True):
                got[f"{f} {name}"] = v
        return got

    def expectations(self, op, output) -> dict:
        want = {}
        for p, points in zip(op["params"], op["points"]):
            f = p["family"]
            for k, (t, r) in enumerate(points):
                value = reference_prices(p, [t], [r])[0][0]
                want[f"{f} price[{k}]"] = (value, self.tol)
                want[f"{f} exp(log)[{k}]"] = (value, self.tol)
            want.update(low_order_expectations(p, points[0][1], self.coeff_tol))
        return want


# --- oracle --------------------------------------------------------------------

class Oracle:
    """Default-grid Crank-Nicolson prices, single maturity or checkpointed."""

    name = "oracle"
    kinds = (("cir", "single"), ("dothan", "path"), ("ckls", "single"),
             ("cir", "path"), ("dothan", "single"), ("ckls", "path"),
             ("paper", "path"))
    round_size = len(kinds)
    # cost grows with tau, stratified within a pass; longer passes keep the
    # median cost from moving with the seed
    passes = 3
    ops_per_s = 4.5
    kernel, kernel_units, kernel_window = "lapack", 20, 1
    tau_range = (1.0, 3.0)
    r_range = (0.02, 0.1)
    tol = ref.PAPER_DOTHAN_PRICE_TOL

    def make_ops(self, shape, params, n: int, workdir: Path, tag: str) -> list[dict]:
        rounds = n // self.round_size
        drawn = rounds * (self.round_size - 1)
        taus = stratified(shape, drawn, *self.tau_range)
        r_slices = stratified(shape, drawn, 0.0, 1.0)
        sigma2s = sorted(ref.PAPER_DOTHAN_GRID)
        ops = []
        for i in range(rounds):
            for family, kind in self.kinds:
                if family == "paper":
                    ops.append({"kind": "paper", "s2": sigma2s[i % len(sigma2s)]})
                else:
                    k = len(ops) - i
                    lo, hi = rate_range(family, *self.r_range)
                    ops.append({"kind": kind, "params": draw(params, family),
                                "tau": taus[k], "r": lo + (hi - lo) * r_slices[k]})
        ops[0]["paths"] = [write_config(workdir, f"{tag}-0", ops[0]["params"])]
        return ops

    def probe_paths(self, ops) -> list[str]:
        return ops[0]["paths"]

    def run(self, bt, op) -> dict:
        fd = bt.fdsolver
        if op["kind"] == "paper":
            model = bt.model.make_dothan(
                bt.model.DothanParams(ref.PAPER_DOTHAN_MU, math.sqrt(op["s2"])))
            r = ref.PAPER_DOTHAN_R
            taus = list(ref.PAPER_DOTHAN_GRID_TAUS)
            grid = fd.default_grid(r, taus[-1])
        else:
            model = build_model(bt, op["params"])
            tau, r = op["tau"], op["r"]
            grid = fd.default_grid(r, tau)
            if op["kind"] == "single":
                return {"taus": [tau], "prices": [fd.fd_price_at(fd.fd_solve(model, tau, grid), r)]}
            # a third and two thirds of the way, on step boundaries of the grid
            n_t = grid.n_t
            taus = [tau * (n_t // 3) / n_t, tau * (2 * n_t // 3) / n_t, tau]
        sols = fd.fd_solve_path(model, taus, grid)
        return {"taus": taus, "prices": [fd.fd_price_at(sols[t], r) for t in taus]}

    def values(self, op, output) -> dict:
        return {f"price[{k}]": v for k, v in enumerate(output["prices"])}

    def expectations(self, op, output) -> dict:
        taus = output["taus"]
        if op["kind"] == "paper":
            printed = ref.PAPER_DOTHAN_GRID[op["s2"]]
            if tuple(taus) != ref.PAPER_DOTHAN_GRID_TAUS:
                raise OutputError(f"maturities {taus} are not the paper's")
            return {f"price[{k}]": (v / 100.0, self.tol) for k, v in enumerate(printed)}
        tau = op["tau"]
        if op["kind"] == "single":
            expected = taus == [tau]
        else:
            expected = len(taus) == 3 and 0.0 < taus[0] < taus[1] < taus[2] == tau
        if not expected:
            raise OutputError(f"maturities {taus} do not fit a {op['kind']} solve to tau={tau}")
        prices = reference_prices(op["params"], taus, [op["r"]])
        return {f"price[{k}]": (row[0], self.tol) for k, row in enumerate(prices)}


# --- cli -----------------------------------------------------------------------

# half a unit of the last printed decimal, padded for the method's own error
TOL_6DP = 5e-7 + 1e-9
TOL_5DP = 5e-6 + 1e-8
TOL_FD_6DP = 5e-7 + 5e-7


class Cli:
    """One `python -m bondtaylor.cli` command per operation, in a fresh process."""

    name = "cli"
    commands = ("price", "yield", "coeffs-price", "exact-cir", "price-converge",
                "yield", "coeffs-log", "price", "table", "fd")
    families = {"price": ("cir", "vasicek"), "yield": ("ckls", "cir"),
                "coeffs-price": ("dothan",), "price-converge": ("dothan",),
                "coeffs-log": ("ckls",), "fd": ("cir",), "exact-cir": ("cir",)}
    round_size = len(commands)
    # a pass is at least one rotation of half-second commands; four passes
    # of one rotation meet the 40-operation floor
    passes = 4
    ops_per_s = 2.0
    # one interpreter start varies by a third, so the window is wider
    kernel, kernel_units, kernel_window = "start", 1, 4
    tau_range = (0.25, 2.0)
    r_range = (0.03, 0.12)
    order = 12
    coeff_rs = (0.03, 0.08)
    coeff_tol = 1e-13
    fd_tau = 0.25
    timeout_s = 60.0

    def __init__(self, root: Path, env: dict, tracer=None, spans_dir: Path | None = None):
        """With a tracer, each command runs under cli_launcher.py and its
        spans, written to spans_dir, are merged into the tracer.  Commands
        are started by spawner.py, so that their peak memory is their own;
        call close() when done."""
        self.root = root
        self.env = env
        self.tracer = tracer
        self.spans_dir = spans_dir
        self.peak_rss_kib = 0
        self.runs = 0
        self.spawner = None

    def close(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None

    def make_ops(self, shape, params, n: int, workdir: Path, tag: str) -> list[dict]:
        ops = []
        seen: dict[str, int] = {}
        for i in range(n):
            command = self.commands[i % self.round_size]
            use = seen.get(command, 0)
            seen[command] = use + 1
            choices = self.families.get(command)
            op = {"command": command}
            if choices:
                op["params"] = draw(params, choices[use % len(choices)])
            family = op["params"]["family"] if choices else "cir"
            op["r"] = round(shape.uniform(*rate_range(family, *self.r_range)), 5)
            if command in ("price", "yield"):
                op["taus"] = sorted(round(shape.uniform(*self.tau_range), 4) for _ in range(3))
            elif command in ("exact-cir", "price-converge"):
                op["tau"] = round(shape.uniform(*self.tau_range), 4)
            if choices and command != "exact-cir":
                op["path"] = write_config(workdir, f"{tag}-{i}", op["params"])
            op["argv"] = self.argv(op)
            ops.append(op)
        return ops

    def probe_paths(self, ops) -> list[str]:
        return [ops[0]["path"]]

    def argv(self, op) -> list[str]:
        c, r = op["command"], repr(op["r"])
        if c in ("price", "yield"):
            return [c, "--model", op["path"], "--r", r,
                    "--taus", ",".join(map(repr, op["taus"])), "--order", str(self.order)]
        if c == "coeffs-price":
            return ["coeffs", "--model", op["path"], "--target", "price", "--order", "4"]
        if c == "coeffs-log":
            return ["coeffs", "--model", op["path"], "--target", "logprice", "--order", "3"]
        if c == "exact-cir":
            p = op["params"]
            return ["exact-cir", "--alpha", repr(p["alpha"]), "--beta", repr(p["beta"]),
                    "--sigma", repr(p["sigma"]), "--r", r, "--tau", repr(op["tau"])]
        if c == "price-converge":
            return ["price", "--model", op["path"], "--target", "logprice", "--r", r,
                    "--tau", repr(op["tau"]), "--order", str(self.order), "--converge"]
        if c == "table":
            return ["table", "--id", "cir-converge"]
        return ["fd", "--model", op["path"], "--r", r, "--tau", repr(self.fd_tau)]

    def run(self, bt, op) -> str:
        env = self.env
        self.runs += 1
        if self.tracer is None:
            cmd = [sys.executable, "-m", "bondtaylor.cli", *op["argv"]]
        else:
            spans = self.spans_dir / f"op{self.runs}.json"
            cmd = [sys.executable, str(Path(__file__).parent / "cli_launcher.py"), *op["argv"]]
            env = dict(env, PERFBENCH_SPANS=str(spans))
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, str(Path(__file__).parent / "spawner.py")], cwd=self.root,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        request = {"argv": cmd, "cwd": str(self.root), "env": env, "timeout": self.timeout_s}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        result = json.loads(line)
        self.peak_rss_kib = max(self.peak_rss_kib, result["maxrss_kib"])
        if self.tracer is not None:
            self.tracer.merge_child(json.loads(spans.read_text()))
        if result["status"] != 0:
            raise RuntimeError(f"{' '.join(op['argv'])} exited {result['status']}: "
                               f"{result['stderr'].strip()}")
        return result["stdout"]

    @staticmethod
    def _rows(text: str) -> list[list[str]]:
        lines = text.strip().splitlines()
        if len(lines) < 2:
            raise OutputError(f"expected a header and rows, got {text!r}")
        return [line.split() for line in lines[1:]]

    def values(self, op, output: str) -> dict:
        c = op["command"]
        if c in ("price", "yield"):
            rows = self._rows(output)
            if [float(row[0]) for row in rows] != op["taus"]:
                raise OutputError(f"maturities {[row[0] for row in rows]} != {op['taus']}")
            return {f"{c}[{k}]": float(row[1]) for k, row in enumerate(rows)}
        if c in ("exact-cir", "fd"):
            return {c: float(output)}
        if c == "price-converge":
            (row,) = self._rows(output)
            sums = [float(v) for v in row[1:]]
            if len(sums) != self.order + 1:
                raise OutputError(f"{len(sums)} partial sums, expected {self.order + 1}")
            return {"log order0": sums[0], "log order1": sums[1], "log last": sums[-1]}
        if c in ("coeffs-price", "coeffs-log"):
            polys = {}
            for line in output.strip().splitlines():
                lhs, _, rhs = line.partition(" = ")
                polys[lhs] = ref.parse_poly(rhs)
            names = ("c[1]", "c[2]") if c == "coeffs-price" else ("c[1]", "c[2]", "c[3]")
            return {f"{n} at {r}": ref.eval_poly(polys[n], r)
                    for n in names for r in self.coeff_rs}
        # table --id cir-converge
        lines = output.strip().splitlines()
        summary = lines[-1].split()
        if summary[0] != "cir-converge:" or summary[2:] != ["pass,", summary[3], "flagged,", summary[5], "fail"]:
            raise OutputError(f"summary line {lines[-1]!r}")
        got = {"cells passed": float(summary[1]), "cells flagged": float(summary[3]),
               "cells failed": float(summary[5])}
        for row in lines[1:-1]:
            cells = row.split()
            got[f"{cells[0]} {cells[1]}"] = float(cells[2])
        return got

    def expectations(self, op, output) -> dict:
        c = op["command"]
        r = op["r"]
        if c in ("price", "yield"):
            prices = reference_prices(op["params"], op["taus"], [r])
            if c == "price":
                return {f"price[{k}]": (row[0], TOL_6DP) for k, row in enumerate(prices)}
            return {f"yield[{k}]": (-100.0 * math.log(row[0]) / t, TOL_5DP)
                    for k, (row, t) in enumerate(zip(prices, op["taus"]))}
        if c == "exact-cir":
            p = op["params"]
            return {c: (ref.cir_price(p["alpha"], p["beta"], p["sigma"], op["tau"], r), TOL_6DP)}
        if c == "fd":
            p = op["params"]
            return {c: (ref.cir_price(p["alpha"], p["beta"], p["sigma"], self.fd_tau, r),
                        TOL_FD_6DP)}
        if c == "price-converge":
            tau = op["tau"]
            last = math.log(reference_prices(op["params"], [tau], [r])[0][0])
            return {"log order0": (0.0, TOL_6DP), "log order1": (-r * tau, TOL_6DP),
                    "log last": (last, TOL_6DP)}
        if c in ("coeffs-price", "coeffs-log"):
            p = op["params"]
            want = {}
            for x in self.coeff_rs:
                low = low_order_expectations(p, x, 0.0)
                if c == "coeffs-price":
                    pairs = (("c[1]", "price c1"), ("c[2]", "price c2"))
                else:
                    pairs = (("c[1]", "log f1"), ("c[2]", "log f2"), ("c[3]", "log f3"))
                for name, key in pairs:
                    value = low[f"{p['family']} {key}"][0]
                    want[f"{name} at {x}"] = (value, self.coeff_tol)
            return want
        want = {"cells passed": (16.0, 0.0), "cells flagged": (0.0, 0.0),
                "cells failed": (0.0, 0.0)}
        for k in range(8):
            want[f"order={k} price"] = (ref.PAPER_CIR_CONVERGE_PRICE[k], TOL_6DP)
            want[f"order={k} logprice"] = (ref.PAPER_CIR_CONVERGE_LOG[k], TOL_6DP)
        return want
