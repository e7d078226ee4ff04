"""Spans around bondtaylor's public functions, recorded from outside the package.

`Tracer.install` replaces each function named in TRACED with a wrapper, in its
own module and in every other loaded bondtaylor module that imported it by
name (``from .series import price_coeffs`` in ``cli`` and ``tables``).  Each
call records a span (name, start, end, parent span, operation index) in
memory and adds its duration, minus the time its child spans cover, to the
function's self time.  Counts of work done (terms, points, steps) are
recorded at the same boundaries.

Spans are kept in flat arrays and written out once, at the end of the run.
Past SPAN_CAP spans only the totals are kept, so a long traced run cannot
exhaust memory; the written file says how many spans it left out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

TRACED = {
    "genpoly": ("mul", "add", "scale", "derivative", "canonicalize", "evaluate"),
    "series": ("price_coeffs", "log_coeffs", "partial_sums"),
    "model": ("parse_model_config", "check_vol2_nonnegative"),
    "fdsolver": ("fd_solve", "fd_solve_path", "fd_price_at"),
    "closedform": ("cir_exact_price",),
    "tables": ("build_table",),
    "cli": ("main", "cmd_coeffs", "cmd_price", "cmd_yield", "cmd_exact_cir",
            "cmd_fd", "cmd_table"),
}

SPAN_CAP = 400_000


def _count_mul(counts, args, kwargs, result):
    a, b = args
    counts["genpoly.mul.raw_terms"] += len(a.terms) * len(b.terms)


def _count_canonicalize(counts, args, kwargs, result):
    counts["genpoly.canonicalize.terms_in"] += len(args[0])
    counts["genpoly.canonicalize.terms_out"] += len(result.terms)


def _count_evaluate(counts, args, kwargs, result):
    counts["genpoly.evaluate.terms"] += len(args[0].terms)


def _count_series(counts, args, kwargs, result):
    counts["series.coeff_terms"] += sum(len(c.terms) for c in result.coeffs)


def _count_points(counts, args, kwargs, result):
    counts["series.points"] += 1


def _count_march(counts, args, kwargs, result):
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    if isinstance(result, dict) or result.tau_final > 0.0:
        counts["fdsolver.steps"] += grid.n_t
        counts["fdsolver.node_steps"] += grid.n_t * (grid.n_r + 1)


_COUNTERS = {
    "genpoly.mul": _count_mul,
    "genpoly.canonicalize": _count_canonicalize,
    "genpoly.evaluate": _count_evaluate,
    "series.price_coeffs": _count_series,
    "series.log_coeffs": _count_series,
    "series.partial_sums": _count_points,
    "fdsolver.fd_solve": _count_march,
    "fdsolver.fd_solve_path": _count_march,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.op = -1
        # one frame per open span: [span index or -1, time covered by children]
        self.stack: list[list] = [[-1, 0.0]]

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            return len(self.names) - 1

    def _open(self, nid: int, start: float) -> list:
        if len(self.span_start) < SPAN_CAP:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(start)
            self.span_parent.append(self.stack[-1][0])
            self.span_op.append(self.op)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - frame[1]
        self.stack[-1][1] += dur
        if frame[0] >= 0:
            self.span_end[frame[0]] = end

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        counter = _COUNTERS.get(name)
        counts = self.counts
        perf = time.perf_counter
        open_, close = self._open, self._close
        canonical = name == "genpoly.canonicalize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if canonical and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            start = perf()
            frame = open_(nid, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(nid, frame, start, perf())
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function of the bondtaylor modules loaded now."""
        originals = {}
        for short, funcs in TRACED.items():
            mod = sys.modules.get(f"bondtaylor.{short}")
            if mod is None:
                continue
            for func in funcs:
                fn = getattr(mod, func)
                originals[id(fn)] = self.wrap(f"{short}.{func}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "bondtaylor" and not modname.startswith("bondtaylor."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    @contextmanager
    def span(self, name: str):
        """A span around the block, e.g. one benchmark operation or an import."""
        nid = self.name_id(name)
        start = time.perf_counter()
        frame = self._open(nid, start)
        try:
            yield
        finally:
            self._close(nid, frame, start, time.perf_counter())

    def merge_child(self, data: dict) -> None:
        """Fold in the spans a child process recorded (see `dump_child`)."""
        for name, calls, self_s in zip(data["names"], data["calls"], data["self_s"]):
            nid = self.name_id(name)
            self.calls[nid] += calls
            self.self_s[nid] += self_s
        for key, value in data["counts"].items():
            self.counts[key] += value
        parent_frame = self.stack[-1]
        base = len(self.span_start)
        for name, start, end, parent, _op in data["spans"]:
            if parent < 0:
                parent_frame[1] += end - start
            if len(self.span_start) >= SPAN_CAP:
                self.dropped += 1
                continue
            self.span_name.append(self.name_id(name))
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent_frame[0] if parent < 0 else base + parent)
            self.span_op.append(self.op)
        self.dropped += data["dropped"]

    def dump_child(self, path: str) -> None:
        spans = [[self.names[n], s, e, p, o] for n, s, e, p, o in
                 zip(self.span_name, self.span_start, self.span_end,
                     self.span_parent, self.span_op)]
        data = {"names": self.names, "calls": self.calls, "self_s": self.self_s,
                "counts": self.counts, "spans": spans, "dropped": self.dropped}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept: {len(self.span_start)}, left out past the "
                     f"cap: {self.dropped}\nname,start,end,parent,op\n")
            for n, s, e, p, o in zip(self.span_name, self.span_start,
                                     self.span_end, self.span_parent, self.span_op):
                fh.write(f"{self.names[n]},{s!r},{e!r},{p},{o}\n")

    def totals(self) -> tuple[dict, dict, dict]:
        """(calls by name, self seconds by name, counts)."""
        return (dict(zip(self.names, self.calls)),
                dict(zip(self.names, self.self_s)), dict(self.counts))

