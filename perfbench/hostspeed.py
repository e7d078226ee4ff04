"""Host speed: fixed work, timed between operations, that turns wall times
into reference-speed times.

The host this benchmark was built on runs a process up to 1.8 times slower
for phases of seconds to minutes; nothing else runs in the VM, CPU time
tracks wall time, and a fixed loop slows with the workload.  No statistic
within one run undoes a run that falls wholly inside a slow phase.  So the
benchmark times a fixed kernel, which does not touch bondtaylor, right before
and right after every timed operation.  The kernel's time against its
nominal time is the host's speed at that moment, and

    reference time = wall time * nominal / kernel time

is what the operation would take with the host at its nominal speed.  A
change to bondtaylor cannot move a kernel, so it moves reference times as
much as wall times.  Each workload takes the kernel closest to its own work:

    python  pure-Python dict, float and sort work (series evaluation and
            models)
    mixed   the python kernel 16 times and one sort of 41 000 float pairs,
            a working set of a few MiB with the collector off (series
            construction, which builds and sorts large term lists; in a
            slow phase the python kernel alone slows more than series
            construction does, the sort alone less)
    lapack  scipy's banded solve on 2001 nodes (the Crank-Nicolson oracle)
    start   a fresh interpreter that runs `pass` (the CLI and cold starts,
            which are process start and import)

The nominal times are the kernels' typical times on the machine named in
README.md, so reference times read close to wall times there.
"""

from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time


def python_kernel() -> float:
    d: dict[int, float] = {}
    x = 0.0
    for i in range(4000):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0.0) + i * 0.5
        x += math.sqrt(i + 1.0) * 1.0000001
    return x + sorted(d.values())[-1]


_XS = [((i * 7919) % 1009) / 1009.0 for i in range(256)]


def sort_kernel() -> float:
    gc.disable()
    try:
        pairs = [(a * b, a + b) for a in _XS for b in _XS[:160]]
        pairs.sort(key=lambda t: t[1])
        return sum(c for c, _ in pairs)
    finally:
        gc.enable()


def mixed_kernel() -> float:
    return sum(python_kernel() for _ in range(16)) + sort_kernel()


def make_lapack_kernel():
    import numpy as np
    from scipy.linalg import solve_banded

    n = 2001
    bands = np.ones((3, n))
    bands[1] *= 4.0
    rhs = np.linspace(0.0, 1.0, n)

    def lapack_kernel() -> float:
        total = 0.0
        for _ in range(10):
            total += solve_banded((1, 1), bands, rhs, check_finite=False)[n // 2]
        return total

    return lapack_kernel


def start_kernel() -> float:
    return subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                          capture_output=True, check=True, timeout=60).returncode


KERNELS = {"python": lambda: python_kernel, "mixed": lambda: mixed_kernel,
           "lapack": make_lapack_kernel, "start": lambda: start_kernel}
# seconds per kernel call at the nominal host speed
NOMINAL_S = {"python": 1.5e-3, "mixed": 35e-3, "lapack": 0.7e-3, "start": 55e-3}


class HostSpeed:
    """Samples one kernel; each sample is `units` calls, averaged."""

    def __init__(self, kind: str, units: int):
        self.kernel = KERNELS[kind]()
        self.nominal = NOMINAL_S[kind]
        self.units = units
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time a sample and return its index in `samples` (seconds per
        kernel call)."""
        perf = time.perf_counter
        start = perf()
        for _ in range(self.units):
            self.kernel()
        self.samples.append((perf() - start) / self.units)
        return len(self.samples) - 1

    def reference(self, wall: float, i: int, half_width: int = 1) -> float:
        """Reference seconds for `wall` seconds run between samples i and
        i + 1, against the median of the 2 * half_width samples around them.

        A wider window smooths the jitter of single samples (one interpreter
        start varies by a third); the host's phases last seconds.
        """
        near = self.samples[max(0, i + 1 - half_width):i + 1 + half_width]
        return wall * self.nominal / statistics.median(near)
