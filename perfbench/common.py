"""Helpers shared by the workloads: paths, child processes, statistics."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a child that failed)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], timeout: float = 170.0) -> str:
    """Run ``channelrank <args>`` from this checkout's sources; returns stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "channelrank.cli", *args],
        env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"channelrank {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter importing channelrank."""
    laps = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import channelrank.cli"],
            env=child_env(), check=True, timeout=60,
        )
        laps.append(time.perf_counter() - t0)
    return statistics.median(laps)


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> str:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


REFERENCE_KERNEL_S = 0.004


class Speedometer:
    """Times a fixed calibration kernel to track how fast the machine runs now.

    The benchmark shares its machine, whose speed drifts by tens of percent
    over seconds to minutes. The kernel (a sort, a Python loop and small
    numpy operations, nothing from channelrank) slows down with it, so a time
    measured between kernel samples is reported as ``raw * scale(...)``: the
    time on a machine where the kernel takes REFERENCE_KERNEL_S.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._big = rng.random(40_000)
        self._small = rng.random(100)

    def kernel(self) -> float:
        """Seconds for one run of the kernel."""
        t0 = time.perf_counter()
        for _ in range(4):
            np.sort(self._big)
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(200):
            (self._small * 2.0 + 1.0).sum()
        return time.perf_counter() - t0

    def bracket(self, repeats: int = 24) -> float:
        """Mean kernel time over ``repeats`` runs spread over every allowed CPU.

        The CPUs of a shared machine slow down independently, and the work
        between brackets (child processes, a server) runs on any of them.
        """
        allowed = os.sched_getaffinity(0)
        per_cpu = max(repeats // len(allowed), 1)
        times = []
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                self.kernel()  # warms this CPU's caches; not counted
                times.extend(self.kernel() for _ in range(per_cpu))
        finally:
            os.sched_setaffinity(0, allowed)
        return sum(times) / len(times)

    @staticmethod
    def scale(*kernel_times: float) -> float:
        """REFERENCE_KERNEL_S over the mean of the given kernel times."""
        return REFERENCE_KERNEL_S * len(kernel_times) / sum(kernel_times)


@dataclass(slots=True)
class Outcome:
    """What one workload run produced, before it is printed."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gate_failures: list[str] = field(default_factory=list)
    op_failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def gate(self, ok: bool, what: str) -> bool:
        """Count one correctness check; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.gate_failures.append(what)
        return ok

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation whose failure is not a wrong output (a refused
        or dropped request, say): it counts as failed but leaves ``correct``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.op_failures.append(what)
        return ok
