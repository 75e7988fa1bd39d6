"""Shared helpers: repository paths, percentiles, host calibration, RSS."""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: per-run artifacts (span dumps, server logs, detailed results)
OUT = ROOT / ".perfbench"


class SourceMissing(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def require_source() -> None:
    """Put ``src`` on the path, or fail when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for program processes: ``src`` importable, no engine pin."""
    env = dict(os.environ)
    env.pop("SEGBUS_ENGINE", None)
    env.pop("SEGBUS_CHAOS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: calibration loop time (:func:`calibrate`) of the reference host that the
#: sweep's rates and serve_unique's figures are reported at; a shared host
#: drifts 35-70 ms
REFERENCE_CALIB_MS = 50.0


def calibrate(rounds: int = 5) -> float:
    """Median ms of a fixed pure-Python loop, timed in this process.

    It lets figures from another host be read against host speed, and
    scales the figures that are reported at the reference host speed.
    """
    samples: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


#: with two or more CPUs the program under test runs on one and the load
#: generator on the others, so neither migrates and the generator never
#: takes the program's core.  The served figures are therefore those of a
#: server on one CPU (with CLI defaults it is one process, so only GIL-free
#: work could use a second one)
ALL_CPUS = frozenset(os.sched_getaffinity(0))
PROGRAM_CPUS = frozenset({min(ALL_CPUS)}) if len(ALL_CPUS) >= 2 else ALL_CPUS
LOAD_CPUS = ALL_CPUS - PROGRAM_CPUS if len(ALL_CPUS) >= 2 else ALL_CPUS


def pin(pid: int, cpus: frozenset) -> None:
    """Restrict ``pid`` (0: this thread and the threads it starts later)."""
    os.sched_setaffinity(pid, cpus)


def host_factor() -> float:
    """The host's slowness on the program's CPU, 1.0 at the reference host.

    The calibration loop's time over ``REFERENCE_CALIB_MS``, taken while
    the program idles.
    """
    pin(0, PROGRAM_CPUS)
    try:
        return calibrate(rounds=1) / REFERENCE_CALIB_MS
    finally:
        pin(0, ALL_CPUS)


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
