"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``serve_unique`` drives a ``segbus serve`` subprocess over
HTTP; ``design_sweep`` runs the offline design loop in a fresh
interpreter.  With ``--trace 0`` the last stdout line carries every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries
every per-layer metric, the self times and counts of a traced run.  Lines before it give a
readable summary, the host calibration loop and ``nproc``.

Exit status: 0 when every operation was answered correctly; 1 when any
operation failed or returned a wrong result, or the run broke off with a
traceback; 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT, SourceMissing, calibrate, require_source  # noqa: E402

WORKLOADS = ("serve_unique", "design_sweep")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tamper: bool) -> dict:
    if name == "design_sweep":
        from sweep_bench import design_sweep

        return design_sweep(seed, seconds, trace, tamper)
    import serve_bench

    return getattr(serve_bench, name)(seed, seconds, trace, tamper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tamper", action="store_true",
        help="self-test: corrupt one expected value; the run must fail",
    )
    args = parser.parse_args(argv)
    try:
        require_source()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("SEGBUS_ENGINE", None)
    os.environ.pop("SEGBUS_CHAOS", None)
    # a stop request unwinds like an error, so every child is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tamper
    )
    calib_ms = calibrate()
    values = dict(result["metrics"])
    if args.trace:
        values["host.calib_ms"] = calib_ms
        values["host.nproc"] = float(os.cpu_count() or 1)
    units = metric_units(bool(args.trace))
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in sorted(values)
    }
    failed = int(result["failed"])
    attempted = int(result["attempted"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed, "
          f"{time.perf_counter() - started:.1f} s")
    print(f"host: nproc {os.cpu_count()}, calibration loop {calib_ms:.2f} ms")
    for key, value in sorted(result.get("info", {}).items()):
        print(f"  {key} = {value}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(summary, workload=args.workload, seed=args.seed,
                  info=result.get("info", {}), calib_ms=calib_ms,
                  nproc=os.cpu_count())
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    print(json.dumps(summary), flush=True)
    return 0 if failed == 0 else 1


def metric_units(trace: bool) -> dict:
    """Units of the metrics a run prints, as ``BENCHMARK.json`` names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
