"""Smoke check of the benchmark itself (about two minutes on a two-core host).

    python3 perfbench/smoke.py

Runs every workload at minimal size, untraced and traced, and asserts
that every metric ``BENCHMARK.json`` names is printed with its unit; that a deliberately wrong expected value is reported as a failed
operation with a non-zero exit; and that a checkout without the program
source exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"

WORKLOADS = ("serve_unique", "design_sweep")


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads differ")
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        proc, result = run(workload, 0)
        check(proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}")
        check(result is not None and result["correct"], f"{workload}: no correct result")
        check(result["attempted"] >= 1 and result["failed"] == 0, f"{workload}: counts")
        check(set(result["metrics"]) == e2e_names,
              f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        for name, metric in result["metrics"].items():
            check(metric["unit"] == units[name], f"{workload}: {name} unit {metric['unit']}")
            check(metric["value"] > 0, f"{workload}: {name} is not positive")
        proc, result = run(workload, 1)
        check(proc.returncode == 0, f"{workload} traced: exit {proc.returncode}\n{proc.stderr}")
        check(result is not None and set(result["metrics"]) == layer_names,
              f"{workload} traced: per-layer metrics differ from BENCHMARK.json")
        for name, metric in result["metrics"].items():
            check(metric["unit"] == units[name], f"{workload} traced: {name} unit")
        proc, result = run(workload, 0, "--tamper")
        check(proc.returncode == 1, f"{workload} tampered: exit {proc.returncode}")
        check(result is not None and not result["correct"] and result["failed"] >= 1,
              f"{workload} tampered: wrong expected value not reported as failed")
        print(f"smoke: {workload} ok", flush=True)
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for workload in WORKLOADS:
        proc, result = run(workload, 0, cwd=bare)
        check(proc.returncode != 0 and result is None,
              f"{workload}: ran without the program source")
    shutil.rmtree(bare, ignore_errors=True)
    print("smoke: no-source checkout refused ok")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
