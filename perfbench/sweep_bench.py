"""The ``design_sweep`` workload: the designer's offline loop, in one process.

Each round runs, through the public functions ``segbus explore`` and
``segbus faults`` call:

(a) ``explore_design_space`` on MP3: segments 1-3 x package sizes 9/18/36
    plus the paper allocations (placement-heavy);
(b) ``explore_design_space(..., estimator_prune=4)`` on 8 generated
    applications: segments 1-4 x sizes 9/18/36;
(c) ``reliability_sweep`` on MP3, 2 segments, package size 8: rates
    0/1e-4/1e-3/1e-2 x 12 fault seeds offset by the workload seed, once
    with ``engine="batch"`` and once with ``engine="fast"``.

The rounds run in a fresh child interpreter (``python sweep_bench.py
--seed N --seconds S``) so set-up time and peak RSS are the program's
own; the parent spawns it, times its set-up and relays its result.
Rankings and emulated times of (a) and (b) are compared with
``pinned.json``; the curves of (c) must match each other and a
stepped-engine reference run made after the timed rounds, and a curve
over a fixed fault-seed set must match its pinned SHA-256.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from common import (
    PROGRAM_CPUS,
    REFERENCE_CALIB_MS,
    ROOT,
    calibrate,
    child_env,
    host_factor,
    own_peak_rss_mb,
    pin,
)

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"
SETUPS = 5
#: generator seed of the 8 applications of part (b); fixed so that their
#: rankings can be pinned and the estimator error is deterministic
APPS_SEED = 1000
APPS = 8
SEGMENTS_A = (1, 2, 3)
SEGMENTS_B = (1, 2, 3, 4)
SIZES = (9, 18, 36)
PRUNE = 4
RATES = (0.0, 1e-4, 1e-3, 1e-2)
FAULT_SEEDS = 12
#: fault seeds of the curve whose digest is pinned (workload seed 0's)
PINNED_FAULT_SEEDS = tuple(range(1, FAULT_SEEDS + 1))
#: checked operations per round: (a), each application of (b), 2 curves
OPERATIONS = 1 + APPS + 2
#: the calls of a round that make (a)+(b), (c) and the whole round
AB_OPS = slice(0, 1 + APPS)
C_OPS = slice(1 + APPS, OPERATIONS)
ALL_OPS = slice(0, OPERATIONS)


# -- the child: the program under test, in one process ---------------------------


class Sweep:
    """Inputs and one measured round of the three parts."""

    def __init__(self, seed: int) -> None:
        from repro.testing.generators import generate_models

        self.models = list(generate_models(APPS, base_seed=APPS_SEED))
        self.fault_seeds = tuple(seed * FAULT_SEEDS + k for k in range(1, FAULT_SEEDS + 1))

    def part_a(self):
        from repro.analysis.dse import explore_design_space
        from repro.apps.mp3 import (
            PAPER_CA_FREQUENCY_MHZ,
            mp3_decoder_psdf,
            paper_allocation,
            paper_segment_frequencies_mhz,
        )

        return explore_design_space(
            mp3_decoder_psdf(),
            segment_counts=SEGMENTS_A,
            package_sizes=SIZES,
            segment_frequencies_mhz=paper_segment_frequencies_mhz,
            ca_frequency_mhz=PAPER_CA_FREQUENCY_MHZ,
            extra_allocations=[
                (f"paper[{n}seg]", paper_allocation(n)) for n in SEGMENTS_A
            ],
            workers=1,
        )

    def part_b(self, model) -> list:
        from repro.analysis.dse import explore_design_space

        return explore_design_space(
            copy.deepcopy(model.application),  # cold per-graph caches
            segment_counts=SEGMENTS_B,
            package_sizes=SIZES,
            segment_frequencies_mhz=lambda n: [100.0] * n,
            ca_frequency_mhz=111.0,
            estimator_prune=PRUNE,
            workers=1,
        )

    def part_c(self, engine: str, seeds: Sequence[int] = ()):
        from repro.analysis.reliability import reliability_sweep
        from repro.apps.mp3 import mp3_decoder_psdf, paper_platform

        return reliability_sweep(
            mp3_decoder_psdf(),
            paper_platform(2, package_size=8),
            rates=RATES,
            seeds=seeds or self.fault_seeds,
            engine=engine,
            workers=1,
        )

    def round(self) -> dict:
        op_s: List[float] = []
        factors: List[float] = []
        calib_ms = [calibrate(rounds=1)]

        def timed(call, *args):
            start = time.perf_counter()
            value = call(*args)
            op_s.append(time.perf_counter() - start)
            calib_ms.append(calibrate(rounds=1))
            factors.append((calib_ms[-2] + calib_ms[-1]) / 2.0 / REFERENCE_CALIB_MS)
            return value

        a = timed(self.part_a)
        b = [timed(self.part_b, model) for model in self.models]
        curves = [timed(self.part_c, "batch"), timed(self.part_c, "fast")]
        designs = len(a) + sum(len(points) for points in b)
        return {
            "calib_ms": statistics.median(calib_ms),
            "op_s": op_s,
            "factors": factors,
            "peak_rss_mb": own_peak_rss_mb(),
            "designs": designs,
            "fault_points": len(RATES) * FAULT_SEEDS * len(curves),
            "a": ranking(a),
            "b": [ranking(points) for points in b],
            "curves": [curve_digest(c) for c in curves],
            "baseline_fs": [round(c.baseline_execution_time_us * 1e9) for c in curves],
            "errors": [
                abs(p.estimated_us - p.execution_time_us) / p.execution_time_us
                for points in b
                for p in points
            ],
        }


def ranking(points) -> list:
    return [
        [p.allocation_source, p.segment_count, p.package_size, p.report.execution_time_fs]
        for p in points
    ]


def curve_digest(curve) -> str:
    """SHA-256 of the curve's canonical JSON export."""
    return hashlib.sha256(curve.to_json().encode("utf-8")).hexdigest()


def check_round(rnd: dict, pinned: dict, reference: str) -> int:
    """Failed operations of one round: (a), 8 x (b), 2 x (c)."""
    failed = int(rnd["a"] != pinned["a"])
    failed += sum(1 for got, want in zip(rnd["b"], pinned["b"]) if got != want)
    failed += sum(
        1
        for digest, base in zip(rnd["curves"], rnd["baseline_fs"])
        if digest != reference or base != pinned["baseline_fs"]
    )
    return failed


def child(seed: int, seconds: float, trace: bool, setup_only: bool, tamper: bool) -> dict:
    # one CPU: the loop is single-threaded, and a migration costs it caches
    pin(0, PROGRAM_CPUS)
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from repro.analysis.dse import explore_design_space
    from repro.apps.mp3 import mp3_decoder_psdf

    explore_design_space(  # the warm-up job
        mp3_decoder_psdf(),
        segment_counts=(1,),
        package_sizes=(36,),
        segment_frequencies_mhz=lambda n: [100.0] * n,
        ca_frequency_mhz=111.0,
        workers=1,
    )
    print("ready", flush=True)
    if setup_only:
        return {}
    sweep = Sweep(seed)
    half = seconds / 2.0 if trace else seconds
    plain = timed_rounds(sweep, half)
    rounds = plain
    if trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
        recorder.reset()
        traced = timed_rounds(sweep, half)
        rounds = plain + traced
        metrics = sweep_layers(recorder, traced, plain)
    else:
        metrics = {
            "p50_ms": statistics.median(
                t * 1e3 for r in plain for t in scaled(r, ALL_OPS)
            ),
            "throughput_per_s": median_rate(plain, ("designs", "fault_points"), ALL_OPS),
            # later rounds grow the program's caches by a few MB, unevenly
            "peak_rss_mb": plain[0]["peak_rss_mb"],
        }
    errors = plain[0]["errors"]
    reference = curve_digest(sweep.part_c("stepped"))
    fixed = curve_digest(sweep.part_c("batch", PINNED_FAULT_SEEDS))
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    if tamper:
        pinned["a"][0][3] += 1
    return {
        "attempted": len(rounds) * OPERATIONS + 1,
        "failed": sum(check_round(rnd, pinned, reference) for rnd in rounds)
        + int(fixed != pinned["curve_sha256"]),
        "metrics": metrics,
        "info": {
            "rounds": len(plain),
            "peak_rss_mb.all_rounds": own_peak_rss_mb(),
            "round.calib_ms": statistics.median(r["calib_ms"] for r in plain),
            "designs_per_s": median_rate(plain, ("designs",), AB_OPS),
            "fault_points_per_s": median_rate(plain, ("fault_points",), C_OPS),
            "estimator_error_pct": 100.0 * sum(errors) / len(errors),
            "throughput_per_s.measured": median_rate(
                plain, ("designs", "fault_points"), ALL_OPS, normalized=False
            ),
        },
    }


def scaled(rnd: dict, ops: slice, normalized: bool = True) -> List[float]:
    """Seconds of the round's calls ``ops``, at the reference host speed.

    Each call is bracketed by the calibration loop, and its time divided
    by the mean loop time on either side over ``REFERENCE_CALIB_MS``: the
    calls are single-threaded Python, like the loop, so this removes the
    host's speed drift.
    """
    pairs = zip(rnd["op_s"][ops], rnd["factors"][ops])
    return [t / f if normalized else t for t, f in pairs]


def median_rate(rounds: Sequence[dict], work: Sequence[str], ops: slice,
                normalized: bool = True) -> float:
    """Median per-round rate of ``work`` items over the calls ``ops``."""
    return statistics.median(
        sum(r[w] for w in work) / sum(scaled(r, ops, normalized)) for r in rounds
    )


def timed_rounds(sweep: Sweep, seconds: float) -> List[dict]:
    """Whole rounds that fit in ``seconds`` (at least two).

    Rates are medians over rounds, so the first round's lazy imports
    and cold caches do not move them.
    """
    rounds: List[dict] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or (
        time.perf_counter() + sum(rounds[-1]["op_s"]) <= deadline
    ):
        rounds.append(sweep.round())
    return rounds


def sweep_layers(recorder, traced: Sequence[dict], plain: Sequence[dict]) -> Dict[str, float]:
    """Per-layer figures of the traced rounds; the wall is their summed time."""
    import tracer

    snapshot = recorder.snapshot()
    wall_ms = sum(sum(r["op_s"]) for r in traced) * 1e3
    layers = tracer.layer_metrics(
        tracer.self_times(snapshot["spans"]), snapshot["counts"], wall_ms
    )
    layers["gen.sent"] = float(len(traced) * OPERATIONS)
    layers["gen.lateness_p99_ms"] = 0.0
    untraced = statistics.median(sum(r["op_s"]) for r in plain)
    with_trace = statistics.median(sum(r["op_s"]) for r in traced)
    layers["trace.overhead_pct"] = 100.0 * (with_trace - untraced) / untraced
    return layers


# -- the parent: spawn, time set-up, relay ------------------------------------------


def spawn(args: List[str]) -> Tuple[subprocess.Popen, float]:
    """Start a child; seconds until it reports its warm-up job answered."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sweep_bench.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("design_sweep child failed before its warm-up job")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout_s: float) -> str:
    """The child's stdout once it exits; it never outlives this call."""
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def design_sweep(seed: int, seconds: float, trace: bool, tamper: bool) -> dict:
    # each set-up time divided by the host factor taken just before it
    setups: List[float] = []
    for _ in range(SETUPS - 1):
        factor = host_factor()
        proc, setup_s = spawn(["--setup-only"])
        finish(proc, 60)
        setups.append(setup_s / factor)
    args = ["--seed", str(seed), "--seconds", repr(seconds)]
    if trace:
        args.append("--trace")
    if tamper:
        args.append("--tamper")
    factor = host_factor()
    proc, setup_s = spawn(args)
    setups.append(setup_s / factor)
    out = finish(proc, 170)
    if proc.returncode != 0:
        raise RuntimeError(f"design_sweep child exited {proc.returncode}")
    data = json.loads(out.strip().splitlines()[-1])
    if not trace:
        data["metrics"]["setup_s"] = statistics.median(setups)
    return data


def write_pins() -> None:
    """Re-pin (a)/(b) rankings and the (c) baseline and curve digest."""
    sys.path.insert(0, str(HERE.parent / "src"))
    sweep = Sweep(seed=0)
    assert sweep.fault_seeds == PINNED_FAULT_SEEDS
    rnd = sweep.round()
    pinned = {
        "a": rnd["a"],
        "b": rnd["b"],
        "baseline_fs": rnd["baseline_fs"][0],
        "curve_sha256": rnd["curves"][0],
    }
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin pinned.json after an intended change")
    args = parser.parse_args(argv)
    if args.write_pins:
        write_pins()
        return 0
    data = child(args.seed, args.seconds, args.trace, args.setup_only, args.tamper)
    if data:
        print(json.dumps(data), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
