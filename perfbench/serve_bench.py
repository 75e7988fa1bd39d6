"""The served workload ``serve_unique``: every payload distinct, uncached.

It drives a real ``segbus serve`` subprocess, started with CLI defaults
and without ``SEGBUS_ENGINE``, over at most two keep-alive connections
from this one process.  Every served body is compared byte for byte with
the library's own answer for the same payload, computed in this process
after the timed phase (:func:`corpus.expected_bytes`).
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

import corpus
import tracer
from common import (
    BENCH_DIR,
    LOAD_CPUS,
    OUT,
    PROGRAM_CPUS,
    ROOT,
    child_env,
    host_factor,
    median,
    percentile,
    pin,
    process_peak_rss_mb,
)

CONNECTIONS = 2
#: the open loop's sender wakes this early and spins until the due time
SPIN_S = 0.002
#: light and busy alternate this many times, so that both rates sample
#: the whole run rather than one stretch of a host whose speed drifts
CYCLES = 8
SETUPS = 5
LIGHT_RPS = 40.0
#: 100 req/s sits at 80-130 % of the one-CPU server's capacity for unique
#: jobs (75-125 req/s as the host's speed drifts), where latency swings widely
BUSY_RPS = 60.0
#: closed-loop throughput is the interquartile mean of the completion rate
#: over runs of this many answers, so a short stall of a shared host moves
#: it less than a plain mean would
RATE_CHUNK = 64
#: payloads prepared per second of a saturation segment (the one-CPU
#: server completes 100-220 uncached req/s)
SATURATION_CAP_RPS = 400
#: generated models the payloads are drawn from; the pool is the same for
#: every seed (the seed draws models, kinds and names from it) so that the
#: mean job cost does not move with the seed
POOL_MODELS = 128
POOL_SEED = 100_000
HEADERS = {"Content-Type": "application/json"}


# -- the server process ---------------------------------------------------------

class Server:
    """One ``segbus serve`` subprocess on an ephemeral port."""

    def __init__(self, trace_path: Optional[str] = None) -> None:
        OUT.mkdir(exist_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "serve_boot.py")]
        if trace_path is not None:
            cmd += ["--trace-out", trace_path]
        cmd += ["serve", "--port", "0"]
        self.trace_path = trace_path
        self.started = time.perf_counter()
        self._log = open(OUT / "server.log", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log,
        )
        pin(self.proc.pid, PROGRAM_CPUS)
        banner = self._read_banner(timeout_s=60.0)
        url = urlsplit(banner.split("serving on ", 1)[1].strip())
        self.host, self.port = url.hostname, url.port

    def _read_banner(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if "serving on " in line:
                    return line
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("segbus serve did not come up (see .perfbench/server.log)")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def post(self, conn: http.client.HTTPConnection, body: bytes) -> Tuple[int, bytes]:
        conn.request("POST", "/v1/jobs", body=body, headers=HEADERS)
        response = conn.getresponse()
        return response.status, response.read()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def dump_trace(self) -> dict:
        """Ask the traced server for its spans so far (and a fresh start)."""
        assert self.trace_path is not None
        if os.path.exists(self.trace_path):
            os.remove(self.trace_path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(self.trace_path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server wrote no span dump")
            time.sleep(0.02)
        with open(self.trace_path, encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def boot(warmups: Sequence[bytes], trace_path: Optional[str] = None) -> Tuple[Server, float]:
    """Start a server; seconds from spawn until the first warm-up answer."""
    server = Server(trace_path)
    try:
        conn = server.connect()
        status, _ = server.post(conn, warmups[0])
        setup_s = time.perf_counter() - server.started
        if status != 200:
            raise RuntimeError(f"warm-up job answered {status}")
        for body in warmups[1:]:
            status, _ = server.post(conn, body)
            if status != 200:
                raise RuntimeError(f"warm-up job answered {status}")
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, setup_s


def boot_median(warmups: Sequence[bytes]) -> Tuple[Server, float]:
    """Set up ``SETUPS`` times; keep the last server, report the median.

    Each set-up time is divided by the host factor taken just before it.
    """
    times: List[float] = []
    for attempt in range(SETUPS):
        factor = host_factor()
        server, setup_s = boot(warmups)
        times.append(setup_s / factor)
        if attempt < SETUPS - 1:
            server.stop()
    return server, median(times)


# -- load drivers ------------------------------------------------------------------


@dataclass
class Outcome:
    """Per-request records of one driven phase."""

    pids: List[int] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)  # send -> answer
    lateness_s: List[float] = field(default_factory=list)
    #: payload id -> first body served for it
    bodies: Dict[int, bytes] = field(default_factory=dict)
    elapsed_s: float = 0.0
    #: closed loop: completion rate over each run of RATE_CHUNK answers
    chunk_rps: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.status)

    def latencies_ms(self) -> List[float]:
        """Latency per request; a failed request misses every limit."""
        return [
            lat * 1e3 if status == 200 else float("inf")
            for status, lat in zip(self.status, self.latency_s)
        ]


def open_loop(server: Server, bodies: Sequence[bytes], arrivals_s: Sequence[float],
              first_id: int = 0) -> Outcome:
    """Send ``bodies[i]`` at ``arrivals_s[i]``; latency counts from that time."""
    count = len(bodies)
    records: List[Optional[tuple]] = [None] * count
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05

    def worker() -> None:
        pin(0, LOAD_CPUS)
        conn = server.connect()
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= count:
                        return
                    cursor[0] += 1
                due = t0 + arrivals_s[i]
                delay = due - time.perf_counter() - SPIN_S
                if delay > 0:
                    time.sleep(delay)
                while time.perf_counter() < due:
                    pass  # a sleep overshoots by the host's wake-up delay
                sent = time.perf_counter()
                try:
                    status, data = server.post(conn, bodies[i])
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                    conn.close()
                    conn = server.connect()
                records[i] = (status, data, due, sent, time.perf_counter())
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out = Outcome(elapsed_s=time.perf_counter() - t0)
    for i, (status, data, due, sent, done) in enumerate(records):
        out.pids.append(first_id + i)
        out.status.append(status)
        out.latency_s.append(done - due)
        out.service_s.append(done - sent)
        out.lateness_s.append(sent - due)
        out.bodies[first_id + i] = data
    return out


def closed_loop(server: Server, plan: Sequence[int], bodies: Dict[int, bytes],
                seconds: float) -> Outcome:
    """``CONNECTIONS`` clients walk the plan back to back for ``seconds``."""
    lock = threading.Lock()
    cursor = [0]
    out = Outcome()
    stop_at = time.perf_counter() + seconds
    per_thread: List[List[tuple]] = []

    def worker() -> None:
        pin(0, LOAD_CPUS)
        conn = server.connect()
        local: List[tuple] = []
        per_thread.append(local)
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    i = cursor[0]
                    if i >= len(plan):
                        return
                    cursor[0] += 1
                pid = plan[i]
                sent = time.perf_counter()
                try:
                    status, data = server.post(conn, bodies[pid])
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                    conn.close()
                    conn = server.connect()
                local.append((pid, status, data, sent, time.perf_counter()))
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.elapsed_s = time.perf_counter() - started
    finished: List[float] = []
    for local in per_thread:
        for pid, status, data, sent, done in local:
            out.pids.append(pid)
            out.status.append(status)
            out.latency_s.append(done - sent)
            out.service_s.append(done - sent)
            out.lateness_s.append(0.0)
            finished.append(done)
            if status == 200:
                out.bodies[pid] = data
    finished.sort()
    out.chunk_rps = [
        RATE_CHUNK / (finished[i + RATE_CHUNK] - finished[i])
        for i in range(0, len(finished) - RATE_CHUNK, RATE_CHUNK)
    ] or [out.attempted / out.elapsed_s]  # fewer completions than a chunk
    return out


def middle_mean(values: Sequence[float]) -> float:
    """Mean of the values between the first and third quartile."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


def poisson_arrivals(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


# -- verification -----------------------------------------------------------------


def verify(payloads: Dict[int, bytes], outcome: Outcome, tamper: bool) -> int:
    """Failed operations: non-200s plus bodies that differ from expected."""
    ids = sorted(outcome.bodies)
    expected = [corpus.expected_bytes(payloads[i]) for i in ids]
    if tamper and expected:
        expected[0] = expected[0][:-1] + b" "
    bad = {
        pid for pid, want in zip(ids, expected) if outcome.bodies[pid] != want
    }
    return sum(
        1
        for pid, status in zip(outcome.pids, outcome.status)
        if status != 200 or pid in bad
    )


# -- shared pieces ------------------------------------------------------------------


def warmup_payloads(pool: corpus.ModelPool) -> List[bytes]:
    """One job of each kind, on a model no measured payload uses."""
    return [
        corpus.encode(pool.payload(0, "warmup", kind, None))
        for kind in ("emulate", "estimate", "lint")
    ]


def tails(prefix: str, out: Outcome) -> Dict[str, float]:
    """Tail percentiles, printed but not gated (see README: too few samples)."""
    lat = out.latencies_ms()
    return {
        f"{prefix}samples": len(lat),
        f"{prefix}p90_ms": percentile(lat, 90),
        f"{prefix}p99_ms": percentile(lat, 99),
    }


def layer_metrics(snapshot: dict, outs: Sequence[Outcome]) -> Dict[str, float]:
    """Per-layer figures of one traced phase (server spans + client view).

    The wall is the summed client-side request time (send to answer).
    """
    selfs, wait_ns = tracer.serve_breakdown(snapshot)
    wall_ms = sum(sum(o.service_s) for o in outs) * 1e3
    metrics = tracer.layer_metrics(selfs, snapshot["counts"], wall_ms, wait_ns)
    metrics["gen.sent"] = float(sum(o.attempted for o in outs))
    metrics["gen.lateness_p99_ms"] = (
        percentile([x for o in outs for x in o.lateness_s], 99) * 1e3
    )
    return metrics


# -- serve_unique -------------------------------------------------------------------


class UniqueSource:
    """Distinct payloads on demand, each id used once."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng((seed, 11))
        self.pool = corpus.ModelPool(POOL_MODELS, base_seed=POOL_SEED)
        self.payloads: Dict[int, bytes] = {}
        self.tag = f"s{seed}u"

    def take(self, count: int) -> Tuple[int, List[bytes]]:
        first = len(self.payloads)
        bodies = [
            corpus.encode(p)
            for p in corpus.unique_payloads(
                self.pool, self.rng, count, f"{self.tag}{first}_"
            )
        ]
        for offset, body in enumerate(bodies):
            self.payloads[first + offset] = body
        return first, bodies


def run_phase(server: Server, source: UniqueSource, rate: float, seconds: float,
              outs: List[Outcome]) -> Outcome:
    count = max(20, int(round(rate * seconds)))
    first, bodies = source.take(count)
    arrivals = poisson_arrivals(source.rng, rate, count)
    out = open_loop(server, bodies, arrivals, first_id=first)
    outs.append(out)
    time.sleep(0.1)  # let the server settle between phases
    return out


def saturate(server: Server, source: UniqueSource, seconds: float,
             outs: List[Outcome]) -> Outcome:
    """Closed loop over distinct payloads: the uncached path's capacity."""
    first, bodies = source.take(int(SATURATION_CAP_RPS * seconds) + CONNECTIONS)
    plan = list(range(first, first + len(bodies)))
    out = closed_loop(server, plan, dict(zip(plan, bodies)), seconds)
    outs.append(out)
    return out


def serve_unique(seed: int, seconds: float, trace: bool, tamper: bool) -> dict:
    source = UniqueSource(seed)
    warmups = warmup_payloads(source.pool)
    if trace:
        return _traced(
            seed, seconds, warmups, tamper,
            lambda server, part, outs: (
                run_phase(server, source, LIGHT_RPS, part / 2, outs),
                run_phase(server, source, BUSY_RPS, part / 2, outs),
            ),
            payloads=source.payloads,
        )
    server, setup_s = boot_median(warmups)
    outs: List[Outcome] = []
    # each phase with the mean host factor on either side of it
    light_parts: List[Tuple[Outcome, float]] = []
    busy_parts: List[Tuple[Outcome, float]] = []
    saturated: List[Tuple[Outcome, float]] = []
    try:
        before = host_factor()
        for _ in range(CYCLES):
            for parts, phase in (
                (light_parts, lambda: run_phase(
                    server, source, LIGHT_RPS, 0.4 * seconds / CYCLES, outs)),
                (busy_parts, lambda: run_phase(
                    server, source, BUSY_RPS, 0.3 * seconds / CYCLES, outs)),
                (saturated, lambda: saturate(server, source, 0.3 * seconds / CYCLES, outs)),
            ):
                out = phase()
                after = host_factor()
                parts.append((out, (before + after) / 2.0))
                before = after
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    light, busy, full = (
        merge([out for out, _ in parts]) for parts in (light_parts, busy_parts, saturated)
    )
    merged = merge(outs)
    failed = verify(source.payloads, merged, tamper)
    # at reference host speed: latencies over, rates times the phase's factor
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        # the light phase's p50 and the saturation segments' completion rate
        "p50_ms": percentile(
            [lat / f for out, f in light_parts for lat in out.latencies_ms()], 50
        ),
        "throughput_per_s": middle_mean(
            [rps * f for out, f in saturated for rps in out.chunk_rps]
        ),
    }
    info = {
        "busy.p50_ms": percentile(
            [lat / f for out, f in busy_parts for lat in out.latencies_ms()], 50
        ),
        "light.p50_ms.measured": percentile(light.latencies_ms(), 50),
        "busy.p50_ms.measured": percentile(busy.latencies_ms(), 50),
        "saturation_rps.measured": middle_mean(full.chunk_rps),
        "host_factor.median": median(
            [f for parts in (light_parts, busy_parts, saturated) for _, f in parts]
        ),
        **tails("light.", light),
        **tails("busy.", busy),
        "saturation.p50_ms": percentile(full.latencies_ms(), 50),
        "gen.lateness_p99_ms": percentile(light.lateness_s + busy.lateness_s, 99) * 1e3,
    }
    return result(merged.attempted, failed, metrics, info)


# -- traced runs --------------------------------------------------------------------


def _traced(seed, seconds, warmups, tamper, drive, payloads) -> dict:
    """Drive half the time untraced, half traced; per-layer figures."""
    part = seconds / 2.0
    server, _ = boot(warmups)
    plain: List[Outcome] = []
    try:
        drive(server, part, plain)
    finally:
        server.stop()
    trace_path = str(OUT / f"spans-{os.getpid()}.json")
    server, _ = boot(warmups, trace_path)
    traced: List[Outcome] = []
    try:
        server.dump_trace()  # drop the warm-up spans
        drive(server, part, traced)
        snapshot = server.dump_trace()
    finally:
        server.stop()
    os.replace(trace_path, OUT / f"spans-{seed}.json")
    merged = merge(plain + traced)
    failed = verify(payloads, merged, tamper)
    metrics = layer_metrics(snapshot, traced)
    # the light phases' medians: the first phase of each half
    untraced, with_trace = (median(outs[0].latencies_ms()) for outs in (plain, traced))
    metrics["trace.overhead_pct"] = 100.0 * (with_trace - untraced) / untraced
    return result(merged.attempted, failed, metrics, {})


def merge(outs: Sequence[Outcome]) -> Outcome:
    merged = Outcome()
    for out in outs:
        merged.pids += out.pids
        merged.status += out.status
        merged.latency_s += out.latency_s
        merged.service_s += out.service_s
        merged.lateness_s += out.lateness_s
        merged.bodies.update(out.bodies)
        merged.elapsed_s += out.elapsed_s
        merged.chunk_rps += out.chunk_rps
    return merged


def result(attempted: int, failed: int, metrics: dict, info: dict) -> dict:
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}
