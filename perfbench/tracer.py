"""Span recorder and layer instrumentation for the traced benchmark run.

The program under test is not modified: :func:`install` wraps the public
entry points of each ``repro`` layer from the outside, so every call into
a layer records one span (name, parent, owning request, thread, start,
end) plus counts taken at the same boundary.  Spans stay in memory and
are written out once, at the end (:meth:`Recorder.dump`).

Self time is computed per thread from the innermost open span
(:func:`innermost_segments`).  For the HTTP server, work the dispatcher
thread does for a request is attributed to that request: a request's
time is its HTTP handler span, and the part of it spent waiting in
``SegbusService.submit`` while the dispatcher runs the request's own job
is charged to the layers of that job, not to the wait
(:func:`serve_breakdown`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# span tuple fields
SID, PARENT, OWNER, TID, NAME, START, END = range(7)

#: span name -> the per-layer self-time metric it feeds
SELF_METRIC = {
    "xmlio": "xmlio.self_ms",
    "lint": "lint.self_ms",
    "psdf": "psdf.self_ms",
    "placement": "placement.self_ms",
    "model": "model.self_ms",
    "emulator": "emulator.self_ms",
    "report": "report.self_ms",
    "batch": "batch.self_ms",
    "estimator": "estimator.self_ms",
    "executor": "executor.self_ms",
    "dse": "dse.self_ms",
    "reliability": "reliability.self_ms",
    "jobs.parse": "jobs.parse_ms",
    "jobs.key": "jobs.key_ms",
    "jobs.validate": "jobs.validate_ms",
    "jobs.encode": "jobs.encode_ms",
    "jobs.execute": "jobs.execute_ms",
    "cache": "cache.self_ms",
    "service": "service.self_ms",
    "service.dispatch": "service.dispatch_ms",
    "http": "http.self_ms",
}


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: request id (the HTTP span id) -> cache disposition of its submit
        self.roles: Dict[int, str] = {}
        #: id(ServeJob) -> the request that parsed it
        self.job_owner: Dict[int, int] = {}
        self.caches: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, amount: float = 1) -> None:
        """Bump a counter (handler and dispatcher threads share them)."""
        with self._lock:
            self.counts[key] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self) -> None:
        """Forget spans and counts (after warm-up); keeps live references."""
        self.spans = []
        self.counts = defaultdict(float)
        self.roles = {}
        for cache in self.caches:
            cache["base"] = _cache_counters(cache["obj"])

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        for cache in self.caches:
            now = _cache_counters(cache["obj"])
            for key, value in now.items():
                counts[f"cache.{key}"] = (
                    counts.get(f"cache.{key}", 0) + value - cache["base"][key]
                )
        return {
            "spans": self.spans,
            "counts": counts,
            "roles": {str(k): v for k, v in self.roles.items()},
        }

    def dump(self, path: str) -> None:
        """Write spans and counts out as JSON (atomically)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _cache_counters(cache) -> Dict[str, int]:
    stats = cache.stats()
    return {"evictions": stats.evictions}


def _span(
    rec: Recorder,
    name: str,
    fn: Callable,
    owner_of: Optional[Callable] = None,
    after: Optional[Callable] = None,
    root: bool = False,
) -> Callable:
    perf = time.perf_counter_ns
    ids = rec._ids

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec._stack()
        sid = next(ids)
        if stack:
            parent, owner = stack[-1]
        else:
            parent, owner = 0, 0
        if root:
            owner = sid
        elif owner_of is not None:
            owner = owner_of(rec, args) or owner
        stack.append((sid, owner))
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            rec.spans.append(
                (sid, parent, owner, threading.get_ident(), name, start, end)
            )
        if after is not None:
            after(rec, args, result, owner)
        return result

    return wrapper


def _counter(rec: Recorder, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(key, 1)
        return fn(*args, **kwargs)

    return wrapper


# -- per-boundary counts --------------------------------------------------------


def _count(key: str, amount: float = 1) -> Callable:
    def after(rec, args, result, owner):
        rec.add(key, amount)

    return after


def _after_parse_job(rec, args, result, owner):
    if owner:
        rec.job_owner[id(result)] = owner


def _after_parse_psdf(rec, args, result, owner):
    rec.add("xmlio.calls", 1)
    rec.add("xmlio.psdf_parses", 1)


def _after_build_report(rec, args, result, owner):
    rec.add("emulator.runs", 1)
    rec.add("emulator.events", result.total_events)


def _after_run_batch(rec, args, result, owner):
    stats = result.stats
    rec.add("batch.members", stats.members)
    rec.add("batch.simulated", stats.simulated)
    rec.add("batch.cloned", stats.cloned)


def _after_executor(rec, args, result, owner):
    rec.add("executor.jobs", len(result.results))
    rec.add("executor.retries", result.stats.retries)
    rec.add("executor.respawns", result.stats.respawned_workers)


def _after_cache_get(rec, args, result, owner):
    rec.add("cache.hits" if result is not None else "cache.misses", 1)


def _after_submit(rec, args, result, owner):
    rec.add(f"service.role.{result.cache}", 1)
    if owner:
        rec.roles[owner] = result.cache


def _after_dispatch(rec, args, result, owner):
    rec.add("service.dispatches", 1)
    rec.add("service.dispatched_jobs", len(args[1]))


def _after_http(rec, args, result, owner):
    rec.add("http.requests", 1)


def _track_cache(rec, args, result, owner):
    cache = args[0]
    if not any(entry["obj"] is cache for entry in rec.caches):
        rec.caches.append({"obj": cache, "base": _cache_counters(cache)})


def _owner_of_job(rec, args):
    return rec.job_owner.get(id(args[0]))


def _owner_of_jobs(rec, args):
    jobs = args[0]
    return rec.job_owner.get(id(jobs[0])) if jobs else None


def _owner_of_batch(rec, args):
    batch = args[1]
    return rec.job_owner.get(id(batch[0].job)) if batch else None


def _chain(*hooks):
    def after(rec, args, result, owner):
        for hook in hooks:
            hook(rec, args, result, owner)

    return after


# -- installation --------------------------------------------------------------

#: (module, attribute, span name, owner hook, after hook); an attribute of
#: the form ``Class.method`` is patched on the class
_FUNCTIONS: Tuple[tuple, ...] = (
    ("repro.xmlio.psdf_parser", "parse_psdf_xml", "xmlio", None, _after_parse_psdf),
    ("repro.xmlio.psm_parser", "parse_psm_xml", "xmlio", None, _count("xmlio.calls")),
    ("repro.xmlio.faults_xml", "parse_fault_plan_xml", "xmlio", None, _count("xmlio.calls")),
    ("repro.xmlio.psdf_writer", "psdf_to_xml", "xmlio", None, _count("xmlio.calls")),
    ("repro.xmlio.psm_writer", "psm_to_xml", "xmlio", None, _count("xmlio.calls")),
    ("repro.lint.engine", "lint_models", "lint", None, _count("lint.calls")),
    ("repro.lint.engine", "lint_multimode", "lint", None, _count("lint.calls")),
    ("repro.psdf.schedule", "extract_schedule", "psdf", None, _count("psdf.calls")),
    ("repro.psdf.matrix", "build_communication_matrix", "psdf", None, _count("psdf.calls")),
    ("repro.placement.placetool", "PlaceTool.solve_matrix", "placement", None, _count("placement.solves")),
    ("repro.placement.placetool", "PlaceTool.solve_estimated", "placement", None, None),
    ("repro.emulator.emulator", "SegBusEmulator.__init__", "model", None, None),
    ("repro.emulator.emulator", "SegBusEmulator.from_models", "model", None, None),
    ("repro.emulator.emulator", "SegBusEmulator.run", "emulator", None, None),
    ("repro.emulator.kernel", "Simulation.run", "emulator", None, None),
    ("repro.emulator.batchkernel", "BatchSimulation.run", "emulator", None, None),
    ("repro.emulator.batchkernel", "LockstepBatch.drain", "emulator", None, None),
    ("repro.emulator.report", "build_report", "report", None, _after_build_report),
    ("repro.emulator.report", "EmulationReport.to_dict", "report", None, None),
    ("repro.emulator.report", "EmulationReport.digest", "report", None, None),
    ("repro.emulator.batchkernel", "run_batch", "batch", None, _after_run_batch),
    ("repro.serve.batcher", "run_emulate_batch", "batch", _owner_of_jobs, None),
    ("repro.analysis.stochastic", "stochastic_estimate", "estimator", None, _count("estimator.calls")),
    ("repro.analysis.stochastic", "stochastic_estimate_multimode", "estimator", None, _count("estimator.calls")),
    ("repro.analysis.executor", "CampaignExecutor.run", "executor", None, _after_executor),
    ("repro.analysis.dse", "explore_design_space", "dse", None, None),
    ("repro.analysis.reliability", "reliability_sweep", "reliability", None, None),
    ("repro.serve.jobs", "parse_job", "jobs.parse", None, _after_parse_job),
    ("repro.serve.jobs", "cache_key", "jobs.key", None, None),
    ("repro.serve.jobs", "validate_job", "jobs.validate", None, None),
    ("repro.serve.jobs", "response_bytes", "jobs.encode", None, None),
    ("repro.serve.jobs", "execute_job", "jobs.execute", _owner_of_job, None),
    ("repro.serve.cache", "ResultCache.get", "cache", None, _chain(_after_cache_get, _track_cache)),
    ("repro.serve.cache", "ResultCache.peek", "cache", None, None),
    ("repro.serve.cache", "ResultCache.put", "cache", None, _track_cache),
    ("repro.serve.service", "SegbusService.submit", "service", None, _after_submit),
    ("repro.serve.service", "SegbusService._execute_batch", "service.dispatch", _owner_of_batch, _after_dispatch),
    ("repro.serve.server", "_Handler.do_POST", "http", None, _after_http),
)

#: count-only wrappers for calls too frequent to span
_COUNTERS: Tuple[tuple, ...] = (
    ("repro.placement.cost", "objective", "placement.objective_evals"),
)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module global that holds ``original``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


#: modules that bind a wrapped function by ``from ... import``; they are
#: imported before patching so their bindings get rebound too
_BINDERS = (
    "repro",
    "repro.cli",
    "repro.analysis.analytic",
    "repro.emulator",
    "repro.lint",
    "repro.placement",
    "repro.placement.annealing",
    "repro.placement.exhaustive",
    "repro.placement.greedy",
    "repro.placement.kernighan_lin",
    "repro.psdf",
    "repro.serve",
    "repro.xmlio",
)


def install(rec: Recorder) -> None:
    """Wrap every layer entry point listed above (once per process)."""
    for module_name in [entry[0] for entry in _FUNCTIONS + _COUNTERS] + list(
        _BINDERS
    ):
        importlib.import_module(module_name)
    for module_name, attr, name, owner_of, after in _FUNCTIONS:
        module = sys.modules[module_name]
        root = name == "http"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = _span(rec, name, raw.__func__, owner_of, after, root)
                setattr(cls, method, classmethod(wrapped))
            else:
                setattr(cls, method, _span(rec, name, raw, owner_of, after, root))
        else:
            original = getattr(module, attr)
            _replace_everywhere(
                original, _span(rec, name, original, owner_of, after, root)
            )
    for module_name, attr, key in _COUNTERS:
        original = getattr(sys.modules[module_name], attr)
        _replace_everywhere(original, _counter(rec, key, original))


# -- analysis ------------------------------------------------------------------


def innermost_segments(spans: Sequence[tuple]) -> List[Tuple[int, int, tuple]]:
    """Per-thread timeline: (start, end, innermost open span) segments."""
    by_thread: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        by_thread[span[TID]].append(span)
    segments: List[Tuple[int, int, tuple]] = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s[START], -s[END]))
        stack: List[tuple] = []
        cursor = 0
        for span in thread_spans:
            while stack and stack[-1][END] <= span[START]:
                top = stack.pop()
                segments.append((cursor, top[END], top))
                cursor = top[END]
            if stack and span[START] > cursor:
                segments.append((cursor, span[START], stack[-1]))
            stack.append(span)
            cursor = span[START]
        while stack:
            top = stack.pop()
            segments.append((cursor, top[END], top))
            cursor = top[END]
    return [s for s in segments if s[1] > s[0]]


def self_times(spans: Sequence[tuple]) -> Dict[str, int]:
    """Self time (ns) per span name, single-threaded attribution."""
    totals: Dict[str, int] = defaultdict(int)
    for start, end, span in innermost_segments(spans):
        totals[span[NAME]] += end - start
    return dict(totals)


def serve_breakdown(snapshot: dict) -> Tuple[Dict[str, int], int]:
    """Per-request attribution of server time.

    Returns the self ns per span name, which sum to the total HTTP-span
    time, and the ``submit`` self ns of cache misses (the service wait).
    """
    spans = [tuple(s) for s in snapshot["spans"]]
    roles = {int(k): v for k, v in snapshot["roles"].items()}
    http = {s[SID]: s for s in spans if s[NAME] == "http"}
    submits = {
        s[OWNER]: s
        for s in spans
        if s[NAME] == "service" and s[OWNER] in http
        and s[TID] == http[s[OWNER]][TID]
    }
    totals: Dict[str, int] = defaultdict(int)
    service_self: Dict[int, int] = defaultdict(int)
    borrowed: Dict[int, int] = defaultdict(int)
    for start, end, span in innermost_segments(spans):
        owner = span[OWNER]
        request = http.get(owner)
        if request is None:
            continue  # not on any request's path
        if span[TID] == request[TID]:
            if span[NAME] == "service":
                service_self[owner] += end - start
            else:
                totals[span[NAME]] += end - start
        else:
            # the dispatcher working on this request's own job while the
            # handler thread waits inside submit
            submit = submits.get(owner)
            if submit is None:
                continue
            lo, hi = max(start, submit[START]), min(end, submit[END])
            if hi > lo:
                totals[span[NAME]] += hi - lo
                borrowed[owner] += hi - lo
    wait_ns = 0
    for owner, own in service_self.items():
        net = max(0, own - borrowed.get(owner, 0))
        totals["service"] += net
        if roles.get(owner) == "miss":
            wait_ns += net
    return dict(totals), wait_ns


def layer_metrics(selfs: Dict[str, int], counts: Dict[str, float],
                  wall_ms: float, service_wait_ns: int = 0) -> Dict[str, float]:
    """Per-layer metrics: self times, counts and ratios, and the remainder.

    Self times plus ``unattributed_ms`` sum to ``wall_ms``.
    """
    get = counts.get
    metrics = {metric: selfs.get(name, 0) / 1e6 for name, metric in SELF_METRIC.items()}
    metrics["service.wait_ms"] = service_wait_ns / 1e6
    metrics["trace.wall_ms"] = wall_ms
    metrics["unattributed_ms"] = wall_ms - sum(selfs.values()) / 1e6
    misses = get("service.role.miss", 0)
    members = get("batch.members", 0)
    hits, lookups = get("cache.hits", 0), get("cache.hits", 0) + get("cache.misses", 0)
    dispatches = get("service.dispatches", 0)
    events = get("emulator.events", 0)
    metrics.update({
        "xmlio.calls": get("xmlio.calls", 0),
        "xmlio.parses_per_miss": get("xmlio.psdf_parses", 0) / misses if misses else 0.0,
        "lint.calls": get("lint.calls", 0),
        "psdf.calls": get("psdf.calls", 0),
        "placement.solves": get("placement.solves", 0),
        "placement.objective_evals": get("placement.objective_evals", 0),
        "emulator.runs": get("emulator.runs", 0),
        "emulator.events": events,
        "emulator.ns_per_event": metrics["emulator.self_ms"] * 1e6 / events if events else 0.0,
        "batch.members": members,
        "batch.simulated": get("batch.simulated", 0),
        "batch.cloned_share": get("batch.cloned", 0) / members if members else 0.0,
        "estimator.calls": get("estimator.calls", 0),
        "executor.jobs": get("executor.jobs", 0),
        "executor.retries": get("executor.retries", 0),
        "executor.respawns": get("executor.respawns", 0),
        "cache.hits": hits,
        "cache.misses": get("cache.misses", 0),
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "cache.evictions": get("cache.evictions", 0),
        "service.jobs_per_dispatch": (
            get("service.dispatched_jobs", 0) / dispatches if dispatches else 0.0
        ),
        "service.coalesced": get("service.role.coalesced", 0),
        "service.shed": get("service.role.shed", 0),
        "http.requests": get("http.requests", 0),
    })
    return metrics
