"""The simulation service: admission, caching, batching, dispatch.

:class:`SegbusService` is the transport-free core of ``segbus serve``:
the HTTP layer (:mod:`repro.serve.server`), the in-process load
generator and the test suites all drive the same :meth:`submit` path.

One request's life:

1. ``parse_job`` schema-validates the payload (400 on failure).
2. The cache is consulted under :func:`~repro.serve.jobs.cache_key`; a
   hit replays the stored bytes verbatim.
3. A concurrent request for the *same* key joins the in-flight
   computation ("coalesced") instead of queueing a duplicate — so one
   key computes at most once per cache epoch, which is also what makes
   the bench's computed/reused tick counters deterministic under
   concurrency.
4. Otherwise the job loads its schemes through the XML loaders (400),
   keeping them for execution (in a worker too: one parse per miss), and
   enters the bounded admission queue; when the queue is full the
   request is shed with a deterministic 429 + Retry-After.
5. The dispatcher thread wakes on every admission and drains whatever
   is queued, up to ``batch_max`` jobs, at once: batch-engine
   emulations coalesce into one vectorized ``run_batch`` group
   (:mod:`repro.serve.batcher`), everything else runs through the
   persistent :class:`CampaignExecutor` pool with per-job timeouts and
   retries.  A client batch (:meth:`SegbusService.admit` with several
   payloads) enters the queue in one step, so its members share a
   micro-batch by construction rather than by timing.
6. Fulfilment caches the canonical response bytes and wakes every
   waiter.  A job whose model the loaders accepted but the emulator or
   the strict lint gate refused (a :class:`SegBusError`) answers 422
   ``model-error``; exhausted jobs (crashes, timeouts, other
   exceptions) produce a structured 500.  Both carry the
   :class:`JobFailure` ledger; failures are never cached.

Nondeterministic facts (latency, cache disposition) live in the
:class:`ServeResponse` envelope and become HTTP headers — never body
bytes.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.analysis.executor import (
    CampaignExecutor,
    ExecutorPolicy,
    JobFailure,
)
from repro.errors import AdmissionError, JobValidationError
from repro.serve.batcher import batchable, run_emulate_batch
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    ServeJob,
    execute_job,
    parse_job,
    response_bytes,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving knob in one picklable place (CLI flags mirror these)."""

    #: default engine for jobs that do not name one (None = SEGBUS_ENGINE)
    engine: Optional[str] = None
    #: executor pool width; 1 = serial in-process (no spawn cost)
    workers: int = 1
    #: per-job timeout (needs workers >= 2 to be enforceable)
    timeout_s: Optional[float] = None
    #: executor attempts per job (retries = attempts - 1)
    retries: int = 3
    #: bounded admission queue depth; beyond it requests shed with 429
    queue_depth: int = 64
    #: result-cache caps
    cache_entries: int = 1024
    cache_bytes: int = 64 << 20
    #: micro-batch size cap
    batch_max: int = 32
    #: how long a request thread waits for its result before 504
    request_timeout_s: float = 300.0
    #: the Retry-After a shed request advertises
    retry_after_s: float = 1.0


@dataclass
class ServeResponse:
    """One finished request: HTTP-ish status, body bytes, side channel."""

    status: int
    body: bytes
    #: cache disposition: hit | coalesced | miss | rejected | shed |
    #: failed | timeout
    cache: str
    elapsed_s: float = 0.0
    retry_after_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class _Ticket:
    """One admitted (or instantly resolved) request the caller waits on."""

    def __init__(self, key: str, job: Optional[ServeJob]) -> None:
        self.key = key
        self.job = job
        self.event = threading.Event()
        self.body: Optional[bytes] = None
        self.failure_status: Optional[int] = None
        self.failure_body: Optional[bytes] = None
        self.role = "miss"
        self.retry_after_s: Optional[float] = None
        #: coalesced requests for the same key, resolved with the owner
        self.followers: List["_Ticket"] = []

    def resolve_ok(self, body: bytes) -> None:
        self.body = body
        self.event.set()

    def resolve_error(self, status: int, body: bytes) -> None:
        self.failure_status = status
        self.failure_body = body
        self.event.set()


def _error_bytes(
    kind: str,
    message: str,
    failures: Optional[List[Dict[str, object]]] = None,
    **extra: object,
) -> bytes:
    error: Dict[str, object] = {"kind": kind, "message": message, **extra}
    if failures is not None:
        error["failures"] = failures
    return json.dumps(
        {"error": error}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _failure_dicts(failures) -> List[Dict[str, object]]:
    return [
        {
            "label": f.label,
            "attempts": f.attempts,
            "kind": f.kind,
            "error": f.error,
            "message": f.message,
        }
        for f in failures
    ]


@dataclass
class _Counters:
    """Per-disposition request counters (stats endpoint and the bench)."""

    by_role: Dict[str, int] = field(default_factory=dict)

    def bump(self, role: str) -> None:
        self.by_role[role] = self.by_role.get(role, 0) + 1

    def total(self) -> int:
        return sum(self.by_role.values())


class SegbusService:
    """The dispatcher, pool, cache and counters behind ``segbus serve``."""

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        *,
        chaos=None,
        auto_start: bool = True,
    ) -> None:
        self.config = config
        self.cache = ResultCache(
            max_entries=config.cache_entries, max_bytes=config.cache_bytes
        )
        policy = ExecutorPolicy(
            max_attempts=max(1, config.retries),
            timeout_s=config.timeout_s,
        )
        # serial_threshold=1: even a lone queued job must take the
        # parallel path when workers >= 2, or per-job timeouts (and the
        # chaos hooks the backpressure suite relies on) would silently
        # not apply to small micro-batches
        self.executor = CampaignExecutor(
            execute_job,
            policy=policy,
            workers=config.workers,
            serial_threshold=1 if (config.workers or 1) > 1 else 3,
            chaos=chaos,
        )
        self._lock = threading.Lock()
        self._queue: Deque[_Ticket] = deque()
        self._inflight: Dict[str, _Ticket] = {}
        self._wake = threading.Event()
        self._counters = _Counters()
        self._latencies: Deque[float] = deque(maxlen=4096)
        self._executor_stats: Dict[str, int] = {}
        self._batches = 0
        self._coalesced_groups = 0
        self._running = False
        self._dispatcher: Optional[threading.Thread] = None
        if auto_start:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._running:
                return
            self._running = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="segbus-serve-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    def stop(self) -> None:
        """Stop dispatching; fail queued tickets with 503 and join."""
        with self._lock:
            self._running = False
            pending = list(self._queue)
            self._queue.clear()
            for ticket in pending:
                self._inflight.pop(ticket.key, None)
        self._wake.set()
        for ticket in pending:
            ticket.resolve_error(
                503, _error_bytes("shutdown", "service stopping")
            )
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
            self._dispatcher = None

    def reset(self) -> None:
        """Clear cache, counters and latency samples (bench rounds)."""
        self.cache.clear()
        with self._lock:
            self._counters = _Counters()
            self._latencies.clear()
            self._executor_stats = {}
            self._batches = 0
            self._coalesced_groups = 0

    # -- submission ---------------------------------------------------------

    def submit_async(self, payload: object) -> _Ticket:
        """Admit one payload: the one-member case of :meth:`admit`."""
        return self.admit([payload])[0]

    def admit(self, payloads: Sequence[object]) -> List[_Ticket]:
        """Admit payloads together; one ticket per payload, in order.

        Every member is parsed and deep-validated before any is queued;
        the survivors then enter the queue in one lock section with one
        dispatcher wake-up, so a client batch's members always share a
        micro-batch (up to ``batch_max``).  Never raises: schema and
        validation failures, cache hits and shed requests come back as
        already-resolved tickets.
        """
        tickets = [self._parse(payload) for payload in payloads]
        with self._lock:
            fresh = [
                t for t in tickets
                if t.job is not None and not self._settle(t, self.cache.get)
            ]
        # deep validation only on the path that will actually compute —
        # a key that ever produced a cached body has validated before
        admitted: List[_Ticket] = []
        for ticket in fresh:
            try:
                self._job_of(ticket).schemes  # load and keep them
            except JobValidationError as exc:
                ticket.role = "rejected"
                ticket.resolve_error(400, _error_bytes("invalid", exc.detail))
            else:
                admitted.append(ticket)
        queued = False
        with self._lock:
            for ticket in admitted:
                # re-check under the lock: another thread (or an earlier
                # member of this batch) may have admitted or even
                # fulfilled this key while we were validating
                if not self._settle(ticket, self.cache.peek):
                    self._inflight[ticket.key] = ticket
                    self._queue.append(ticket)
                    queued = True
        if queued:
            self._wake.set()
        return tickets

    def _parse(self, payload: object) -> _Ticket:
        """A ticket carrying the parsed job, or resolved as a 400."""
        try:
            job = parse_job(payload, default_engine=self.config.engine)
        except JobValidationError as exc:
            ticket = _Ticket("", None)
            ticket.role = "rejected"
            ticket.resolve_error(400, _error_bytes("invalid", exc.detail))
            return ticket
        return _Ticket(job.key, job)

    def _settle(
        self, ticket: _Ticket, lookup: Callable[[str], Optional[bytes]]
    ) -> bool:
        """Resolve a ticket without queueing it, if it can be (lock held).

        A cached key is a hit, an in-flight key coalesces, and a full
        queue sheds; anything else returns False and needs computing.
        """
        cached = lookup(ticket.key)
        if cached is not None:
            ticket.role = "hit"
            ticket.resolve_ok(cached)
            return True
        inflight = self._inflight.get(ticket.key)
        if inflight is not None:
            ticket.role = "coalesced"
            inflight.followers.append(ticket)
            return True
        if len(self._queue) >= self.config.queue_depth:
            self._shed(ticket)
            return True
        return False

    def _shed(self, ticket: _Ticket) -> _Ticket:
        """Resolve a ticket as shed: deterministic 429 + Retry-After."""
        ticket.role = "shed"
        ticket.retry_after_s = self.config.retry_after_s
        ticket.resolve_error(
            429,
            _error_bytes(
                "busy",
                str(
                    AdmissionError(
                        self.config.queue_depth, self.config.retry_after_s
                    )
                ),
                retry_after_s=self.config.retry_after_s,
            ),
        )
        return ticket

    def submit(
        self, payload: object, timeout_s: Optional[float] = None
    ) -> ServeResponse:
        """Admit and wait: the blocking request path the HTTP layer uses."""
        started = time.perf_counter()
        return self.wait(self.submit_async(payload), started, timeout_s)

    def wait(
        self,
        ticket: _Ticket,
        started: float,
        timeout_s: Optional[float] = None,
    ) -> ServeResponse:
        """Wait for one admitted ticket (``started``: its admission's
        ``perf_counter``) and count it as a request; 504 past the budget."""
        budget = (
            timeout_s
            if timeout_s is not None
            else self.config.request_timeout_s
        )
        finished = ticket.event.wait(budget)
        elapsed = time.perf_counter() - started
        if not finished:
            response = ServeResponse(
                status=504,
                body=_error_bytes(
                    "deadline",
                    f"no result within {budget:g}s (job still running)",
                ),
                cache="timeout",
                elapsed_s=elapsed,
            )
        elif ticket.body is not None:
            response = ServeResponse(
                status=200,
                body=ticket.body,
                cache=ticket.role,
                elapsed_s=elapsed,
            )
        else:
            disposition = (
                ticket.role if ticket.role in ("shed", "rejected") else "failed"
            )
            response = ServeResponse(
                status=ticket.failure_status or 500,
                body=ticket.failure_body
                or _error_bytes("internal", "no failure body"),
                cache=disposition,
                elapsed_s=elapsed,
                retry_after_s=ticket.retry_after_s,
            )
        with self._lock:
            self._counters.bump(response.cache)
            self._latencies.append(elapsed)
        return response

    # -- dispatching --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        # no lost wake-ups: the event is cleared only under the lock with
        # the queue empty, and every append is followed by a set()
        while True:
            self._wake.wait()
            with self._lock:
                if not self._running:
                    return
                batch: List[_Ticket] = []
                while self._queue and len(batch) < self.config.batch_max:
                    batch.append(self._queue.popleft())
                if not self._queue:
                    self._wake.clear()
            if batch:
                self._execute_batch(batch)

    @staticmethod
    def _job_of(ticket: _Ticket) -> ServeJob:
        job = ticket.job
        assert job is not None  # queued tickets always carry their job
        return job

    def _execute_batch(self, batch: List[_Ticket]) -> None:
        with self._lock:
            self._batches += 1
        vector = [t for t in batch if batchable(self._job_of(t))]
        rest = [t for t in batch if not batchable(self._job_of(t))]
        if vector:
            if len(vector) > 1:
                with self._lock:
                    self._coalesced_groups += 1
            try:
                outcomes = run_emulate_batch(
                    [self._job_of(t) for t in vector]
                )
            except Exception as exc:  # defensive: never hang the waiters
                for ticket in vector:
                    self._fulfil_failure(
                        ticket,
                        [
                            JobFailure(
                                label=self._job_of(ticket).label,
                                attempts=1,
                                kind="error",
                                error=type(exc).__name__,
                                message=str(exc),
                            )
                        ],
                    )
            else:
                for ticket, (body, failure) in zip(vector, outcomes):
                    if body is not None:
                        self._fulfil_ok(ticket, response_bytes(body))
                    else:
                        self._fulfil_failure(ticket, [failure])
        if rest:
            result = self.executor.run([self._job_of(t) for t in rest])
            with self._lock:
                for key, value in (
                    ("attempts", result.stats.attempts),
                    ("retries", result.stats.retries),
                    ("crashes", result.stats.crashes),
                    ("timeouts", result.stats.timeouts),
                    ("respawned_workers", result.stats.respawned_workers),
                ):
                    self._executor_stats[key] = (
                        self._executor_stats.get(key, 0) + value
                    )
            failures_by_label = {f.label: f for f in result.failures}
            for ticket, body in zip(rest, result.results):
                if body is not None:
                    self._fulfil_ok(ticket, response_bytes(body))
                else:
                    failure = failures_by_label.get(
                        self._job_of(ticket).label
                    )
                    self._fulfil_failure(
                        ticket, [failure] if failure else []
                    )

    def _fulfil_ok(self, ticket: _Ticket, body: bytes) -> None:
        with self._lock:
            self.cache.put(ticket.key, body)
            self._inflight.pop(ticket.key, None)
            followers = list(ticket.followers)
        ticket.resolve_ok(body)
        for follower in followers:
            follower.resolve_ok(body)

    def _fulfil_failure(
        self, ticket: _Ticket, failures: List[Optional[JobFailure]]
    ) -> None:
        ledger = _failure_dicts([f for f in failures if f is not None])
        message = (
            ledger[0]["message"] if ledger else "job failed without a ledger"
        )
        # a model the emulator refused (a SegBusError, never retried) is
        # the client's to fix: 422; anything else exhausted is ours: 500
        if ledger and all(entry["kind"] == "model" for entry in ledger):
            status, kind = 422, "model-error"
        else:
            status, kind = 500, "job-failed"
        body = _error_bytes(kind, str(message), failures=ledger)
        with self._lock:
            # failures are never cached: a transient crash must not be
            # replayed to every future request for the same model
            self._inflight.pop(ticket.key, None)
            followers = list(ticket.followers)
        ticket.resolve_error(status, body)
        for follower in followers:
            follower.resolve_error(status, body)

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters.by_role)
            total = self._counters.total()
            latencies = sorted(self._latencies)
            queue_depth = len(self._queue)
            inflight = len(self._inflight)
            executor_stats = dict(self._executor_stats)
            batches = self._batches
            coalesced_groups = self._coalesced_groups

        def pct(q: int) -> float:
            if not latencies:
                return 0.0
            rank = max(
                0,
                min(len(latencies) - 1, -(-q * len(latencies) // 100) - 1),
            )
            return latencies[rank] * 1e3

        return {
            "requests": total,
            "by_disposition": counters,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "dispatch_batches": batches,
            "vectorized_groups": coalesced_groups,
            "executor": executor_stats,
            "cache": self.cache.stats().to_dict(),
            "latency_ms": {
                "p50": pct(50),
                "p90": pct(90),
                "p99": pct(99),
            },
            "config": {
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "batch_max": self.config.batch_max,
            },
        }
