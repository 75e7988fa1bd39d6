"""The batch engine: many instances, one call.

Monte Carlo workloads — reliability sweeps, ``segbus selftest``, design
space exploration — run *populations* of independent emulations that
share almost everything: the application graph, the platform spec, the
config and the retry policy, differing only in their fault plans (seed
and rate).  Running each instance as its own process-pool job re-pays
the same construction cost per run and leaves nothing for the engines to
share.  :func:`run_batch` instead takes the whole population in one
call:

* **Shared construction** — instances are grouped by a compatibility
  digest (application, spec, config, retry policy); exact-duplicate
  instances (same fault plan too) are deduplicated onto one simulation.
* **The zero-hit fast path** — within a group, one *reference* run with
  a counting injector records how many fault-draw opportunities each
  ``(kind, site)`` sees in a fault-free execution.  An instance whose
  transient streams, replayed ahead of time (vectorized xorshift64*
  over a numpy state array), never hit within those opportunity counts
  provably executes the exact same event sequence as the reference — so
  it reuses the reference simulation and report outright instead of
  re-simulating.  At the low fault rates reliability studies care about
  most of the population rides this path, which is where the order-of-
  magnitude aggregate throughput over the stepped engine comes from
  (see docs/PERFORMANCE.md).
* **Everything else** runs on the fast kernel's own ``run()``, one
  member after another.

**Equivalence contract.**  Per-instance observables are byte-identical
to the stepped kernel: :class:`BatchSimulation` *is* the fast kernel,
and the zero-hit clone is only taken when the predraw *proves* the
instance cannot diverge from the reference.  The contract is enforced
by the three-engine ENG-1 oracle, the Hypothesis differential suite and
the golden-trace store, like the fast engine before it.

An instance that deadlocks or exhausts a budget mid-batch surfaces as
that instance's error without poisoning its siblings; infrastructure
errors (anything that is not a :class:`~repro.errors.SegBusError`)
still propagate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy vectorizes the fault predraw; pure Python works too
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

from repro.emulator.config import EmulationConfig
from repro.emulator.fastkernel import FastSimulation
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.report import EmulationReport, build_report
from repro.errors import SegBusError
from repro.faults.model import (
    KIND_BU_DROP,
    KIND_CORRUPTION,
    KIND_FU_STALL,
    KIND_GRANT_LOSS,
    FaultPlan,
)
from repro.faults.policy import RetryPolicy
from repro.faults.prng import DeterministicStream, stream_state
from repro.psdf.graph import PSDFGraph


# ---------------------------------------------------------------------------
# vectorized predraw: replay xorshift64* streams ahead of the simulation
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_INV_2_64 = 1.0 / float(1 << 64)
_XS_MULT = 0x2545F4914F6CDD1D


def _python_any_hit(states: Sequence[int], rates: Sequence[float],
                    draws: Sequence[int]) -> List[bool]:
    """Reference predraw: sequential xorshift64* exactly like the streams."""
    hits = []
    for state, rate, count in zip(states, rates, draws):
        x = state
        hit = False
        for _ in range(count):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            if ((x * _XS_MULT) & _MASK64) * _INV_2_64 < rate:
                hit = True
                break
        hits.append(hit)
    return hits


def _vector_any_hit(states: Sequence[int], rates: Sequence[float],
                    draws: Sequence[int]) -> List[bool]:
    """Vectorized predraw over one numpy state array (all streams at once).

    Bit-identical to :meth:`DeterministicStream.chance`: same shifts, the
    same wrapping multiply, the same u64 -> [0, 1) mapping, the same
    strict ``<`` comparison — verified at import time by
    :func:`_vector_predraw_ok` and by the unit suite.
    """
    x = _np.array(states, dtype=_np.uint64)
    rate_arr = _np.asarray(rates, dtype=_np.float64)
    draw_arr = _np.asarray(draws, dtype=_np.int64)
    hit = _np.zeros(len(x), dtype=bool)
    if len(x) == 0:
        return []
    kmax = int(draw_arr.max())
    s12, s25, s27 = _np.uint64(12), _np.uint64(25), _np.uint64(27)
    mult = _np.uint64(_XS_MULT)
    with _np.errstate(over="ignore"):
        for k in range(kmax):
            x ^= x >> s12
            x ^= x << s25
            x ^= x >> s27
            sample = (x * mult).astype(_np.float64) * _INV_2_64
            hit |= (draw_arr > k) & (sample < rate_arr)
            # stop once every stream has either hit or run out of draws
            if not ((~hit) & (draw_arr > k + 1)).any():
                break
    return [bool(h) for h in hit]


def _vector_predraw_ok() -> bool:
    """One-time self-check: the vectorized replay must match the streams."""
    if _np is None:
        return False
    state = stream_state(987654321, "segment:1", KIND_CORRUPTION, "0")
    stream = DeterministicStream(987654321, "segment:1", KIND_CORRUPTION, "0")
    sequential = [stream.next_float() for _ in range(128)]
    x = _np.array([state], dtype=_np.uint64)
    s12, s25, s27 = _np.uint64(12), _np.uint64(25), _np.uint64(27)
    mult = _np.uint64(_XS_MULT)
    with _np.errstate(over="ignore"):
        for expected in sequential:
            x ^= x >> s12
            x ^= x << s25
            x ^= x >> s27
            value = float((x * mult).astype(_np.float64)[0]) * _INV_2_64
            if value != expected:
                return False  # pragma: no cover - platform cast mismatch
    return True


_VECTOR_PREDRAW = _vector_predraw_ok()


def predraw_any_hit(states: Sequence[int], rates: Sequence[float],
                    draws: Sequence[int]) -> List[bool]:
    """Per stream: does any of the first ``draws[i]`` Bernoulli samples hit?

    Uses the vectorized numpy replay when its import-time self-check
    passed, the sequential reference otherwise — both produce exactly
    the decisions :class:`~repro.faults.injector.FaultInjector` would.
    """
    if _VECTOR_PREDRAW:
        return _vector_any_hit(states, rates, draws)
    return _python_any_hit(states, rates, draws)


# ---------------------------------------------------------------------------
# opportunity counting: how often would a fault plan be consulted?
# ---------------------------------------------------------------------------


class _CountingInjector:
    """Injector stand-in that tallies draw opportunities and never injects.

    The kernel consults the injector once per opportunity; this records
    ``(kind, site) -> count`` for the fault-free execution so the
    zero-hit predraw knows how many samples each record's stream would
    consume.  ``counters.total`` stays 0, so the reference report is
    bit-identical to a fault-free run (see ``build_report``).
    """

    class _ZeroCounters:
        total = 0

    def __init__(self) -> None:
        self.opportunities: Dict[Tuple[str, str], int] = {}
        self.counters = self._ZeroCounters()

    def _count(self, kind: str, site: str) -> None:
        key = (kind, site)
        self.opportunities[key] = self.opportunities.get(key, 0) + 1

    def corrupt_package(self, segment_index: int) -> bool:
        self._count(KIND_CORRUPTION, f"segment:{segment_index}")
        return False

    def lose_segment_grant(self, segment_index: int) -> bool:
        self._count(KIND_GRANT_LOSS, f"segment:{segment_index}")
        return False

    def lose_ca_grant(self) -> bool:
        self._count(KIND_GRANT_LOSS, "ca")
        return False

    def stall_ticks(self, process: str) -> int:
        self._count(KIND_FU_STALL, f"fu:{process}")
        return 0

    def drop_in_bu(self, left: int, right: int) -> bool:
        self._count(KIND_BU_DROP, f"bu:{left}:{right}")
        return False

    def permanent_failures(self) -> Tuple[()]:
        return ()

    def summary(self) -> Dict[str, object]:  # pragma: no cover - not reported
        return {"total": 0, "by_kind": {}, "by_site": {}}


class _CountingPlan:
    """A fault-plan stand-in whose injector is the counting injector."""

    def injector(self) -> _CountingInjector:
        return _CountingInjector()


def record_draws(plan: FaultPlan,
                 opportunities: Dict[Tuple[str, str], int]) -> List[Tuple[int, object, int]]:
    """Per transient record: ``(record index, record, draw count)`` against
    the reference execution's opportunity tally."""
    out = []
    for index, record in enumerate(plan.records):
        if not record.is_transient:
            continue
        count = sum(
            n for (kind, site), n in opportunities.items()
            if kind == record.kind and record.matches(site)
        )
        out.append((index, record, count))
    return out


# ---------------------------------------------------------------------------
# the batch engine's simulation class: the fast kernel itself
# ---------------------------------------------------------------------------


class BatchSimulation(FastSimulation):
    """The ``batch`` engine for a single run: exactly the fast kernel.

    ``batch`` changes how *populations* run (:func:`run_batch`), not how
    one simulation runs.
    """

    # own ``run`` in the class dict: benchmark tracing wraps it by name
    run = FastSimulation.run


# ---------------------------------------------------------------------------
# the public batch API: group, dedup, classify, run the rest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchMember:
    """One instance of a mega-batch: everything one emulation needs."""

    label: str
    application: PSDFGraph
    spec: PlatformSpec
    config: Optional[EmulationConfig] = None
    fault_plan: Optional[FaultPlan] = None
    retry_policy: Optional[RetryPolicy] = None


@dataclass
class BatchMemberOutcome:
    """One instance's result: a finished simulation + report, or an error.

    ``cloned`` marks zero-hit instances that share the group reference's
    simulation and report (provably byte-identical, see the module
    docstring); ``deduped`` marks exact duplicates of an earlier
    instance.  ``group`` indexes the compatibility group.
    """

    label: str
    sim: Optional[Simulation] = None
    report: Optional[EmulationReport] = None
    error: Optional[SegBusError] = None
    cloned: bool = False
    deduped: bool = False
    group: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BatchRunStats:
    """How the batch was executed (tests and docs pin these)."""

    members: int
    groups: int
    simulated: int
    cloned: int
    deduped: int


@dataclass
class BatchRun:
    """Everything :func:`run_batch` produced, in member order."""

    outcomes: Tuple[BatchMemberOutcome, ...]
    stats: BatchRunStats

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)


def _member_group_key(member: BatchMember, cache: Dict[tuple, str]) -> str:
    # canonical_digest lives in the analysis layer but only depends on
    # stdlib + the canonical-form helpers; importing it here keeps one
    # digest convention across checkpoints and batch grouping.  Sweeps
    # share the model objects across hundreds of members, so the digest
    # is memoized by object identity (the member list keeps them alive).
    from repro.analysis.executor import canonical_digest

    ids = (
        id(member.application),
        id(member.spec),
        id(member.config),
        id(member.retry_policy),
    )
    key = cache.get(ids)
    if key is None:
        key = canonical_digest(
            member.application,
            member.spec,
            member.config or EmulationConfig(),
            member.retry_policy or RetryPolicy(),
        )
        cache[ids] = key
    return key


def _member_plan_key(member: BatchMember) -> str:
    from repro.analysis.executor import canonical_digest

    if member.fault_plan is None:
        return ""
    return canonical_digest(member.fault_plan)


def _classify_zero_hit(
    plans: Sequence[FaultPlan],
    opportunities: Dict[Tuple[str, str], int],
) -> List[bool]:
    """Per plan: can it provably not inject anything the reference didn't?

    All plans' streams are replayed in *one* vectorized predraw call —
    per-plan calls would pay numpy's per-op overhead on tiny arrays.
    """
    states: List[int] = []
    rates: List[float] = []
    draws: List[int] = []
    owner: List[int] = []
    for p, plan in enumerate(plans):
        for index, record, count in record_draws(plan, opportunities):
            states.append(
                stream_state(plan.seed, record.site, record.kind, str(index))
            )
            rates.append(record.rate)
            draws.append(count)
            owner.append(p)
    hits = predraw_any_hit(states, rates, draws)
    verdict = [True] * len(plans)
    for k, hit in enumerate(hits):
        if hit:
            verdict[owner[k]] = False
    return verdict


class LockstepBatch:
    """Run members one after another on the fast kernel's own ``run()``.

    A :class:`~repro.errors.SegBusError` (deadlock, stall, retry
    exhaustion) is captured as that member's outcome; any other
    exception propagates.
    """

    # name and ``drain`` kept: benchmark tracing wraps LockstepBatch.drain

    def __init__(self, members: Sequence[BatchMember], group: int) -> None:
        self.members = list(members)
        self.group = group

    def drain(self) -> List[BatchMemberOutcome]:
        """Run every member to completion; outcomes in member order."""
        outcomes = []
        for member in self.members:
            sim = BatchSimulation(
                member.application,
                member.spec,
                member.config,
                fault_plan=member.fault_plan,
                retry_policy=member.retry_policy,
            )
            try:
                sim.run()
            except SegBusError as exc:
                outcome = BatchMemberOutcome(
                    label=member.label, error=exc, group=self.group
                )
            else:
                outcome = BatchMemberOutcome(
                    label=member.label,
                    sim=sim,
                    report=build_report(sim),
                    group=self.group,
                )
            outcomes.append(outcome)
        return outcomes


def run_batch(members: Sequence[BatchMember]) -> BatchRun:
    """Simulate a population of instances in one call.

    Instances are grouped by compatibility (application, spec, config,
    retry policy); heterogeneous batches are simply handled group by
    group.  Within a group, exact duplicates are deduplicated, zero-hit
    instances clone the group reference (see the module docstring for
    why that is exact), and everything else runs on the fast kernel,
    one member after another.  Outcomes come back in member order;
    instance-level failures (:class:`~repro.errors.SegBusError`) are
    captured per instance and never poison siblings.
    """
    members = list(members)
    outcomes: List[Optional[BatchMemberOutcome]] = [None] * len(members)
    groups: Dict[str, List[int]] = {}
    key_cache: Dict[tuple, str] = {}
    for i, member in enumerate(members):
        groups.setdefault(_member_group_key(member, key_cache), []).append(i)

    simulated = cloned = deduped = 0
    for group, indices in enumerate(groups.values()):
        # -- dedup exact duplicates onto the first occurrence --------------
        first_by_plan: Dict[str, int] = {}
        distinct: List[int] = []
        dup_of: Dict[int, int] = {}
        for i in indices:
            key = _member_plan_key(members[i])
            if key in first_by_plan:
                dup_of[i] = first_by_plan[key]
                deduped += 1
            else:
                first_by_plan[key] = i
                distinct.append(i)

        # -- zero-hit fast path: one reference run for the whole group -----
        reference: Optional[BatchSimulation] = None
        reference_report: Optional[EmulationReport] = None
        opportunities: Optional[Dict[Tuple[str, str], int]] = None
        if len(distinct) > 1:
            exemplar = members[distinct[0]]
            try:
                reference = BatchSimulation(
                    exemplar.application,
                    exemplar.spec,
                    exemplar.config,
                    fault_plan=_CountingPlan(),
                    retry_policy=exemplar.retry_policy,
                ).run()
            except SegBusError:
                reference = None  # group misbehaves fault-free: run all fully
            else:
                if not reference.degraded:
                    opportunities = reference.faults.opportunities
                    reference_report = build_report(reference)
                    simulated += 1

        to_run: List[int] = []
        candidates: List[int] = []
        clone_now: List[int] = []
        for i in distinct:
            plan = members[i].fault_plan
            if opportunities is None:
                to_run.append(i)
            elif plan is None:
                clone_now.append(i)
            elif plan.permanent_records:
                to_run.append(i)
            else:
                candidates.append(i)
        if candidates:
            verdicts = _classify_zero_hit(
                [members[i].fault_plan for i in candidates], opportunities
            )
            for i, is_zero_hit in zip(candidates, verdicts):
                (clone_now if is_zero_hit else to_run).append(i)
        for i in clone_now:
            outcomes[i] = BatchMemberOutcome(
                label=members[i].label,
                sim=reference,
                report=reference_report,
                cloned=True,
                group=group,
            )
            cloned += 1
        if to_run:
            ran = LockstepBatch([members[i] for i in to_run], group).drain()
            for i, outcome in zip(to_run, ran):
                outcomes[i] = outcome
            simulated += len(to_run)

        for i, source in dup_of.items():
            original = outcomes[source]
            outcomes[i] = BatchMemberOutcome(
                label=members[i].label,
                sim=original.sim,
                report=original.report,
                error=original.error,
                cloned=original.cloned,
                deduped=True,
                group=group,
            )

    return BatchRun(
        outcomes=tuple(outcomes),
        stats=BatchRunStats(
            members=len(members),
            groups=len(groups),
            simulated=simulated,
            cloned=cloned,
            deduped=deduped,
        ),
    )


# register the engine: fastkernel resolves "batch" to this class lazily
from repro.emulator import fastkernel as _fastkernel  # noqa: E402

_fastkernel._ENGINES["batch"] = BatchSimulation
