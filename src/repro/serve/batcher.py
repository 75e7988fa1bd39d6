"""Coalesce queued emulate jobs into vectorized ``run_batch`` groups.

When the dispatcher drains a micro-batch and finds several
batch-engine emulations waiting, running them one executor job at a time
would waste the shared construction and cloning the batch engine
offers.  This module takes those jobs straight into
:func:`repro.emulator.batchkernel.run_batch`, which groups compatible
members by canonical digest, dedups identical plans, clones zero-hit
members off one reference run, and runs the rest on the fast kernel one
after another — per-member failure isolation included.

Eligibility (:func:`batchable`) is deliberately conservative:

* ``kind == "emulate"`` with the ``batch`` engine — other engines gain
  nothing from coalescing and keep their per-job executor path;
* inline schemes only — workload jobs regenerate their models inside a
  worker (generation is seeded but costs lint passes; the dispatcher
  thread must not stall on it);
* not ``strict`` — the strict path lints before simulating and its
  failure shape (``LintError``) belongs to the per-job path.

Equivalence: a member's report comes from the same ``build_report`` over
the same batch kernel the per-job path would use with ``engine="batch"``,
so coalescing is invisible in the response bytes — the serving
equivalence suite pins this through real HTTP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.executor import JobFailure
from repro.serve.jobs import ServeJob


def batchable(job: ServeJob) -> bool:
    """True when ``job`` may ride a coalesced ``run_batch`` group."""
    return (
        job.kind == "emulate"
        and job.engine == "batch"
        and job.workload is None
        and not job.strict
        and job.psdf_xml is not None
        and job.psm_xml is not None
    )


def _model_failure(job: ServeJob, exc: Exception) -> JobFailure:
    """The ledger entry of a member whose model the emulator refused."""
    return JobFailure(
        label=job.label,
        attempts=1,
        kind="model",
        error=type(exc).__name__,
        message=str(exc),
    )


def run_emulate_batch(
    jobs: Sequence[ServeJob],
) -> List[Tuple[Optional[Dict[str, object]], Optional[JobFailure]]]:
    """Execute eligible emulate jobs as one vectorized batch.

    Returns one ``(body, failure)`` pair per job, in input order —
    exactly one of the two is set.  A member that fails (a graph the
    emulator refuses, deadlock, fault exhaustion) becomes a structured
    :class:`JobFailure` of kind ``"model"`` without poisoning its
    siblings, mirroring the executor's ledger shape.
    """
    from repro.emulator.batchkernel import BatchMember, run_batch
    from repro.emulator.emulator import SegBusEmulator
    from repro.errors import SegBusError
    from repro.serve.jobs import RESPONSE_SCHEMA_VERSION, cache_key
    from repro.xmlio.faults_xml import parse_fault_plan_xml

    out: List[Tuple[Optional[Dict[str, object]], Optional[JobFailure]]] = [
        (None, None)
    ] * len(jobs)
    members: List[BatchMember] = []
    positions: List[int] = []
    for position, job in enumerate(jobs):
        try:
            emulator = SegBusEmulator(
                job.psdf_xml or "",
                job.psm_xml or "",
                fault_plan=(
                    parse_fault_plan_xml(job.fault_plan_xml)
                    if job.fault_plan_xml is not None
                    else None
                ),
            )
        except SegBusError as exc:
            out[position] = (None, _model_failure(job, exc))
            continue
        members.append(
            BatchMember(
                label=job.label,
                application=emulator.application,
                spec=emulator.spec,
                config=emulator.config,
                fault_plan=emulator.fault_plan,
            )
        )
        positions.append(position)
    try:
        run = run_batch(members)
    except SegBusError as exc:
        # a whole-batch failure (not per-member) fails every member alike
        for position in positions:
            out[position] = (None, _model_failure(jobs[position], exc))
        return out

    for position, outcome in zip(positions, run.outcomes):
        job = jobs[position]
        if outcome.error is not None:
            out[position] = (None, _model_failure(job, outcome.error))
            continue
        report = outcome.report
        assert report is not None  # an outcome holds a report or an error
        body: Dict[str, object] = {
            "kind": "emulate",
            "engine": job.engine,
            "multimode": False,
            "result": report.to_dict(),
            "digest": report.digest(),
            "schema": RESPONSE_SCHEMA_VERSION,
            "key": cache_key(job),
        }
        out[position] = (body, None)
    return out
