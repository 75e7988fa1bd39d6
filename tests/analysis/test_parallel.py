"""Emulation campaigns through the supervised executor and ``run_batch``.

Real emulations (not probe jobs) under :class:`CampaignExecutor`: input
order, serial == parallel, failure labelling, partial results plus the
ledger, and checkpoint resume.  The batch strategy must return the same
per-member summaries as the executor path.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Tuple

import pytest

from repro.analysis.executor import (
    CampaignExecutor,
    JobError,
    JobFailure,
    canonical_digest,
)
from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.batchkernel import BatchMember, run_batch
from repro.emulator.config import EmulationConfig
from repro.emulator.fastkernel import FastSimulation
from repro.emulator.kernel import PlatformSpec
from repro.psdf.generators import chain_psdf
from repro.psdf.graph import PSDFGraph
from repro.units import fs_to_us


@dataclass(frozen=True)
class EmulationCase:
    """One independent emulation, picklable for the executor's workers."""

    label: str
    application: PSDFGraph
    spec: PlatformSpec
    config: EmulationConfig = field(default_factory=EmulationConfig)

    def digest(self) -> str:
        return canonical_digest(
            self.label, self.application, self.spec, self.config
        )


class Summary(NamedTuple):
    label: str
    execution_time_us: float
    total_events: int
    ca_tct: int
    sa_tcts: Tuple[int, ...]
    packages_delivered: int


def summary_of(label, sim) -> Summary:
    return Summary(
        label=label,
        execution_time_us=fs_to_us(sim.execution_time_fs()),
        total_events=sim.queue.executed,
        ca_tct=sim.ca.counters.tct,
        sa_tcts=tuple(sim.sa_tct(i) for i in sorted(sim.segments)),
        packages_delivered=sum(
            c.packages_received for c in sim.process_counters.values()
        ),
    )


def summarize(case: EmulationCase) -> Summary:
    """The module-level (picklable) runner."""
    sim = FastSimulation(case.application, case.spec, case.config).run()
    return summary_of(case.label, sim)


def run_cases(cases, **kwargs):
    return CampaignExecutor(summarize, **kwargs).run(cases)


def emulate_all(cases, **kwargs):
    batch = run_cases(cases, **kwargs)
    return list(batch.raise_on_failure(what="emulation job").results)


def make_jobs():
    mp3 = mp3_decoder_psdf()
    jobs = []
    for size in (18, 36, 72):
        spec = PlatformSpec.from_platform(paper_platform(3, package_size=size))
        jobs.append(EmulationCase(label=f"s{size}", application=mp3, spec=spec))
    chain = chain_psdf(4, items_per_stage=144, ticks_per_package=60)
    jobs.append(
        EmulationCase(
            label="chain",
            application=chain,
            spec=PlatformSpec(
                package_size=36,
                segment_frequencies_mhz={1: 100.0},
                ca_frequency_mhz=100.0,
                placement={name: 1 for name in chain.process_names},
            ),
            config=EmulationConfig.reference(),
        )
    )
    return jobs


class TestParallelEmulate:
    def test_results_in_input_order(self):
        results = emulate_all(make_jobs(), workers=2)
        assert [r.label for r in results] == ["s18", "s36", "s72", "chain"]

    def test_parallel_equals_serial(self):
        jobs = make_jobs()
        serial = emulate_all(jobs, workers=1)
        parallel = emulate_all(jobs, workers=2)
        assert serial == parallel  # bit-identical summaries

    def test_small_batch_runs_serially(self):
        jobs = make_jobs()[:2]
        results = emulate_all(jobs, workers=4, serial_threshold=3)
        assert len(results) == 2  # no pool spun up; just works

    def test_result_contents(self):
        result = emulate_all(make_jobs()[:1], workers=1)[0]
        assert result.execution_time_us > 0
        assert result.packages_delivered > 0
        assert len(result.sa_tcts) == 3

    def test_empty_batch(self):
        assert emulate_all([], workers=2) == []


def make_broken_job(label="broken"):
    """A job whose worker must fail: the placement misses processes."""
    chain = chain_psdf(3, items_per_stage=72, ticks_per_package=40)
    return EmulationCase(
        label=label,
        application=chain,
        spec=PlatformSpec(
            package_size=36,
            segment_frequencies_mhz={1: 100.0},
            ca_frequency_mhz=100.0,
            placement={chain.process_names[0]: 1},  # others unplaced
        ),
    )


class TestWorkerFailure:
    def test_serial_failure_names_the_job(self):
        with pytest.raises(JobError, match="broken"):
            emulate_all([make_broken_job()], workers=1)

    def test_parallel_failure_names_the_job(self):
        jobs = make_jobs() + [make_broken_job()]
        with pytest.raises(JobError, match="broken"):
            emulate_all(jobs, workers=2)

    def test_multiple_failures_all_reported(self):
        jobs = [make_broken_job("bad_a"), make_broken_job("bad_b")]
        with pytest.raises(JobError, match="bad_a.*bad_b"):
            emulate_all(jobs, workers=1)

    def test_failure_reports_counts(self):
        jobs = make_jobs() + [make_broken_job()]
        with pytest.raises(JobError, match=r"1 of 5"):
            emulate_all(jobs, workers=2)

    def test_healthy_batch_unaffected_by_wrapping(self):
        results = emulate_all(make_jobs(), workers=2)
        assert all(isinstance(r, Summary) for r in results)

    def test_job_error_keeps_partial_results_and_ledger(self):
        jobs = make_jobs() + [make_broken_job()]
        with pytest.raises(JobError) as excinfo:
            emulate_all(jobs, workers=2)
        err = excinfo.value
        # the completed summaries are not discarded
        assert len(err.partial_results) == 4
        assert all(isinstance(r, Summary) for r in err.partial_results)
        (failure,) = err.failures
        assert isinstance(failure, JobFailure)
        assert failure.label == "broken"
        assert failure.attempts >= 1
        assert failure.error  # exception class name
        assert failure.traceback_tail

    def test_emulate_batch_degrades_gracefully(self):
        jobs = make_jobs() + [make_broken_job()]
        batch = run_cases(jobs, workers=2)
        assert not batch.ok
        assert batch.results[-1] is None
        assert [r.label for r in batch.results[:-1]] == [
            "s18", "s36", "s72", "chain"
        ]
        assert batch.failures[0].label == "broken"


class TestCheckpointedEmulation:
    def test_resumed_digests_equal_clean_run(self, tmp_path):
        jobs = make_jobs()
        clean = emulate_all(jobs, workers=2)
        first = emulate_all(
            jobs,
            workers=2,
            checkpoint_dir=tmp_path,
            checkpoint_name="emu",
        )
        resumed = emulate_all(
            jobs,
            workers=2,
            checkpoint_dir=tmp_path,
            checkpoint_name="emu",
            resume=True,
        )
        assert clean == first == resumed  # bit-identical summaries


class TestVectorizedBatchPath:
    def test_vectorized_results_equal_executor_path(self):
        jobs = make_jobs()
        executed = emulate_all(jobs, workers=1)
        run = run_batch(
            [
                BatchMember(
                    label=job.label,
                    application=job.application,
                    spec=job.spec,
                    config=job.config,
                )
                for job in jobs
            ]
        )
        assert run.ok
        batched = [summary_of(o.label, o.sim) for o in run.outcomes]
        assert batched == executed
