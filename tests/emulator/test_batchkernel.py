"""Batch-kernel tests: grouping, cloning, isolation, order invariance.

The batch engine promises two things at once: per-member observables
*byte-identical* to the stepped kernel, and an execution strategy
(shared construction, zero-hit cloning, dedup, the remaining members run
one after another on the fast kernel) that never leaks into those
observables.  These tests pin the batch-shape edge cases — empty batch,
batch of one, heterogeneous batches, a member that dies mid-batch — plus
the internal machinery the equivalence proof leans on (exact vectorized
fault predraws and the counting injector's opportunity census).
"""

import random

import pytest

from repro.apps.mp3 import mp3_decoder_psdf, paper_platform
from repro.emulator.batchkernel import (
    BatchMember,
    BatchSimulation,
    _CountingPlan,
    _python_any_hit,
    _vector_any_hit,
    record_draws,
    run_batch,
)
from repro.emulator.kernel import PlatformSpec, Simulation
from repro.emulator.report import build_report
from repro.errors import SegBusError
from repro.faults import FaultPlan, RetryPolicy

RATES = (0.0, 0.0005, 0.001)
SEEDS = (1, 2, 3)


def _spec(segments=2, package_size=8):
    return PlatformSpec.from_platform(
        paper_platform(segments, package_size=package_size)
    )


def _member(label, seed=1, rate=0.001, spec=None, policy=None):
    return BatchMember(
        label=label,
        application=mp3_decoder_psdf(),
        spec=spec or _spec(),
        fault_plan=FaultPlan.transient(seed=seed, corruption_rate=rate),
        retry_policy=policy or RetryPolicy(on_exhaustion="degrade"),
    )


def _stepped_digest(member):
    sim = Simulation(
        member.application,
        member.spec,
        member.config,
        fault_plan=member.fault_plan,
        retry_policy=member.retry_policy,
    ).run()
    return build_report(sim).digest()


class TestBatchShapes:
    def test_empty_batch(self):
        run = run_batch([])
        assert run.ok
        assert run.outcomes == ()
        assert run.stats.members == 0
        assert run.stats.groups == 0

    def test_batch_of_one(self):
        member = _member("solo", rate=0.01)
        run = run_batch([member])
        assert run.ok
        assert run.stats.members == 1
        assert run.stats.simulated == 1
        assert run.stats.cloned == 0
        assert run.outcomes[0].report.digest() == _stepped_digest(member)

    def test_heterogeneous_batch_falls_back_per_group(self):
        # different platform specs cannot share a group; the
        # batch must split per compatibility group, not reject or merge
        members = [
            _member("a2", spec=_spec(segments=2)),
            _member("b3", spec=_spec(segments=3)),
            _member("c2", seed=2, spec=_spec(segments=2)),
        ]
        run = run_batch(members)
        assert run.ok
        assert run.stats.groups == 2
        for member, outcome in zip(members, run.outcomes):
            assert outcome.report.digest() == _stepped_digest(member)
        # members of one group share its index, across groups they differ
        assert run.outcomes[0].group == run.outcomes[2].group
        assert run.outcomes[0].group != run.outcomes[1].group

    def test_member_order_is_preserved(self):
        members = [_member(f"m{seed}", seed=seed) for seed in SEEDS]
        run = run_batch(members)
        assert [o.label for o in run.outcomes] == [m.label for m in members]


class TestFailureIsolation:
    def _mixed(self):
        # one member's plan exhausts retries under a fail policy while
        # its siblings (same group: same app/spec/config/policy) complete
        policy = RetryPolicy(max_attempts=1, on_exhaustion="fail")
        return [
            _member("healthy1", seed=1, rate=0.0, policy=policy),
            _member("doomed", seed=7, rate=1.0, policy=policy),
            _member("healthy2", seed=2, rate=0.0, policy=policy),
        ]

    def test_mid_batch_failure_does_not_poison_siblings(self):
        members = self._mixed()
        run = run_batch(members)
        assert not run.ok
        by_label = {o.label: o for o in run.outcomes}
        assert isinstance(by_label["doomed"].error, SegBusError)
        assert by_label["doomed"].report is None
        for label in ("healthy1", "healthy2"):
            assert by_label[label].ok
            assert by_label[label].report.digest() == _stepped_digest(
                members[0 if label == "healthy1" else 2]
            )

    def test_budget_stop_is_that_members_error(self):
        # a member that exhausts its event budget (its own group: the
        # config differs) fails alone; its sibling still matches stepped
        from repro.emulator.config import EmulationConfig
        from repro.errors import StallError

        spec = _spec()
        healthy = BatchMember(
            label="ok", application=mp3_decoder_psdf(), spec=spec
        )
        dead = BatchMember(
            label="budget-dead",
            application=mp3_decoder_psdf(),
            spec=spec,
            config=EmulationConfig(max_events=3),
        )
        run = run_batch([healthy, dead])
        assert not run.ok
        assert run.stats.groups == 2
        ok, failed = run.outcomes
        assert ok.report.digest() == _stepped_digest(healthy)
        assert isinstance(failed.error, StallError)
        assert failed.report is None and failed.sim is None


class TestCloningAndDedup:
    def test_zero_hit_members_clone_the_reference(self):
        members = [
            _member(f"{rate:g}#{seed}", seed=seed, rate=rate)
            for rate in RATES
            for seed in SEEDS
        ]
        run = run_batch(members)
        assert run.ok
        assert run.stats.groups == 1
        assert run.stats.cloned > 0
        assert run.stats.simulated + run.stats.cloned + run.stats.deduped == (
            len(members) + (1 if run.stats.cloned else 0)
        )  # +1: the group's counting reference run
        for member, outcome in zip(members, run.outcomes):
            assert outcome.report.digest() == _stepped_digest(member)

    def test_cloned_outcomes_share_the_reference_objects(self):
        members = [_member(f"z{seed}", seed=seed, rate=0.0) for seed in SEEDS]
        run = run_batch(members)
        clones = [o for o in run.outcomes if o.cloned]
        assert len(clones) == len(members)
        assert len({id(o.sim) for o in clones}) == 1
        assert len({id(o.report) for o in clones}) == 1

    def test_exact_duplicates_dedup_onto_first_occurrence(self):
        plan = FaultPlan.transient(seed=5, corruption_rate=0.01)
        spec = _spec()
        twin = dict(
            application=mp3_decoder_psdf(),
            spec=spec,
            fault_plan=plan,
            retry_policy=RetryPolicy(on_exhaustion="degrade"),
        )
        run = run_batch(
            [BatchMember(label="one", **twin), BatchMember(label="two", **twin)]
        )
        assert run.ok
        assert run.stats.deduped == 1
        assert run.outcomes[1].deduped
        assert run.outcomes[1].report is run.outcomes[0].report

    def test_batch_order_invariance(self):
        members = [
            _member(f"{rate:g}#{seed}", seed=seed, rate=rate)
            for rate in RATES
            for seed in SEEDS
        ]
        straight = {
            o.label: o.report.digest() for o in run_batch(members).outcomes
        }
        shuffled = list(members)
        random.Random(42).shuffle(shuffled)
        reshuffled = {
            o.label: o.report.digest() for o in run_batch(shuffled).outcomes
        }
        assert straight == reshuffled


class TestPredrawMachinery:
    def test_vectorized_predraw_matches_sequential_reference(self):
        rng = random.Random(99)
        states = [rng.getrandbits(64) | 1 for _ in range(40)]
        rates = [rng.choice([1e-4, 1e-3, 0.02, 0.3]) for _ in range(40)]
        draws = [rng.randint(0, 50) for _ in range(40)]
        assert _vector_any_hit(states, rates, draws) == _python_any_hit(
            states, rates, draws
        )

    def test_counting_reference_census_bounds_the_plan_draws(self):
        # the counting run tallies every fault-draw opportunity of the
        # fault-free execution; a real plan over the same model can only
        # draw at sites/kinds that census knows about
        member = _member("census", rate=0.001)
        reference = BatchSimulation(
            member.application,
            member.spec,
            fault_plan=_CountingPlan(),
            retry_policy=member.retry_policy,
        ).run()
        opportunities = reference.faults.opportunities
        assert opportunities
        assert all(count > 0 for count in opportunities.values())
        draws = record_draws(member.fault_plan, opportunities)
        assert draws
        for _index, record, count in draws:
            assert count == sum(
                n
                for (kind, site), n in opportunities.items()
                if kind == record.kind and record.matches(site)
            )

    def test_zero_rate_plan_report_is_bit_identical_to_fault_free(self):
        # the invariant the clone path leans on: a plan whose streams
        # never fire must leave no trace in the report
        member = _member("null", rate=0.0)
        bare = BatchMember(
            label="bare", application=member.application, spec=member.spec
        )
        run = run_batch([member])
        assert run.outcomes[0].report.digest() == _stepped_digest(bare)


class TestEngineRegistration:
    def test_batch_engine_is_registered(self):
        from repro.emulator.fastkernel import ENGINE_NAMES, simulation_class

        assert "batch" in ENGINE_NAMES
        assert simulation_class("batch") is BatchSimulation

    def test_env_selects_batch(self, monkeypatch):
        from repro.emulator.fastkernel import resolve_engine

        monkeypatch.setenv("SEGBUS_ENGINE", "batch")
        assert resolve_engine(None) == "batch"

    def test_single_run_matches_stepped(self):
        spec = _spec(segments=3, package_size=36)
        application = mp3_decoder_psdf()
        batch_sim = BatchSimulation(application, spec).run()
        stepped_sim = Simulation(application, spec).run()
        assert (
            build_report(batch_sim).digest()
            == build_report(stepped_sim).digest()
        )
        assert batch_sim.queue.executed == stepped_sim.queue.executed
