"""Integration tests for the overload-resilience layer.

Covers the Figure-2 mutual-preemption workload — it livelocks under
unconstrained min-cost selection and commits everything under Theorem 2's
ordered policy — plus the seeded stress harness's determinism, the adaptive-admission benefit
the pinned regression case encodes, the ``no-starvation`` oracle, and the
structured :class:`QuiescenceTimeout` diagnosis."""

import pytest

from repro import Database, Scheduler, TransactionProgram, ops
from repro.admission import (
    OverloadConfig,
    overload_run,
)
from repro.analysis.figures import drive_figure2
from repro.core.scheduler import StepOutcome, StepResult
from repro.core.transaction import TxnStatus
from repro.errors import QuiescenceTimeout
from repro.simulation import SimulationEngine
from repro.simulation.trace import Trace
from repro.verification.fuzzer import (
    FUZZ_PROFILES,
    FuzzConfig,
    apply_profile,
    fuzz_campaign,
)
from repro.verification.oracles import (
    NoStarvationOracle,
    OracleSuite,
    OracleViolation,
)


class TestFigure2Acceptance:
    """The headline guarantee: Theorem 2's order breaks Figure 2's livelock."""

    def test_min_cost_livelocks_without_watchdog(self):
        result = drive_figure2(policy="min-cost")
        assert result.livelock_detected
        assert sorted(result.committed) != ["T1", "T2", "T3", "T4"]

    def test_ordered_policy_needs_no_watchdog(self):
        # Control: Theorem 2 baked into the victim policy already prevents
        # the livelock without any runtime enforcement.
        result = drive_figure2(policy="ordered-min-cost")
        assert not result.livelock_detected
        assert sorted(result.committed) == ["T1", "T2", "T3", "T4"]


class TestOverloadHarness:
    SMALL = dict(
        n_transactions=10,
        n_entities=4,
        locks_per_txn=(2, 3),
        deadline_steps=400,
        max_steps=60_000,
    )

    def test_same_seed_same_fingerprint(self):
        reports = [
            overload_run(OverloadConfig(**self.SMALL), seed=3)[0]
            for _ in range(2)
        ]
        assert reports[0].fingerprint() == reports[1].fingerprint()
        assert reports[0].no_starvation

    def test_different_seeds_differ(self):
        a, _ = overload_run(OverloadConfig(**self.SMALL), seed=3)
        b, _ = overload_run(OverloadConfig(**self.SMALL), seed=4)
        assert a.fingerprint() != b.fingerprint()

    def test_report_accounts_for_every_transaction(self):
        config = OverloadConfig(**self.SMALL)
        report, _ = overload_run(config, seed=7)
        assert (
            report.committed + len(report.shed) + len(report.starved)
            == config.n_transactions
        )
        assert report.starved == []
        assert "p99" in report.describe()

    def test_all_committed_means_all(self):
        """A run that sheds is not "all committed", however many others
        did commit (the flag used to be true after the first commit)."""
        config = OverloadConfig(**dict(self.SMALL, deadline_steps=20))
        report, result = overload_run(config, seed=0)
        assert report.shed and report.committed
        assert result.shed == report.shed
        assert len(result.committed) + len(result.shed) == result.population
        assert not result.all_committed
        _, roomy = overload_run(OverloadConfig(**self.SMALL), seed=0)
        assert roomy.population == config.n_transactions
        assert not roomy.shed and roomy.all_committed

    def test_open_loop_arrivals(self):
        config = OverloadConfig(**dict(self.SMALL, interarrival=5))
        report, _ = overload_run(config, seed=11)
        assert report.no_starvation
        assert report.committed == config.n_transactions

    def test_adaptive_admission_reduces_rollbacks(self):
        """The regression case's claim, unpinned: under a hot workload the
        AIMD gate yields strictly fewer rollbacks than unbounded admission
        while still committing everything."""
        base = dict(
            n_transactions=24,
            n_entities=4,
            locks_per_txn=(2, 3),
            aimd_initial=6,
            aimd_max_window=16,
            max_steps=100_000,
        )
        adaptive, _ = overload_run(
            OverloadConfig(admission_policy="aimd", **base), seed=7
        )
        unbounded, _ = overload_run(
            OverloadConfig(admission_policy=None, **base), seed=7
        )
        assert adaptive.committed == unbounded.committed == 24
        assert adaptive.rollbacks < unbounded.rollbacks

    def test_predictive_admission_beats_fixed_mpl(self):
        """The PR's acceptance claim: anchoring the window at the static
        analyzer's recommended MPL (and admitting low-risk templates
        first) yields fewer rollbacks than a fixed MPL on the default
        hostile workload, with everything still committing."""
        predictive, _ = overload_run(
            OverloadConfig(admission_policy="predictive"), seed=7
        )
        fixed, _ = overload_run(
            OverloadConfig(admission_policy="fixed-mpl"), seed=7
        )
        assert predictive.committed == fixed.committed == 32
        assert predictive.shed == [] and predictive.starved == []
        assert predictive.rollbacks < fixed.rollbacks

    def test_predictive_admission_deterministic(self):
        config = OverloadConfig(
            admission_policy="predictive", **self.SMALL
        )
        a, _ = overload_run(config, seed=3)
        b, _ = overload_run(config, seed=3)
        assert a.fingerprint() == b.fingerprint()

    def test_unknown_admission_policy_rejected(self):
        with pytest.raises(ValueError):
            overload_run(
                OverloadConfig(admission_policy="bogus", **self.SMALL),
                seed=1,
            )


class TestNoStarvationOracle:
    def _contended_pair(self):
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        scheduler.register(TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.entity("a") + ops.const(1)),
            ops.assign("x", ops.const(0)),
            ops.assign("y", ops.const(0)),
            ops.assign("z", ops.const(0)),
        ]))
        scheduler.register(TransactionProgram("T2", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.entity("a") + ops.const(1)),
        ]))
        return scheduler

    def test_silent_on_timely_completion(self):
        scheduler = self._contended_pair()
        suite = OracleSuite([NoStarvationOracle()])
        engine = SimulationEngine(scheduler, on_step=suite)
        result = engine.run()
        assert sorted(result.committed) == ["T1", "T2"]

    def test_fires_when_bound_exceeded(self):
        scheduler = self._contended_pair()
        # T2 waits behind T1 for more than 2 steps: the (absurdly tight)
        # bound trips even though the run would eventually complete.
        suite = OracleSuite([NoStarvationOracle(limit=2)])
        engine = SimulationEngine(scheduler, on_step=suite)
        with pytest.raises(OracleViolation) as excinfo:
            engine.run()
        assert excinfo.value.oracle == "no-starvation"
        assert "starvation" in str(excinfo.value)

    def test_flags_silent_shed(self):
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        scheduler.register(
            TransactionProgram("T1", [ops.lock_exclusive("a")])
        )
        # Force the terminal state without going through Scheduler.shed,
        # leaving no outcome in metrics — exactly the bug the oracle exists
        # to catch.
        scheduler.transactions["T1"].status = TxnStatus.SHED
        event = Trace().record(
            1, StepResult("T1", StepOutcome.WAITING), operation="noop"
        )
        with pytest.raises(OracleViolation, match="without a recorded"):
            NoStarvationOracle().check(scheduler, event)

    def test_explicit_shed_is_accepted(self):
        scheduler = self._contended_pair()
        assert scheduler.step("T1").outcome is StepOutcome.GRANTED
        assert scheduler.step("T2").outcome is StepOutcome.BLOCKED
        scheduler.shed("T2")
        event = Trace().record(
            1, StepResult("T2", StepOutcome.WAITING), operation="noop"
        )
        NoStarvationOracle().check(scheduler, event)  # must not raise

    def test_validation(self):
        with pytest.raises(ValueError):
            NoStarvationOracle(limit=0)


class TestFuzzProfiles:
    def test_hot_profile_registered(self):
        assert "hot" in FUZZ_PROFILES

    def test_apply_profile_overrides_shape(self):
        config = apply_profile(FuzzConfig(steps=500, seed=1), "hot")
        assert config.n_entities == FUZZ_PROFILES["hot"]["n_entities"]
        assert config.write_ratio == 1.0
        assert config.steps == 500  # non-shape knobs untouched

    def test_apply_profile_unknown(self):
        with pytest.raises(ValueError):
            apply_profile(FuzzConfig(), "volcanic")

    def test_hot_campaign_deterministic_with_starvation_oracle(self):
        reports = [
            fuzz_campaign(
                apply_profile(
                    FuzzConfig(steps=400, seed=5, checks="all"), "hot"
                )
            )
            for _ in range(2)
        ]
        assert reports[0].fingerprint == reports[1].fingerprint
        assert not reports[0].failures


class TestQuiescenceDiagnosis:
    def test_timeout_snapshot_includes_waits_for(self):
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        scheduler.register(TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.assign("x", ops.const(0)),
        ]))
        scheduler.register(
            TransactionProgram("T2", [ops.lock_exclusive("a")])
        )
        assert scheduler.step("T1").outcome is StepOutcome.GRANTED
        assert scheduler.step("T2").outcome is StepOutcome.BLOCKED
        with pytest.raises(QuiescenceTimeout) as excinfo:
            scheduler.run_until_quiescent(max_steps=1)
        diagnosis = excinfo.value.diagnosis
        assert diagnosis is not None
        assert diagnosis.runnable == ["T1"]
        assert diagnosis.blocked == ["T2"]
        # The waits-for snapshot carries the blocking arc T1 --a--> T2.
        assert diagnosis.graph.entity_between("T1", "T2") == {"a"}
        text = diagnosis.describe()
        assert "T2" in text and "T1" in text
