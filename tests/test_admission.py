"""Unit tests for repro.admission: the circuit breaker state machine,
admission policies (fixed MPL, AIMD, predictive), the admission
controller, the deadline escalation ladder, and the SHED terminal
state."""

import pytest

from repro import Database, Scheduler, TransactionProgram, ops
from repro.admission import (
    AdmissionController,
    AimdPolicy,
    BreakerState,
    CircuitBreaker,
    DeadlineEnforcer,
    FixedMplPolicy,
    available_admission_policies,
    make_admission_policy,
)
from repro.admission.policies import AdmissionSnapshot
from repro.core.metrics import DEADLINE_EXCEEDED
from repro.core.scheduler import StepOutcome
from repro.core.transaction import TxnStatus
from repro.errors import SimulationError


def snap(step, rollbacks=0, commits=0, in_flight=0, queued=0, shed=0):
    return AdmissionSnapshot(
        step=step, in_flight=in_flight, queued=queued,
        commits=commits, rollbacks=rollbacks, shed=shed,
    )


def lock_program(txn_id, *entities):
    operations = []
    for entity in entities:
        operations.append(ops.lock_exclusive(entity))
        operations.append(
            ops.write(entity, ops.entity(entity) + ops.const(1))
        )
    return TransactionProgram(txn_id, operations)


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        b = CircuitBreaker(failure_threshold=3, window=10, cooldown=5)
        assert b.record_failure(0) is False
        assert b.record_failure(1) is False
        assert b.state is BreakerState.CLOSED
        assert b.record_failure(2) is True
        assert b.state is BreakerState.OPEN
        assert b.opened_count == 1

    def test_open_rejects_until_cooldown(self):
        b = CircuitBreaker(failure_threshold=1, window=10, cooldown=5)
        b.record_failure(0)
        assert not b.allow(1)
        assert not b.allow(4)
        assert b.reopen_at() == 5
        # Cool-down over: the next request is a half-open probe.
        assert b.allow(5)
        assert b.state is BreakerState.HALF_OPEN

    def test_half_open_success_closes(self):
        b = CircuitBreaker(failure_threshold=1, window=10, cooldown=5)
        b.record_failure(0)
        assert b.allow(5)
        b.record_success(5)
        assert b.state is BreakerState.CLOSED
        # Failure history was cleared; one new failure re-trips (threshold 1).
        assert b.record_failure(6) is True

    def test_half_open_failure_reopens(self):
        b = CircuitBreaker(failure_threshold=1, window=10, cooldown=5)
        b.record_failure(0)
        assert b.allow(5)
        assert b.record_failure(5) is True
        assert b.state is BreakerState.OPEN
        assert b.reopen_at() == 10
        assert b.opened_count == 2

    def test_half_open_probe_budget(self):
        b = CircuitBreaker(failure_threshold=1, window=10, cooldown=5)
        b.record_failure(0)
        assert b.allow(5)       # the single probe
        assert not b.allow(5)   # second concurrent request is rejected

    def test_sliding_window_forgets_old_failures(self):
        b = CircuitBreaker(failure_threshold=2, window=5, cooldown=5)
        b.record_failure(0)
        # 10 is past the window, so the failure at 0 no longer counts.
        assert b.record_failure(10) is False
        assert b.state is BreakerState.CLOSED

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)


class TestAdmissionPolicies:
    def test_registry(self):
        assert available_admission_policies() == (
            "fixed-mpl", "aimd", "predictive",
        )
        assert isinstance(make_admission_policy("fixed-mpl"), FixedMplPolicy)
        assert isinstance(make_admission_policy("aimd"), AimdPolicy)
        from repro.admission.policies import PredictivePolicy

        assert isinstance(
            make_admission_policy("predictive"), PredictivePolicy
        )
        with pytest.raises(ValueError):
            make_admission_policy("nope")

    def test_fixed_mpl_constant(self):
        p = FixedMplPolicy(mpl=4)
        assert p.capacity(snap(0)) == 4
        assert p.capacity(snap(10_000, rollbacks=500)) == 4
        with pytest.raises(ValueError):
            FixedMplPolicy(mpl=0)

    def test_aimd_halves_in_rollback_storm(self):
        p = AimdPolicy(initial=8, window_steps=10, rollback_threshold=0.5,
                       probe_boost=0.0)
        assert p.capacity(snap(0)) == 8          # window not yet elapsed
        assert p.capacity(snap(10, rollbacks=9, commits=1)) == 4
        assert p.capacity(snap(20, rollbacks=18, commits=2)) == 2
        assert p.capacity(snap(30, rollbacks=27, commits=3)) == 1
        # Floored at min_window.
        assert p.capacity(snap(40, rollbacks=36, commits=4)) == 1

    def test_aimd_grows_when_healthy(self):
        p = AimdPolicy(initial=2, max_window=4, window_steps=10,
                       probe_boost=0.0)
        assert p.capacity(snap(10, commits=5)) == 3
        assert p.capacity(snap(20, commits=10)) == 4
        # Capped at max_window.
        assert p.capacity(snap(30, commits=15)) == 4
        assert p.history == [(10, 3), (20, 4), (30, 4)]

    def test_aimd_deterministic_per_seed(self):
        feed = [snap(10 * i, commits=5 * i) for i in range(1, 20)]
        trajectories = []
        for _ in range(2):
            p = AimdPolicy(initial=2, max_window=64, window_steps=10,
                           probe_boost=0.5, seed=42)
            for s in feed:
                p.capacity(s)
            trajectories.append(list(p.history))
        assert trajectories[0] == trajectories[1]

    def test_aimd_validation(self):
        with pytest.raises(ValueError):
            AimdPolicy(initial=4, min_window=8)
        with pytest.raises(ValueError):
            AimdPolicy(rollback_threshold=1.5)


class TestPredictivePolicy:
    def _policy(self, **kwargs):
        from repro.admission.policies import PredictivePolicy

        return PredictivePolicy(**kwargs)

    def _report(self):
        from repro.simulation.workload import WorkloadConfig
        from repro.staticcheck import analyze_config

        return analyze_config(
            WorkloadConfig(
                n_transactions=16,
                n_entities=4,
                locks_per_txn=(2, 3),
                write_ratio=1.0,
            ),
            seed=7,
        )

    def test_window_anchored_at_the_recommendation(self):
        report = self._report()
        p = self._policy(report=report)
        assert p.recommended == report.recommended_mpl(0.5)
        assert p.window == p.recommended
        # growth is capped at twice the anchor, not the raw max_window
        assert p.max_window == min(64, 2 * p.recommended)

    def test_reportless_policy_anchors_at_initial(self):
        p = self._policy(initial=8, window_steps=10)
        assert p.recommended == 8 and p.window == 8
        assert p.capacity(snap(0)) == 8          # window not yet elapsed
        assert p.capacity(snap(10, rollbacks=9, commits=1)) == 4
        assert p.capacity(snap(20, rollbacks=18, commits=2)) == 2
        assert p.capacity(snap(30, rollbacks=18, commits=12)) == 3

    def test_growth_capped_at_twice_the_anchor(self):
        p = self._policy(initial=2, window_steps=10)
        assert p.capacity(snap(10, commits=5)) == 3
        assert p.capacity(snap(20, commits=10)) == 4
        assert p.capacity(snap(30, commits=15)) == 4
        assert p.history == [(10, 3), (20, 4), (30, 4)]

    def test_trajectory_is_deterministic(self):
        feed = [
            snap(10 * i, rollbacks=3 * i, commits=2 * i)
            for i in range(1, 20)
        ]
        trajectories = []
        for _ in range(2):
            p = self._policy(report=self._report(), window_steps=10)
            for s in feed:
                p.capacity(s)
            trajectories.append(list(p.history))
        assert trajectories[0] == trajectories[1]

    def test_priority_scores_by_template_risk(self):
        report = self._report()
        p = self._policy(report=report)
        hot = lock_program("H1", "e000", "e001")
        hot_reversed = lock_program("H2", "e001", "e000")
        assert p.priority(hot) > 0.0
        assert p.priority(hot_reversed) > 0.0
        # reportless: everything ties at zero (pure FIFO)
        assert self._policy().priority(hot) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self._policy(min_window=0)
        with pytest.raises(ValueError):
            self._policy(min_window=8, max_window=4)
        with pytest.raises(ValueError):
            self._policy(rollback_threshold=1.5)
        with pytest.raises(ValueError):
            self._policy(window_steps=0)


class TestAdmissionController:
    def test_fifo_gating_and_metrics(self):
        db = Database({"a": 0, "b": 0, "c": 0})
        scheduler = Scheduler(db)
        controller = AdmissionController(FixedMplPolicy(mpl=1))
        for txn_id, entity in (("T1", "a"), ("T2", "b"), ("T3", "c")):
            controller.submit(lock_program(txn_id, entity))
        assert controller.pending() == 3

        admitted = controller.tick(scheduler, step=0)
        assert admitted == ["T1"]               # FIFO, capacity 1
        assert controller.pending() == 2
        assert scheduler.metrics.admitted == 1
        # Peak is observed before draining: the burst of 3 is visible.
        assert scheduler.metrics.admission_queue_peak == 3
        assert controller.admitted_at == {"T1": 0}

        scheduler.run_until_quiescent()         # T1 commits
        assert controller.tick(scheduler, step=5) == ["T2"]
        assert controller.in_flight(scheduler) == 1

    def test_unlimited_capacity_drains_queue(self):
        db = Database({"a": 0, "b": 0})
        scheduler = Scheduler(db)
        controller = AdmissionController(FixedMplPolicy(mpl=8))
        controller.submit(lock_program("T1", "a"))
        controller.submit(lock_program("T2", "b"))
        assert controller.tick(scheduler, step=0) == ["T1", "T2"]
        assert controller.pending() == 0

    def test_policy_by_name(self):
        controller = AdmissionController("aimd")
        assert isinstance(controller.policy, AimdPolicy)

    def test_predictive_reorders_low_risk_first(self):
        from repro.admission.policies import PredictivePolicy
        from repro.observability.events import EventBus, EventKind
        from repro.staticcheck.workload import RiskReport

        # a hand-built report with a known risk table: T_hot must wait
        # behind both cooler arrivals despite arriving first
        report = RiskReport(
            name="handmade",
            mean_pair_risk=0.01,
            template_risk={"T_hot": 0.9, "T_mid": 0.5, "T_cool": 0.1},
            total_templates=3,
        )
        policy = PredictivePolicy(report=report)
        db = Database({"a": 0, "b": 0, "c": 0})
        scheduler = Scheduler(db)
        events = []
        scheduler.bus = EventBus()
        scheduler.bus.subscribe(events.append)
        controller = AdmissionController(policy)
        controller.submit(lock_program("T_hot", "a"))
        controller.submit(lock_program("T_mid", "b"))
        controller.submit(lock_program("T_cool", "c"))

        admitted = controller.tick(scheduler, step=0)
        assert admitted == ["T_cool", "T_mid", "T_hot"]
        assert controller.reorders == 2        # T_hot overtaken twice

        # the static anchor is announced exactly once ...
        risk_events = [
            e for e in events if e.kind is EventKind.PREDICT_RISK
        ]
        assert len(risk_events) == 1
        assert risk_events[0].data["recommended_mpl"] == policy.recommended
        # ... and every overtaking admission carries its skip count
        reorder_events = [
            e for e in events if e.kind is EventKind.ADMISSION_REORDER
        ]
        assert [(e.txn, e.data["skipped"]) for e in reorder_events] == [
            ("T_cool", 2), ("T_mid", 1),
        ]
        controller.tick(scheduler, step=1)
        assert (
            len([e for e in events if e.kind is EventKind.PREDICT_RISK])
            == 1
        )

    def test_equal_risk_degrades_to_fifo(self):
        from repro.admission.policies import PredictivePolicy

        db = Database({"a": 0, "b": 0})
        scheduler = Scheduler(db)
        controller = AdmissionController(PredictivePolicy())
        controller.submit(lock_program("T1", "a"))
        controller.submit(lock_program("T2", "b"))
        assert controller.tick(scheduler, step=0) == ["T1", "T2"]
        assert controller.reorders == 0


class TestDeadlineLadder:
    def _blocked_pair(self):
        """T1 holds ``a``; T2 is blocked requesting it."""
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        scheduler.register(lock_program("T1", "a"))
        scheduler.register(lock_program("T2", "a"))
        assert scheduler.step("T1").outcome is StepOutcome.GRANTED
        assert scheduler.step("T2").outcome is StepOutcome.BLOCKED
        return scheduler

    def test_ladder_partial_restart_shed(self):
        scheduler = self._blocked_pair()
        enforcer = DeadlineEnforcer(deadline_steps=5)
        enforcer.watch("T2", step=0)
        assert enforcer.deadline_of("T2") == 5

        # Rung 1: partial self-rollback (here: back to 0 — T2 holds no
        # locks yet) cancels the wait; the deadline clock resets.
        enforcer.tick(scheduler, step=5)
        m = scheduler.metrics
        assert (m.deadline_expiries, m.deadline_partials) == (1, 1)
        assert scheduler.transaction("T2").status is TxnStatus.READY

        # Runnable at expiry: extension, not escalation.
        enforcer.tick(scheduler, step=10)
        assert m.deadline_expiries == 1
        assert enforcer.deadline_of("T2") == 15

        # Rung 2: total restart.
        assert scheduler.step("T2").outcome is StepOutcome.BLOCKED
        enforcer.tick(scheduler, step=15)
        assert (m.deadline_expiries, m.deadline_restarts) == (2, 1)

        # Rung 3: shed, with an explicit outcome in metrics.
        assert scheduler.step("T2").outcome is StepOutcome.BLOCKED
        enforcer.tick(scheduler, step=20)
        assert scheduler.transaction("T2").status is TxnStatus.SHED
        assert m.shed == 1
        assert m.shed_outcomes["T2"] == DEADLINE_EXCEEDED
        assert enforcer.deadline_of("T2") is None

    def test_shed_releases_locks_to_waiters(self):
        scheduler = self._blocked_pair()
        scheduler.shed("T1")
        t1 = scheduler.transaction("T1")
        assert t1.status is TxnStatus.SHED and t1.done
        assert scheduler.lock_manager.locks_held("T1") == {}
        # T2's queued request was granted by the shed's release.
        assert scheduler.step("T2").outcome is StepOutcome.ADVANCED
        with pytest.raises(SimulationError):
            scheduler.step("T1")
        with pytest.raises(SimulationError):
            scheduler.shed("T1")

    def test_watch_cleanup_on_commit(self):
        db = Database({"a": 0})
        scheduler = Scheduler(db)
        scheduler.register(lock_program("T1", "a"))
        enforcer = DeadlineEnforcer(deadline_steps=5)
        enforcer.watch("T1", step=0)
        scheduler.run_until_quiescent()
        enforcer.tick(scheduler, step=100)
        assert enforcer.deadline_of("T1") is None
        assert scheduler.metrics.deadline_expiries == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineEnforcer(deadline_steps=0)
