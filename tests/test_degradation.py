"""Graceful degradation: storage faults fall back to total restart, and
distributed retries back off exponentially before escalating.

Both ladders trade optimality for liveness — a damaged partial-rollback
state or an over-preempted victim degrades into the one strategy that is
always reconstructible (total restart from the program), instead of
aborting the run.
"""

import pytest

from repro.core.scheduler import Scheduler
from repro.distributed import round_robin_partition
from repro.distributed.scheduler import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    RETRY_BUDGET,
    DistributedScheduler,
)
from repro.errors import StorageFault
from repro.resilience import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.simulation.engine import SimulationEngine
from repro.simulation.workload import (
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)
from repro.storage.database import Database

# Workload seed 0 under round-robin produces a deadlock (and hence a
# rollback) for both mcs and undo-log — see test_resilience_faults.
CONFIG = WorkloadConfig(n_transactions=3, n_entities=4, locks_per_txn=(2, 3))
SEED = 0


def run_with_storage_fault(strategy: str, kind: FaultKind, degrade: bool):
    database, programs = generate_workload(CONFIG, seed=SEED)
    expected = expected_final_state(database, programs)
    scheduler = Scheduler(database, strategy=strategy)
    engine = SimulationEngine(scheduler, max_steps=10_000)
    plan = FaultPlan(
        seed=0, events=[FaultEvent(kind, 0)], degrade=degrade
    )
    FaultInjector(plan).attach(engine)
    for program in programs:
        engine.add(program)
    result = engine.run()
    return result, scheduler, expected


class TestStorageFaultDegradation:
    @pytest.mark.parametrize(
        "strategy,kind",
        [
            ("mcs", FaultKind.COPY_POP_FAILURE),
            ("undo-log", FaultKind.UNDO_APPLY_FAILURE),
        ],
    )
    def test_fault_degrades_to_total_restart(self, strategy, kind):
        result, scheduler, expected = run_with_storage_fault(
            strategy, kind, degrade=True
        )
        assert scheduler.metrics.storage_faults == 1
        assert scheduler.metrics.degraded_restarts == 1
        assert sorted(result.committed) == ["T001", "T002", "T003"]
        assert result.final_state == expected

    def test_degraded_rollback_is_total(self):
        _result, scheduler, _ = run_with_storage_fault(
            "mcs", FaultKind.COPY_POP_FAILURE, degrade=True
        )
        # The faulted rollback was forced all the way to lock state 0.
        faulted = scheduler.metrics.rollback_events[0]
        assert faulted.target_ordinal == 0

    def test_degradation_disabled_propagates(self):
        with pytest.raises(StorageFault):
            run_with_storage_fault(
                "mcs", FaultKind.COPY_POP_FAILURE, degrade=False
            )

    def test_degradation_summary_keys(self):
        _result, scheduler, _ = run_with_storage_fault(
            "mcs", FaultKind.COPY_POP_FAILURE, degrade=True
        )
        summary = scheduler.metrics.summary()
        assert summary["storage_faults"] == 1
        assert summary["degraded_restarts"] == 1


def build_distributed(**kwargs):
    database, programs = generate_workload(CONFIG, seed=SEED)
    partition = round_robin_partition(
        database.snapshot().keys(), programs, 2
    )
    scheduler = DistributedScheduler(
        Database(database.snapshot()), partition, strategy="mcs", **kwargs
    )
    return scheduler, programs


class TestDistributedBackoff:
    def test_backoff_stalls_victim(self):
        scheduler, programs = build_distributed()
        for program in programs:
            scheduler.register(program)
        scheduler._penalise_retry("T001", 2)
        assert scheduler.metrics.backoff_stalls == 1
        assert "T001" in scheduler._stalled_until
        assert "T001" not in scheduler.runnable()

    def test_backoff_grows_exponentially_and_caps(self):
        scheduler, _ = build_distributed()
        for attempt in range(1, RETRY_BUDGET + 1):
            scheduler._penalise_retry("T001", 0)
            delay = scheduler._stalled_until["T001"] - scheduler._clock
            # min(cap, base * 2**(attempt-1)) plus a jitter in [0, base).
            floor = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1))
            assert floor <= delay < floor + BACKOFF_BASE
        assert floor == BACKOFF_CAP  # the ladder reaches the cap

    def test_budget_exhaustion_escalates_to_total_restart(self):
        scheduler, _ = build_distributed()
        targets = [
            scheduler._penalise_retry("T001", 5)
            for _ in range(RETRY_BUDGET + 1)
        ]
        assert targets[:RETRY_BUDGET] == [5] * RETRY_BUDGET
        assert targets[RETRY_BUDGET] == 0
        assert scheduler.metrics.restart_escalations == 1
        # The ladder resets after escalating.
        assert scheduler._retry_attempts["T001"] == 0

    def test_total_target_never_counts_as_escalation(self):
        scheduler, _ = build_distributed()
        for _ in range(RETRY_BUDGET + 2):
            assert scheduler._penalise_retry("T001", 0) == 0
        assert scheduler.metrics.restart_escalations == 0

    def test_stall_expires_with_clock(self):
        scheduler, programs = build_distributed()
        for program in programs:
            scheduler.register(program)
        scheduler._penalise_retry("T001", 1)
        until = scheduler._stalled_until["T001"]
        for step in range(until + 1):
            scheduler.on_engine_step(step)
        assert "T001" not in scheduler._stalled_until
        assert "T001" in scheduler.runnable()

    def test_runnable_falls_back_when_all_stalled(self):
        scheduler, programs = build_distributed()
        for program in programs:
            scheduler.register(program)
        for program in programs:
            scheduler._penalise_retry(program.txn_id, 1)
        # Idling would help nobody: the stalled set is offered anyway.
        assert scheduler.runnable() == [p.txn_id for p in programs]

    def test_commit_clears_retry_state(self):
        scheduler, programs = build_distributed()
        engine = SimulationEngine(scheduler, max_steps=50_000)
        for program in programs:
            engine.add(program)
        scheduler._penalise_retry(programs[0].txn_id, 1)
        result = engine.run()
        assert sorted(result.committed) == [
            p.txn_id for p in programs
        ]
        assert scheduler._retry_attempts == {}
        assert scheduler._stalled_until == {}

    def test_backoff_seed_determinism(self):
        runs = []
        for _ in range(2):
            scheduler, _ = build_distributed(backoff_seed=42)
            stalls = [
                scheduler._penalise_retry("T001", 3) or
                scheduler._stalled_until["T001"]
                for _ in range(5)
            ]
            runs.append(stalls)
        assert runs[0] == runs[1]
