"""Cross-feature integration tests: combinations of subsystems.

Each test exercises a pairing that no single-module suite covers: an
external partial rollback during real contention, k-copy in the
distributed setting, the periodic sweeper with the undo-log strategy,
dynamic arrivals under the ordered policy, and the sweep harness over
scheduler variants.
"""

import pytest

from repro import Database, Scheduler, TransactionProgram, ops
from repro.core.periodic import PeriodicDetectionScheduler
from repro.distributed import DistributedScheduler, round_robin_partition
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)


class TestSavepointsUnderContention:
    def test_savepoint_rollback_while_others_run(self):
        """An external partial rollback to a lock state (what a savepoint
        rollback is) grants the waiter on the undone lock, and the
        re-executed prefix still yields the serial outcome."""
        db = Database({"a": 0, "b": 0, "c": 0})
        scheduler = Scheduler(db, strategy="mcs")
        engine = SimulationEngine(scheduler, max_steps=50_000)
        engine.add(TransactionProgram("APP", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.entity("a") + ops.const(1)),
            ops.lock_exclusive("b"),
            ops.write("b", ops.entity("b") + ops.const(1)),
            ops.lock_exclusive("c"),
            ops.write("c", ops.entity("c") + ops.const(1)),
        ]))
        engine.add(TransactionProgram("OTHER", [
            ops.lock_exclusive("b"),
            ops.write("b", ops.entity("b") + ops.const(10)),
        ]))
        engine.run_for("APP", 4)            # holds a, b
        engine.run_to_block("OTHER")
        # Roll back past b: OTHER (blocked on b) is granted immediately.
        scheduler.force_rollback("APP", 2, requester="APP")
        assert scheduler.transaction("APP").pc == 2
        assert scheduler.lock_manager.holds("OTHER", "b") is not None
        result = engine.run()
        assert result.final_state == {"a": 1, "b": 11, "c": 1}


class TestKCopyDistributed:
    @pytest.mark.parametrize("mode", ["wound-wait", "probe"])
    def test_kcopy_strategy_at_sites(self, mode):
        config = WorkloadConfig(
            n_transactions=8, n_entities=10, locks_per_txn=(2, 4),
            write_ratio=1.0, writes_per_entity=(2, 3),
            clustered_writes=False, skew="uniform",
        )
        db, programs = generate_workload(config, seed=4)
        expected = expected_final_state(db, programs)
        partition = round_robin_partition(db.names(), programs, 2)
        scheduler = DistributedScheduler(
            db, partition, strategy="k-copy:2", cross_site_mode=mode,
            wait_timeout=150,
        )
        engine = SimulationEngine(
            scheduler, RandomInterleaving(6), max_steps=500_000,
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.final_state == expected


class TestPeriodicWithUndoLog:
    def test_sweeper_resolves_with_backward_execution(self):
        config = WorkloadConfig(
            n_transactions=8, n_entities=6, locks_per_txn=(2, 4),
            write_ratio=0.9, skew="hotspot",
        )
        db, programs = generate_workload(config, seed=5)
        expected = expected_final_state(db, programs)
        scheduler = PeriodicDetectionScheduler(
            db, strategy="undo-log", interval=30,
        )
        engine = SimulationEngine(
            scheduler, RandomInterleaving(8), max_steps=400_000,
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.final_state == expected


class TestDynamicArrivalsOrdering:
    def test_late_arrivals_are_younger_victims(self):
        """With staggered arrivals, the ordered policy must still never
        produce mutual preemption, and entry order reflects arrival."""
        config = WorkloadConfig(
            n_transactions=10, n_entities=5, locks_per_txn=(2, 4),
            write_ratio=1.0, skew="hotspot",
        )
        db, programs = generate_workload(config, seed=6)
        expected = expected_final_state(db, programs)
        scheduler = Scheduler(db, strategy="mcs",
                              policy="ordered-min-cost")
        engine = SimulationEngine(
            scheduler, RandomInterleaving(10), max_steps=400_000,
        )
        for i, program in enumerate(programs):
            engine.add_at(i * 7, program)
        result = engine.run()
        assert result.final_state == expected
        assert result.metrics.mutual_preemption_pairs() == set()
        orders = [
            scheduler.transaction(p.txn_id).entry_order for p in programs
        ]
        assert orders == sorted(orders)


class TestSweepOverVariants:
    def test_sweep_with_custom_scheduler_factories(self):
        from repro.simulation import Sweep

        sweep = Sweep(
            base=WorkloadConfig(
                n_transactions=6, n_entities=5, locks_per_txn=(2, 3),
                write_ratio=0.9, skew="hotspot",
            ),
            seeds=range(2),
        )
        periodic = sweep.run_cell(
            "periodic", lambda db: PeriodicDetectionScheduler(db, interval=20)
        )
        onblock = sweep.run_cell(
            "on-block", lambda db: Scheduler(db)
        )
        assert periodic.serializable and onblock.serializable
        # Same workload resolves either way; the sweeper just reacts later.
        assert periodic.total("commits") == onblock.total("commits")
