"""No residual pass: a capped enumeration cannot leave a cycle behind.

The number of simple cycles through a requester can exceed any
enumeration cap.  Victim selection used to read the enumerated cycles, so
a truncated list could leave cycles no later request would re-detect, and
the scheduler swept the whole graph after every capped resolution.
Selection now reads the deadlock's arcs: one resolution leaves the graph
acyclic whatever ``cycle_limit`` is, and the cap only sizes the record.
These tests force the situation with an artificially tiny cap.
"""

import pytest

from repro import Database, Scheduler, TransactionProgram, ops
from repro.core.detection import DeadlockDetector
from repro.core.scheduler import StepOutcome
from repro.core.victim import available_policies, make_policy
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)
from repro.verification.oracles import OracleSuite, make_oracles


def two_cycle_system():
    """Figure 3(c) live: T1's exclusive request on a shared-held entity
    closes two cycles at once."""
    db = Database({"a": 0, "b": 0, "f": 0})
    scheduler = Scheduler(db, strategy="mcs", policy="min-cost")
    engine = SimulationEngine(scheduler, max_steps=50_000)
    engine.add(TransactionProgram("T1", [
        ops.lock_exclusive("a"),
        ops.write("a", ops.entity("a") + ops.const(1)),
        ops.lock_exclusive("b"),
        ops.write("b", ops.entity("b") + ops.const(1)),
        ops.lock_exclusive("f"),
        ops.write("f", ops.entity("f") + ops.const(1)),
    ]))
    engine.add(TransactionProgram("T2", [
        ops.lock_shared("f"),
        ops.read("f", into="x"),
        ops.lock_shared("a"),
        ops.read("a", into="x"),
    ]))
    engine.add(TransactionProgram("T3", [
        ops.lock_shared("f"),
        ops.read("f", into="x"),
        ops.lock_shared("b"),
        ops.read("b", into="x"),
    ]))
    return db, scheduler, engine


def drive(engine):
    engine.run_for("T1", 4)        # T1 holds a, b
    engine.run_for("T2", 2)        # T2 holds f (shared)
    engine.run_for("T3", 2)        # T3 holds f (shared)
    engine.run_to_block("T2")      # T2 waits a (T1)
    engine.run_to_block("T3")      # T3 waits b (T1)
    return engine.run_to_block("T1")   # T1 waits f: closes both cycles


class TestResidualPass:
    def test_capped_detection_still_breaks_everything(self):
        db, scheduler, engine = two_cycle_system()
        # Cap the enumeration at a single cycle: a cut over the enumerated
        # cycles would cover only one of the two.
        scheduler.detector = DeadlockDetector(
            scheduler.lock_manager.table, cycle_limit=1
        )
        result = drive(engine)
        assert result.outcome is StepOutcome.DEADLOCK
        # The record holds one cycle...
        assert len(result.deadlock.cycles) == 1
        # ...but members, arcs and therefore the victims cover both, in
        # this one resolution: one deadlock counted, graph acyclic now.
        assert result.deadlock.members == {"T1", "T2", "T3"}
        assert scheduler.metrics.deadlocks == 1
        assert not scheduler.concurrency_graph().has_deadlock()
        final = engine.run()
        assert final.metrics.commits == 3
        assert db.snapshot() == {"a": 1, "b": 1, "f": 1}

    def test_uncapped_detection_needs_no_residual(self):
        db, scheduler, engine = two_cycle_system()
        result = drive(engine)
        assert len(result.deadlock.cycles) == 2
        assert scheduler.metrics.deadlocks == 1
        assert not scheduler.concurrency_graph().has_deadlock()
        final = engine.run()
        assert final.metrics.commits == 3

    @pytest.mark.parametrize("policy", available_policies())
    def test_every_policy_covers_what_the_record_omits(self, policy):
        """``youngest``/``oldest`` and the validation all policies share
        used to look only at the enumerated cycles, so under a truncated
        enumeration they could return — and pass — a non-cover."""
        _db, scheduler, engine = two_cycle_system()
        scheduler.policy = make_policy(policy)
        scheduler.detector = DeadlockDetector(
            scheduler.lock_manager.table, cycle_limit=1
        )
        engine.on_step = OracleSuite(make_oracles("graph-acyclic"))
        result = drive(engine)
        assert result.outcome is StepOutcome.DEADLOCK
        assert len(result.deadlock.cycles) == 1

    @pytest.mark.parametrize("cycle_limit", [1, 2, 5])
    def test_high_contention_workload_with_tiny_cap(self, cycle_limit):
        """Even with an absurdly small cap every resolution leaves the
        graph acyclic (the ``graph-acyclic`` oracle runs after every
        step), each deadlock is one trace event, and the workload
        completes serializably."""
        config = WorkloadConfig(
            n_transactions=12, n_entities=6, locks_per_txn=(2, 4),
            write_ratio=0.8, skew="hotspot",
        )
        db, programs = generate_workload(config, seed=3)
        expected = expected_final_state(db, programs)
        scheduler = Scheduler(db, strategy="mcs",
                              policy="ordered-min-cost")
        scheduler.detector = DeadlockDetector(
            scheduler.lock_manager.table, cycle_limit=cycle_limit
        )
        engine = SimulationEngine(
            scheduler, RandomInterleaving(9), max_steps=600_000,
            on_step=OracleSuite(make_oracles("graph-acyclic")),
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.final_state == expected
        assert result.metrics.commits == 12
        deadlock_events = result.trace.deadlock_events()
        assert result.metrics.deadlocks == len(deadlock_events) > 0
        assert all(
            1 <= len(event.cycles) <= cycle_limit for event in deadlock_events
        )
