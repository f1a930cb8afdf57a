"""Unit/integration tests for repro.core.scheduler — the concurrency
control's grant/wait/rollback behaviour, value installation, and commit."""

import pytest

from repro import Database, Scheduler, TransactionProgram, ops
from repro.core.scheduler import StepOutcome
from repro.core.transaction import TxnStatus
from repro.errors import (
    ConsistencyViolation,
    QuiescenceTimeout,
    SimulationError,
    UnknownTransactionError,
)


@pytest.fixture
def db():
    return Database({"a": 10, "b": 20, "c": 30})


def increment(txn_id, entity, amount=1, lock_more=()):
    operations = [
        ops.lock_exclusive(entity),
        ops.read(entity, into="v"),
        ops.write(entity, ops.var("v") + ops.const(amount)),
    ]
    for extra in lock_more:
        operations.append(ops.lock_exclusive(extra))
        operations.append(ops.write(extra, ops.entity(extra) + ops.const(amount)))
    operations.append(ops.assign("done", ops.const(1)))
    return TransactionProgram(txn_id, operations)


class TestBasicExecution:
    def test_register_and_step(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a"))
        assert s.step("T1").outcome is StepOutcome.GRANTED
        assert s.step("T1").outcome is StepOutcome.ADVANCED  # read
        assert s.step("T1").outcome is StepOutcome.ADVANCED  # write
        assert s.step("T1").outcome is StepOutcome.ADVANCED  # tail assign
        assert s.step("T1").outcome is StepOutcome.COMMITTED
        assert db["a"] == 11

    def test_register_duplicate_rejected(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a"))
        with pytest.raises(SimulationError):
            s.register(increment("T1", "b"))

    def test_unknown_transaction_rejected(self, db):
        s = Scheduler(db)
        with pytest.raises(UnknownTransactionError):
            s.step("T9")

    def test_step_after_commit_rejected(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a"))
        s.run_until_quiescent()
        with pytest.raises(SimulationError):
            s.step("T1")

    def test_entry_order_assigned(self, db):
        s = Scheduler(db)
        t1 = s.register(increment("T1", "a"))
        t2 = s.register(increment("T2", "b"))
        assert t1.entry_order < t2.entry_order

    def test_runnable_excludes_blocked_and_done(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a"))
        s.register(increment("T2", "a"))
        s.step("T1")
        s.step("T2")   # blocks behind T1
        assert s.runnable() == ["T1"]

    def test_explicit_unlock_installs_value(self, db):
        s = Scheduler(db)
        s.register(TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(99)),
            ops.unlock("a"),
            ops.assign("tail", ops.const(0)),
        ]))
        s.step("T1")
        s.step("T1")
        assert db["a"] == 10          # not yet installed
        s.step("T1")                  # unlock
        assert db["a"] == 99

    def test_commit_installs_unreleased_values(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a"))   # never unlocks explicitly
        s.run_until_quiescent()
        assert db["a"] == 11

    def test_shared_lock_never_installs(self, db):
        s = Scheduler(db)
        s.register(TransactionProgram("T1", [
            ops.lock_shared("a"),
            ops.read("a", into="x"),
        ]))
        s.run_until_quiescent()
        assert db["a"] == 10

    def test_waiting_step_is_noop(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a"))
        s.register(increment("T2", "a"))
        s.step("T1")
        s.step("T2")
        result = s.step("T2")
        assert result.outcome is StepOutcome.WAITING

    def test_blocked_transaction_resumes_on_release(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a"))
        s.register(increment("T2", "a"))
        s.step("T1")                     # T1 gets a
        s.step("T2")                     # T2 blocks
        s.run_until_quiescent()
        assert db["a"] == 12             # both increments applied


class TestDeadlockResolution:
    def drive_two_txn_deadlock(self, db, **kwargs):
        s = Scheduler(db, **kwargs)
        s.register(increment("T1", "a", lock_more=("b",)))
        s.register(increment("T2", "b", lock_more=("a",)))
        for _ in range(3):
            s.step("T1")   # lock a, read, write
            s.step("T2")   # lock b, read, write
        s.step("T1")       # T1 requests b: blocks
        result = s.step("T2")   # T2 requests a: deadlock
        return s, result

    def test_deadlock_detected_and_resolved(self, db):
        s, result = self.drive_two_txn_deadlock(db)
        assert result.outcome is StepOutcome.DEADLOCK
        assert result.deadlock is not None
        assert result.deadlock.members == {"T1", "T2"}
        assert len(result.actions) == 1
        assert s.metrics.deadlocks == 1

    def test_resolution_lets_both_commit(self, db):
        s, _ = self.drive_two_txn_deadlock(db)
        s.run_until_quiescent()
        assert db["a"] == 12 and db["b"] == 22

    def test_ordered_policy_picks_younger(self, db):
        s, result = self.drive_two_txn_deadlock(
            db, policy="ordered-min-cost"
        )
        # Requester is T2 (younger); no member is younger than T2, so it
        # rolls itself back.
        assert [a.txn_id for a in result.actions] == ["T2"]

    def test_total_strategy_restarts_victim(self, db):
        s, result = self.drive_two_txn_deadlock(db, strategy="total")
        assert result.actions[0].target_ordinal == 0
        assert s.metrics.total_rollbacks == 1
        s.run_until_quiescent()
        assert db["a"] == 12 and db["b"] == 22

    def test_mcs_rollback_is_partial(self, db):
        s, result = self.drive_two_txn_deadlock(db, strategy="mcs")
        assert result.actions[0].target_ordinal > 0
        assert s.metrics.total_rollbacks == 0

    def test_victim_lock_released_and_regranted(self, db):
        s, result = self.drive_two_txn_deadlock(db)
        victim = result.actions[0].txn_id
        survivor = "T1" if victim == "T2" else "T2"
        # The survivor's blocked request must now be granted.
        assert s.transaction(survivor).status is TxnStatus.READY

    def test_metrics_states_lost_positive(self, db):
        s, _ = self.drive_two_txn_deadlock(db)
        assert s.metrics.states_lost > 0
        assert s.metrics.rollbacks == 1


class TestForceRollback:
    def test_force_rollback_releases_and_rewinds(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a", lock_more=("b",)))
        for _ in range(5):
            s.step("T1")    # through lock b + write b
        txn = s.transaction("T1")
        assert txn.lock_count == 2
        s.force_rollback("T1", 1, requester="T1")
        assert txn.lock_count == 0
        assert s.lock_manager.locks_held("T1") == {}
        assert s.metrics.rollbacks == 1
        s.run_until_quiescent()
        assert db["a"] == 11 and db["b"] == 21

    def test_force_rollback_overshoot_accounting(self, db):
        s = Scheduler(db, strategy="total")
        s.register(increment("T1", "a", lock_more=("b",)))
        for _ in range(5):
            s.step("T1")
        s.force_rollback("T1", 0, requester="T1", ideal_ordinal=2)
        assert s.metrics.overshoot_states > 0


class TestConsistencyChecking:
    def test_quiescent_check_catches_violation(self, db):
        db.add_constraint(lambda s: s["a"] == 10, name="frozen-a")
        s = Scheduler(db)
        s.register(increment("T1", "a"))
        with pytest.raises(ConsistencyViolation):
            s.run_until_quiescent()

    def test_check_deferred_while_x_locks_held(self, db):
        """A commit while another transaction holds exclusive locks must
        not evaluate constraints (partial updates may be visible)."""
        db.add_constraint(
            lambda s: s["a"] + s["b"] == 30, name="sum"
        )
        s = Scheduler(db)
        # T1 moves 5 from a to b with an explicit early unlock of a, so a
        # window exists where the sum constraint is false globally.
        s.register(TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.entity("a") - ops.const(5)),
            ops.lock_exclusive("b"),
            ops.unlock("a"),                       # installs a = 5
            ops.write("b", ops.entity("b") + ops.const(5)),
            ops.unlock("b"),
        ]))
        s.register(TransactionProgram("T2", [
            ops.lock_shared("c"),
            ops.read("c", into="x"),
        ]))
        s.step("T1"); s.step("T1"); s.step("T1"); s.step("T1")
        # T2 commits while T1 still holds b exclusively: check deferred.
        s.step("T2"); s.step("T2"); s.step("T2")
        s.run_until_quiescent()   # T1 finishes; final state consistent
        assert db["a"] + db["b"] == 30


class TestRunUntilQuiescent:
    def test_empty_scheduler_is_done(self, db):
        s = Scheduler(db)
        assert s.all_done
        s.run_until_quiescent()   # no-op

    def test_step_budget_enforced(self, db):
        s = Scheduler(db)
        s.register(increment("T1", "a"))
        with pytest.raises(QuiescenceTimeout) as excinfo:
            s.run_until_quiescent(max_steps=1)
        # The timeout carries a structured diagnosis: who was runnable,
        # who was blocked, and the waits-for graph at expiry.
        diagnosis = excinfo.value.diagnosis
        assert diagnosis is not None
        assert "T1" in diagnosis.runnable
        assert diagnosis.blocked == []
        assert "T1" in diagnosis.describe()
