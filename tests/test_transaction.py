"""Unit tests for repro.core.transaction: program validation and runtime
bookkeeping (state indices, lock records, rollback arithmetic)."""

import pytest

from repro.core import ops
from repro.core.transaction import (
    Transaction,
    TransactionProgram,
    TxnStatus,
    entry_ordered,
)
from repro.errors import ProtocolViolation
from repro.locking import EXCLUSIVE, SHARED
from repro.service.session import SessionProgram


def assert_rejected(operations, match=None):
    """Both entry points refuse *operations* at the same position: a
    session's ``append`` refuses there first, and the constructor raises
    there with the same reason."""
    session = SessionProgram("T1")
    refusals = (
        (position, reason)
        for position, op in enumerate(operations)
        if (reason := session.append(op)) is not None
    )
    position, reason = next(refusals)
    with pytest.raises(ProtocolViolation, match=match) as raised:
        TransactionProgram("T1", operations)
    assert str(raised.value) == f"T1[{position}]: {reason}"


class TestProgramValidation:
    def test_valid_program(self):
        p = TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.read("a", into="x"),
            ops.write("a", ops.var("x") + ops.const(1)),
            ops.unlock("a"),
        ])
        assert len(p) == 4

    def test_lock_after_unlock_rejected(self):
        assert_rejected([
            ops.lock_exclusive("a"),
            ops.unlock("a"),
            ops.lock_exclusive("b"),
        ], "two-phase")

    def test_double_lock_rejected(self):
        assert_rejected([
            ops.lock_shared("a"),
            ops.lock_exclusive("a"),
        ], "locked twice")

    def test_unlock_unheld_rejected(self):
        assert_rejected([ops.unlock("a")], "not.*held|not held")

    def test_read_without_lock_rejected(self):
        assert_rejected([ops.read("a", into="x")], "without a lock")

    def test_read_after_unlock_rejected(self):
        assert_rejected([
            ops.lock_shared("a"),
            ops.unlock("a"),
            ops.read("a", into="x"),
        ])

    def test_write_without_exclusive_rejected(self):
        assert_rejected([
            ops.lock_shared("a"),
            ops.write("a", ops.const(1)),
        ], "exclusive")

    def test_shared_read_allowed(self):
        TransactionProgram("T1", [
            ops.lock_shared("a"),
            ops.read("a", into="x"),
        ])

    def test_lock_after_declaration_rejected(self):
        assert_rejected([
            ops.lock_exclusive("a"),
            ops.declare_last_lock(),
            ops.lock_exclusive("b"),
        ], "declare_last_lock")

    def test_double_declaration_rejected(self):
        assert_rejected([
            ops.declare_last_lock(),
            ops.declare_last_lock(),
        ], "twice")

    def test_lock_operations_listing(self):
        p = TransactionProgram("T1", [
            ops.assign("x", ops.const(0)),
            ops.lock_exclusive("a"),
            ops.lock_shared("b"),
        ])
        positions = [(i, op.entity_name) for i, op in p.lock_operations]
        assert positions == [(1, "a"), (2, "b")]

    def test_entities_accessed(self):
        p = TransactionProgram("T1", [
            ops.lock_exclusive("a"),
            ops.lock_shared("b"),
        ])
        assert p.entities_accessed == {"a", "b"}


@pytest.fixture
def txn():
    program = TransactionProgram("T1", [
        ops.assign("x", ops.const(0)),      # 0
        ops.lock_exclusive("a"),            # 1
        ops.write("a", ops.const(5)),       # 2
        ops.lock_exclusive("b"),            # 3
        ops.write("b", ops.const(6)),       # 4
        ops.lock_exclusive("c"),            # 5
    ])
    return Transaction(program=program, entry_order=1)


class TestRuntimeBookkeeping:
    def test_initial_state(self, txn):
        assert txn.pc == 0
        assert txn.state_index == 0
        assert txn.status is TxnStatus.READY
        assert txn.lock_count == 0
        assert not txn.done

    def test_current_operation(self, txn):
        assert txn.current_operation().describe() == "assign($x <- 0)"
        txn.pc = 99
        assert txn.current_operation() is None

    def test_record_lock_request_assigns_ordinals(self, txn):
        txn.pc = 1
        r1 = txn.record_lock_request("a", EXCLUSIVE)
        assert (r1.ordinal, r1.pc, r1.state_index) == (1, 1, 1)
        txn.pc = 3
        r2 = txn.record_lock_request("b", EXCLUSIVE)
        assert (r2.ordinal, r2.pc, r2.state_index) == (2, 3, 3)

    def test_pending_request(self, txn):
        assert txn.pending_request() is None
        txn.pc = 1
        record = txn.record_lock_request("a", EXCLUSIVE)
        assert txn.pending_request() is record
        record.granted = True
        assert txn.pending_request() is None

    def test_record_for_entity(self, txn):
        txn.pc = 1
        txn.record_lock_request("a", EXCLUSIVE)
        assert txn.record_for_entity("a").ordinal == 1
        assert txn.record_for_entity("zzz") is None

    def test_lock_state_state_index(self, txn):
        txn.pc = 1
        txn.record_lock_request("a", EXCLUSIVE)
        txn.pc = 3
        txn.record_lock_request("b", EXCLUSIVE)
        assert txn.lock_state_state_index(0) == 0
        assert txn.lock_state_state_index(1) == 1
        assert txn.lock_state_state_index(2) == 3

    def test_records_from(self, txn):
        txn.pc = 1
        txn.record_lock_request("a", EXCLUSIVE)
        txn.pc = 3
        txn.record_lock_request("b", EXCLUSIVE)
        assert [r.entity for r in txn.records_from(1)] == ["a", "b"]
        assert [r.entity for r in txn.records_from(2)] == ["b"]
        assert txn.records_from(3) == []


class TestApplyRollback:
    def drive(self, txn):
        txn.pc = 1
        txn.record_lock_request("a", EXCLUSIVE).granted = True
        txn.pc = 3
        txn.record_lock_request("b", EXCLUSIVE).granted = True
        txn.pc = 5
        txn.record_lock_request("c", EXCLUSIVE)
        txn.status = TxnStatus.BLOCKED

    def test_rollback_to_middle(self, txn):
        self.drive(txn)
        txn.apply_rollback(2)
        assert txn.pc == 3
        assert txn.lock_count == 1
        assert txn.status is TxnStatus.READY
        assert txn.rollback_count == 1
        assert txn.ops_lost_to_rollback == 5 - 3

    def test_rollback_to_zero(self, txn):
        self.drive(txn)
        txn.apply_rollback(0)
        assert txn.pc == 0
        assert txn.lock_count == 0
        assert txn.ops_lost_to_rollback == 5

    def test_rollback_after_commit_rejected(self, txn):
        txn.status = TxnStatus.COMMITTED
        with pytest.raises(ProtocolViolation):
            txn.apply_rollback(0)

    def test_rollback_at_end_of_program_allowed(self, txn):
        """A transaction that executed every operation but has not yet
        committed still holds its locks and may be rolled back (it will
        re-execute its tail)."""
        self.drive(txn)
        txn.pc = len(txn.program.operations)
        txn.apply_rollback(2)
        assert txn.pc == 3

    def test_losses_accumulate(self, txn):
        self.drive(txn)
        txn.apply_rollback(2)
        txn.pc = 5
        txn.record_lock_request("c", EXCLUSIVE)
        txn.apply_rollback(1)
        assert txn.rollback_count == 2
        assert txn.ops_lost_to_rollback == (5 - 3) + (5 - 1)


class TestEntryOrdered:
    def test_sorts_by_entry(self):
        mk = lambda tid, order: Transaction(
            program=TransactionProgram(tid, []), entry_order=order
        )
        txns = [mk("T3", 3), mk("T1", 1), mk("T2", 2)]
        assert [t.txn_id for t in entry_ordered(txns)] == ["T1", "T2", "T3"]
