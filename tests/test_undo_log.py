"""Tests for the undo-log strategy and expression inversion (§4's
"running the transaction backwards")."""

import pytest

from repro import Database, Scheduler, TransactionProgram, ops
from repro.core.inverse import invert_expression
from repro.core.operations import BinOp, Const, EntityRef, Var
from repro.core.rollback import make_strategy
from repro.core.undo_log import UndoLogStrategy
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)


class TestInvertExpression:
    def test_entity_plus_const(self):
        inverse = invert_expression(
            EntityRef("a") + Const(5), entity_name="a"
        )
        assert inverse(12) == 7

    def test_const_plus_entity(self):
        inverse = invert_expression(
            Const(5) + EntityRef("a"), entity_name="a"
        )
        assert inverse(12) == 7

    def test_entity_minus_const(self):
        inverse = invert_expression(
            EntityRef("a") - Const(3), entity_name="a"
        )
        assert inverse(4) == 7

    def test_var_forms(self):
        inverse = invert_expression(Var("x") + Const(2), var_name="x")
        assert inverse(10) == 8

    def test_plain_int_constant_operand(self):
        inverse = invert_expression(
            BinOp(EntityRef("a"), 4, lambda p, q: p + q, "+"),
            entity_name="a",
        )
        assert inverse(10) == 6

    def test_wrong_entity_not_invertible(self):
        assert invert_expression(
            EntityRef("b") + Const(5), entity_name="a"
        ) is None

    def test_const_store_not_invertible(self):
        assert invert_expression(Const(5), entity_name="a") is None

    def test_const_minus_entity_not_invertible(self):
        assert invert_expression(
            Const(5) - EntityRef("a"), entity_name="a"
        ) is None

    def test_multiplication_not_invertible(self):
        assert invert_expression(
            EntityRef("a") * Const(2), entity_name="a"
        ) is None

    def test_opaque_callable_not_invertible(self):
        assert invert_expression(lambda ctx: 7, entity_name="a") is None


def increments_program():
    """All writes invertible: x <- x + c forms only."""
    return TransactionProgram("T", [
        ops.lock_exclusive("a"),
        ops.write("a", ops.entity("a") + ops.const(1)),
        ops.lock_exclusive("b"),
        ops.write("b", ops.entity("b") + ops.const(10)),
        ops.write("a", ops.entity("a") + ops.const(2)),
        ops.lock_exclusive("c"),
        ops.write("c", ops.entity("c") - ops.const(5)),
    ])


def mixed_program():
    """One constant store forces a before-image."""
    return TransactionProgram("T", [
        ops.lock_exclusive("a"),
        ops.write("a", ops.entity("a") + ops.const(1)),
        ops.lock_exclusive("b"),
        ops.write("b", ops.const(99)),                 # not invertible
        ops.write("a", ops.entity("a") + ops.const(2)),
    ])


def run_with_rollback(program, target, steps_before):
    db = Database({"a": 100, "b": 200, "c": 300})
    scheduler = Scheduler(db, strategy="undo-log")
    txn = scheduler.register(program)
    for _ in range(steps_before):
        scheduler.step("T")
    scheduler.force_rollback("T", target, requester="T")
    scheduler.run_until_quiescent()
    return db.snapshot(), scheduler


class TestUndoLogStrategy:
    def test_every_lock_state_reachable(self):
        strategy = UndoLogStrategy()
        db = Database({"a": 0, "b": 0, "c": 0})
        scheduler = Scheduler(db, strategy=strategy)
        txn = scheduler.register(increments_program())
        for _ in range(5):
            scheduler.step("T")
        for ideal in range(txn.lock_count + 1):
            assert strategy.choose_target(txn, ideal) == ideal

    @pytest.mark.parametrize("target,steps", [(0, 7), (1, 7), (2, 7),
                                              (3, 7), (2, 5), (1, 3)])
    def test_backward_execution_is_transparent(self, target, steps):
        clean, _ = run_with_rollback(increments_program(), 0, 0)
        rolled, _ = run_with_rollback(increments_program(), target, steps)
        assert rolled == clean

    def test_invertible_writes_store_no_images(self):
        strategy = UndoLogStrategy()
        db = Database({"a": 0, "b": 0, "c": 0})
        scheduler = Scheduler(db, strategy=strategy)
        txn = scheduler.register(increments_program())
        for _ in range(7):
            scheduler.step("T")
        stats = strategy.log_stats(txn)
        assert stats["inverses"] == 4
        assert stats["images"] == 0

    def test_constant_store_falls_back_to_image(self):
        strategy = UndoLogStrategy()
        db = Database({"a": 0, "b": 0, "c": 0})
        scheduler = Scheduler(db, strategy=strategy)
        txn = scheduler.register(mixed_program())
        for _ in range(5):
            scheduler.step("T")
        stats = strategy.log_stats(txn)
        assert stats["images"] == 1
        assert stats["inverses"] == 2

    def test_mixed_program_rollback_correct(self):
        clean, _ = run_with_rollback(mixed_program(), 0, 0)
        rolled, _ = run_with_rollback(mixed_program(), 1, 5)
        assert rolled == clean

    def test_read_into_local_logs_image(self):
        """Reads overwrite locals with no invertible structure."""
        program = TransactionProgram("T", [
            ops.assign("x", ops.const(1)),
            ops.lock_exclusive("a"),
            ops.read("a", into="x"),
        ])
        strategy = UndoLogStrategy()
        db = Database({"a": 7})
        scheduler = Scheduler(db, strategy=strategy)
        txn = scheduler.register(program)
        for _ in range(3):
            scheduler.step("T")
        # assign to fresh x: CREATE; read into x: IMAGE of old value 1.
        assert strategy.read_local(txn, "x") == 7
        strategy.rollback(txn, 1)
        txn.apply_rollback(1)
        assert strategy.read_local(txn, "x") == 1

    def test_factory_registration(self):
        assert isinstance(make_strategy("undo-log"), UndoLogStrategy)

    def test_serializable_under_contention(self):
        config = WorkloadConfig(
            n_transactions=10, n_entities=8, locks_per_txn=(2, 5),
            write_ratio=0.8, skew="hotspot", clustered_writes=False,
        )
        db, programs = generate_workload(config, seed=12)
        expected = expected_final_state(db, programs)
        scheduler = Scheduler(db, strategy="undo-log",
                              policy="ordered-min-cost")
        engine = SimulationEngine(
            scheduler, RandomInterleaving(4), max_steps=400_000,
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.final_state == expected
        # Workload writes are increments: everything inverts, no images.
        assert result.metrics.copies_peak < 100

    def test_storage_linear_in_writes_not_quadratic(self):
        """Contrast with Theorem 3: the undo log stores one record per
        write; with invertible writes the *value* count stays linear in
        locks held even on the MCS-adversarial pattern."""
        from repro.locking import EXCLUSIVE
        from repro.core.transaction import Transaction

        strategy = UndoLogStrategy()
        program = TransactionProgram(
            "T", [ops.assign(f"p{i}", ops.const(0)) for i in range(100)]
        )
        txn = Transaction(program=program)
        strategy.begin(txn)
        n = 8
        names = [f"e{i}" for i in range(n)]
        for k, name in enumerate(names):
            txn.pc += 1
            record = txn.record_lock_request(name, EXCLUSIVE)
            record.granted = True
            strategy.on_lock_granted(txn, name, EXCLUSIVE, 0, record.ordinal)
            for held in names[: k + 1]:
                # Direct strategy write: no expression context available,
                # so these log before-images (the conservative path).
                strategy.write_entity(txn, held, k)
        # Values stored: n current copies + one image per write.
        writes = n * (n + 1) // 2
        assert strategy.copies_count(txn) == n + writes
