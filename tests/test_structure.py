"""Unit tests for repro.analysis.structure (§5 metrics and transforms)."""

import pytest

from repro import Database, Scheduler, TransactionProgram, ops
from repro.analysis import (
    cluster_writes,
    clustering_score,
    is_three_phase,
    run_alone,
    static_sdg,
    structure_report,
    three_phase_variant,
    well_defined_count,
    well_defined_states,
)
from repro.core.rollback import make_strategy
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)


def scattered_program():
    return TransactionProgram("S", [
        ops.lock_exclusive("a"),
        ops.write("a", ops.const(1)),
        ops.lock_exclusive("b"),
        ops.write("b", ops.const(1)),
        ops.lock_exclusive("c"),
        ops.write("a", ops.const(2)),     # scattered: a again, 2 locks later
        ops.write("c", ops.const(1)),
    ])


def rewritten_local_program(initial_locals):
    """lock a; x <- 1; lock b; x <- 2; lock c."""
    return TransactionProgram("U", [
        ops.lock_exclusive("a"),
        ops.assign("x", ops.const(1)),
        ops.lock_exclusive("b"),
        ops.assign("x", ops.const(2)),
        ops.lock_exclusive("c"),
    ], initial_locals=initial_locals)


def clustered_program():
    return TransactionProgram("C", [
        ops.lock_exclusive("a"),
        ops.write("a", ops.const(1)),
        ops.write("a", ops.const(2)),
        ops.lock_exclusive("b"),
        ops.write("b", ops.const(1)),
        ops.lock_exclusive("c"),
        ops.write("c", ops.const(1)),
    ])


class TestStaticSdg:
    def test_matches_runtime_counting(self):
        sdg = static_sdg(scattered_program())
        assert sdg.lock_count == 3
        # The second write to ``a`` has lock index 3 (it follows lock
        # state 3), so it destroys lock states 2 AND 3.
        assert sdg.well_defined_states() == [0, 1]

    def test_clustered_all_well_defined(self):
        sdg = static_sdg(clustered_program())
        assert sdg.well_defined_states() == [0, 1, 2, 3]

    def test_reads_count_as_local_writes(self):
        program = TransactionProgram("R", [
            ops.lock_shared("a"),
            ops.read("a", into="x"),
            ops.lock_shared("b"),
            ops.lock_shared("c"),
            ops.read("a", into="x"),      # re-read destroys x's state
        ], initial_locals={"x": 0})
        assert well_defined_states(program) == [0, 1]

    @pytest.mark.parametrize("initial_locals, expected", [
        # The assignment that creates x is no write: its value sits in the
        # cell's base slot, which is what x held throughout lock state 2.
        ({}, [0, 1, 2, 3]),
        ({"x": 0}, [0, 1, 3]),
    ])
    def test_local_first_assigned_mid_transaction(
        self, initial_locals, expected
    ):
        """Static and runtime agree on what counts as a write — by
        construction: the static answer is the strategy's own."""
        program = rewritten_local_program(initial_locals)
        assert well_defined_states(program) == expected
        assert static_sdg(program).well_defined_states() == expected
        for name in ("single-copy", "k-copy:0"):
            strategy, txn = run_alone(program, make_strategy(name))
            assert txn.lock_count == 3
            assert strategy.well_defined_states(txn) == expected

    def test_monitoring_stops_at_declaration(self):
        program = TransactionProgram("D", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.lock_exclusive("b"),
            ops.declare_last_lock(),
            ops.write("a", ops.const(2)),   # after declaration: no kill
        ])
        assert well_defined_states(program) == [0, 1, 2]


class TestClusteringScore:
    def test_perfectly_clustered_is_one(self):
        assert clustering_score(clustered_program()) == 1.0

    def test_scattered_below_one(self):
        assert clustering_score(scattered_program()) < 1.0

    def test_no_writes_is_one(self):
        program = TransactionProgram("N", [
            ops.lock_shared("a"), ops.lock_shared("b"),
        ])
        assert clustering_score(program) == 1.0

    def test_single_lock_is_one(self):
        program = TransactionProgram("N", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.write("a", ops.const(2)),
        ])
        assert clustering_score(program) == 1.0


class TestIsThreePhase:
    def test_three_phase_detected(self):
        program = TransactionProgram("P", [
            ops.lock_exclusive("a"),
            ops.lock_exclusive("b"),
            ops.declare_last_lock(),
            ops.write("a", ops.const(1)),
            ops.unlock("a"),
            ops.unlock("b"),
        ])
        assert is_three_phase(program)

    def test_interleaved_not_three_phase(self):
        assert not is_three_phase(scattered_program())

    def test_report_fields(self):
        report = structure_report(scattered_program())
        assert report.lock_count == 3
        assert report.well_defined == 2
        assert 0 < report.clustering < 1
        assert not report.three_phase


class TestClusterWritesTransform:
    def test_raises_well_defined_count(self):
        before = scattered_program()
        after = cluster_writes(before)
        assert well_defined_count(after) >= well_defined_count(before)
        assert well_defined_states(after) == [0, 1, 2, 3]

    def test_preserves_lock_order(self):
        before = scattered_program()
        after = cluster_writes(before)
        locks = lambda p: [
            op.entity_name for _i, op in p.lock_operations
        ]
        assert locks(before) == locks(after)

    def test_preserves_solo_semantics(self):
        for make in (scattered_program, clustered_program):
            db1 = Database({"a": 0, "b": 0, "c": 0})
            s1 = Scheduler(db1)
            s1.register(make())
            s1.run_until_quiescent()

            db2 = Database({"a": 0, "b": 0, "c": 0})
            s2 = Scheduler(db2)
            s2.register(cluster_writes(make()))
            s2.run_until_quiescent()
            assert db1.snapshot() == db2.snapshot()

    def test_respects_data_dependencies(self):
        """A write reading a local assigned later must not jump over the
        assignment."""
        program = TransactionProgram("D", [
            ops.lock_exclusive("a"),
            ops.lock_exclusive("b"),
            ops.read("b", into="x"),
            ops.write("a", ops.var("x") + ops.const(1)),
        ])
        transformed = cluster_writes(program)
        db = Database({"a": 0, "b": 7})
        s = Scheduler(db)
        s.register(transformed)
        s.run_until_quiescent()
        assert db["a"] == 8

    def test_opaque_callables_not_moved(self):
        program = TransactionProgram("O", [
            ops.lock_exclusive("a"),
            ops.lock_exclusive("b"),
            ops.read("b", into="x"),
            ops.write("a", lambda ctx: ctx.local("x") * 2),
        ])
        transformed = cluster_writes(program)
        descriptions = [op.describe() for op in transformed.operations]
        assert descriptions.index("read(b -> $x)") < len(descriptions) - 1
        db = Database({"a": 0, "b": 5})
        s = Scheduler(db)
        s.register(transformed)
        s.run_until_quiescent()
        assert db["a"] == 10

    def test_workload_semantics_preserved_under_contention(self):
        cfg = WorkloadConfig(
            n_transactions=8, n_entities=6, locks_per_txn=(2, 4),
            clustered_writes=False, writes_per_entity=(1, 3),
        )
        db, programs = generate_workload(cfg, seed=13)
        expected = expected_final_state(db, programs)
        scheduler = Scheduler(db, strategy="single-copy")
        engine = SimulationEngine(scheduler, RandomInterleaving(13))
        for program in programs:
            engine.add(cluster_writes(program))
        result = engine.run()
        assert result.final_state == expected


class TestThreePhaseTransform:
    def test_produces_three_phase(self):
        after = three_phase_variant(scattered_program())
        assert is_three_phase(after)
        assert well_defined_count(after) == len(after.lock_operations) + 1

    def test_preserves_solo_semantics(self):
        db1 = Database({"a": 0, "b": 0, "c": 0})
        s1 = Scheduler(db1)
        s1.register(scattered_program())
        s1.run_until_quiescent()

        db2 = Database({"a": 0, "b": 0, "c": 0})
        s2 = Scheduler(db2)
        s2.register(three_phase_variant(scattered_program()))
        s2.run_until_quiescent()
        assert db1.snapshot() == db2.snapshot()

    def test_empty_program(self):
        program = TransactionProgram("E", [ops.assign("x", ops.const(1))])
        after = three_phase_variant(program)
        assert len(after.lock_operations) == 0

    def test_keeps_explicit_unlocks_at_end(self):
        program = TransactionProgram("U", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.unlock("a"),
        ])
        after = three_phase_variant(program)
        assert after.operations[-1].describe() == "unlock(a)"
