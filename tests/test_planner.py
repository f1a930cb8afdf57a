"""Tests for the offline retention planner (compile-time k-copy
allocation, §5's closing remarks)."""

import pytest
from hypothesis import given, strategies as st

from repro import Database, Scheduler, TransactionProgram, ops
from repro.analysis import (
    figure4_transaction,
    kill_intervals,
    plan_retention,
    planned_allocator,
    well_defined_after,
    well_defined_states,
)
from repro.analysis.planner import KillInterval, _plan_greedy
from repro.core.k_copy import KCopyStrategy


def scattered_program():
    return TransactionProgram("S", [
        ops.lock_exclusive("a"),
        ops.write("a", ops.const(1)),
        ops.lock_exclusive("b"),
        ops.write("b", ops.const(1)),
        ops.lock_exclusive("c"),
        ops.write("a", ops.const(2)),
        ops.write("c", ops.const(1)),
    ])


class TestKillIntervals:
    def test_enumerates_destructive_writes(self):
        intervals = kill_intervals(scattered_program())
        assert [(iv.variable, iv.lo, iv.hi) for iv in intervals] == [
            ("e:a", 1, 3),
        ]

    def test_clustered_program_has_none(self):
        program = TransactionProgram("C", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.write("a", ops.const(2)),
            ops.lock_exclusive("b"),
        ])
        assert kill_intervals(program) == []

    def test_reads_and_assigns_count(self):
        program = TransactionProgram("R", [
            ops.lock_shared("a"),
            ops.read("a", into="x"),
            ops.lock_shared("b"),
            ops.read("a", into="x"),
        ], initial_locals={"x": 0})
        intervals = kill_intervals(program)
        assert [(iv.variable, iv.lo, iv.hi) for iv in intervals] == [
            ("l:x", 1, 2),
        ]

    def test_local_first_assigned_mid_transaction(self):
        """The assignment that creates an undeclared local destroys
        nothing (the runtime keeps its value in the cell's base slot), so
        the planner must not spend budget on it."""
        def program(initial_locals):
            return TransactionProgram("U", [
                ops.lock_exclusive("a"),
                ops.assign("x", ops.const(1)),
                ops.lock_exclusive("b"),
                ops.assign("x", ops.const(2)),
                ops.lock_exclusive("c"),
            ], initial_locals=initial_locals)

        undeclared = program({})
        assert kill_intervals(undeclared) == []
        assert plan_retention(undeclared, 0).well_defined == [0, 1, 2, 3]
        assert plan_retention(undeclared, 1).chosen == set()

        declared = program({"x": 0})
        assert kill_intervals(declared) == [KillInterval("l:x", 1, 2)]
        assert plan_retention(declared, 0).well_defined == [0, 1, 3]
        assert plan_retention(declared, 1).well_defined == [0, 1, 2, 3]

    def test_monitoring_stops_at_declaration(self):
        program = TransactionProgram("D", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.lock_exclusive("b"),
            ops.declare_last_lock(),
            ops.write("a", ops.const(2)),
        ])
        assert kill_intervals(program) == []

    def test_figure4_has_three_intervals(self):
        intervals = kill_intervals(figure4_transaction())
        assert len(intervals) == 3


class TestPlanning:
    def test_budget_zero_is_baseline(self):
        plan = plan_retention(figure4_transaction(), 0)
        assert plan.chosen == set()
        assert plan.gain == 0
        assert plan.well_defined == [0, 1, 6]

    def test_budget_grows_monotonically(self):
        program = figure4_transaction()
        counts = [
            len(plan_retention(program, k).well_defined)
            for k in range(5)
        ]
        assert counts == sorted(counts)
        assert counts[0] == 3 and counts[3] == 7

    def test_plan_matches_static_analysis(self):
        program = figure4_transaction()
        plan = plan_retention(program, 2)
        assert plan.well_defined == well_defined_after(
            program, plan.chosen
        )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            plan_retention(figure4_transaction(), -1)

    def test_exact_picks_highest_value_interval(self):
        """With budget 1 and one wide + one narrow interval, planning must
        neutralise the wide one."""
        program = TransactionProgram("W", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.lock_exclusive("b"),
            ops.write("b", ops.const(1)),
            ops.lock_exclusive("c"),
            ops.lock_exclusive("d"),
            ops.lock_exclusive("e"),
            ops.write("a", ops.const(2)),   # kills (1,5]: width 4
            ops.write("b", ops.const(2)),   # kills (2,5]: width 3
        ])
        plan = plan_retention(program, 1)
        # Both intervals end at 5; killing states 2..5 vs 3..5.  The
        # narrow one is nested inside the wide one, so neutralising the
        # wide interval alone buys only states 2 (still killed by the
        # narrow? no: narrow covers 3,4,5) — only state 2 is exclusive.
        # Either choice gains exactly its exclusive states; the planner
        # must pick the one with the larger gain.
        baseline = len(plan_retention(program, 0).well_defined)
        assert len(plan.well_defined) >= baseline + 1

    def test_greedy_agrees_with_exact_on_figure4(self):
        program = figure4_transaction()
        intervals = kill_intervals(program)
        for budget in range(4):
            exact = plan_retention(program, budget)
            greedy_chosen = _plan_greedy(program, intervals, budget)
            assert len(well_defined_after(program, greedy_chosen)) == len(
                exact.well_defined
            )


class TestPlannedExecution:
    def test_planned_allocator_realises_plan_at_runtime(self):
        program = figure4_transaction()
        plan = plan_retention(program, 2)
        strategy = KCopyStrategy(
            extra_copies=2, allocator=planned_allocator(plan)
        )
        db = Database({name: 0 for name in "ABCDEF"})
        scheduler = Scheduler(db, strategy=strategy)
        txn = scheduler.register(program)
        while txn.current_operation() is not None:
            scheduler.step(program.txn_id)
        assert strategy.well_defined_states(txn) == plan.well_defined

    def test_planned_beats_eager_when_budget_is_scarce(self):
        """A program whose first destructive write is worthless (its
        interval is also covered by another, unavoidable kill) fools the
        eager allocator but not the planner."""
        program = TransactionProgram("P", [
            ops.lock_exclusive("a"),
            ops.write("a", ops.const(1)),
            ops.lock_exclusive("b"),
            ops.write("b", ops.const(1)),
            ops.write("a", ops.const(2)),   # kills (1,2] — early, narrow
            ops.lock_exclusive("c"),
            ops.lock_exclusive("d"),
            ops.write("b", ops.const(2)),   # kills (2,4] — late, wide
        ])
        plan = plan_retention(program, 1)
        planned = KCopyStrategy(
            extra_copies=1, allocator=planned_allocator(plan)
        )
        eager = KCopyStrategy(extra_copies=1)

        def run(strategy):
            db = Database({name: 0 for name in "abcd"})
            scheduler = Scheduler(db, strategy=strategy)
            txn = scheduler.register(program)
            while txn.current_operation() is not None:
                scheduler.step("P")
            return strategy.well_defined_states(txn)

        assert len(run(planned)) > len(run(eager))


@given(budget=st.integers(0, 5))
def test_plan_never_worse_than_baseline(budget):
    program = figure4_transaction()
    plan = plan_retention(program, budget)
    assert plan.gain >= 0
    assert len(plan.chosen) <= budget
    assert set(plan.baseline_well_defined) <= set(plan.well_defined)
