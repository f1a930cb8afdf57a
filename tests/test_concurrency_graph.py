"""Unit tests for repro.graphs.concurrency (Theorem 1 and §3 machinery)."""

from repro.graphs import ConcurrencyGraph
from repro.locking import EXCLUSIVE, SHARED, LockTable


class TestConstruction:
    def test_manual_arcs(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        assert len(g) == 1
        assert g.transactions == {"T1", "T2"}

    def test_duplicate_arcs_collapse(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.add_wait("T1", "T2", "a")
        assert len(g) == 1

    def test_parallel_arcs_different_entities(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.add_wait("T1", "T2", "b")
        assert len(g) == 2
        assert g.entity_between("T1", "T2") == {"a", "b"}

    def test_remove_wait(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.remove_wait("T1", "T2", "a")
        assert len(g) == 0
        assert g.transactions == {"T1", "T2"}  # vertices persist

    def test_remove_transaction(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.add_wait("T3", "T1", "b")
        g.remove_transaction("T1")
        assert g.transactions == {"T2", "T3"}
        assert len(g) == 0

    def test_from_lock_table(self):
        table = LockTable()
        table.request("T1", "a", EXCLUSIVE)
        table.request("T2", "a", EXCLUSIVE)
        g = ConcurrencyGraph.from_lock_table(table)
        arcs = {(a.holder, a.waiter, a.entity) for a in g}
        assert arcs == {("T1", "T2", "a")}

    def test_from_lock_table_includes_isolated(self):
        table = LockTable()
        table.request("T1", "a", EXCLUSIVE)
        g = ConcurrencyGraph.from_lock_table(table, transactions=["T1", "T9"])
        assert "T9" in g.transactions


class TestTheorem1:
    """Exclusive-only graphs: no deadlock iff forest."""

    def test_chain_is_forest(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.add_wait("T2", "T3", "b")
        assert g.is_forest()
        assert not g.has_deadlock()

    def test_cycle_is_deadlock_not_forest(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.add_wait("T2", "T1", "b")
        assert g.has_deadlock()
        assert not g.is_forest()

    def test_shared_dag_not_forest_but_no_deadlock(self):
        """With shared locks a waiter can wait for two holders: the graph
        is a DAG but not a forest — exactly the §3.2 distinction."""
        g = ConcurrencyGraph()
        g.add_wait("T1", "T3", "c")
        g.add_wait("T2", "T3", "c")
        assert not g.is_forest()
        assert not g.has_deadlock()

    def test_branching_out_is_still_forest(self):
        """One holder can block many waiters (out-degree > 1 is fine)."""
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.add_wait("T1", "T3", "a")
        assert g.is_forest()


class TestDetectionPrimitives:
    def make_cycle_graph(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")   # T2 waits for T1
        g.add_wait("T2", "T3", "b")
        g.add_wait("T3", "T1", "c")   # closes T1->T2->T3->T1
        return g

    def test_descendants(self):
        g = self.make_cycle_graph()
        assert g.descendants("T1") == {"T1", "T2", "T3"}

    def test_would_deadlock_descendant_test(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.add_wait("T2", "T3", "b")
        # T1 waiting for T3 (a descendant of T1... T3 is reachable from T1)
        assert g.would_deadlock("T1", ["T3"])
        # T3 waiting for an unrelated holder is safe.
        assert not g.would_deadlock("T3", ["T9"])

    def test_cycle_through(self):
        g = self.make_cycle_graph()
        cycle = g.cycle_through("T2")
        assert cycle is not None and cycle[0] == "T2"
        assert set(cycle) == {"T1", "T2", "T3"}
        assert g.cycle_through("T9") is None

    def test_cycles_through_multiple(self):
        g = ConcurrencyGraph()
        g.add_wait("T1", "T2", "a")
        g.add_wait("T2", "T1", "e")
        g.add_wait("T2", "T3", "b")
        g.add_wait("T3", "T1", "e")
        cycles = g.cycles_through("T1")
        assert {frozenset(c) for c in cycles} == {
            frozenset({"T1", "T2"}), frozenset({"T1", "T2", "T3"}),
        }

    def test_deadlocked_transactions(self):
        g = self.make_cycle_graph()
        g.add_wait("T1", "T9", "z")    # not on the cycle
        assert g.deadlocked_transactions("T1") == {"T1", "T2", "T3"}

    def test_waits_of_and_holds_waited_on(self):
        g = self.make_cycle_graph()
        assert {a.entity for a in g.waits_of("T2")} == {"a"}
        assert {a.waiter for a in g.holds_waited_on("T1")} == {"T2"}


class TestEnumerationCaps:
    """cycles_through truncation and the residual-pass primitive."""

    def make_parallel_cycles(self, n: int) -> ConcurrencyGraph:
        """*n* disjoint 2-cycles all passing through R (via n partners)."""
        g = ConcurrencyGraph()
        for i in range(n):
            g.add_wait("R", f"T{i}", f"r{i}")   # T_i waits for R
            g.add_wait(f"T{i}", "R", f"e{i}")   # R waits for T_i
        return g

    def test_cycles_through_respects_limit(self):
        g = self.make_parallel_cycles(10)
        assert len(g.cycles_through("R")) == 10
        truncated = g.cycles_through("R", limit=3)
        assert len(truncated) == 3
        for cycle in truncated:
            assert cycle[0] == "R"

    def test_truncation_keeps_enumeration_prefix(self):
        """A capped enumeration is a prefix of the full one, so a capped
        resolution is deterministic too."""
        g = self.make_parallel_cycles(10)
        assert g.cycles_through("R", limit=4) == g.cycles_through("R")[:4]

    def test_find_any_cycle_on_capped_residual(self):
        """Cycles *not* through a given requester are what sweep-style
        detection and the ``graph-acyclic`` oracle look for with
        find_any_cycle (a resolution at the wait response leaves none)."""
        g = ConcurrencyGraph()
        g.add_wait("A", "B", "x")
        g.add_wait("B", "A", "y")   # cycle disjoint from R
        g.add_wait("R", "C", "z")   # R blocks C, no cycle through R
        assert g.cycles_through("R") == []
        cycle = g.find_any_cycle()
        assert cycle is not None and set(cycle) == {"A", "B"}
        g.remove_transaction("A")
        assert g.find_any_cycle() is None

    def test_find_any_cycle_empty_and_acyclic(self):
        g = ConcurrencyGraph()
        assert g.find_any_cycle() is None
        g.add_wait("T1", "T2", "a")
        assert g.find_any_cycle() is None


class TestSharedLockScenario:
    def test_type2_conflict_multiple_blockers(self):
        """An exclusive request on a shared-held entity produces one wait
        arc per holder (live lock-table version)."""
        table = LockTable()
        table.request("R1", "x", SHARED)
        table.request("R2", "x", SHARED)
        table.request("W", "x", EXCLUSIVE)
        g = ConcurrencyGraph.from_lock_table(table)
        assert {a.holder for a in g.waits_of("W")} == {"R1", "R2"}
