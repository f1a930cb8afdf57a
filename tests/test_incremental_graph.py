"""Differential tests for the lock table's live waits-for graph.

:attr:`repro.locking.table.LockTable.waits_for` — a
:class:`~repro.graphs.concurrency.ConcurrencyGraph` the table keeps
current entity by entity — is the detection hot path; these tests lock
it to its specification — *always* equal, as an arc/vertex set, to the
raw ``wait_edges()`` scan, and in every cycle answer to a from-scratch
``ConcurrencyGraph.from_lock_table`` rebuild:

* hypothesis-driven random request/release/cancel/release_many sequences
  against a raw :class:`~repro.locking.table.LockTable`, with full
  differential comparison (arcs, vertices, adjacency, ``cycles_through``
  per live transaction, ``find_any_cycle`` witness) after every mutation;
* seeded end-to-end fuzz runs with a per-step differential observer,
  covering the rollback paths (deadlock resolution exercises the batched
  ``release_many`` wake-up);
* the SHED teardown path (cancel-wait plus bulk release, no commit);
* a determinism cross-check: a run detected over the incremental graph
  produces byte-identical traces and victims to the same run detected by
  full rebuild at every wait;
* named regression cases for the trickiest single paths (cancel-wait
  with queue drain, shared-mode multi-blocker refresh);
* the boundedness contract: the structure is keyed by live arcs only,
  so an idle lock table means an empty graph — nothing to recycle;
* what a :class:`~repro.core.detection.Deadlock` copies out of the live
  graph (whole, or one site's labels) equals what the retained snapshot
  used to answer, and survives later mutation of the graph.
"""

from hypothesis import example, given, settings, strategies as st

from repro import Database, Scheduler, TransactionProgram, ops
from repro.core.detection import Deadlock, DeadlockDetector
from repro.distributed import DistributedScheduler, explicit_partition
from repro.errors import LockError
from repro.graphs import ConcurrencyGraph
from repro.locking import EXCLUSIVE, SHARED, LockManager, LockTable
from repro.locking.table import QueuedRequest
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    generate_workload,
)

TXNS = [f"T{i}" for i in range(5)]
ENTITIES = ["a", "b", "c"]


def assert_matches_rebuild(table: LockTable) -> None:
    """The live graph holds exactly the arcs a from-scratch scan finds,
    and answers exactly like a fresh rebuild.

    The arc reference is the raw ``wait_edges()`` triples: the live graph
    and a rebuilt one share ``add_wait``, so a rebuild alone could share
    its bugs.
    """
    live = table.waits_for
    raw = set(table.wait_edges())
    assert live.arcs == raw
    assert len(live) == len(raw)
    induced = {txn for arc in raw for txn in arc[:2]}
    assert live.transactions == induced
    raw_adj: dict = {}
    for holder, waiter, _ in raw:
        raw_adj.setdefault(holder, set()).add(waiter)
    assert live.adjacency() == raw_adj
    # Every cycle query must agree — including the exact enumeration
    # order, which victim selection depends on.
    rebuilt = ConcurrencyGraph.from_lock_table(table)
    for txn in sorted(induced):
        assert live.cycles_through(txn) == rebuilt.cycles_through(txn)
        assert bool(live.cycle_through(txn)) == bool(
            rebuilt.cycle_through(txn)
        )
    assert live.find_any_cycle() == rebuilt.find_any_cycle()


def assert_idle(live: ConcurrencyGraph) -> None:
    """Nothing is retained once no transaction waits: the structure is
    bounded by concurrent load by construction."""
    assert len(live) == 0
    assert live.adjacency() == {}
    assert live.transactions == set()
    assert live._declared == set()
    assert live._entity_edges == {}
    assert live._pair_labels == {}
    assert live._succ == {}


KINDS = ["request", "release", "cancel", "release_all", "release_many"]
#: Request-heavy mix: transactions pile up behind each other, so about
#: one blocked request in eight closes a cycle (the uniform mix closes
#: almost none).
CONTENDED_KINDS = ["request"] * 6 + KINDS[1:]


@st.composite
def table_operations(draw, kinds=KINDS):
    ops_ = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        txn = draw(st.sampled_from(TXNS))
        entity = draw(st.sampled_from(ENTITIES))
        extra = draw(st.sampled_from(ENTITIES))
        mode = draw(st.sampled_from([SHARED, EXCLUSIVE]))
        ops_.append((kind, txn, entity, extra, mode))
    return ops_


def apply_operation(table: LockTable, operation) -> None:
    kind, txn, entity, extra, mode = operation
    try:
        if kind == "request":
            table.request(txn, entity, mode)
        elif kind == "release":
            table.release(txn, entity)
        elif kind == "cancel":
            table.cancel_wait(txn)
        elif kind == "release_many":
            held = sorted(
                e for e in (entity, extra) if txn in table.holders(e)
            )
            table.release_many(txn, held)
        else:
            table.release_all(txn)
    except LockError:
        pass  # rejected op: state unchanged, graph must be too


class TestDifferentialPropertyLockTable:
    """Random mutation sequences against a raw lock table."""

    @settings(max_examples=200)
    @given(ops_=table_operations())
    def test_always_equals_rebuild(self, ops_):
        table = LockTable()
        for operation in ops_:
            apply_operation(table, operation)
            assert_matches_rebuild(table)

    @settings(max_examples=100)
    @given(ops_=table_operations())
    def test_full_teardown_empties_graph(self, ops_):
        """Any script, once every transaction is torn down, leaves the
        table idle and the graph holding nothing."""
        table = LockTable()
        for operation in ops_:
            apply_operation(table, operation)
        for txn in TXNS:
            table.release_all(txn)
            assert_matches_rebuild(table)
        assert table.waits_for.arcs == set()
        assert_idle(table.waits_for)

    def test_release_many_wakes_like_sequential_releases(self):
        """Batched release grants the same requests, in the same order,
        as releasing the same entities one at a time."""
        def build():
            t = LockTable()
            t.request("T1", "a", EXCLUSIVE)
            t.request("T1", "b", EXCLUSIVE)
            t.request("T2", "a", EXCLUSIVE)
            t.request("T3", "b", SHARED)
            t.request("T4", "b", SHARED)
            return t

        batched = build()
        grants = batched.release_many("T1", ["a", "b"])
        sequential = build()
        expected = sequential.release("T1", "a") + sequential.release(
            "T1", "b"
        )
        assert [(g.txn, g.entity) for g in grants] == [
            (g.txn, g.entity) for g in expected
        ]
        assert_matches_rebuild(batched)
        assert batched.waits_for.arcs == sequential.waits_for.arcs


def differential_observer(engine, event) -> None:
    assert_matches_rebuild(engine.scheduler.lock_manager.table)


class TestDifferentialFuzzRuns:
    """Seeded end-to-end runs with per-step differential comparison."""

    def run_seed(self, seed: int, **overrides):
        config_kwargs = dict(
            n_transactions=6,
            n_entities=4,
            locks_per_txn=(2, 4),
            write_ratio=1.0,
        )
        config_kwargs.update(overrides)
        db, programs = generate_workload(
            WorkloadConfig(**config_kwargs), seed=seed
        )
        scheduler = Scheduler(db)
        engine = SimulationEngine(
            scheduler,
            RandomInterleaving(seed),
            max_steps=50_000,
            on_step=differential_observer,
        )
        for program in programs:
            engine.add(program)
        return engine.run(), scheduler

    def test_deadlock_heavy_exclusive_runs(self):
        deadlocks = 0
        for seed in (1, 2, 3, 7):
            result, _ = self.run_seed(seed)
            assert result.all_committed
            deadlocks += result.metrics.deadlocks
        # The configuration must actually exercise the rollback path
        # (resolution releases locks via the batched release_many).
        assert deadlocks > 0

    def test_shared_mode_runs(self):
        result, _ = self.run_seed(11, write_ratio=0.5)
        assert result.all_committed

    def test_counters_track_maintenance(self):
        result, scheduler = self.run_seed(3)
        counters = scheduler.lock_manager.table.waits_for.counters_snapshot()
        assert counters["edges_added"] == counters["edges_removed"]
        assert counters["cycle_checks"] >= result.metrics.deadlocks
        assert counters["enumerations"] >= result.metrics.deadlocks
        assert result.graph_counters == counters


class TestShedPath:
    """scheduler.shed tears a transaction out mid-wait: cancel plus bulk
    release without commit — both sides must keep the graph consistent."""

    def build_blocked_chain(self):
        db = Database({"a": 1, "b": 2, "c": 3})
        s = Scheduler(db)
        for txn, entities in (
            ("T1", ["a", "b"]),
            ("T2", ["b", "c"]),
            ("T3", ["a"]),
        ):
            operations = []
            for entity in entities:
                operations.append(ops.lock_exclusive(entity))
                operations.append(
                    ops.write(entity, ops.entity(entity) + ops.const(1))
                )
            s.register(TransactionProgram(txn, operations))
        s.step("T1")  # T1 locks a
        s.step("T2")  # T2 locks b
        s.step("T1")  # write a
        s.step("T2")  # write b
        s.step("T1")  # T1 blocks on b (held by T2)
        s.step("T3")  # T3 blocks on a (held by T1)
        assert_matches_rebuild(s.lock_manager.table)
        assert s.lock_manager.table.waits_for.arcs == {
            ("T2", "T1", "b"),
            ("T1", "T3", "a"),
        }
        return s

    def test_shed_blocked_waiter(self):
        s = self.build_blocked_chain()
        s.shed("T1", reason="test")
        # T1's wait on b is cancelled and its hold on a released, which
        # wakes T3 — no stale arcs either side.
        assert_matches_rebuild(s.lock_manager.table)
        assert s.lock_manager.table.waits_for.arcs == set()
        s.run_until_quiescent()
        assert_matches_rebuild(s.lock_manager.table)

    def test_shed_holder_wakes_waiters(self):
        s = self.build_blocked_chain()
        s.shed("T2", reason="test")
        assert_matches_rebuild(s.lock_manager.table)
        # T1 was granted b by the shed; only T3's wait on a remains.
        assert s.lock_manager.table.waits_for.arcs == {
            ("T1", "T3", "a")
        }
        s.run_until_quiescent()
        assert_matches_rebuild(s.lock_manager.table)


class RebuildDetector(DeadlockDetector):
    """The pre-incremental detector: full graph rebuild at every wait."""

    def check(self, requester):
        graph = ConcurrencyGraph.from_lock_table(self._table)
        cycles = graph.cycles_through(requester, limit=self._cycle_limit)
        if not cycles:
            return None
        return Deadlock(requester=requester, cycles=cycles, graph=graph)


class TestDeterminismContract:
    """Same seed => same victims, traces, and final state on either the
    incremental or the full-rebuild detection path."""

    def run_once(self, seed: int, rebuild: bool):
        db, programs = generate_workload(
            WorkloadConfig(
                n_transactions=6,
                n_entities=4,
                locks_per_txn=(2, 4),
                write_ratio=1.0,
            ),
            seed=seed,
        )
        scheduler = Scheduler(db)
        if rebuild:
            scheduler.detector = RebuildDetector(
                scheduler.lock_manager.table
            )
        engine = SimulationEngine(
            scheduler, RandomInterleaving(seed), max_steps=50_000
        )
        for program in programs:
            engine.add(program)
        return engine.run()

    def test_same_victims_either_graph_path(self):
        for seed in (1, 2, 3):
            live = self.run_once(seed, rebuild=False)
            rebuilt = self.run_once(seed, rebuild=True)
            assert live.metrics.deadlocks == rebuilt.metrics.deadlocks
            assert (
                live.metrics.rollbacks_by_victim
                == rebuilt.metrics.rollbacks_by_victim
            )
            assert live.committed == rebuilt.committed
            assert live.final_state == rebuilt.final_state
            assert [
                (e.step, e.txn_id, e.outcome) for e in live.trace
            ] == [(e.step, e.txn_id, e.outcome) for e in rebuilt.trace]
            assert live.metrics.deadlocks > 0  # the check has teeth


class TestRegressionCases:
    """Named single-path cases for the trickiest refresh sites."""

    def test_cancel_wait_with_drain_promotes_queue(self):
        """Cancelling a waiter whose departure makes the next queued
        request grantable: the drain inside cancel_wait must refresh."""
        table = LockTable()
        table.request("T1", "a", SHARED)
        table.request("T2", "a", EXCLUSIVE)  # blocks on the S holder
        table.request("T3", "a", SHARED)     # FIFO-blocked behind T2
        assert table.waits_for.arcs == {
            ("T1", "T2", "a"),
            ("T2", "T3", "a"),
        }
        table.cancel_wait("T2")
        # T3 is compatible with T1 and must be drained in; no arcs left.
        assert "T3" in table.holders("a")
        assert table.waits_for.arcs == set()
        assert_matches_rebuild(table)

    def test_shared_multi_blocker_refresh(self):
        """An exclusive wait behind several shared holders produces one
        arc per holder; each holder's release drops exactly its arc."""
        table = LockTable()
        table.request("R1", "x", SHARED)
        table.request("R2", "x", SHARED)
        table.request("W", "x", EXCLUSIVE)
        assert table.waits_for.arcs == {
            ("R1", "W", "x"),
            ("R2", "W", "x"),
        }
        table.release("R1", "x")
        assert table.waits_for.arcs == {("R2", "W", "x")}
        assert_matches_rebuild(table)
        table.release("R2", "x")
        assert table.waits_for.arcs == set()
        assert "W" in table.holders("x")
        assert_matches_rebuild(table)

    def test_release_many_duplicate_entities(self):
        """Found by the hypothesis differential run: a duplicated entity
        in the batch made release_many double-delete the holdership
        (KeyError) instead of releasing once."""
        table = LockTable()
        table.request("T0", "a", SHARED)
        grants = table.release_many("T0", ["a", "a"])
        assert grants == []
        assert table.holders("a") == {}
        assert_matches_rebuild(table)

    def test_uncontended_traffic_is_free(self):
        """Grants and releases with no queue never touch the structure."""
        table = LockTable()
        for _ in range(3):
            table.request("T1", "a", EXCLUSIVE)
            table.release("T1", "a")
        assert table.waits_for.counters_snapshot()["refreshes"] == 0

    def test_iter_arcs_sorted_is_deterministic(self):
        table = LockTable()
        table.request("T2", "b", EXCLUSIVE)
        table.request("T3", "b", EXCLUSIVE)
        table.request("T1", "b", EXCLUSIVE)
        assert sorted(table.waits_for.arcs) == [
            ("T2", "T1", "b"),
            ("T2", "T3", "b"),
            ("T3", "T1", "b"),
        ]


class TestInterner:
    def test_queries_on_unknown_names_are_safe(self):
        live = ConcurrencyGraph()
        assert live.cycle_through("nobody") is None
        assert live.cycles_through("nobody") == []
        assert live.find_any_cycle() is None
        assert live.arcs == set()


class TestBoundedness:
    """Service-lifetime boundedness: every dict is keyed by a live arc,
    so the structure tracks concurrent load, not total throughput, with
    no id lifecycle behind it."""

    def test_manager_finish_of_blocked_pair_leaves_nothing(self):
        manager = LockManager()
        manager.lock("T1", "a", EXCLUSIVE)
        manager.lock("T2", "a", EXCLUSIVE)  # blocks: T2 waits for T1
        live = manager.table.waits_for
        assert live.transactions == {"T1", "T2"}
        manager.finish("T1")
        manager.finish("T2")
        assert_idle(live)

    def test_engine_run_leaves_nothing(self):
        db, programs = generate_workload(
            WorkloadConfig(
                n_transactions=8,
                n_entities=4,
                locks_per_txn=(2, 4),
                write_ratio=1.0,
            ),
            seed=7,
        )
        scheduler = Scheduler(db)
        engine = SimulationEngine(
            scheduler, RandomInterleaving(7), max_steps=50_000
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.all_committed
        assert result.graph_counters["edges_added"] > 0  # it was used
        assert_idle(scheduler.lock_manager.table.waits_for)

    def test_counters_are_the_six_the_benchmark_reads(self):
        assert set(ConcurrencyGraph().counters_snapshot()) == {
            "refreshes",
            "edges_added",
            "edges_removed",
            "cycle_checks",
            "enumerations",
            "materializations",
        }


class TestOneRepresentation:
    """The holder -> waiters map is the adjacency every query runs over;
    answers must not depend on the order it was filled in."""

    READERS = ("R1", "R2", "R3")

    def build(self, requester_blocks_first: bool) -> LockTable:
        """Figure 3's shape: W's exclusive request on x waits behind
        three shared holders, each of which waits for W's lock on its
        own entity — three cycles through W.  The flag only changes
        which waits are recorded first."""
        table = LockTable()
        for reader in self.READERS:
            table.request(reader, "x", SHARED)
            table.request("W", f"e{reader}", EXCLUSIVE)
        if requester_blocks_first:
            table.request("W", "x", EXCLUSIVE)
        for reader in self.READERS:
            table.request(reader, f"e{reader}", EXCLUSIVE)
        if not requester_blocks_first:
            table.request("W", "x", EXCLUSIVE)
        return table

    def test_cycle_order_ignores_fill_order(self):
        first = self.build(requester_blocks_first=True)
        last = self.build(requester_blocks_first=False)
        assert list(first.waits_for._succ)[-1] == "W"
        assert list(last.waits_for._succ)[0] == "W"
        expected = [["W", "R1"], ["W", "R2"], ["W", "R3"]]
        for table in (first, last):
            assert table.waits_for.cycles_through("W") == expected
            assert table.waits_for.find_any_cycle() == ["R1", "W"]
            assert_matches_rebuild(table)

    def test_adjacency_is_a_copy(self):
        """Callers may hold the view across lock-table mutations."""
        table = self.build(requester_blocks_first=True)
        view = table.waits_for.adjacency()
        view["W"].clear()
        view["ghost"] = {"W"}
        assert table.waits_for.cycles_through("W") == [
            ["W", "R1"],
            ["W", "R2"],
            ["W", "R3"],
        ]
        assert_matches_rebuild(table)

    def test_one_instance_meets_both_vertex_contracts(self):
        """Scenario graphs keep declared vertices and the endpoints of
        manually removed arcs; arcs a lock table refreshes away leave
        nothing, so its live graph is empty when the table is idle."""
        graph = ConcurrencyGraph(["T9"])
        graph.add_wait("T1", "T2", "a")
        graph.remove_wait("T1", "T2", "a")
        assert graph.transactions == {"T1", "T2", "T9"}
        queued = QueuedRequest("T4", EXCLUSIVE, seq=1)
        graph.refresh_entity("b", {"T3": EXCLUSIVE}, [queued])
        assert graph.arcs == {("T3", "T4", "b")}
        assert graph.transactions == {"T1", "T2", "T3", "T4", "T9"}
        graph.refresh_entity("b", {}, ())
        assert len(graph) == 0
        assert graph.transactions == {"T1", "T2", "T9"}
        graph.remove_transaction("T9")
        assert graph.transactions == {"T1", "T2"}


def reference_answers(graph: ConcurrencyGraph, cycles):
    """What ``Deadlock`` answered while it retained *graph*:
    ``waited_entities_of`` per member, and the per-hop cycle entities.
    Members are everything reachable from the requester that reaches it
    back (these unresolved tables may hold cycles that miss it, which
    put more on such a walk than on its simple cycles)."""
    requester = cycles[0][0]
    members = {requester} | {
        txn for txn in graph.descendants(requester)
        if requester in graph.descendants(txn)
    }
    waited = {
        member: {
            arc.entity
            for arc in graph.holds_waited_on(member)
            if arc.waiter in members
        }
        for member in members
    }
    hops = [
        arc.entity for cycle in cycles for arc in graph.cycle_arcs(cycle)
    ]
    return waited, hops


def deadlock_answers(deadlock: Deadlock):
    waited = {m: deadlock.waited_entities_of(m) for m in deadlock.members}
    return waited, deadlock.cycle_entities()


class TestDeadlockCopiesItsArcs:
    """A ``Deadlock`` keeps the arcs between its members, not the graph:
    the copy must answer as the retained snapshot did, whole or filtered
    to one site, and must not follow the live graph afterwards."""

    #: T0 and T1 each hold one entity and wait for the other's.
    TWO_CYCLE = [
        ("request", "T0", "a", "a", EXCLUSIVE),
        ("request", "T1", "b", "b", EXCLUSIVE),
        ("request", "T0", "b", "b", EXCLUSIVE),
        ("request", "T1", "a", "a", EXCLUSIVE),
    ]

    @settings(max_examples=150)
    @given(ops_=table_operations(CONTENDED_KINDS))
    @example(ops_=TWO_CYCLE)
    def test_copy_from_live_graph_equals_snapshot_answers(self, ops_):
        table = LockTable()
        for operation in ops_:
            apply_operation(table, operation)
            snapshot = ConcurrencyGraph.from_lock_table(table)
            for txn in sorted(snapshot.transactions):
                cycles = snapshot.cycles_through(txn)
                if cycles:
                    deadlock = Deadlock(txn, cycles, table.waits_for)
                    assert deadlock_answers(deadlock) == reference_answers(
                        snapshot, cycles
                    )

    @settings(max_examples=150)
    @given(
        ops_=table_operations(CONTENDED_KINDS),
        sites=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    )
    @example(ops_=TWO_CYCLE, sites=[0, 0, 0])  # the cycle is on one site
    @example(ops_=TWO_CYCLE, sites=[0, 1, 0])  # ... and split over two
    def test_site_local_detection_equals_filtered_rebuild(self, ops_, sites):
        """``DistributedScheduler._detect`` over the live graph against
        its former body: snapshot everything, rebuild a graph of the
        requester's site's arcs, enumerate and answer from that."""
        entity_sites = dict(zip(ENTITIES, sites))
        scheduler = DistributedScheduler(
            Database({entity: 0 for entity in ENTITIES}),
            explicit_partition(entity_sites, {txn: 0 for txn in TXNS}),
        )
        table = scheduler.lock_manager.table
        for operation in ops_:
            apply_operation(table, operation)
            full = ConcurrencyGraph.from_lock_table(table)
            for requester in sorted(table.all_waiting()):
                site = entity_sites[table.waiting_on(requester)]
                local = ConcurrencyGraph(full.transactions)
                for arc in full.arcs:
                    if entity_sites[arc.entity] == site:
                        local.add_wait(arc.holder, arc.waiter, arc.entity)
                cycles = local.cycles_through(requester, limit=500)
                deadlock = scheduler._detect(requester)
                if not cycles:
                    assert deadlock is None
                    continue
                assert deadlock.cycles == cycles
                assert deadlock_answers(deadlock) == reference_answers(
                    local, cycles
                )

    def test_later_graph_mutation_does_not_reach_the_deadlock(self):
        """Resolution rolls victims back one at a time; each one's ideal
        target is judged against the deadlock as detected, after earlier
        victims have already changed the live graph."""
        table = LockTable()
        table.request("T1", "a", EXCLUSIVE)
        table.request("T2", "b", EXCLUSIVE)
        table.request("T1", "b", EXCLUSIVE)
        table.request("T2", "a", EXCLUSIVE)
        live = table.waits_for
        deadlock = Deadlock("T2", live.cycles_through("T2"), live)
        before = deadlock_answers(deadlock)
        assert before == (
            {"T1": {"a"}, "T2": {"b"}},
            ["b", "a"],
        )
        table.release_all("T1")
        assert "T1" not in live.transactions
        assert deadlock_answers(deadlock) == before
        assert not hasattr(deadlock, "graph")
