"""Unit tests for repro.core.detection and repro.core.victim (§3)."""

import random

import pytest

from repro.core.detection import Deadlock, DeadlockDetector
from repro.core.mcs import MultiLockCopyStrategy
from repro.core.periodic import PeriodicDetectionScheduler
from repro.core.scheduler import Scheduler
from repro.core.transaction import Transaction, TransactionProgram
from repro.core.victim import (
    MinCostPolicy,
    OldestPolicy,
    OrderedMinCostPolicy,
    RequesterPolicy,
    VictimContext,
    YoungestPolicy,
    make_policy,
)
from repro.core import ops
from repro.errors import DeadlockUnresolvableError
from repro.graphs import ConcurrencyGraph, algorithms
from repro.locking import EXCLUSIVE, LockTable
from repro.observability.events import NULL_BUS
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    generate_workload,
)


class TestDetector:
    def test_no_deadlock_on_plain_wait(self):
        table = LockTable()
        table.request("T1", "a", EXCLUSIVE)
        table.request("T2", "a", EXCLUSIVE)
        assert DeadlockDetector(table).check("T2") is None

    def test_two_cycle_detected(self):
        table = LockTable()
        table.request("T1", "a", EXCLUSIVE)
        table.request("T2", "b", EXCLUSIVE)
        table.request("T1", "b", EXCLUSIVE)     # T1 waits for T2
        table.request("T2", "a", EXCLUSIVE)     # closes the cycle
        deadlock = DeadlockDetector(table).check("T2")
        assert deadlock is not None
        assert deadlock.requester == "T2"
        assert deadlock.members == {"T1", "T2"}

    def test_waited_entities_of(self):
        graph = ConcurrencyGraph()
        graph.add_wait("T1", "T2", "a")
        graph.add_wait("T2", "T1", "b")
        graph.add_wait("T1", "T9", "z")   # T9 is outside the deadlock
        deadlock = Deadlock("T2", graph)
        assert deadlock.waited_entities_of("T1") == {"a"}
        assert deadlock.waited_entities_of("T2") == {"b"}

    def test_parallel_labels_on_one_hop(self):
        """A scenario graph may label one hop with several entities: all
        of them are waited for, and the hop is still one arc of the
        cycle record."""
        graph = ConcurrencyGraph()
        graph.add_wait("T1", "T2", "b")
        graph.add_wait("T1", "T2", "a")
        graph.add_wait("T2", "T1", "c")
        deadlock = Deadlock("T2", graph)
        assert deadlock.waited_entities_of("T1") == {"a", "b"}
        assert deadlock.arcs == {"T1": {"T2": ["a", "b"]}, "T2": {"T1": ["c"]}}
        assert deadlock.cycles == graph.cycles_through("T2") == [["T2", "T1"]]

    def test_snapshot(self):
        table = LockTable()
        table.request("T1", "a", EXCLUSIVE)
        table.request("T2", "a", EXCLUSIVE)
        graph = DeadlockDetector(table).snapshot()
        assert len(graph) == 1


def make_deadlock(arcs, requester, entry_orders, lock_states):
    """Build a synthetic Deadlock + VictimContext.

    arcs: list of (holder, waiter, entity).
    lock_states: {txn: [(entity, ordinal, state_index)]} granted locks.
    Each waiting transaction's current state index is supplied as
    ("__state__", index) pseudo entries... instead we derive it: the
    transaction's pc is set via `states` mapping.
    """
    graph = ConcurrencyGraph()
    for holder, waiter, entity in arcs:
        graph.add_wait(holder, waiter, entity)
    deadlock = Deadlock(requester, graph)
    strategy = MultiLockCopyStrategy()
    transactions = {}
    for txn_id, (entry, current_state, locks) in lock_states.items():
        program = TransactionProgram(
            txn_id,
            [ops.assign(f"p{i}", ops.const(0)) for i in range(60)],
        )
        txn = Transaction(program=program, entry_order=entry)
        strategy.begin(txn)
        for entity, ordinal, state_index in locks:
            txn.pc = state_index
            record = txn.record_lock_request(entity, EXCLUSIVE)
            assert record.ordinal == ordinal
            record.granted = True
            strategy.on_lock_granted(txn, entity, EXCLUSIVE, 0, ordinal)
        txn.pc = current_state
        transactions[txn_id] = txn
    del entry_orders  # entry orders are embedded in lock_states
    return VictimContext(deadlock, transactions, strategy)


@pytest.fixture
def figure1_context():
    """The paper's Figure 1(a) numbers as a synthetic deadlock."""
    arcs = [
        ("T2", "T3", "b"),
        ("T3", "T4", "c"),
        ("T4", "T2", "e"),
        ("T2", "T1", "b"),
    ]
    lock_states = {
        # txn: (entry_order, current_state_index, [(entity, ord, state)])
        "T1": (1, 3, []),
        "T2": (2, 12, [("f", 1, 4), ("b", 2, 8)]),
        "T3": (3, 11, [("c", 1, 5)]),
        "T4": (4, 15, [("e", 1, 10)]),
    }
    return make_deadlock(arcs, "T4", None, lock_states)


class TestVictimContext:
    def test_costs_match_paper(self, figure1_context):
        ctx = figure1_context
        assert ctx.cost_of("T2") == 4
        assert ctx.cost_of("T3") == 6
        assert ctx.cost_of("T4") == 5

    def test_action_targets(self, figure1_context):
        ctx = figure1_context
        assert ctx.action_for("T2").target_ordinal == 2   # release b, keep f
        assert ctx.action_for("T3").target_ordinal == 1
        assert ctx.action_for("T4").target_ordinal == 1

    def test_action_for_uninvolved_holder_rejected(self, figure1_context):
        with pytest.raises(DeadlockUnresolvableError):
            figure1_context.action_for("T1")

    def test_actions_cached(self, figure1_context):
        a1 = figure1_context.action_for("T2")
        a2 = figure1_context.action_for("T2")
        assert a1 is a2


class TestPolicies:
    def test_min_cost_picks_cheapest(self, figure1_context):
        actions = MinCostPolicy().select(figure1_context)
        assert [a.txn_id for a in actions] == ["T2"]
        assert actions[0].cost == 4

    def test_ordered_restricts_to_younger(self, figure1_context):
        # Requester T4 is the youngest member: no younger candidates, so
        # it must roll itself back despite not being cheapest.
        actions = OrderedMinCostPolicy().select(figure1_context)
        assert [a.txn_id for a in actions] == ["T4"]

    def test_ordered_prefers_cheapest_younger(self):
        # Requester T1 (oldest): all others are younger; cheapest wins.
        arcs = [
            ("T2", "T3", "b"),
            ("T3", "T1", "c"),
            ("T1", "T2", "e"),
        ]
        lock_states = {
            "T1": (1, 10, [("e", 1, 2)]),
            "T2": (2, 20, [("b", 1, 15)]),
            "T3": (3, 30, [("c", 1, 29)]),
        }
        ctx = make_deadlock(arcs, "T1", None, lock_states)
        actions = OrderedMinCostPolicy().select(ctx)
        assert [a.txn_id for a in actions] == ["T3"]   # cost 1, youngest ok

    def test_requester_policy(self, figure1_context):
        actions = RequesterPolicy().select(figure1_context)
        assert [a.txn_id for a in actions] == ["T4"]

    def test_youngest_policy(self, figure1_context):
        actions = YoungestPolicy().select(figure1_context)
        assert [a.txn_id for a in actions] == ["T4"]

    def test_oldest_policy(self, figure1_context):
        actions = OldestPolicy().select(figure1_context)
        assert [a.txn_id for a in actions] == ["T2"]

    def test_multi_cycle_min_cost_shared_vertex(self):
        """Figure 3(c) shape: two cycles share only the requester; costs
        make the shared vertex optimal."""
        arcs = [
            ("T1", "T2", "a"),
            ("T1", "T3", "b"),
            ("T2", "T1", "f"),
            ("T3", "T1", "f"),
        ]
        lock_states = {
            "T1": (1, 30, [("a", 1, 5), ("b", 2, 10)]),
            "T2": (2, 50, [("f", 1, 20)]),
            "T3": (3, 60, [("f", 1, 25)]),
        }
        ctx = make_deadlock(arcs, "T1", None, lock_states)
        actions = MinCostPolicy().select(ctx)
        # T1's rollback (to release a AND b: ordinal 1, cost 25) vs
        # T2 (30) + T3 (35): T1 alone is cheaper.
        assert [a.txn_id for a in actions] == ["T1"]
        assert actions[0].cost == 25

    def test_multi_cycle_min_cost_pair(self):
        """Same shape, but the pair is cheaper than the shared vertex."""
        arcs = [
            ("T1", "T2", "a"),
            ("T1", "T3", "b"),
            ("T2", "T1", "f"),
            ("T3", "T1", "f"),
        ]
        lock_states = {
            "T1": (1, 100, [("a", 1, 5), ("b", 2, 10)]),
            "T2": (2, 21, [("f", 1, 20)]),
            "T3": (3, 26, [("f", 1, 25)]),
        }
        ctx = make_deadlock(arcs, "T1", None, lock_states)
        actions = MinCostPolicy().select(ctx)
        assert sorted(a.txn_id for a in actions) == ["T2", "T3"]

    def test_validation_catches_non_cover(self, figure1_context):
        policy = RequesterPolicy()
        with pytest.raises(DeadlockUnresolvableError):
            policy._validated(figure1_context, {"T9"})

    def test_factory(self):
        for name, cls in [
            ("min-cost", MinCostPolicy),
            ("ordered-min-cost", OrderedMinCostPolicy),
            ("requester", RequesterPolicy),
            ("youngest", YoungestPolicy),
            ("oldest", OldestPolicy),
        ]:
            assert isinstance(make_policy(name), cls)
        with pytest.raises(ValueError):
            make_policy("bogus")


class TestLargeDeadlocks:
    def make_big_cycle(self, size, requester=None):
        """A single cycle T1 -> T2 -> ... -> Tn -> T1 (requester Tn unless
        named)."""
        arcs = []
        lock_states = {}
        for i in range(1, size + 1):
            nxt = i % size + 1
            arcs.append((f"T{i:02d}", f"T{nxt:02d}", f"e{i}"))
        for i in range(1, size + 1):
            # Ti holds e{i} (locked at state i), waits at state i + 10.
            lock_states[f"T{i:02d}"] = (
                i, i + 10, [(f"e{i}", 1, i)]
            )
        requester = requester or f"T{size:02d}"
        return make_deadlock(arcs, requester, None, lock_states)

    def test_min_cost_is_exact_at_any_size(self):
        """The separator has no size gate: with more members than the
        exhaustive solver's old 12-member limit the answer is still the
        optimum — Theorem 1's walk: the single cheapest member, the
        requester first on ties (all cost 10 here)."""
        ctx = self.make_big_cycle(15)
        actions = MinCostPolicy().select(ctx)
        assert [(a.txn_id, a.cost) for a in actions] == [("T15", 10)]

    def test_small_cycle_uses_exact(self):
        ctx = self.make_big_cycle(5)
        actions = MinCostPolicy().select(ctx)
        assert [(a.txn_id, a.cost) for a in actions] == [("T05", 10)]

    def test_ordered_policy_scales(self):
        """Twenty members, requester the youngest: no younger cover exists,
        so it rolls itself back; with the oldest as requester the nineteen
        younger candidates — more than the old gate let through — yield
        the member nearest the requester (equal costs)."""
        ctx = self.make_big_cycle(20)
        actions = OrderedMinCostPolicy().select(ctx)
        assert [a.txn_id for a in actions] == ["T20"]
        ctx = self.make_big_cycle(20, requester="T01")
        actions = OrderedMinCostPolicy().select(ctx)
        assert [a.txn_id for a in actions] == ["T02"]


def hot_engine(n_transactions, write_ratio, seed, make_scheduler=Scheduler):
    """A benchmark-shaped hot-set run: ``n_transactions`` x 10 entities,
    3-6 locks each."""
    db, programs = generate_workload(
        WorkloadConfig(
            n_transactions=n_transactions, n_entities=10,
            locks_per_txn=(3, 6), write_ratio=write_ratio,
        ),
        seed=seed,
    )
    engine = SimulationEngine(
        make_scheduler(db), RandomInterleaving(rng=random.Random(seed + 1)),
        max_steps=20_000,
    )
    for program in programs:
        engine.add(program)
    return engine


def recorded_run(*args):
    """Run :func:`hot_engine`, pairing each deadlock as resolution sees it
    with the live graph's own enumeration at that moment."""
    engine = hot_engine(*args)
    scheduler = engine.scheduler
    live = scheduler.lock_manager.table.waits_for
    seen = []
    resolve = scheduler._resolve

    def recording(deadlock):
        seen.append((deadlock, live.cycles_through(
            deadlock.requester, limit=deadlock.cycle_limit
        )))
        return resolve(deadlock)

    scheduler._resolve = recording
    return engine.run(), seen


def capped(db):
    """A scheduler whose detector records at most two cycles."""
    scheduler = Scheduler(db)
    scheduler.detector = DeadlockDetector(
        scheduler.lock_manager.table, cycle_limit=2
    )
    return scheduler


def sweeping(db):
    return PeriodicDetectionScheduler(db, interval=5)


class TestLazyCycleRecord:
    """``Deadlock.cycles`` is enumerated from the copied arcs on first
    read, after resolution has changed the live graph; it must equal what
    the live graph enumerated at detection time."""

    @pytest.mark.parametrize(
        "n_transactions,write_ratio,seed,make_scheduler,limit",
        [
            (16, 1.0, 0, Scheduler, 500),
            (16, 0.5, 1, Scheduler, 500),
            (24, 1.0, 2, Scheduler, 500),
            (24, 0.5, 3, Scheduler, 500),
            (24, 0.5, 3, capped, 2),
            (16, 0.5, 1, sweeping, 10_000),
        ],
    )
    def test_equals_live_enumeration_at_detection(
        self, n_transactions, write_ratio, seed, make_scheduler, limit
    ):
        result, seen = recorded_run(
            n_transactions, write_ratio, seed, make_scheduler
        )
        assert result.all_committed and seen
        for deadlock, at_detection in seen:
            assert deadlock.cycle_limit == limit
            assert deadlock.cycles == at_detection
        if write_ratio < 1.0:
            assert any(len(d.cycles) > 1 for d, _ in seen)
        if make_scheduler is capped:  # some records really are truncated
            assert any(
                len(algorithms.simple_cycles_through(d.arcs, d.requester)) > 2
                for d, _ in seen
            )

    def test_unobserved_run_enumerates_nothing(self, monkeypatch):
        calls = []
        enumerate_ = algorithms.simple_cycles_through

        def counting(*args, **kwargs):
            calls.append(args[1])
            return enumerate_(*args, **kwargs)

        monkeypatch.setattr(algorithms, "simple_cycles_through", counting)
        engine = hot_engine(16, 0.5, 1)
        assert engine.scheduler.bus is NULL_BUS
        result = engine.run()
        assert result.metrics.deadlocks > 0 and calls == []
        result.trace.fingerprint()  # reading the record enumerates it
        assert len(calls) == result.metrics.deadlocks
