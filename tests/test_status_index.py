"""The scheduler's status index and the strategy's copies books.

``Scheduler`` keeps the READY ids (in id order, the order every
interleaving picks from), the BLOCKED count and the not-done count at
the status transitions it owns, so an engine step costs what its one
lock request costs instead of three scans of the population.  The
rollback strategy likewise books its stored copies where cells change,
so ``copies_peak`` needs no recount per step; ``TestCopiesBooks`` holds
the books to a from-scratch recount after every step.  Two kinds of
evidence for the index:

* cost — a counting ``dict`` in place of ``scheduler.transactions``
  shows whole-population iterations during ``engine.run()`` stay within
  commits + a constant (the per-commit constraint check is the one scan
  left), where rescanning every step would need 2-3 per step;
* equality — after *every* transition and every step, the index equals
  the from-scratch comprehension it replaced, on every scheduler that
  changes a status: the core under hot S/X contention (blocked victims,
  requester self-rollback, the residual pass), shedding under an
  overload guard, a storage fault degrading to a restart, dynamic
  arrivals, and the no-wait, preclaim, distributed and replicated
  schedulers.
"""

import itertools
import random

import pytest

from repro import ops
from repro.admission import OverloadConfig, overload_run
from repro.baselines.no_wait import NoWaitScheduler
from repro.baselines.preclaim import PreclaimScheduler
from repro.core.detection import DeadlockDetector
from repro.core.operations import Lock
from repro.core.scheduler import Scheduler, StepOutcome
from repro.core.transaction import TransactionProgram, TxnStatus
from repro.distributed import ReplicatedScheduler, hash_view
from repro.distributed.partition import round_robin_partition
from repro.distributed.scheduler import DistributedScheduler
from repro.errors import SimulationError, StorageFault
from repro.resilience import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)
from repro.storage.database import Database

READY, BLOCKED = TxnStatus.READY, TxnStatus.BLOCKED
COMMITTED, SHED = TxnStatus.COMMITTED, TxnStatus.SHED

HOT_SX = WorkloadConfig(
    n_transactions=16, n_entities=10, locks_per_txn=(3, 6), write_ratio=0.5
)
HOTSPOT = WorkloadConfig(
    n_transactions=14, n_entities=12, locks_per_txn=(2, 4),
    write_ratio=0.7, skew="hotspot",
)


# -- the reference: what the index replaced ----------------------------------


def scan(scheduler):
    """(runnable, blocked, all_done) recomputed from the population."""
    population = scheduler.transactions
    return (
        sorted(t for t, txn in population.items() if txn.status is READY),
        sum(txn.status is BLOCKED for txn in population.values()),
        all(txn.done for txn in population.values()),
    )


def index(scheduler):
    # The base method: subclasses post-filter it (backoff, admission).
    return (
        Scheduler.runnable(scheduler),
        scheduler.blocked_count,
        scheduler.all_done,
    )


class Watch:
    """Compare index and scan after every transition and every step of
    one scheduler, recording which (was, now) transitions occurred."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.transitions = set()
        self.checks = 0
        reindex = scheduler._reindex

        def checked_reindex(txn, was):
            reindex(txn, was)
            if txn.status is not was:  # force_rollback of a READY victim
                self.transitions.add((was, txn.status))
            self.check()

        scheduler._reindex = checked_reindex

    def check(self):
        assert index(self.scheduler) == scan(self.scheduler)
        self.checks += 1

    def __call__(self, engine, event):  # StepObserver
        self.check()


def engine_for(scheduler, programs, seed, arrivals=False, **kwargs):
    engine = SimulationEngine(
        scheduler, RandomInterleaving(rng=random.Random(seed)),
        max_steps=200_000, **kwargs,
    )
    for position, program in enumerate(programs):
        if arrivals and position % 2:
            engine.add_at(position * 6, program)
        else:
            engine.add(program)
    return engine


def run_watched(scheduler, programs, seed, **kwargs):
    watch = Watch(scheduler)
    engine = engine_for(scheduler, programs, seed, on_step=watch, **kwargs)
    result = engine.run()
    assert watch.checks > result.steps
    return watch, result


# -- cost ---------------------------------------------------------------------


class CountingDict(dict):
    """A ``dict`` that counts whole-population iterations."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()


class TestNoPopulationScanPerStep:
    @pytest.mark.parametrize("n_transactions", [20, 60])
    def test_scans_do_not_grow_with_steps(self, n_transactions):
        config = WorkloadConfig(
            n_transactions=n_transactions,
            n_entities=4 * n_transactions,
            locks_per_txn=(2, 4),
        )
        db, programs = generate_workload(config, seed=5)
        scheduler = Scheduler(db)
        scheduler.transactions = CountingDict()
        engine = engine_for(scheduler, programs, seed=6)
        registered = scheduler.transactions.scans
        result = engine.run()
        scans = scheduler.transactions.scans - registered
        steps, commits = result.steps, result.metrics.commits
        assert commits == n_transactions and steps > 10 * commits
        # One constraint-quiescence scan per commit and one for the
        # result's shed list.  Nothing per step (rescanning for
        # runnable(), the blocked count and all_done took 3 * steps).
        assert scans <= commits + 2


# -- equality on every transition ----------------------------------------------


class TestRunnableContract:
    def test_fresh_list_in_registration_order(self):
        """Whatever the registration order, the list is in id order: the
        order every interleaving picks from."""
        scheduler = Scheduler(Database({"a": 0}))
        for name in ("T3", "T1", "T2"):  # ids out of sort order on purpose
            scheduler.register(
                TransactionProgram(name, [ops.lock_exclusive("a")])
            )
        assert scheduler.runnable() == ["T1", "T2", "T3"]
        scheduler.runnable().clear()  # a copy: the index is untouched
        assert scheduler.runnable() == ["T1", "T2", "T3"]
        scheduler.step("T3")
        assert scheduler.step("T1").outcome is StepOutcome.BLOCKED
        assert scheduler.step("T2").outcome is StepOutcome.BLOCKED
        assert scheduler.runnable() == ["T3"]
        assert scheduler.blocked_count == 2
        scheduler.shed("T3")
        assert scheduler.runnable() == ["T1"]
        # T2 wakes after T0 registered: neither registration order nor
        # became-ready order, only the ids decide.
        scheduler.register(TransactionProgram("T0", []))
        scheduler.shed("T1")
        assert scheduler.runnable() == ["T0", "T2"]
        assert index(scheduler) == scan(scheduler)
        assert not scheduler.all_done

    def test_empty_scheduler_is_all_done(self):
        scheduler = Scheduler(Database({}))
        assert scheduler.all_done and scheduler.runnable() == []
        assert scheduler.blocked_count == 0


class TestIndexEqualsScan:
    @pytest.mark.parametrize("seed", range(4))
    def test_hot_shared_exclusive(self, seed):
        """Multi-cycle deadlocks: BLOCKED victims other than the
        requester, and the requester rolling itself back."""
        db, programs = generate_workload(HOT_SX, seed=seed)
        expected = expected_final_state(db, programs)
        scheduler = Scheduler(db, "mcs", "ordered-min-cost")
        watch, result = run_watched(scheduler, programs, seed + 100)
        assert result.final_state == expected
        rollbacks = result.metrics.rollback_events
        assert any(rb.victim != rb.requester for rb in rollbacks)
        assert watch.transitions == {
            (READY, BLOCKED), (BLOCKED, READY), (READY, COMMITTED),
        }

    def test_requester_self_rollback(self):
        db, programs = generate_workload(HOT_SX, seed=2)
        scheduler = Scheduler(db, "mcs", "requester")
        _watch, result = run_watched(scheduler, programs, seed=7)
        rollbacks = result.metrics.rollback_events
        assert rollbacks
        assert all(rb.victim == rb.requester for rb in rollbacks)

    def test_capped_enumeration(self):
        """A one-cycle enumeration cap truncates the record of every
        multi-cycle deadlock; victims still come from the arcs, so each
        deadlock is one resolution, one trace event."""
        db, programs = generate_workload(HOT_SX, seed=3)
        scheduler = Scheduler(db, "mcs", "ordered-min-cost")
        scheduler.detector = DeadlockDetector(
            scheduler.lock_manager.table, cycle_limit=1
        )
        _watch, result = run_watched(scheduler, programs, seed=9)
        events = result.trace.deadlock_events()
        assert result.metrics.deadlocks == len(events)
        assert any(len(event.actions) > 1 for event in events)
        assert result.metrics.commits == HOT_SX.n_transactions

    def test_dynamic_arrivals(self):
        db, programs = generate_workload(HOT_SX, seed=4)
        scheduler = Scheduler(db, "mcs", "ordered-min-cost")
        _watch, result = run_watched(
            scheduler, programs, seed=11, arrivals=True
        )
        assert result.all_committed
        assert result.population == HOT_SX.n_transactions

    def test_shed_under_overload_guard(self):
        watches = []

        def instrument(engine):
            watches.append(Watch(engine.scheduler))
            engine.on_step = watches[0]

        config = OverloadConfig(
            n_transactions=32, n_entities=4, locks_per_txn=(2, 3),
            deadline_steps=20, max_steps=60_000,
        )
        report, result = overload_run(config, seed=0, instrument=instrument)
        assert report.shed and report.committed
        assert watches[0].checks > result.steps
        # (READY -> SHED is TestRunnableContract's shed of a holder.)
        assert (BLOCKED, SHED) in watches[0].transitions

    def test_storage_fault_degrades_to_restart(self):
        config = WorkloadConfig(
            n_transactions=3, n_entities=4, locks_per_txn=(2, 3)
        )
        db, programs = generate_workload(config, seed=0)
        scheduler = Scheduler(db, strategy="mcs")
        watch = Watch(scheduler)
        engine = SimulationEngine(scheduler, max_steps=10_000, on_step=watch)
        plan = FaultPlan(
            seed=0, events=[FaultEvent(FaultKind.COPY_POP_FAILURE, 0)],
            degrade=True,
        )
        FaultInjector(plan).attach(engine)
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert scheduler.metrics.degraded_restarts == 1
        assert result.all_committed

    def test_no_wait_sleep_and_wake(self):
        db, programs = generate_workload(HOT_SX, seed=5)
        scheduler = NoWaitScheduler(db, seed=5)
        watch, result = run_watched(scheduler, programs, seed=13)
        assert result.metrics.commits == HOT_SX.n_transactions
        # Never queued: BLOCKED here is the backoff sleep, left by the
        # on_engine_step wake-up.
        assert {(READY, BLOCKED), (BLOCKED, READY)} <= watch.transitions

    def test_preclaim_admission(self):
        db, programs = generate_workload(HOT_SX, seed=6)
        scheduler = PreclaimScheduler(db)
        watch, result = run_watched(scheduler, programs, seed=15)
        assert result.metrics.commits == HOT_SX.n_transactions
        assert result.metrics.blocks > 0
        assert {(READY, BLOCKED), (BLOCKED, READY)} <= watch.transitions

    def test_distributed_timeouts_and_backoff(self):
        db, programs = generate_workload(HOTSPOT, seed=7)
        expected = expected_final_state(db, programs)
        partition = round_robin_partition(db.names(), programs, 3)
        scheduler = DistributedScheduler(
            db, partition, strategy="mcs", policy="ordered-min-cost",
            wait_timeout=8, backoff_base=2, backoff_cap=8,
        )
        _watch, result = run_watched(scheduler, programs, seed=17)
        assert result.final_state == expected
        assert scheduler.metrics.timeout_rollbacks > 0
        assert scheduler.metrics.backoff_stalls > 0

    def test_replicated_site_failure(self):
        db, programs = generate_workload(HOTSPOT, seed=8)
        view = hash_view(db.names(), programs, 4, rf=2)
        scheduler = ReplicatedScheduler(
            db, view, strategy="mcs", policy="ordered-min-cost",
            wait_timeout=20,
        )
        watch = Watch(scheduler)

        def fail_then_heal(engine, event):
            watch(engine, event)
            if event.step == 10:
                scheduler.site_failed(0)
                scheduler.site_failed(1)
            if event.step == 60:
                scheduler.site_recovered(0)
                scheduler.site_recovered(1)
            watch.check()

        engine = engine_for(scheduler, programs, seed=19,
                            on_step=fail_then_heal)
        result = engine.run()
        assert result.metrics.commits == HOTSPOT.n_transactions
        assert scheduler.metrics.unavailable_stalls > 0
        assert watch.checks > result.steps


# -- forget --------------------------------------------------------------------


class TestForget:
    def _pair(self):
        scheduler = Scheduler(Database({"a": 0}))
        for name in ("T1", "T2"):
            scheduler.register(TransactionProgram(name, [
                ops.lock_exclusive("a"),
                ops.write("a", ops.entity("a") + ops.const(1)),
            ]))
        return scheduler

    def test_forgets_terminal_transactions_only(self):
        scheduler = self._pair()
        scheduler.step("T1")
        scheduler.step("T2")  # blocked behind T1
        for live in ("T1", "T2"):
            with pytest.raises(SimulationError, match="forgotten"):
                scheduler.forget(live)
        scheduler.shed("T2")
        scheduler.forget("T2")
        while not scheduler.transaction("T1").done:
            scheduler.step("T1")
        scheduler.forget("T1")
        assert scheduler.transactions == {}
        assert scheduler.strategy.copies == scheduler._copies_total() == 0
        assert index(scheduler) == scan(scheduler) == ([], 0, True)

    def test_forgetting_keeps_the_running_copies_sum(self):
        scheduler = self._pair()
        while not scheduler.transaction("T1").done:
            scheduler.step("T1")
        scheduler.step("T2")  # holds a copy of "a" now
        scheduler.forget("T1")  # its books closed at commit
        assert scheduler.strategy.copies == scheduler._copies_total() > 0


# -- the copies books --------------------------------------------------------


BOOKS_STRATEGIES = (
    "total", "mcs", "single-copy", "undo-log",
    "k-copy:0", "k-copy:1", "k-copy:2", "k-copy:inf",
)
#: Shared locks, writes scattered over later lock states (k-copy
#: retention) and explicit unlocks.
SCATTERED = WorkloadConfig(
    n_transactions=12, n_entities=8, locks_per_txn=(2, 4),
    write_ratio=0.6, clustered_writes=False, explicit_unlocks=True,
)
#: Every lock, then the last-lock declaration, then the updates.
THREE_PHASE = WorkloadConfig(
    n_transactions=12, n_entities=8, locks_per_txn=(2, 4),
    write_ratio=0.6, three_phase=True,
)


def with_local_writes(program):
    """*program* plus a non-invertible local write after every lock, so
    the undo log keeps before-images and k-copy retains local values."""
    operations = []
    for op in program.operations:
        operations.append(op)
        if isinstance(op, Lock):
            operations.append(
                ops.assign("acc", ops.var("acc") * ops.const(2))
            )
    return TransactionProgram(
        program.txn_id, operations, initial_locals={"acc": 1}
    )


def fail_every_third_restore(strategy):
    """The strategy's restore raises after changing the cells on every
    third rollback: the scheduler degrades that victim to a restart from
    a half-restored store whose cells no longer match its books."""
    restore, calls = strategy._restore, itertools.count(1)

    def flaky(txn, state, ordinal):
        restore(txn, state, ordinal)
        if next(calls) % 3 == 0:
            raise StorageFault("restore failed after changing the cells")

    strategy._restore = flaky


class Books:
    """StepObserver: the running copies total equals a recount after
    every step.  Also sheds the highest live id every ``shed_every``
    steps and forgets every finished transaction."""

    def __init__(self, scheduler, shed_every=0):
        self.scheduler = scheduler
        self.shed_every = shed_every
        self.checks = 0

    def check(self):
        assert self.scheduler.strategy.copies == (
            self.scheduler._copies_total()
        )
        self.checks += 1

    def __call__(self, engine, event):
        self.check()
        scheduler = self.scheduler
        if self.shed_every and event.step % self.shed_every == 0:
            live = [t for t, txn in scheduler.transactions.items()
                    if not txn.done]
            if live:
                scheduler.shed(max(live))
                self.check()
        for txn_id in [t for t, txn in scheduler.transactions.items()
                       if txn.done]:
            scheduler.forget(txn_id)
        self.check()


class TestCopiesBooks:
    @pytest.mark.parametrize("strategy", BOOKS_STRATEGIES)
    def test_books_equal_recount_after_every_step(self, strategy):
        degraded = 0
        for config, seed in ((SCATTERED, 1), (THREE_PHASE, 2)):
            db, programs = generate_workload(config, seed)
            scheduler = Scheduler(db, strategy)
            fail_every_third_restore(scheduler.strategy)
            books = Books(scheduler, shed_every=37)
            engine = engine_for(
                scheduler, map(with_local_writes, programs), seed,
                arrivals=True, on_step=books,
            )
            result = engine.run()
            assert books.checks > 2 * result.steps
            assert result.metrics.shed and result.metrics.rollbacks
            assert scheduler.transactions == {}
            assert scheduler.strategy.copies == 0
            degraded += result.metrics.degraded_restarts
        # Total restart is what a fault degrades *to*: it never restores.
        assert (degraded > 0) == (strategy != "total")

    @pytest.mark.parametrize("strategy", BOOKS_STRATEGIES)
    def test_preclaim_admission(self, strategy):
        db, programs = generate_workload(HOT_SX, seed=6)
        scheduler = PreclaimScheduler(db, strategy=strategy)
        books = Books(scheduler)
        engine = engine_for(
            scheduler, map(with_local_writes, programs), seed=15,
            on_step=books,
        )
        result = engine.run()
        assert result.metrics.commits == HOT_SX.n_transactions
        assert books.checks == 2 * result.steps
