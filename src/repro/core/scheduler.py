"""The database concurrency control (paper §2's "system").

:class:`Scheduler` owns the database, the two-phase lock manager, the
active rollback strategy, and the victim policy.  It executes transaction
programs one atomic operation at a time (the interleaving is chosen by the
caller — directly, or through :mod:`repro.simulation`), responding to each
lock request per the paper's three rules:

1. grant if compatible with current holders,
2. otherwise make the requester wait,
3. if the wait creates a deadlock, roll back victims until it is broken.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # avoids the resilience/graphs <-> core import cycles
    from ..graphs.concurrency import ConcurrencyGraph
    from ..resilience.wal import WriteAheadLog

from ..errors import (
    LockError,
    QuiescenceTimeout,
    SimulationError,
    StorageFault,
    UnknownTransactionError,
)
from ..locking.manager import LockManager
from ..locking.modes import LockMode
from ..locking.table import Grant
from ..observability.events import NULL_BUS, EventBus, EventKind
from ..storage.database import Database
from .detection import Deadlock, DeadlockDetector
from .diagnosis import diagnose
from .metrics import DEADLINE_EXCEEDED, Metrics
from .operations import (
    Assign,
    DeclareLastLock,
    EvalContext,
    Lock,
    Read,
    Unlock,
    Write,
    evaluate,
)
from .rollback import RollbackStrategy, make_strategy
from .transaction import Transaction, TransactionProgram, TxnStatus
from .victim import RollbackAction, VictimContext, VictimPolicy, make_policy

TxnId = str


class StepOutcome(enum.Enum):
    """What happened when the scheduler stepped a transaction."""

    ADVANCED = "advanced"
    GRANTED = "granted"
    BLOCKED = "blocked"
    DEADLOCK = "deadlock"
    COMMITTED = "committed"
    WAITING = "waiting"

    def __str__(self) -> str:
        return self.value


@dataclass
class StepResult:
    """Outcome of one :meth:`Scheduler.step` call."""

    txn_id: TxnId
    outcome: StepOutcome
    deadlock: Deadlock | None = None
    actions: list[RollbackAction] = field(default_factory=list)


class _StrategyContext(EvalContext):
    """Adapter exposing a transaction's values to expression evaluation."""

    def __init__(self, scheduler: "Scheduler", txn: Transaction) -> None:
        self._scheduler = scheduler
        self._txn = txn

    def local(self, name: str) -> Any:
        return self._scheduler.strategy.read_local(self._txn, name)

    def entity(self, name: str) -> Any:
        return self._scheduler.strategy.read_entity(self._txn, name)

    def __getitem__(self, name: str) -> Any:
        """Sugar: ``ctx["x"]`` reads local variable ``x``."""
        return self.local(name)


class Scheduler:
    """Two-phase-locking concurrency control with partial-rollback deadlock
    removal.

    Parameters
    ----------
    database:
        The global entity store.
    strategy:
        Rollback strategy instance or factory name (``"total"``, ``"mcs"``,
        ``"single-copy"``).  Defaults to MCS.
    policy:
        Victim policy instance or factory name (``"min-cost"``,
        ``"ordered-min-cost"``, ``"requester"``, ``"youngest"``,
        ``"oldest"``).  Defaults to ordered min-cost (the livelock-free
        optimiser of Theorem 2).

    Registered database constraints are checked after every commit that
    leaves no exclusive lock held, so serializability bugs fail loudly.
    """

    def __init__(
        self,
        database: Database,
        strategy: RollbackStrategy | str = "mcs",
        policy: VictimPolicy | str = "ordered-min-cost",
    ) -> None:
        self.database = database
        self.strategy = (
            make_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.lock_manager = LockManager()
        self.detector = DeadlockDetector(self.lock_manager.table)
        self.metrics = Metrics()
        #: Observability event bus.  Defaults to the shared
        #: :data:`~repro.observability.events.NULL_BUS`, which wants no
        #: kind; hot paths guard payload construction with
        #: ``if self.bus.wants(kind):``, so an event no sink takes costs
        #: one call and no allocation.  A
        #: :class:`~repro.observability.recorder.RunRecorder` installs a
        #: live bus here.
        self.bus: EventBus = NULL_BUS
        self.transactions: dict[TxnId, Transaction] = {}
        self._entry_counter = 0
        #: Optional write-ahead log (:class:`repro.resilience.wal.WriteAheadLog`)
        #: installed by a recovery manager; when present, lock grants, value
        #: installations, commits, and rollbacks are logged before they apply.
        self.wal: WriteAheadLog | None = None
        #: When True (default), a :class:`~repro.errors.StorageFault` raised
        #: by the strategy during a rollback degrades the victim to a total
        #: restart instead of propagating (graceful degradation).
        self.degrade_on_fault = True
        # Status index, kept by ``_set_status`` (the one writer of
        # ``Transaction.status``) so no step rescans the population: the
        # READY ids sorted by id (the order every interleaving picks
        # from), the BLOCKED count and the live (not done) count.  The
        # from-scratch recounts live in ``GraphConsistencyOracle``.
        self._ready: list[TxnId] = []
        self._blocked = 0
        self._live = 0

    # -- registration ------------------------------------------------------

    def register(self, program: TransactionProgram) -> Transaction:
        """Admit a transaction program into the executing environment."""
        if program.txn_id in self.transactions:
            raise SimulationError(
                f"transaction id {program.txn_id!r} already registered"
            )
        self._entry_counter += 1
        txn = Transaction(program=program, entry_order=self._entry_counter)
        self.transactions[program.txn_id] = txn
        insort(self._ready, program.txn_id)
        self._live += 1
        self.strategy.begin(txn)
        if self.bus.wants(EventKind.TXN_ADMIT):
            self.bus.publish(
                EventKind.TXN_ADMIT,
                txn.txn_id,
                entry_order=txn.entry_order,
                operations=len(program.operations),
            )
        return txn

    def transaction(self, txn_id: TxnId) -> Transaction:
        if txn_id not in self.transactions:
            raise UnknownTransactionError(f"unknown transaction {txn_id!r}")
        return self.transactions[txn_id]

    def runnable(self) -> list[TxnId]:
        """Transactions that can be stepped right now (READY, not done).

        A fresh list in id order — callers filter and test membership on
        it — copied from the status index, not recomputed from the
        population.
        """
        return self._ready.copy()

    @property
    def ready_index(self) -> list[TxnId]:
        """The READY ids in id order: the status index itself, not a copy.

        For a caller that only asks whether some transaction can move;
        one that steps while iterating takes :meth:`runnable`.
        """
        return self._ready

    @property
    def live_count(self) -> int:
        """How many registered transactions have not terminated."""
        return self._live

    @property
    def blocked_count(self) -> int:
        """How many transactions are BLOCKED right now."""
        return self._blocked

    @property
    def all_done(self) -> bool:
        return self._live == 0

    def forget(self, txn_id: TxnId) -> None:
        """Drop a terminal transaction from the scheduler's books.

        A long-lived owner (the lock service) calls this once a
        committed or shed transaction's outcome has been delivered, so
        memory tracks concurrent load.  A live transaction is rejected:
        it still holds locks and a place in the status index.
        """
        txn = self.transaction(txn_id)
        if not txn.done:
            raise SimulationError(
                f"{txn_id} is {txn.status}: only a committed or shed "
                f"transaction can be forgotten"
            )
        del self.transactions[txn_id]
        self.metrics.forget(txn_id)

    # -- status transitions --------------------------------------------------

    def _set_status(self, txn: Transaction, status: TxnStatus) -> None:
        """Move *txn* to *status*: the single writer of
        ``Transaction.status`` outside :meth:`Transaction.apply_rollback`,
        so the status index cannot drift (the ``graph-consistency``
        oracle recounts it against the transactions' statuses)."""
        was = txn.status
        if was is not status:  # an immediate grant finds it READY already
            txn.status = status
            self._reindex(txn, was)

    def _reindex(self, txn: Transaction, was: TxnStatus) -> None:
        """Account *txn* having moved from status *was* to its current
        one: leave the old place, enter the new (the same place, when a
        READY victim is rolled back)."""
        if was is TxnStatus.READY:
            del self._ready[bisect_left(self._ready, txn.txn_id)]
        elif was is TxnStatus.BLOCKED:
            self._blocked -= 1
        else:
            self._live += 1
        now = txn.status
        if now is TxnStatus.READY:
            insort(self._ready, txn.txn_id)
        elif now is TxnStatus.BLOCKED:
            self._blocked += 1
        else:
            self._live -= 1

    # -- execution --------------------------------------------------------

    def step(self, txn_id: TxnId) -> StepResult:
        """Execute one atomic operation of *txn_id*.

        Stepping a blocked transaction is a no-op returning ``WAITING``
        (it will resume automatically when its lock is granted).
        """
        txn = self.transaction(txn_id)
        if txn.status is TxnStatus.BLOCKED:
            return StepResult(txn_id, StepOutcome.WAITING)
        if txn.done:
            raise SimulationError(f"{txn_id} already {txn.status}")
        op = txn.current_operation()
        if op is None:
            self._commit(txn)
            return StepResult(txn_id, StepOutcome.COMMITTED)
        self.metrics.ops_executed += 1
        txn.ops_executed_total += 1
        if isinstance(op, Lock):
            result = self._execute_lock(txn, op)
        elif isinstance(op, Unlock):
            self._execute_unlock(txn, op)
            result = StepResult(txn_id, StepOutcome.ADVANCED)
        elif isinstance(op, Read):
            value = self.strategy.read_entity(txn, op.entity_name)
            self.strategy.write_local(txn, op.into, value)
            txn.pc += 1
            result = StepResult(txn_id, StepOutcome.ADVANCED)
        elif isinstance(op, Write):
            ctx = _StrategyContext(self, txn)
            self.strategy.write_entity(
                txn, op.entity_name, evaluate(op.expr, ctx)
            )
            txn.pc += 1
            result = StepResult(txn_id, StepOutcome.ADVANCED)
        elif isinstance(op, Assign):
            ctx = _StrategyContext(self, txn)
            value = evaluate(op.expr, ctx)
            self.strategy.write_local(txn, op.var_name, value)
            txn.pc += 1
            result = StepResult(txn_id, StepOutcome.ADVANCED)
        elif isinstance(op, DeclareLastLock):
            self.lock_manager.declare_last_lock(txn.txn_id)
            self.strategy.on_declare_last_lock(txn)
            txn.pc += 1
            result = StepResult(txn_id, StepOutcome.ADVANCED)
        else:  # pragma: no cover - programs are validated at construction
            raise SimulationError(f"unknown operation {op!r}")
        self.metrics.observe_copies(self.strategy.copies)
        return result

    def run_until_quiescent(self, max_steps: int = 1_000_000) -> None:
        """Round-robin driver: step every runnable transaction until all
        commit.  Deterministic; used by tests and small examples (the
        simulation engine offers richer interleavings).

        Raises
        ------
        QuiescenceTimeout
            When *max_steps* runs out first.  The exception carries a
            :class:`~repro.core.diagnosis.LivelockDiagnosis` so callers
            can distinguish an undersized budget from genuine starvation
            (who was runnable, the waits-for graph, the preemption
            history, the suspected Figure-2 pair).
        """
        steps = 0
        while not self.all_done:
            # Each sweep visits the READY set in registration order.
            runnable = sorted(
                self.runnable(),
                key=lambda txn_id: self.transactions[txn_id].entry_order,
            )
            if not runnable:
                raise SimulationError(
                    "no runnable transactions but not all committed: "
                    "undetected deadlock or lost wakeup"
                )
            for txn_id in runnable:
                if self.transaction(txn_id).status is TxnStatus.READY:
                    self.step(txn_id)
                steps += 1
                if steps > max_steps:
                    raise QuiescenceTimeout(
                        f"exceeded {max_steps} steps",
                        diagnosis=diagnose(self, step=steps),
                    )

    # -- lock handling ------------------------------------------------------

    def _execute_lock(self, txn: Transaction, op: Lock) -> StepResult:
        txn.record_lock_request(op.entity_name, op.mode)
        granted = self.lock_manager.lock(txn.txn_id, op.entity_name, op.mode)
        if granted:
            self._complete_grant(
                Grant(txn.txn_id, op.entity_name, op.mode)
            )
            return StepResult(txn.txn_id, StepOutcome.GRANTED)
        self._set_status(txn, TxnStatus.BLOCKED)
        self.metrics.record_block(op.entity_name)
        if self.bus.wants(EventKind.LOCK_BLOCK):
            self.bus.publish(
                EventKind.LOCK_BLOCK,
                txn.txn_id,
                entity=op.entity_name,
                mode=str(op.mode),
            )
        deadlock = self._detect(txn.txn_id)
        if deadlock is None:
            return StepResult(txn.txn_id, StepOutcome.BLOCKED)
        self.metrics.deadlocks += 1
        if self.bus.wants(EventKind.DEADLOCK):
            self.bus.publish(
                EventKind.DEADLOCK,
                txn.txn_id,
                requester=deadlock.requester,
                cycles=[list(cycle) for cycle in deadlock.cycles],
            )
        # The victims separate the requester from itself in the deadlock's
        # arcs and every cycle passes through the requester, so the graph
        # is acyclic again.
        actions = self._resolve(deadlock)
        return StepResult(
            txn.txn_id, StepOutcome.DEADLOCK, deadlock=deadlock,
            actions=actions,
        )

    def _complete_grant(self, grant: Grant) -> None:
        txn = self.transaction(grant.txn)
        record = txn.pending_request()
        if record is None or record.entity != grant.entity:
            raise LockError(
                f"grant of {grant.entity!r} to {grant.txn} does not match "
                f"its pending request"
            )
        record.granted = True
        self.metrics.locks_granted += 1
        if self.bus.wants(EventKind.LOCK_GRANT):
            self.bus.publish(
                EventKind.LOCK_GRANT,
                grant.txn,
                entity=grant.entity,
                mode=str(grant.mode),
            )
        if self.wal is not None:
            self.wal.log_grant(grant.txn, grant.entity, str(grant.mode))
        self.strategy.on_lock_granted(
            txn,
            grant.entity,
            grant.mode,
            self.database[grant.entity],
            record.ordinal,
        )
        self._set_status(txn, TxnStatus.READY)
        txn.pc += 1

    def _execute_unlock(self, txn: Transaction, op: Unlock) -> None:
        mode = self.lock_manager.holds(txn.txn_id, op.entity_name)
        if mode is None:
            raise LockError(
                f"{txn.txn_id} holds no lock on {op.entity_name!r}"
            )
        if mode is LockMode.EXCLUSIVE:
            self._install(
                txn.txn_id, op.entity_name,
                self.strategy.final_value(txn, op.entity_name),
            )
        grants = self.lock_manager.unlock(txn.txn_id, op.entity_name)
        self.strategy.on_unlock(txn, op.entity_name)
        txn.pc += 1
        for grant in grants:
            self._complete_grant(grant)

    def _commit(self, txn: Transaction) -> None:
        """Terminate a transaction: install exclusive values it never
        explicitly unlocked, release everything, check consistency."""
        for entity, mode in self.lock_manager.locks_held(txn.txn_id).items():
            if mode is LockMode.EXCLUSIVE:
                self._install(
                    txn.txn_id, entity, self.strategy.final_value(txn, entity)
                )
        grants = self.lock_manager.finish(txn.txn_id)
        self.strategy.on_finish(txn)
        self._set_status(txn, TxnStatus.COMMITTED)
        self.metrics.commits += 1
        if self.bus.wants(EventKind.TXN_COMMIT):
            self.bus.publish(
                EventKind.TXN_COMMIT,
                txn.txn_id,
                ops=txn.ops_executed_total,
            )
        if self.wal is not None:
            self.wal.log_commit(txn.txn_id)
        for grant in grants:
            self._complete_grant(grant)
        if self.database.constraints and self._constraint_quiescent():
            self.database.check_consistency()

    def _install(self, txn_id: TxnId, entity: str, value: Any) -> None:
        """Install a new global value, logging it ahead of the write."""
        if self.wal is not None:
            self.wal.log_install(txn_id, entity, value)
        self.database[entity] = value

    def _constraint_quiescent(self) -> bool:
        """Whether consistency constraints are meaningful right now.

        Under 2PL a transaction in its shrinking phase may have installed
        some of its writes and not others; global constraints are only
        required to hold when no live transaction still holds an exclusive
        lock (every update is then fully applied or not at all).
        """
        for txn in self.transactions.values():
            if txn.done:
                continue
            held = self.lock_manager.locks_held(txn.txn_id)
            if any(mode is LockMode.EXCLUSIVE for mode in held.values()):
                return False
        return True

    # -- deadlock resolution ---------------------------------------------------

    def _detect(self, requester: TxnId) -> Deadlock | None:
        """Deadlock check after *requester* blocked.

        Centralised systems see the whole concurrency graph; subclasses
        (the distributed scheduler) may restrict visibility.
        """
        return self.detector.check(requester)

    def _resolve(self, deadlock: Deadlock) -> list[RollbackAction]:
        ctx = VictimContext(deadlock, self.transactions, self.strategy)
        actions = self.policy.select(ctx)
        if self.bus.wants(EventKind.VICTIM_SELECT):
            # Candidate costs: every action the policy evaluated while
            # deciding, not just the chosen cover — the "why this victim"
            # record Figure 1's cost comparison is about.
            self.bus.publish(
                EventKind.VICTIM_SELECT,
                deadlock.requester,
                candidates=[
                    [a.txn_id, a.target_ordinal, a.cost]
                    for a in ctx.evaluated_actions()
                ],
                chosen=[
                    [a.txn_id, a.target_ordinal, a.cost] for a in actions
                ],
            )
        for action in actions:
            self.force_rollback(
                action.txn_id,
                action.target_ordinal,
                requester=deadlock.requester,
                ideal_ordinal=action.ideal,
            )
        return actions

    def force_rollback(
        self,
        txn_id: TxnId,
        target_ordinal: int,
        requester: TxnId,
        ideal_ordinal: int | None = None,
    ) -> None:
        """Roll *txn_id* back to lock state *target_ordinal*.

        Used by deadlock resolution and by external mechanisms (the
        distributed layer's timestamp rules and timeouts).  Cancels any
        pending request, releases the undone locks without installing
        values, restores values through the strategy, rewinds the
        transaction, and records metrics.  *requester* is the transaction
        whose conflict caused the rollback (the victim itself for
        self-inflicted rollbacks).
        """
        txn = self.transaction(txn_id)
        ideal = target_ordinal if ideal_ordinal is None else ideal_ordinal
        held_to_release = [
            record.entity
            for record in txn.records_from(target_ordinal)
            if record.granted
        ]
        states_lost = txn.state_index - txn.lock_state_state_index(
            target_ordinal
        )
        # Extra loss forced by the strategy clamping below the ideal target
        # (zero under MCS; the whole locked prefix under total restart).
        # Must be computed before the lock records are truncated.
        if ideal > target_ordinal:
            self.metrics.overshoot_states += (
                txn.lock_state_state_index(ideal)
                - txn.lock_state_state_index(target_ordinal)
            )
        grants = self.lock_manager.cancel_wait(txn.txn_id)
        grants += self.lock_manager.release_for_rollback(
            txn.txn_id, held_to_release
        )
        try:
            self.strategy.rollback(txn, target_ordinal)
        except StorageFault:
            self.metrics.storage_faults += 1
            if not self.degrade_on_fault:
                raise
            # Graceful degradation: the victim's partial-rollback state is
            # damaged, but its initial state is always reconstructible from
            # the program, so fall back to a total restart instead of
            # aborting the run.  The global database was never touched by
            # uninstalled local copies, so discarding them is safe.
            grants += self._degrade_to_restart(txn)
            target_ordinal = 0
            states_lost = txn.state_index
        was = txn.status
        txn.apply_rollback(target_ordinal)  # leaves the victim READY
        self._reindex(txn, was)
        if self.wal is not None:
            self.wal.log_rollback(txn_id, target_ordinal)
        self.metrics.record_rollback(
            victim=txn_id,
            requester=requester,
            target_ordinal=target_ordinal,
            ideal_ordinal=ideal,
            states_lost=states_lost,
        )
        if self.bus.wants(EventKind.ROLLBACK):
            self.bus.publish(
                EventKind.ROLLBACK,
                txn_id,
                requester=requester,
                target=target_ordinal,
                ideal=ideal,
                states_lost=states_lost,
                total=target_ordinal == 0,
            )
        for grant in grants:
            self._complete_grant(grant)

    def shed(self, txn_id: TxnId, reason: str = DEADLINE_EXCEEDED) -> None:
        """Remove *txn_id* from the system without committing it.

        The last rung of the deadline-escalation ladder: cancel any
        pending wait, release every held lock *without installing values*
        (the transaction's writes are abandoned, never made global), tear
        down its strategy storage, and mark it
        :attr:`~repro.core.transaction.TxnStatus.SHED` — a terminal status
        recorded in metrics so the outcome is always explicit.
        """
        txn = self.transaction(txn_id)
        if txn.done:
            raise SimulationError(f"{txn_id} already {txn.status}")
        grants = self.lock_manager.cancel_wait(txn.txn_id)
        held = sorted(self.lock_manager.locks_held(txn.txn_id))
        grants += self.lock_manager.release_for_rollback(txn.txn_id, held)
        self.strategy.on_finish(txn)
        self._set_status(txn, TxnStatus.SHED)
        self.metrics.record_shed(txn_id, reason)
        if self.bus.wants(EventKind.TXN_SHED):
            self.bus.publish(
                EventKind.TXN_SHED, txn_id, reason=reason, released=held
            )
        for grant in grants:
            self._complete_grant(grant)

    def _degrade_to_restart(self, txn: Transaction) -> list[Grant]:
        """Release everything *txn* still holds and rebuild its storage.

        The damaged strategy state (half-popped stacks, a half-applied undo
        log) cannot be trusted for any partial target, so it is discarded
        wholesale and recreated as at transaction start; the caller then
        rewinds the transaction to lock state 0.
        """
        self.metrics.degraded_restarts += 1
        self.bus.publish(EventKind.DEGRADE_RESTART, txn.txn_id)
        remaining = sorted(self.lock_manager.locks_held(txn.txn_id))
        grants = self.lock_manager.release_for_rollback(
            txn.txn_id, remaining
        )
        self.strategy.on_finish(txn)
        self.strategy.begin(txn)
        return grants

    # -- accounting -----------------------------------------------------------

    def _copies_total(self) -> int:
        """From-scratch recount (the oracle the strategy's running
        ``copies`` must agree with)."""
        return sum(
            self.strategy.copies_count(txn)
            for txn in self.transactions.values()
            if not txn.done
        )

    def concurrency_graph(
        self, include_queue_edges: bool = True
    ) -> "ConcurrencyGraph":
        """Snapshot of the current waits-for graph.

        Pass ``include_queue_edges=False`` for the paper's pure conflict
        relation (the one Theorem 1's forest criterion applies to).
        """
        from ..graphs.concurrency import ConcurrencyGraph

        return ConcurrencyGraph.from_lock_table(
            self.lock_manager.table,
            include_queue_edges=include_queue_edges,
        )
