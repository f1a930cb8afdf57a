"""Deadlock avoidance by predeclaration (conservative 2PL).

The paper's introduction cites "the method of Dijkstra's banker's
algorithm [3], in which each transaction must declare the entities it
intends to access before beginning execution".  For the all-or-nothing
special case this is conservative (static) two-phase locking: a
transaction atomically acquires every lock it will ever need before its
first operation, so it can never hold-and-wait — no deadlock, no rollback.

:class:`PreclaimScheduler` implements it on top of the ordinary lock
manager.  The declared lock set is read off the (validated) program, so no
extra user input is needed; admission is FIFO by entry order to prevent
starvation: a waiting transaction blocks all later admissions that overlap
its lock set.
"""

from __future__ import annotations

from ..core.operations import Lock
from ..core.scheduler import Scheduler, StepOutcome, StepResult
from ..core.transaction import Transaction, TransactionProgram, TxnStatus
from ..errors import SimulationError
from ..locking.modes import LockMode
from ..storage.database import Database

TxnId = str


class PreclaimScheduler(Scheduler):
    """Conservative 2PL: atomically acquire the full declared lock set.

    Deadlock-free by construction; the victim policy and rollback
    machinery of the base class are never invoked.  The cost is
    concurrency: every lock is held from admission to completion, and a
    transaction cannot start while any declared entity is unavailable.
    """

    def __init__(
        self,
        database: Database,
        strategy="mcs",
    ) -> None:
        super().__init__(
            database,
            strategy=strategy,
            policy="ordered-min-cost",  # never consulted
        )
        self._admitted: set[TxnId] = set()
        self._admission_queue: list[TxnId] = []

    # -- admission ---------------------------------------------------------

    def register(self, program: TransactionProgram) -> Transaction:
        txn = super().register(program)
        self._admission_queue.append(txn.txn_id)
        return txn

    def _declared_locks(self, txn: Transaction) -> dict[str, LockMode]:
        """The lock set read off the program (strongest mode per entity)."""
        declared: dict[str, LockMode] = {}
        for op in txn.program.operations:
            if isinstance(op, Lock):
                declared[op.entity_name] = op.mode
        return declared

    def _lockset_available(self, txn: Transaction) -> bool:
        for entity, mode in self._declared_locks(txn).items():
            holders = self.lock_manager.table.holders(entity)
            if any(
                not held.compatible_with(mode)
                for held in holders.values()
            ):
                return False
            if self.lock_manager.table.queue(entity):
                return False
        return True

    def _try_admissions(self) -> None:
        """Admit waiting transactions FIFO; stop at the first that cannot
        start (its declared entities stay reserved by queue order)."""
        while self._admission_queue:
            txn_id = self._admission_queue[0]
            txn = self.transaction(txn_id)
            if not self._lockset_available(txn):
                break
            self._admission_queue.pop(0)
            self._admitted.add(txn_id)
            self._set_status(txn, TxnStatus.READY)
            for entity, mode in sorted(self._declared_locks(txn).items()):
                record = txn.record_lock_request(entity, mode)
                granted = self.lock_manager.lock(txn_id, entity, mode)
                if not granted:  # pragma: no cover - availability checked
                    raise SimulationError(
                        f"preclaim admission of {txn_id} failed on "
                        f"{entity!r} despite availability check"
                    )
                record.granted = True
                self.metrics.locks_granted += 1
                self.strategy.on_lock_granted(
                    txn, entity, mode, self.database[entity], record.ordinal
                )

    # -- execution ----------------------------------------------------------

    def step(self, txn_id: TxnId) -> StepResult:
        txn = self.transaction(txn_id)
        if txn_id not in self._admitted and not txn.done:
            self._try_admissions()
            if txn_id not in self._admitted:
                self._set_status(txn, TxnStatus.BLOCKED)
                self.metrics.blocks += 1
                return StepResult(txn_id, StepOutcome.BLOCKED)
        op = txn.current_operation()
        if isinstance(op, Lock):
            # Already held from admission: the request is a no-op.
            self.metrics.ops_executed += 1
            txn.ops_executed_total += 1
            txn.pc += 1
            return StepResult(txn_id, StepOutcome.GRANTED)
        result = super().step(txn_id)
        if result.outcome is StepOutcome.COMMITTED:
            self._admitted.discard(txn_id)
            self._wake_admissible()
        return result

    def _execute_unlock(self, txn: Transaction, op) -> None:
        super()._execute_unlock(txn, op)
        self._wake_admissible()

    def _wake_admissible(self) -> None:
        """Releases may let the admission queue move: unblock candidates."""
        self._try_admissions()
        for txn_id in self._admitted:
            txn = self.transaction(txn_id)
            if txn.status is TxnStatus.BLOCKED:
                self._set_status(txn, TxnStatus.READY)

    def runnable(self) -> list[TxnId]:
        # A blocked-on-admission transaction becomes runnable whenever the
        # admission check might newly pass; cheapest is to re-offer the
        # queue head alongside genuinely ready transactions.
        ready = super().runnable()
        if not ready and self._admission_queue:
            head = self._admission_queue[0]
            if self._lockset_available(self.transaction(head)):
                self._wake_admissible()
                ready = super().runnable()
        return ready
