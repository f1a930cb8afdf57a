"""The no-wait baseline: never block, restart on any conflict.

The simplest deadlock-free discipline: a lock request that cannot be
granted immediately rolls the requester back (classically: aborts and
restarts it) instead of queueing it.  Deadlock is impossible because no
transaction ever waits — but under contention the scheme burns enormous
amounts of re-executed work, which is precisely the waste the paper's
partial rollback is designed to avoid.

:class:`NoWaitScheduler` supports both flavours: with the ``total``
strategy it is the classical abort-and-restart no-wait scheme; with a
partial strategy it rolls the requester back only past its most recent
lock state, a milder variant that still never waits.  A seeded exponential
backoff (in engine steps) prevents two transactions from re-colliding in
lockstep forever.
"""

from __future__ import annotations

import random

from ..core.operations import Lock
from ..core.scheduler import Scheduler, StepOutcome, StepResult
from ..core.transaction import Transaction, TxnStatus
from ..storage.database import Database

TxnId = str


class NoWaitScheduler(Scheduler):
    """2PL without waiting: conflicts roll the requester back immediately."""

    def __init__(
        self,
        database: Database,
        strategy="total",
        backoff_base: int = 4,
        backoff_cap: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(
            database,
            strategy=strategy,
            policy="ordered-min-cost",  # never consulted: nothing waits
        )
        self._rng = random.Random(seed)
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._sleeping_until: dict[TxnId, int] = {}
        self._collisions: dict[TxnId, int] = {}
        self._clock = 0

    # -- engine integration -------------------------------------------------

    def on_engine_step(self, step: int) -> None:
        """Advance the backoff clock and wake slept transactions."""
        self._clock += 1
        for txn_id, until in list(self._sleeping_until.items()):
            if self._clock >= until:
                del self._sleeping_until[txn_id]
                txn = self.transactions.get(txn_id)
                if txn is not None and txn.status is TxnStatus.BLOCKED:
                    self._set_status(txn, TxnStatus.READY)

    # -- lock handling -------------------------------------------------------

    def _execute_lock(self, txn: Transaction, op: Lock) -> StepResult:
        txn.record_lock_request(op.entity_name, op.mode)
        granted = self.lock_manager.lock(txn.txn_id, op.entity_name, op.mode)
        if granted:
            self._collisions.pop(txn.txn_id, None)
            from ..locking.table import Grant

            self._complete_grant(Grant(txn.txn_id, op.entity_name, op.mode))
            return StepResult(txn.txn_id, StepOutcome.GRANTED)
        # Conflict: withdraw the request and roll the requester back.
        self.lock_manager.cancel_wait(txn.txn_id)
        self.metrics.record_block(op.entity_name)
        granted_records = [r for r in txn.lock_records if r.granted]
        if granted_records:
            ideal = granted_records[-1].ordinal   # release the latest lock
        else:
            ideal = 0
        target = self.strategy.choose_target(txn, ideal)
        # The pending (cancelled) request must be dropped from the
        # records before the strategy sees the rollback.
        self.force_rollback(
            txn.txn_id, target, requester=txn.txn_id, ideal_ordinal=ideal
        )
        self._sleep(txn)
        return StepResult(txn.txn_id, StepOutcome.DEADLOCK, actions=[])

    def _sleep(self, txn: Transaction) -> None:
        """Exponential backoff before the transaction retries."""
        collisions = self._collisions.get(txn.txn_id, 0) + 1
        self._collisions[txn.txn_id] = collisions
        window = min(
            self._backoff_base * (2 ** (collisions - 1)), self._backoff_cap
        )
        delay = self._rng.randint(1, window)
        self._set_status(txn, TxnStatus.BLOCKED)
        self._sleeping_until[txn.txn_id] = self._clock + delay
