"""Per-transaction deadlines with a deterministic escalation ladder.

A transaction that blows its deadline while blocked is never left to loop
silently.  Expiries escalate through three rungs, each of which resets the
deadline clock:

1. **Partial-rollback self** — back off one lock state (cancelling the
   pending wait and freeing the most recently granted entity), the
   cheapest way to get the transaction and its convoy moving again.
2. **Total restart** — the partial retreat did not help; restart from
   lock state 0, releasing everything.
3. **Shed** — the system is overloaded beyond what retrying can fix; the
   transaction is removed with an explicit
   :data:`~repro.core.metrics.DEADLINE_EXCEEDED` outcome in metrics.

A transaction that is READY (runnable) at expiry is making progress, so
its deadline is extended rather than escalated — the ladder punishes being
*stuck*, not being slow.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..core.transaction import TxnStatus
from ..observability.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.scheduler import Scheduler


class DeadlineEnforcer:
    """Tracks deadlines (in engine steps) and runs the escalation ladder.

    Parameters
    ----------
    deadline_steps:
        Steps a watched transaction gets per rung before the next
        escalation fires.
    """

    def __init__(self, deadline_steps: int = 400) -> None:
        if deadline_steps < 1:
            raise ValueError("deadline_steps must be positive")
        self.deadline_steps = deadline_steps
        self._deadline: dict[str, int] = {}
        self._rung: dict[str, int] = {}
        #: Per-transaction period overrides (see :meth:`watch`).
        self._period: dict[str, int] = {}
        #: No deadline falls before this step, so a tick before it has
        #: nothing to fire (a forgotten deadline may leave it early).
        self._next_due: float = math.inf

    def watch(
        self, txn_id: str, step: int, deadline_steps: int | None = None
    ) -> None:
        """Start the deadline clock for a newly admitted transaction.

        *deadline_steps* overrides the enforcer-wide period for this one
        transaction — the lock service maps per-request deadlines onto
        the ladder this way.  The override persists across rung resets.
        """
        if deadline_steps is not None and deadline_steps < 1:
            raise ValueError("deadline_steps must be positive")
        period = (
            self.deadline_steps if deadline_steps is None else deadline_steps
        )
        self._period[txn_id] = period
        self._deadline[txn_id] = step + period
        self._rung[txn_id] = 0
        self._next_due = min(self._next_due, step + period)

    def forget(self, txn_id: str) -> None:
        """Stop watching *txn_id* (its owner has dropped it)."""
        self._deadline.pop(txn_id, None)
        self._rung.pop(txn_id, None)
        self._period.pop(txn_id, None)

    def deadline_of(self, txn_id: str) -> int | None:
        """The current deadline step for *txn_id* (``None`` if unwatched)."""
        return self._deadline.get(txn_id)

    def tick(self, scheduler: "Scheduler", step: int) -> bool:
        """Fire the ladder for every watched transaction past its deadline.

        Returns whether a rung rolled back or shed a transaction.  A
        tick before the earliest deadline returns at once; one at or
        past it iterates over sorted ids, so a tick that escalates
        several transactions does so in a deterministic order, and
        drops the terminated ones it meets.
        """
        if step < self._next_due:
            return False
        fired = False
        for txn_id in sorted(self._deadline):
            txn = scheduler.transactions.get(txn_id)
            if txn is None or txn.done:
                self.forget(txn_id)
                continue
            if step < self._deadline[txn_id]:
                continue
            period = self._period.get(txn_id, self.deadline_steps)
            if txn.status is not TxnStatus.BLOCKED:
                # Runnable at expiry: it can make progress, so it gets
                # another period instead of an escalation.
                self._deadline[txn_id] = step + period
                continue
            scheduler.metrics.deadline_expiries += 1
            fired = True
            rung = self._rung[txn_id] = self._rung[txn_id] + 1
            if scheduler.bus.wants(EventKind.DEADLINE_RUNG):
                scheduler.bus.publish(
                    EventKind.DEADLINE_RUNG,
                    txn_id,
                    rung=rung,
                    action={1: "partial", 2: "restart"}.get(rung, "shed"),
                )
            if rung == 1:
                # Cancel the pending wait and free the most recent lock.
                ideal = max(0, txn.lock_count - 1)
                target = scheduler.strategy.choose_target(txn, ideal)
                scheduler.force_rollback(
                    txn_id, target, requester=txn_id, ideal_ordinal=ideal
                )
                scheduler.metrics.deadline_partials += 1
                self._deadline[txn_id] = step + period
            elif rung == 2:
                scheduler.force_rollback(
                    txn_id, 0, requester=txn_id, ideal_ordinal=0
                )
                scheduler.metrics.deadline_restarts += 1
                self._deadline[txn_id] = step + period
            else:
                scheduler.shed(txn_id)
                self.forget(txn_id)
        self._next_due = min(self._deadline.values(), default=math.inf)
        return fired
