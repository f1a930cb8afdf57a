"""Total removal-and-restart — the baseline of [7, 10] the paper improves on.

Keeps a single local copy of each exclusive-locked entity (changes are made
to the copy and installed at unlock), so "total rollback of a two-phase
transaction involves simply releasing the locks it holds on any global
entities and re-running it" (§4).  The only reachable rollback target is
lock state 0: the transaction is removed and restarted from the beginning,
losing all progress.
"""

from __future__ import annotations

from ..errors import RollbackError
from .rollback import RollbackStrategy
from .transaction import Transaction


class TotalRestartStrategy(RollbackStrategy):
    """Deadlock removal by total removal and restart.

    Uses the base class's bare-value cells as they are: one copy per held
    entity plus one per local, so :meth:`copies_count` is linear.
    """

    name = "total"

    def choose_target(self, txn: Transaction, ideal_ordinal: int) -> int:
        """Only the initial state is ever reachable."""
        return 0

    def rollback(self, txn: Transaction, ordinal: int) -> None:
        """Discard everything and start over.

        Deliberately not the base class's skeleton: this is what a
        :class:`~repro.errors.StorageFault` degrades *to*, so it consults
        no fault hook, and a restart needs no history, so it stays legal
        after the transaction's last-lock declaration (§5).
        """
        if ordinal != 0:
            raise RollbackError(
                f"total restart can only roll {txn.txn_id} back to lock "
                f"state 0, not {ordinal}"
            )
        self.begin(txn)
