"""Two-phase lock manager.

Wraps the policy-free :class:`~repro.locking.table.LockTable` with
enforcement of the two-phase rule of Eswaran et al.: once a transaction has
performed an unlock, it may issue no further lock requests.  The paper
additionally assumes transactions are never rolled back after their first
unlock (rollback is only a response to a lock request, and a transaction in
its shrinking phase makes none); :meth:`LockManager.in_shrinking_phase` lets
the scheduler and rollback strategies exploit that guarantee, e.g. to stop
monitoring a transaction (§5's "last lock request" declaration).
"""

from __future__ import annotations

from ..errors import LockError, ProtocolViolation
from .modes import LockMode
from .table import EntityName, Grant, LockTable, TxnId


class LockManager:
    """Grants and releases S/X locks under the two-phase protocol."""

    def __init__(self) -> None:
        self.table = LockTable()
        self._shrinking: set[TxnId] = set()
        self._declared_last_lock: set[TxnId] = set()

    # -- protocol phases -------------------------------------------------

    def in_shrinking_phase(self, txn: TxnId) -> bool:
        """True once *txn* has unlocked at least one entity."""
        return txn in self._shrinking

    def declare_last_lock(self, txn: TxnId) -> None:
        """Record §5's declaration that *txn* will request no more locks.

        After this point the transaction can never be a deadlock victim, so
        rollback strategies may stop monitoring its writes.
        """
        self._declared_last_lock.add(txn)

    def past_last_lock(self, txn: TxnId) -> bool:
        """True if *txn* declared its last lock request or began unlocking."""
        return txn in self._declared_last_lock or txn in self._shrinking

    # -- lock operations ----------------------------------------------------

    def lock(self, txn: TxnId, entity: EntityName, mode: LockMode) -> bool:
        """Issue a lock request; returns True if granted immediately.

        Raises :class:`~repro.errors.ProtocolViolation` if *txn* already
        unlocked something (two-phase rule) or declared its last lock.
        """
        if txn in self._shrinking:
            raise ProtocolViolation(
                f"{txn} requested a lock on {entity!r} after unlocking: "
                f"two-phase rule violated"
            )
        if txn in self._declared_last_lock:
            raise ProtocolViolation(
                f"{txn} requested a lock on {entity!r} after declaring its "
                f"last lock request"
            )
        return self.table.request(txn, entity, mode)

    def unlock(self, txn: TxnId, entity: EntityName) -> list[Grant]:
        """Release a held lock, entering the shrinking phase."""
        if self.table.holds(txn, entity) is None:
            raise LockError(f"{txn} holds no lock on {entity!r}")
        self._shrinking.add(txn)
        return self.table.release(txn, entity)

    def release_for_rollback(
        self, txn: TxnId, entities: list[EntityName]
    ) -> list[Grant]:
        """Release locks as part of a rollback (not an unlock).

        Unlike :meth:`unlock`, this does not move the transaction into its
        shrinking phase: a rolled-back transaction will re-acquire locks as
        it re-executes.
        """
        if txn in self._shrinking:
            raise ProtocolViolation(
                f"{txn} cannot be rolled back: it already unlocked an entity"
            )
        # Batched: the victim's holderships drop first, then every
        # affected entity wakes its waiters in one pass.
        return self.table.release_many(txn, entities)

    def cancel_wait(self, txn: TxnId) -> list[Grant]:
        """Withdraw *txn*'s pending lock request (rollback of a waiter)."""
        return self.table.cancel_wait(txn)

    def finish(self, txn: TxnId) -> list[Grant]:
        """Terminate *txn*: release everything it still holds.

        The paper notes the system "may equivalently release any entities
        which a transaction has failed to unlock at the time the transaction
        terminates"; this is that release.
        """
        grants = self.table.release_all(txn)
        self._shrinking.discard(txn)
        self._declared_last_lock.discard(txn)
        return grants

    # -- convenience passthroughs -------------------------------------------

    def holds(self, txn: TxnId, entity: EntityName) -> LockMode | None:
        return self.table.holds(txn, entity)

    def locks_held(self, txn: TxnId) -> dict[EntityName, LockMode]:
        return self.table.locks_held(txn)

    def waiting_on(self, txn: TxnId) -> EntityName | None:
        return self.table.waiting_on(txn)

    def blockers_of(self, txn: TxnId) -> set[TxnId]:
        return self.table.blockers_of(txn)
