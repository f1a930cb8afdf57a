"""Fixture: RR002 lock-discipline violations (parsed, never imported)."""

from repro.locking.manager import LockManager
from repro.locking.modes import LockMode
from repro.locking.table import LockTable


def peek_internals(manager: LockManager) -> int:
    return len(manager.table._locks)  # violation: private lock-table state


def bypass_two_phase(manager: LockManager, txn: str, entity: str) -> None:
    # violation: mutating the table behind the manager's back
    manager.table.request(txn, entity, LockMode.EXCLUSIVE)
    manager.table.release(txn, entity)
    # violation: a rollback's release that skips the shrinking-phase guard
    manager.table.release_many(txn, [entity])


def own_bare_table() -> LockTable:
    return LockTable()  # violation: bare LockTable outside repro.locking


def read_only_is_fine(manager: LockManager, entity: str) -> list[str]:
    return list(manager.table.holders(entity))
