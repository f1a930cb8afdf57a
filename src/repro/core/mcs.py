"""The multi-lock copy strategy (MCS) — paper §4.

MCS associates a :class:`~repro.storage.copies.ValueStack` with every
exclusive-locked entity (created at the entity's lock state, stack index =
the lock index of that state) and with every local variable (created at
transaction start, stack index 0, seeded with the initial value).  Writes
push or update stack elements per the paper's lock-index rule; a rollback to
lock state *k* deletes every stack whose stack index is ``>= k`` and pops
the surviving stacks down to their value at lock state *k*.

Because every lock state remains reproducible, MCS supports *minimal*
rollbacks — exactly far enough to release the contested entity — at a
worst-case space cost of ``n(n+1)/2`` copies of global entities plus
``n·|L|`` copies of local variables (Theorem 3).

Shared-locked entities are never written, so MCS keeps no stack for them;
reads are served from the global value captured at grant time.
"""

from __future__ import annotations

from ..storage.copies import ValueStack
from .rollback import Cell, RollbackStrategy, TxnStore, Value
from .transaction import Transaction


class MultiLockCopyStrategy(RollbackStrategy):
    """Rollback to any lock state, at quadratic worst-case space."""

    name = "mcs"

    # -- cells: one ValueStack per variable ----------------------------------

    def _new_cell(self, name: str, value: Value, lock_index: int) -> ValueStack:
        return ValueStack(name, lock_index, value)

    def _value(self, cell: ValueStack) -> Value:
        return cell.current_value

    def _assign(
        self,
        txn: Transaction,
        state: TxnStore,
        cells: dict[str, Cell],
        name: str,
        value: Value,
    ) -> None:
        stack: ValueStack = cells[name]
        # Once the last lock request is declared the transaction can never
        # be rolled back, so stop accumulating history: overwrite the top.
        stack.write(
            value, txn.lock_count if state.monitoring else stack.top_index
        )

    def _copies(self, cells: dict[str, Cell]) -> int:
        return sum(map(len, cells.values()))

    # -- rollback ----------------------------------------------------------

    def choose_target(self, txn: Transaction, ideal_ordinal: int) -> int:
        """Every lock state is reachable under MCS."""
        return ideal_ordinal

    def _restore(self, txn: Transaction, state: TxnStore, ordinal: int) -> None:
        stack: ValueStack
        for stack in state.cells():
            stack.pop_to(ordinal)

    # -- accounting -----------------------------------------------------------

    def entity_copies_count(self, txn: Transaction) -> int:
        """Stored copies of exclusive-locked global entities only — the
        ``n(n+1)/2`` side of Theorem 3."""
        return self._copies(self._state(txn).entities)

    def local_copies_count(self, txn: Transaction) -> int:
        """Stored copies of local variables — the ``n·|L|`` side of
        Theorem 3 (the initial seed element included)."""
        return self._copies(self._state(txn).locals)
