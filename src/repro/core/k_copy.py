"""The k-copy strategy: single-copy plus a bounded retention budget (§5).

The paper's closing open problem: "the state-dependency graph
implementation of partial rollback can easily be extended to allow more
than one local copy to be kept for entities.  The problem of determining
how to allocate a bounded amount of extra storage to the entities in
order to maximize the number of well-defined states ... remains another
interesting question for further study."

:class:`KCopyStrategy` implements the extension: each transaction gets a
budget of ``extra_copies`` retained values; whenever a write would destroy
the restorability of earlier lock states (a re-write at a later lock
index), the allocator decides whether to spend one budget unit retaining
the destroyed value, which keeps the covered lock states well-defined.

Allocators
----------
``eager``
    Spend budget on the first destroying writes encountered (simple
    online policy).
``threshold:<w>``
    Spend budget only on writes whose kill interval spans at least ``w``
    lock states (wider intervals protect more states per copy — a better
    bang for the budget when contention hits mid-transaction states).

``extra_copies=0`` is the single-copy strategy of §4
(:class:`~repro.core.single_copy.SingleCopyStrategy` is this class at that
budget); ``extra_copies=None`` (unbounded) makes every lock state
restorable like MCS, at MCS-like storage.
"""

from __future__ import annotations

from typing import Callable

from ..graphs.state_dependency import StateDependencyGraph
from ..storage.copies import CopyCell
from .rollback import Cell, RollbackStrategy, TxnStore, Value
from .transaction import Transaction

#: Decides whether to retain.  Receives the kill-interval width (in lock
#: states), the variable name, and the destructive write's lock index
#: (which uniquely identifies the interval — its upper endpoint); returns
#: True to spend one budget unit.
Allocator = Callable[[int, str, int], bool]


def eager_allocator(_width: int, _variable: str, _lock_index: int) -> bool:
    """Retain whenever budget remains."""
    return True


def threshold_allocator(min_width: int) -> Allocator:
    """Retain only when the destroyed interval spans >= *min_width*."""

    def allocate(width: int, _variable: str, _lock_index: int) -> bool:
        return width >= min_width

    return allocate


class _KCopyStore(TxnStore):
    """The shared store, whose cells are :class:`CopyCell`."""

    @property
    def budget_used(self) -> int:
        """Retained copies currently held.  Derived, so dropping a cell
        (unlock, rollback) hands its budget back with no bookkeeping."""
        return sum(len(copy.retained) for copy in self.cells())


class KCopyStrategy(RollbackStrategy):
    """Partial rollback with a bounded extra-copy budget per transaction."""

    name = "k-copy"
    store_type = _KCopyStore

    def __init__(
        self,
        extra_copies: int | None = 1,
        allocator: Allocator | None = None,
    ) -> None:
        super().__init__()
        if extra_copies is not None and extra_copies < 0:
            raise ValueError("extra_copies must be >= 0 or None")
        self.extra_copies = extra_copies
        self.allocator = allocator or eager_allocator

    def _state(self, txn: Transaction) -> _KCopyStore:
        state = super()._state(txn)
        assert isinstance(state, _KCopyStore)
        return state

    # -- cells: one CopyCell per variable ------------------------------------

    def _new_cell(self, name: str, value: Value, lock_index: int) -> CopyCell:
        return CopyCell(name, base_value=value, lock_index=lock_index)

    def _value(self, cell: CopyCell) -> Value:
        return cell.value

    def _assign(
        self,
        txn: Transaction,
        state: TxnStore,
        cells: dict[str, Cell],
        name: str,
        value: Value,
    ) -> None:
        self._write(self._state(txn), cells[name], value, txn.lock_count)

    def _write(
        self,
        state: _KCopyStore,
        copy: CopyCell,
        value: Value,
        lock_index: int,
    ) -> None:
        if not state.monitoring:
            copy.value = value  # updates only; no history once declared
            return
        # A re-write at a later lock index destroys the restorability of
        # the lock states in between; ask the allocator whether to spend
        # one budget unit keeping the destroyed value.
        last = copy.last_write_index
        retain = (
            last is not None
            and lock_index > last
            and self._budget_remaining(state)
            and self.allocator(lock_index - last, copy.name, lock_index)
        )
        copy.write(value, lock_index, retain=retain)

    def _budget_remaining(self, state: _KCopyStore) -> bool:
        return (
            self.extra_copies is None
            or state.budget_used < self.extra_copies
        )

    def _copies(self, cells: dict[str, Cell]) -> int:
        """One per variable plus the retained extras."""
        return sum(copy.copies_stored for copy in cells.values())

    # -- rollback ----------------------------------------------------------

    def well_defined(self, txn: Transaction, ordinal: int) -> bool:
        """Is lock state *ordinal* restorable from the stored copies?
        With nothing retained this is Theorem 4: no write spans it."""
        return all(
            copy.restorable_at(ordinal) for copy in self._state(txn).cells()
        )

    def well_defined_states(self, txn: Transaction) -> list[int]:
        """Currently reachable rollback targets (ascending lock indices)."""
        return [
            q
            for q in range(txn.lock_count + 1)
            if self.well_defined(txn, q)
        ]

    def choose_target(self, txn: Transaction, ideal_ordinal: int) -> int:
        """Largest well-defined lock state at or below the ideal target.

        This is exactly the paper's §4 rule: "we must find the well-defined
        lock state of largest index less than that of the lock state for E,
        and roll the transaction back to that state."
        """
        for q in range(min(ideal_ordinal, txn.lock_count), -1, -1):
            if self.well_defined(txn, q):
                return q
        raise AssertionError("lock state 0 must be restorable")

    def _restore(self, txn: Transaction, state: TxnStore, ordinal: int) -> None:
        copy: CopyCell
        for copy in state.cells():
            copy.rollback_to(ordinal)

    def write_history(self, txn: Transaction) -> list[tuple[int, str]]:
        """Every write the cells still have on record, as ``(lock index,
        variable)`` pairs (``e:<entity>`` / ``l:<local>``), each variable's
        oldest first.  The state-dependency graph and the planner's kill
        intervals are read off this and nothing else."""
        state = self._state(txn)
        return [
            (lock_index, f"{kind}:{name}")
            for kind, cells in (("e", state.entities), ("l", state.locals))
            for name, copy in cells.items()
            for lock_index in copy.write_indices
        ]

    def graph_of(self, txn: Transaction) -> StateDependencyGraph:
        """The paper's state-dependency graph of :meth:`write_history`,
        built afresh on each call.  It says what *one* copy per variable
        can restore: at budget 0 exactly :meth:`well_defined_states`;
        retained copies only add to them."""
        return StateDependencyGraph.from_writes(
            txn.lock_count, self.write_history(txn)
        )
