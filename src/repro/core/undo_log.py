"""The undo-log strategy: partial rollback by backward execution (§4).

The paper sketches an alternative to copy-keeping: "it may be possible for
the system to actually 'run a portion of the transaction backwards' as it
were, erasing its effects as it goes", noting it "require[s] a system
knowledge of transaction semantics".  The declarative operation language
gives this library that knowledge, so :class:`UndoLogStrategy` implements
the sketch:

* every write appends an *undo record* tagged with its lock index;
* invertible writes (``x <- x ± c``, see :mod:`repro.core.inverse`) store
  only the inverse function — no value copy at all;
* non-invertible writes fall back to a before-image;
* rollback to lock state *k* pops records with lock index ``>= k`` in
  reverse order, applying each — literally running the suffix backwards.

Like MCS, every lock state is reachable; unlike MCS, storage is one
record per *write* (zero value copies for invertible writes) instead of
one value copy per (entity, lock state) pair, so the two sit on different
points of the storage/monitoring trade-off the paper discusses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .inverse import invert_expression
from .operations import Assign, Write
from .rollback import Cell, RollbackStrategy, TxnStore, Value
from .transaction import Transaction


class _Kind(enum.Enum):
    IMAGE = "image"          # payload: the old value
    INVERSE = "inverse"      # payload: callable new -> old
    CREATE = "create"        # first write to an undeclared local


@dataclass
class UndoRecord:
    """One logged write, enough to erase its effect."""

    lock_index: int
    is_entity: bool
    name: str
    kind: _Kind
    payload: Any = None


@dataclass
class _UndoStore(TxnStore):
    """The shared store (bare-value cells) plus the undo log."""

    log: list[UndoRecord] = field(default_factory=list)
    images_logged: int = 0
    inverses_logged: int = 0


class UndoLogStrategy(RollbackStrategy):
    """Rollback to any lock state by applying logged undo actions."""

    name = "undo-log"
    store_type = _UndoStore

    def _state(self, txn: Transaction) -> _UndoStore:
        state = super()._state(txn)
        assert isinstance(state, _UndoStore)
        return state

    # -- logging writes ------------------------------------------------------

    def write_local(self, txn: Transaction, var: str, value: Value) -> None:
        state = self._state(txn)
        if state.monitoring and var not in state.locals:
            state.log.append(
                UndoRecord(txn.lock_count, False, var, _Kind.CREATE)
            )
        super().write_local(txn, var, value)

    def _assign(
        self,
        txn: Transaction,
        state: TxnStore,
        cells: dict[str, Cell],
        name: str,
        value: Value,
    ) -> None:
        if state.monitoring:
            self._log(txn, cells is state.entities, name, cells[name])
        cells[name] = value

    def _log(
        self, txn: Transaction, is_entity: bool, name: str, old_value: Value
    ) -> None:
        """Append the undo record for the write being executed.

        The scheduler calls the strategy while the program counter still
        addresses the running operation, so the write's expression — the
        semantic knowledge inversion needs — is recoverable without any
        API change.  Anything unexpected falls back to a before-image.
        """
        op = txn.current_operation()
        inverse = None
        if is_entity:
            if isinstance(op, Write) and op.entity_name == name:
                inverse = invert_expression(op.expr, entity_name=name)
        elif isinstance(op, Assign) and op.var_name == name:
            inverse = invert_expression(op.expr, var_name=name)
        state = self._state(txn)
        if inverse is not None:
            kind, payload = _Kind.INVERSE, inverse
            state.inverses_logged += 1
        else:
            kind, payload = _Kind.IMAGE, old_value
            state.images_logged += 1
            self._count(state, 1)
        state.log.append(
            UndoRecord(txn.lock_count, is_entity, name, kind, payload)
        )

    # -- rollback ----------------------------------------------------------

    def choose_target(self, txn: Transaction, ideal_ordinal: int) -> int:
        """Every lock state is reachable (the log is complete)."""
        return ideal_ordinal

    def _restore(self, txn: Transaction, state: TxnStore, ordinal: int) -> None:
        """Run the suffix backwards: pop and apply records at or past the
        target lock state, newest first."""
        log = self._state(txn).log
        while log and log[-1].lock_index >= ordinal:
            record = log.pop()
            cells = state.entities if record.is_entity else state.locals
            if record.name not in cells:
                # The cell went with its undone lock (or with everything,
                # at lock state 0); there is nothing left to restore, and
                # applying the record would re-create the entry.
                continue
            if record.kind is _Kind.CREATE:
                del cells[record.name]
            elif record.kind is _Kind.IMAGE:
                cells[record.name] = record.payload
            else:
                cells[record.name] = record.payload(cells[record.name])

    # -- accounting -----------------------------------------------------------

    def copies_count(self, txn: Transaction) -> int:
        """Stored *values*: current copies plus before-images; inverse
        records store no value, which is the whole point."""
        return super().copies_count(txn) + sum(
            record.kind is _Kind.IMAGE for record in self._state(txn).log
        )

    def log_stats(self, txn: Transaction) -> dict[str, int]:
        """Lifetime counts of logged record kinds (bench reporting)."""
        state = self._state(txn)
        return {
            "images": state.images_logged,
            "inverses": state.inverses_logged,
            "live_records": len(state.log),
        }
