"""Rollback strategy interface (§4 of the paper).

A rollback strategy answers two questions for the concurrency control:

1. *Where may a transaction be rolled back to?*  Total restart answers
   "only the initial state"; MCS answers "any lock state"; the single-copy
   (state-dependency-graph) strategy answers "any currently well-defined
   lock state".
2. *How are values stored and restored?*  The strategy owns the
   transaction's local variables and local copies of locked entities, so
   that the storage layout required by each implementation (one copy, or a
   stack of copies) is encapsulated in one place.

The scheduler calls the ``on_*`` notification hooks as the transaction
executes and the ``read_*``/``write_*`` accessors for data operations;
:meth:`RollbackStrategy.choose_target` clamps an ideal rollback target to
one the strategy can actually reach, and :meth:`RollbackStrategy.rollback`
performs the restoration.

Lock-index convention (see :mod:`repro.graphs.state_dependency`): lock
state ``k`` is the state immediately before the ``k``-th lock request; a
rollback to lock state ``k`` undoes lock requests ``k..n`` and every
subsequent operation, after which the transaction re-executes from the
``k``-th lock request.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from ..errors import LockError, RollbackError
from ..locking.modes import LockMode
from .transaction import Transaction

Value = Any

#: What a strategy stores for one variable: a bare value (total restart,
#: undo-log), a :class:`~repro.storage.copies.CopyCell`, a
#: :class:`~repro.storage.copies.ValueStack`.  The base class never looks
#: inside a cell — it goes through the ``_new_cell`` / ``_value`` /
#: ``_assign`` / ``_cell_copies`` hooks — and a bare-value cell *is* a
#: :data:`Value`, so no narrower type exists.
Cell = Any

#: ``(strategy, txn, ordinal)``; see :attr:`RollbackStrategy.fault_hook`.
FaultHook = Callable[["RollbackStrategy", Transaction, int], None]


@dataclass
class TxnStore:
    """Everything a strategy keeps for one transaction.

    A strategy with state beyond its cells (an undo log) or a view over
    them (the k-copy budget in use) subclasses this and names the
    subclass in :attr:`RollbackStrategy.store_type`.
    """

    #: Cells of exclusive-locked entities.
    entities: dict[str, Cell] = field(default_factory=dict)
    #: Shared-locked entities are never written, so no cell: reads are
    #: served from the global value captured at grant time.
    shared_values: dict[str, Value] = field(default_factory=dict)
    #: Cells of local variables.
    locals: dict[str, Cell] = field(default_factory=dict)
    #: False after the transaction's last-lock declaration (§5): it can
    #: no longer be rolled back, so writes stop accumulating history.
    monitoring: bool = True
    #: Stored copies, kept at the cell sites (Theorem 3 accounting).
    copies: int = 0

    def cells(self) -> Iterator[Cell]:
        """Every cell a rollback may have to restore."""
        yield from self.entities.values()
        yield from self.locals.values()


class RollbackStrategy(abc.ABC):
    """Owner of the per-transaction store under all five strategies.

    Three are the implementations §4 gives — total restart, MCS,
    single-copy/SDG; two it only points at — undo-log (§4's "run
    backwards" sketch) and k-copy (§5's open problem).  They differ only
    in what a cell is and in which lock states stay reachable, so a
    subclass supplies the cell hooks, :meth:`choose_target` and
    :meth:`_restore`; the lifecycle, the data-access checks, the rollback
    order and the Theorem 3 accounting live here.  The default cell is
    the bare value.
    """

    #: Short machine-readable name used by factories and benchmarks.
    name: str = "abstract"

    #: The :class:`TxnStore` (sub)class :meth:`begin` instantiates.
    store_type: type[TxnStore] = TxnStore

    def __init__(self) -> None:
        self._states: dict[str, TxnStore] = {}
        #: Stored copies across every live store (the sum of their
        #: ``copies``), so ``copies_peak`` costs nothing per step.
        self.copies = 0
        #: Optional fault hook installed by the chaos engine
        #: (:mod:`repro.resilience.faults`): called at the top of every
        #: partial-capable rollback and may raise
        #: :class:`~repro.errors.StorageFault` to model damaged copy
        #: storage.  ``None`` (the default) costs one attribute check.
        self.fault_hook: FaultHook | None = None

    def _state(self, txn: Transaction) -> TxnStore:
        return self._states[txn.txn_id]

    # -- cell hooks ----------------------------------------------------------

    def _new_cell(self, name: str, value: Value, lock_index: int) -> Cell:
        """A cell holding *value*, created at lock state *lock_index* (the
        lock's ordinal for an entity, 0 for a local)."""
        return value

    def _value(self, cell: Cell) -> Value:
        """The current value of *cell*."""
        return cell

    def _assign(
        self,
        txn: Transaction,
        state: TxnStore,
        cells: dict[str, Cell],
        name: str,
        value: Value,
    ) -> None:
        """Write *value* to the existing cell ``cells[name]`` (*cells* is
        ``state.entities`` or ``state.locals``), keeping whatever history
        the strategy needs while ``state.monitoring`` is on."""
        cells[name] = value

    def _cell_copies(self, cell: Cell) -> int:
        """Stored values in *cell*."""
        return 1

    def _seed_locals(self, txn: Transaction, state: TxnStore) -> None:
        state.locals = {
            var: self._new_cell(var, value, 0)
            for var, value in txn.program.initial_locals.items()
        }

    def _drop(self, state: TxnStore, entities: Iterable[str]) -> None:
        for entity in entities:
            if entity in state.entities:
                cell = state.entities.pop(entity)
                self._count(state, -self._cell_copies(cell))
            if entity in state.shared_values:
                del state.shared_values[entity]
                self._count(state, -1)

    # -- copies books: each site books what it changed ------------------------

    def _count(self, state: TxnStore, delta: int) -> None:
        state.copies += delta
        self.copies += delta

    def _update(
        self,
        txn: Transaction,
        state: TxnStore,
        cells: dict[str, Cell],
        name: str,
        value: Value,
    ) -> None:
        """:meth:`_assign`, booking what it did to the cell's copies."""
        before = self._cell_copies(cells[name])
        self._assign(txn, state, cells, name, value)
        self._count(state, self._cell_copies(cells[name]) - before)

    def _recount(self, txn: Transaction, state: TxnStore) -> None:
        """Book *state* from scratch: only where it is rare."""
        self._count(state, self.copies_count(txn) - state.copies)

    # -- lifecycle ---------------------------------------------------------

    def begin(self, txn: Transaction) -> None:
        """Initialise per-transaction storage (locals from the program),
        replacing any the transaction had."""
        self.on_finish(txn)
        state = self._states[txn.txn_id] = self.store_type()
        self._seed_locals(txn, state)
        self._recount(txn, state)

    def on_finish(self, txn: Transaction) -> None:
        """Discard per-transaction storage after commit.  Its booked count
        leaves the total as booked: after a :class:`StorageFault` the
        cells may be half-restored, so they are not recounted."""
        state = self._states.pop(txn.txn_id, None)
        if state is not None:
            self.copies -= state.copies

    # -- notifications -------------------------------------------------------

    def on_lock_granted(
        self,
        txn: Transaction,
        entity: str,
        mode: LockMode,
        global_value: Value,
        ordinal: int,
    ) -> None:
        """A lock was granted; *global_value* is the entity's value now,
        *ordinal* the lock index of the request."""
        state = self._state(txn)
        if mode.is_exclusive:
            cell = state.entities[entity] = self._new_cell(
                entity, global_value, ordinal
            )
            self._count(state, self._cell_copies(cell))
        else:
            state.shared_values[entity] = global_value
            self._count(state, 1)

    def on_unlock(self, txn: Transaction, entity: str) -> None:
        """The entity was unlocked (shrinking phase); drop its copy."""
        self._drop(self._state(txn), (entity,))

    def on_declare_last_lock(self, txn: Transaction) -> None:
        """§5: the transaction declared it will issue no further lock
        requests, so monitoring may stop (no more history is needed)."""
        self._state(txn).monitoring = False

    # -- data access --------------------------------------------------------

    def read_entity(self, txn: Transaction, entity: str) -> Value:
        """Current local-copy value of a locked entity."""
        state = self._state(txn)
        if entity in state.entities:
            return self._value(state.entities[entity])
        if entity in state.shared_values:
            return state.shared_values[entity]
        raise LockError(f"{txn.txn_id} holds no copy of {entity!r}")

    def write_entity(self, txn: Transaction, entity: str, value: Value) -> None:
        """Write to the local copy of an exclusive-locked entity."""
        state = self._state(txn)
        if entity not in state.entities:
            raise LockError(
                f"{txn.txn_id} has no exclusive-lock copy of {entity!r}"
            )
        self._update(txn, state, state.entities, entity, value)

    def read_local(self, txn: Transaction, var: str) -> Value:
        """Current value of a local variable."""
        state = self._state(txn)
        if var not in state.locals:
            raise KeyError(f"{txn.txn_id} has no local variable {var!r}")
        return self._value(state.locals[var])

    def write_local(self, txn: Transaction, var: str, value: Value) -> None:
        """Assign a local variable."""
        state = self._state(txn)
        if var in state.locals:
            self._update(txn, state, state.locals, var, value)
        else:
            # First assignment of an undeclared local: its cell is created
            # at lock state 0 like any local, seeded with this value.
            cell = state.locals[var] = self._new_cell(var, value, 0)
            self._count(state, self._cell_copies(cell))

    def final_value(self, txn: Transaction, entity: str) -> Value:
        """The value to install as the new global value at unlock/commit."""
        return self._value(self._state(txn).entities[entity])

    # -- rollback ----------------------------------------------------------

    @abc.abstractmethod
    def choose_target(self, txn: Transaction, ideal_ordinal: int) -> int:
        """Clamp *ideal_ordinal* to the nearest reachable lock state at or
        below it.

        Total restart returns 0; MCS returns the ideal unchanged; the
        single-copy strategy returns the largest currently well-defined
        lock index ``<= ideal_ordinal``.  A lock state is *reachable*
        exactly when this returns it unchanged.
        """

    def _restore(self, txn: Transaction, state: TxnStore, ordinal: int) -> None:
        """Return every surviving cell to its value at lock state *ordinal*
        and forget the history past it.

        Bare-value cells have no history, so the default does nothing —
        enough only for a strategy whose sole target is lock state 0,
        where no cell survives.
        """

    def rollback(self, txn: Transaction, ordinal: int) -> None:
        """Restore all values to their state at lock state *ordinal* and
        truncate history.

        Must be called *before* ``txn.apply_rollback`` (the strategy reads
        the lock records being undone to know which copies to discard).
        Lock release is the scheduler's job, not the strategy's.
        """
        if self.fault_hook is not None:
            self.fault_hook(self, txn, ordinal)
        state = self._state(txn)
        if not state.monitoring:
            raise RollbackError(
                f"{txn.txn_id} declared its last lock request; it cannot "
                f"deadlock and must not be rolled back"
            )
        reachable = self.choose_target(txn, ordinal)
        if reachable != ordinal:
            raise RollbackError(
                f"lock state {ordinal} of {txn.txn_id} is not reachable "
                f"under {self.name}; the nearest reachable state is "
                f"{reachable}"
            )
        # Cells of undone locks go first: the survivors' restore may
        # reject (MCS ``pop_to``) or must skip (undo-log) a cell that
        # should already be gone.
        self._drop(state, {r.entity for r in txn.records_from(ordinal)})
        if ordinal == 0:
            if state.entities or state.shared_values:
                raise RollbackError(
                    f"{txn.txn_id} still holds copies after total rollback"
                )
            # Nothing survives a total rewind, locals included.
            state.locals.clear()
        self._restore(txn, state, ordinal)
        if ordinal == 0:
            self._seed_locals(txn, state)
        self._recount(txn, state)

    # -- accounting -----------------------------------------------------------

    def copies_count(self, txn: Transaction) -> int:
        """Number of stored value copies for *txn* (Theorem 3 accounting),
        recounted from its cells: elements of MCS stacks, or single
        copies, including the captured base values and the shared-lock
        snapshots."""
        state = self._state(txn)
        return sum(map(self._cell_copies, state.cells())) + len(
            state.shared_values
        )


#: k-copy budgets the CLI advertises (any ``k-copy:N`` is accepted).
_KCOPY_VARIANTS = ("k-copy:1", "k-copy:2", "k-copy:inf")


def _strategy_registry() -> dict[str, type[RollbackStrategy]]:
    """Name -> class for every fixed-name strategy, in CLI order.

    The parameterised ``k-copy`` family is parsed by :func:`make_strategy`
    instead; ``single-copy`` is that family's budget 0 under the paper's
    own name.  Imported lazily because the concrete strategies subclass
    :class:`RollbackStrategy` and therefore import this module.
    """
    from .mcs import MultiLockCopyStrategy
    from .single_copy import SingleCopyStrategy
    from .total import TotalRestartStrategy
    from .undo_log import UndoLogStrategy

    return {
        "total": TotalRestartStrategy,
        "mcs": MultiLockCopyStrategy,
        "single-copy": SingleCopyStrategy,
        "undo-log": UndoLogStrategy,
    }


def available_strategies() -> tuple[str, ...]:
    """Every CLI-selectable strategy name: the registry plus the
    ``k-copy`` family at its advertised budgets (the ``sdg`` alias of
    ``single-copy`` is accepted by :func:`make_strategy`, not offered)."""
    return tuple(_strategy_registry()) + _KCOPY_VARIANTS


def make_strategy(name: str) -> RollbackStrategy:
    """Factory by name.

    Accepted names: ``"total"``, ``"mcs"``, ``"single-copy"`` (alias
    ``"sdg"``), ``"undo-log"``, and ``"k-copy"`` with an optional budget
    suffix — ``"k-copy:3"`` for three retained copies, ``"k-copy:inf"``
    for an unbounded budget (``"k-copy"`` alone means a budget of 1).
    """
    from .k_copy import KCopyStrategy

    family, _sep, budget = name.partition(":")
    if family == "k-copy":
        if not budget:
            return KCopyStrategy(extra_copies=1)
        if budget == "inf":
            return KCopyStrategy(extra_copies=None)
        try:
            return KCopyStrategy(extra_copies=int(budget))
        except ValueError:
            raise ValueError(
                f"bad k-copy budget {budget!r}; use an integer or 'inf'"
            ) from None
    registry = _strategy_registry()
    cls = registry.get("single-copy" if name == "sdg" else name)
    if cls is None:
        raise ValueError(
            f"unknown strategy {name!r}; choose from "
            f"{sorted([*registry, 'sdg']) + ['k-copy[:N|:inf]']}"
        )
    return cls()
