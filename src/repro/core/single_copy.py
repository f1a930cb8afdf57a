"""The single-copy (state-dependency-graph) strategy — paper §4.

Keeps exactly one local copy per exclusive-locked entity and per local
variable — the same storage bill as total restart — but maintains a
:class:`~repro.graphs.state_dependency.StateDependencyGraph` recording
which earlier lock states remain *well-defined* (reproducible).  Rollback
targets are clamped to the latest well-defined lock state at or below the
ideal target, trading some extra lost progress for the quadratic space MCS
needs.

The monitoring cost the paper notes — "system monitoring of all write
operations to both local variables and global entities" — is embodied in
:meth:`SingleCopyStrategy.write_entity` / ``write_local`` feeding the SDG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RollbackError
from ..graphs.state_dependency import StateDependencyGraph
from ..storage.copies import SingleCopy
from .rollback import Cell, RollbackStrategy, TxnStore, Value
from .transaction import Transaction


@dataclass
class _SdgStore(TxnStore):
    """The shared store plus the transaction's state-dependency graph."""

    sdg: StateDependencyGraph = field(default_factory=StateDependencyGraph)


class SingleCopyStrategy(RollbackStrategy):
    """Partial rollback to well-defined lock states with Θ(n) copies."""

    name = "single-copy"
    store_type = _SdgStore

    def graph_of(self, txn: Transaction) -> StateDependencyGraph:
        """The transaction's live state-dependency graph (read-only use)."""
        state = self._state(txn)
        assert isinstance(state, _SdgStore)
        return state.sdg

    # -- notifications -------------------------------------------------------

    def on_lock_request(self, txn: Transaction) -> None:
        if not self._state(txn).monitoring:
            raise RollbackError(
                f"{txn.txn_id} issued a lock request after declaring its "
                f"last one"
            )
        lock_index = self.graph_of(txn).add_lock_state()
        # The runtime has already recorded this request; the SDG's count and
        # the transaction's lock count must advance in lockstep.
        if lock_index != txn.lock_count:
            raise AssertionError(
                f"SDG lock count {lock_index} diverged from transaction "
                f"lock count {txn.lock_count} for {txn.txn_id}"
            )

    # -- cells: one SingleCopy per variable ----------------------------------

    def _new_cell(self, name: str, value: Value, lock_index: int) -> SingleCopy:
        return SingleCopy(name, base_value=value, lock_index=lock_index)

    def _value(self, cell: SingleCopy) -> Value:
        return cell.value

    def _assign(
        self,
        txn: Transaction,
        state: TxnStore,
        cells: dict[str, Cell],
        name: str,
        value: Value,
    ) -> None:
        cells[name].write(value, txn.lock_count)
        if state.monitoring:
            kind = "e" if cells is state.entities else "l"
            self.graph_of(txn).record_write(f"{kind}:{name}")

    # -- rollback ----------------------------------------------------------

    def choose_target(self, txn: Transaction, ideal_ordinal: int) -> int:
        """Largest well-defined lock state at or below the ideal target.

        This is exactly the paper's §4 rule: "we must find the well-defined
        lock state of largest index less than that of the lock state for E,
        and roll the transaction back to that state."
        """
        return self.graph_of(txn).latest_well_defined_at_or_below(
            ideal_ordinal
        )

    def _restore(self, txn: Transaction, state: TxnStore, ordinal: int) -> None:
        copy: SingleCopy
        for copy in state.cells():
            copy.rollback_to(ordinal)
        self.graph_of(txn).truncate_to(ordinal)

    def well_defined_states(self, txn: Transaction) -> list[int]:
        """Currently reachable rollback targets (ascending lock indices)."""
        return self.graph_of(txn).well_defined_states()
