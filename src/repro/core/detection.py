"""Deadlock detection (§3).

Detection runs whenever a lock request receives a *wait* response.  Because
the system resolves every deadlock the moment it forms, the concurrency
graph is acyclic before each new wait; any cycle the wait creates must pass
through the requesting transaction, so detection is a search for cycles
through the requester:

* exclusive locks only — the graph is a forest, the wait adds a single arc,
  and at most one cycle can form (Theorem 1); the paper's descendant test
  applies;
* shared + exclusive — a single wait can close several cycles (one per
  incompatible holder path, Figure 3), all of which share the requester.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..graphs.concurrency import ConcurrencyGraph
from ..locking.table import LockTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.incremental import IncrementalWaitsFor

TxnId = str


@dataclass
class Deadlock:
    """A detected deadlock: every simple cycle through the requester.

    Attributes
    ----------
    requester:
        The transaction whose wait response closed the cycle(s) — the
        paper's "transaction which caused the conflict".
    cycles:
        Simple cycles, each a transaction list in holder->waiter order
        starting at the requester.
    graph:
        The concurrency-graph snapshot in which the cycles were found.
    """

    requester: TxnId
    cycles: list[list[TxnId]]
    graph: ConcurrencyGraph
    members: set[TxnId] = field(init=False)

    def __post_init__(self) -> None:
        self.members = {txn for cycle in self.cycles for txn in cycle}

    def waited_entities_of(self, txn: TxnId) -> set[str]:
        """Entities *txn* holds that other deadlock members wait for.

        Rolling *txn* back far enough to release all of them removes every
        cycle arc leaving *txn* — the paper's per-transaction rollback
        candidate ("a state in which it no longer holds a lock on an entity
        being waited for by another transaction in the cycle").
        """
        entities: set[str] = set()
        for arc in self.graph.holds_waited_on(txn):
            if arc.waiter in self.members:
                entities.add(arc.entity)
        return entities


class DeadlockDetector:
    """Cycle detection against a live lock table.

    Detection runs over the table's *continuously maintained* waits-for
    graph (:attr:`~repro.locking.table.LockTable.waits_for`): the common
    no-deadlock wait is answered by a DFS from the requester over the
    live holder -> waiters map, so its cost scales with the conflict
    neighbourhood, not with lock-table size.  :meth:`snapshot` keeps the
    from-scratch rebuild as the differential oracle.

    ``cycle_limit`` bounds the per-detection enumeration of simple cycles
    (their number can be exponential at high contention).  Victim
    selection optimises over the enumerated cycles; the scheduler's
    residual pass guarantees that any cycles beyond the cap still get
    broken.
    """

    def __init__(self, table: LockTable, cycle_limit: int = 500) -> None:
        self._table = table
        self._cycle_limit = cycle_limit

    @property
    def cycle_limit(self) -> int:
        """The per-detection cap on enumerated simple cycles."""
        return self._cycle_limit

    @property
    def waits_for(self) -> "IncrementalWaitsFor":
        """The live incrementally-maintained waits-for graph."""
        return self._table.waits_for

    def check(self, requester: TxnId) -> Deadlock | None:
        """Detect deadlock after *requester* received a wait response.

        Returns a :class:`Deadlock` covering every cycle through the
        requester, or ``None`` when the wait is safe.  Only a confirmed
        cycle pays for enumeration and graph materialisation; the cycles
        (and their order) are identical to a full-rebuild detection, so
        victim selection — and therefore every seeded run — is unchanged.
        """
        live = self._table.waits_for
        cycles = live.cycles_through(requester, limit=self._cycle_limit)
        if not cycles:
            return None
        return Deadlock(
            requester=requester, cycles=cycles, graph=live.materialize()
        )

    def find_any_cycle(self) -> list[TxnId] | None:
        """Some cycle anywhere in the live graph, or ``None`` (used by the
        scheduler's residual pass after a capped resolution)."""
        return self._table.waits_for.find_any_cycle()

    def live_graph(self) -> ConcurrencyGraph:
        """Materialise the live waits-for graph (arc-set equal to
        :meth:`snapshot`, without rescanning the lock table)."""
        return self._table.waits_for.materialize()

    def snapshot(self) -> ConcurrencyGraph:
        """Current concurrency graph, rebuilt from the lock table — the
        differential oracle the incremental structure is checked against
        (``graph-consistency`` in :mod:`repro.verification.oracles`)."""
        return ConcurrencyGraph.from_lock_table(self._table)
