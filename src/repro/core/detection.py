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

A :class:`Deadlock` is therefore defined by reachability, not enumeration:
its members are the transactions reachable from the requester and reaching
it, and victim selection decides from the arcs between them.  The simple
cycles are a capped record for traces and events, enumerated from those
arcs the first time something reads them: nothing pays unless it reads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

from ..graphs import algorithms
from ..graphs.concurrency import ConcurrencyGraph
from ..locking.table import LockTable

TxnId = str
EntityName = str


@dataclass
class Deadlock:
    """A detected deadlock: everything on a cycle through the requester.

    Attributes
    ----------
    requester:
        The transaction whose wait response closed the cycle(s) — the
        paper's "transaction which caused the conflict".
    cycle_limit:
        The most cycles :attr:`cycles` records.
    members:
        Every transaction reachable from the requester and reaching it in
        *graph* — exactly those on its cycles when, as after any wait
        response, no cycle misses the requester.
    arcs:
        The arcs between members, ``holder -> waiter -> sorted entities``,
        copied out of *graph* at construction.  The graph itself is not
        retained: resolution mutates the live graph victim by victim,
        while every victim's rollback target must be judged against the
        deadlock as it was detected.

    *graph* is the concurrency graph detection searched — the live graph,
    or a narrower one when detection sees less (site-local detection) —
    and must contain a cycle through the requester.
    """

    requester: TxnId
    graph: InitVar[ConcurrencyGraph]
    cycle_limit: int = 10_000
    members: set[TxnId] = field(init=False)
    arcs: dict[TxnId, dict[TxnId, list[EntityName]]] = field(init=False)

    def __post_init__(self, graph: ConcurrencyGraph) -> None:
        self.members = graph.deadlocked_transactions(self.requester)
        self.arcs = graph.arcs_among(self.members)

    def waited_entities_of(self, txn: TxnId) -> set[EntityName]:
        """Entities *txn* holds that other deadlock members wait for
        (none unless *txn* is itself a member).

        Rolling *txn* back far enough to release all of them removes every
        cycle arc leaving *txn* — the paper's per-transaction rollback
        candidate ("a state in which it no longer holds a lock on an entity
        being waited for by another transaction in the cycle").
        """
        return {
            entity
            for entities in self.arcs.get(txn, {}).values()
            for entity in entities
        }

    @cached_property
    def cycles(self) -> list[list[TxnId]]:
        """Simple cycles in holder->waiter order from the requester, at most
        :attr:`cycle_limit`: the record, enumerated from :attr:`arcs` when
        first read; nothing decides from it."""
        return algorithms.simple_cycles_through(
            self.arcs, self.requester, self.cycle_limit
        )


class DeadlockDetector:
    """Cycle detection against a live lock table.

    Detection runs over the table's *continuously maintained* waits-for
    graph (:attr:`~repro.locking.table.LockTable.waits_for`), in place:
    the common no-deadlock wait is answered by a DFS from the requester
    over the live holder -> waiters map, so its cost scales with the
    conflict neighbourhood, not with lock-table size.  :meth:`snapshot`
    keeps the from-scratch rebuild as the differential reference.

    ``cycle_limit`` bounds each deadlock's record of simple cycles (their
    number can be exponential at high contention).  It sizes the record
    only: members and arcs come from reachability, so victim selection
    breaks every cycle whatever the cap.
    """

    def __init__(self, table: LockTable, cycle_limit: int = 500) -> None:
        self._table = table
        self._cycle_limit = cycle_limit

    def check(self, requester: TxnId) -> Deadlock | None:
        """Detect deadlock after *requester* received a wait response.

        Returns a :class:`Deadlock` covering every cycle through the
        requester, or ``None`` when the wait is safe.  Its cycles are
        enumerated only if something reads them: nothing pays unless it reads.
        """
        live = self._table.waits_for
        if live.cycle_through(requester) is None:
            return None
        return Deadlock(requester, live, self._cycle_limit)

    def snapshot(self) -> ConcurrencyGraph:
        """Current concurrency graph, rebuilt from the lock table — the
        from-scratch reference the tests check the live graph's answers
        against."""
        return ConcurrencyGraph.from_lock_table(self._table)
