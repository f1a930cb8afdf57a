"""Incrementally maintained waits-for graph.

:class:`~repro.graphs.concurrency.ConcurrencyGraph.from_lock_table`
rebuilds the whole waits-for relation from scratch, so detection cost
scales with total lock-table size.  The paper's premise is the opposite:
the system "maintains the concurrency graph continuously", which is what
makes removal-at-every-conflict affordable.  :class:`IncrementalWaitsFor`
is that continuously maintained structure.

Design
------
The lock table owns one instance and calls :meth:`refresh_entity` after
every mutation of an entity's lock state (grant, block, release wake-up,
queue cancellation).  All waits-for edges of an entity are a pure function
of that entity's ``(holders, queue)`` pair — conflict edges from
incompatible holders plus FIFO queue-order edges between incompatible
queued requests — so the refresh recomputes only *that entity's* edge set
and diffs it against the previous one.  Maintenance cost therefore scales
with the contended entity, never with the table.

Everything is keyed by the transaction and entity names the lock table
hands over, and every dict holds entries only for live arcs: an idle
table means three empty dicts, so a long-lived process is bounded by its
*concurrent* load with no id lifecycle to manage.  The holder -> waiters
map is the adjacency the graph algorithms run over directly.  Reachability
answers (``None`` / existence) are order-independent, and the enumeration
algorithms sort successors by ``repr``, so cycles come out byte-for-byte
as they would over a full rebuild — same cycles, same order, same
victims, whatever order the dicts were filled in.

The structure never invents state: :meth:`materialize` exports a plain
:class:`~repro.graphs.concurrency.ConcurrencyGraph`, and the
``graph-consistency`` oracle (:mod:`repro.verification.oracles`) asserts
arc-set equality with a from-scratch rebuild after every engine step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Protocol, Sequence

from . import algorithms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .concurrency import ConcurrencyGraph

TxnId = str
EntityName = str
Pair = tuple[TxnId, TxnId]


class ModeLike(Protocol):
    """Anything with the lock-mode compatibility test (structural, so this
    module needs no runtime import from :mod:`repro.locking`)."""

    def compatible_with(self, other: Any) -> bool:
        """True when the two modes can be held concurrently."""
        ...  # pragma: no cover - protocol


class QueuedLike(Protocol):
    """A queued lock request: transaction id plus requested mode."""

    @property
    def txn(self) -> str: ...  # pragma: no cover - protocol

    @property
    def mode(self) -> ModeLike: ...  # pragma: no cover - protocol


class IncrementalWaitsFor:
    """Live waits-for graph, updated per contended entity.

    Invariant (checked by the differential tests and the
    ``graph-consistency`` oracle): the arc set always equals
    ``ConcurrencyGraph.from_lock_table(table)``'s arc set for the owning
    lock table.
    """

    def __init__(self) -> None:
        #: entity -> its current (holder, waiter) pairs.
        self._entity_edges: dict[EntityName, set[Pair]] = {}
        #: (holder, waiter) -> entities labeling the arc.
        self._pair_labels: dict[Pair, set[EntityName]] = {}
        #: holder -> waiters; the adjacency every query runs over.
        self._succ: dict[TxnId, set[TxnId]] = {}
        #: Maintenance/query counters for the perf trajectory
        #: (``BENCH_scale.json`` records them per run).
        self.counters: dict[str, int] = {
            "refreshes": 0,
            "edges_added": 0,
            "edges_removed": 0,
            "cycle_checks": 0,
            "enumerations": 0,
            "materializations": 0,
        }

    # -- maintenance (called by the lock table) ---------------------------

    def refresh_entity(
        self,
        entity: EntityName,
        holders: Mapping[str, ModeLike],
        queue: Sequence[QueuedLike],
    ) -> None:
        """Recompute *entity*'s edges from its live lock state and diff.

        Mirrors :meth:`repro.locking.table.LockTable.wait_edges` for one
        entity: an edge runs holder -> waiter for every incompatible
        holder, and earlier-waiter -> later-waiter for every incompatible
        pair of queued requests (FIFO order blocking).  No queue means no
        edges, so uncontended entities cost one dict probe.
        """
        current = self._entity_edges.get(entity)
        if not queue and not current:
            return
        self.counters["refreshes"] += 1
        desired: set[Pair] = set()
        earlier: list[tuple[TxnId, ModeLike]] = []
        for request in queue:
            waiter = request.txn
            mode = request.mode
            for holder, held in holders.items():
                if not held.compatible_with(mode):
                    desired.add((holder, waiter))
            for ahead, ahead_mode in earlier:
                if not ahead_mode.compatible_with(mode):
                    desired.add((ahead, waiter))
            earlier.append((waiter, mode))
        if current:
            for pair in current - desired:
                self._remove_edge(pair, entity)
            for pair in desired - current:
                self._add_edge(pair, entity)
        else:
            for pair in desired:
                self._add_edge(pair, entity)
        if desired:
            self._entity_edges[entity] = desired
        else:
            self._entity_edges.pop(entity, None)

    def _add_edge(self, pair: Pair, entity: EntityName) -> None:
        labels = self._pair_labels.get(pair)
        if labels is None:
            labels = self._pair_labels[pair] = set()
            self._succ.setdefault(pair[0], set()).add(pair[1])
        labels.add(entity)
        self.counters["edges_added"] += 1

    def _remove_edge(self, pair: Pair, entity: EntityName) -> None:
        labels = self._pair_labels.get(pair)
        if labels is None:
            return
        labels.discard(entity)
        self.counters["edges_removed"] += 1
        if not labels:
            del self._pair_labels[pair]
            waiters = self._succ.get(pair[0])
            if waiters is not None:
                waiters.discard(pair[1])
                if not waiters:
                    del self._succ[pair[0]]

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct labeled arcs."""
        return sum(len(labels) for labels in self._pair_labels.values())

    def arcs(self) -> set[tuple[TxnId, TxnId, EntityName]]:
        """All ``(holder, waiter, entity)`` triples."""
        return {
            (holder, waiter, entity)
            for (holder, waiter), labels in self._pair_labels.items()
            for entity in labels
        }

    def transactions(self) -> set[TxnId]:
        """Vertices induced by the current arcs."""
        nodes: set[TxnId] = set()
        for pair in self._pair_labels:
            nodes.update(pair)
        return nodes

    def adjacency(self) -> dict[TxnId, set[TxnId]]:
        """Successor map (holder -> waiters), copied so a caller may hold
        it across lock-table mutations.

        Only holders with waiters appear as keys; the algorithms treat a
        missing key as "no successors", so cycles enumerate in the same
        deterministic order as over a full rebuild's adjacency.
        """
        return {holder: set(waiters) for holder, waiters in self._succ.items()}

    # -- queries (the detection hot path) ---------------------------------

    def has_cycle_through(self, requester: TxnId) -> bool:
        """Order-independent reachability gate: does any cycle pass
        through *requester*?  One forward DFS over the live adjacency."""
        self.counters["cycle_checks"] += 1
        if not self._succ.get(requester):
            return False
        return algorithms.find_cycle_through(self._succ, requester) is not None

    def cycles_through(
        self, requester: TxnId, limit: int = 10_000
    ) -> list[list[TxnId]]:
        """Simple cycles through *requester*, in rebuild-identical order.

        The common no-deadlock case is answered by the reachability gate;
        only a confirmed cycle pays for the enumeration.
        """
        if not self.has_cycle_through(requester):
            return []
        self.counters["enumerations"] += 1
        return algorithms.simple_cycles_through(self._succ, requester, limit)

    def find_any_cycle(self) -> list[TxnId] | None:
        """Some cycle anywhere (the rebuild-identical witness), or ``None``."""
        self.counters["cycle_checks"] += 1
        return algorithms.find_cycle(self._succ)

    def materialize(self) -> "ConcurrencyGraph":
        """Export a :class:`~repro.graphs.concurrency.ConcurrencyGraph`
        equal (as arc/vertex sets) to a from-scratch rebuild."""
        from .concurrency import ConcurrencyGraph

        self.counters["materializations"] += 1
        graph = ConcurrencyGraph()
        for (holder, waiter), labels in self._pair_labels.items():
            for entity in labels:
                graph.add_wait(holder, waiter, entity)
        return graph

    def counters_snapshot(self) -> dict[str, int]:
        """Copy of the maintenance/query counters."""
        return dict(self.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arcs = ", ".join(
            f"{h}-[{e}]->{w}" for h, w, e in sorted(self.arcs())
        )
        return f"IncrementalWaitsFor({arcs})"


def iter_arcs_sorted(
    graph: IncrementalWaitsFor,
) -> Iterable[tuple[TxnId, TxnId, EntityName]]:
    """Deterministically ordered arc view (test/debug helper)."""
    return sorted(graph.arcs())
