"""Concurrency ("waits-for") graphs — §3 of the paper.

The paper defines, for a set ``T`` of concurrent transactions at time *t*,
the relation ``T_i -A-> T_j``: transaction ``T_j`` is waiting to lock entity
``A`` which is locked by ``T_i``.  :class:`ConcurrencyGraph` is the labeled
version ``G_L(T)``: vertices are transactions, arcs run from *holder* to
*waiter* and are labeled with the contested entity.

A deadlock is a subset of transactions forming a cycle.  With exclusive
locks only the graph is a forest whenever no deadlock exists (Theorem 1),
and a single wait response can close at most one cycle; with shared locks
the deadlock-free graph is a general acyclic digraph and one wait may close
many cycles, all of which pass through the requesting transaction (§3.2).

The paper's system "maintains the concurrency graph continuously", which
is what makes removal-at-every-conflict affordable, so the same class is
also the live graph: the lock table owns one instance
(:attr:`~repro.locking.table.LockTable.waits_for`) and calls
:meth:`ConcurrencyGraph.refresh_entity` after every mutation of an
entity's lock state.  All waits-for arcs of an entity are a pure function
of that entity's ``(holders, queue)`` pair, so a refresh recomputes only
*that entity's* arcs and diffs them against the previous ones:
maintenance cost scales with the contended entity, never with the table.

Every dict holds entries only for live arcs, keyed by the names the
caller hands over: an idle lock table means empty dicts, so a long-lived
process is bounded by its *concurrent* load.  The holder -> waiters map is
the adjacency the graph algorithms run over in place.  Reachability
answers are order-independent and the enumeration algorithms sort
successors by ``repr``, so cycles come out byte-for-byte the same — same
cycles, same order, same victims — whatever order the dicts were filled
in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping
from typing import NamedTuple, Protocol, Sequence

from . import algorithms

if TYPE_CHECKING:  # import cycle: locking.table owns a ConcurrencyGraph
    from ..locking.table import LockTable

TxnId = str
EntityName = str
Pair = tuple[TxnId, TxnId]


class WaitArc(NamedTuple):
    """A labeled arc of the concurrency graph: *waiter* waits for *holder*
    to release *entity* (arc direction is holder -> waiter)."""

    holder: TxnId
    waiter: TxnId
    entity: EntityName


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


class ConcurrencyGraph:
    """Labeled waits-for graph ``G_L(T)``.

    Instances can be built manually (``add_wait``) for scenario work — the
    paper's figures are encoded this way in
    :mod:`repro.analysis.figures` — snapshot from a lock table with
    :meth:`from_lock_table`, or kept live by a lock table through
    :meth:`refresh_entity`.

    Invariant of the live instance (checked by the differential tests and
    the ``graph-consistency`` oracle): its arc set always equals the
    owning lock table's from-scratch ``wait_edges()`` scan.
    """

    def __init__(self, transactions: Iterable[TxnId] = ()) -> None:
        #: Vertices that exist without an arc: declared up front, or left
        #: behind by :meth:`remove_wait`.  Only the manual API writes
        #: here — :meth:`refresh_entity` never does, so a lock table's
        #: live graph is empty whenever the table is idle.
        self._declared: set[TxnId] = set(transactions)
        #: entity -> the (holder, waiter) pairs it labels.
        self._entity_edges: dict[EntityName, set[Pair]] = {}
        #: (holder, waiter) -> entities labeling the arc.
        self._pair_labels: dict[Pair, set[EntityName]] = {}
        #: holder -> waiters; the adjacency every query runs over.
        self._succ: dict[TxnId, set[TxnId]] = {}
        #: Maintenance/query counters for the perf trajectory
        #: (``benchmarks/perf`` reports them per run as ``graph.*``;
        #: ``materializations`` is kept for that report and stays 0).
        self.counters: dict[str, int] = {
            "refreshes": 0,
            "edges_added": 0,
            "edges_removed": 0,
            "cycle_checks": 0,
            "enumerations": 0,
            "materializations": 0,
        }

    @classmethod
    def from_lock_table(
        cls,
        table: LockTable,
        transactions: Iterable[TxnId] = (),
        include_queue_edges: bool = True,
    ) -> "ConcurrencyGraph":
        """Snapshot the current waits-for relation of a lock table.

        With ``include_queue_edges=False`` only genuine lock conflicts
        appear (the paper's relation, on which Theorem 1's forest
        criterion holds); the default also includes FIFO queue-order
        blocking so that queue-induced deadlocks are detectable.
        """
        graph = cls(transactions)
        edges = (
            table.wait_edges() if include_queue_edges
            else table.conflict_edges()
        )
        for holder, waiter, entity in edges:
            graph.add_wait(holder, waiter, entity)
        return graph

    # -- construction ---------------------------------------------------------

    def add_transaction(self, txn: TxnId) -> None:
        self._declared.add(txn)

    def add_wait(self, holder: TxnId, waiter: TxnId, entity: EntityName) -> None:
        """Record that *waiter* waits for *holder*'s lock on *entity*."""
        pair = (holder, waiter)
        labels = self._pair_labels.get(pair)
        if labels is None:
            labels = self._pair_labels[pair] = set()
            self._succ.setdefault(holder, set()).add(waiter)
        elif entity in labels:
            return
        labels.add(entity)
        self._entity_edges.setdefault(entity, set()).add(pair)
        self.counters["edges_added"] += 1

    def _drop_wait(self, pair: Pair, entity: EntityName) -> bool:
        """Delete one labeled arc; False when it was not there."""
        labels = self._pair_labels.get(pair)
        if labels is None or entity not in labels:
            return False
        labels.discard(entity)
        pairs = self._entity_edges[entity]
        pairs.discard(pair)
        if not pairs:
            del self._entity_edges[entity]
        self.counters["edges_removed"] += 1
        if not labels:
            del self._pair_labels[pair]
            waiters = self._succ[pair[0]]
            waiters.discard(pair[1])
            if not waiters:
                del self._succ[pair[0]]
        return True

    def remove_wait(self, holder: TxnId, waiter: TxnId, entity: EntityName) -> None:
        """Delete an arc; its endpoints stay behind as vertices."""
        if self._drop_wait((holder, waiter), entity):
            self._declared.update((holder, waiter))

    def remove_transaction(self, txn: TxnId) -> None:
        """Delete a vertex and all incident arcs (transaction finished or
        totally removed)."""
        for arc in self.holds_waited_on(txn) | self.waits_of(txn):
            self.remove_wait(*arc)
        self._declared.discard(txn)

    def refresh_entity(
        self,
        entity: EntityName,
        holders: Mapping[str, ModeLike],
        queue: Sequence[QueuedLike],
    ) -> None:
        """Recompute *entity*'s arcs from its live lock state and diff.

        Mirrors :meth:`repro.locking.table.LockTable.wait_edges` for one
        entity: an arc runs holder -> waiter for every incompatible
        holder, and earlier-waiter -> later-waiter for every incompatible
        pair of queued requests (FIFO order blocking).  No queue means no
        arcs, so uncontended entities cost one dict probe.  Endpoints of
        dropped arcs are not kept as vertices.
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
                self._drop_wait(pair, entity)
            desired -= current
        for holder, waiter in desired:
            self.add_wait(holder, waiter, entity)

    # -- views ------------------------------------------------------------------

    @property
    def transactions(self) -> set[TxnId]:
        """Declared vertices plus every arc endpoint."""
        nodes = set(self._declared)
        for pair in self._pair_labels:
            nodes.update(pair)
        return nodes

    @property
    def arcs(self) -> set[WaitArc]:
        return set(self)

    def waits_of(self, waiter: TxnId) -> set[WaitArc]:
        """Arcs on which *waiter* is the waiting transaction."""
        return {arc for arc in self if arc.waiter == waiter}

    def holds_waited_on(self, holder: TxnId) -> set[WaitArc]:
        """Arcs on which *holder* is the holding transaction."""
        return {
            WaitArc(holder, waiter, entity)
            for waiter, entities in self.waiters_of(holder).items()
            for entity in entities
        }

    def waiters_of(self, holder: TxnId) -> dict[TxnId, set[EntityName]]:
        """Who waits for *holder*, and over which entities
        (waiter -> entities; a copy)."""
        return {
            waiter: set(self._pair_labels[holder, waiter])
            for waiter in self._succ.get(holder, ())
        }

    def entity_between(self, holder: TxnId, waiter: TxnId) -> set[EntityName]:
        """Entities over which *waiter* waits for *holder*."""
        return set(self._pair_labels.get((holder, waiter), ()))

    def adjacency(self) -> dict[TxnId, set[TxnId]]:
        """Successor map (holder -> waiters), copied so a caller may hold
        it across mutations.

        Only holders with waiters appear as keys; the algorithms treat a
        missing key as "no successors".
        """
        return {holder: set(waiters) for holder, waiters in self._succ.items()}

    def __iter__(self) -> Iterator[WaitArc]:
        for (holder, waiter), labels in self._pair_labels.items():
            for entity in labels:
                yield WaitArc(holder, waiter, entity)

    def __len__(self) -> int:
        """Number of distinct labeled arcs."""
        return sum(len(labels) for labels in self._pair_labels.values())

    def counters_snapshot(self) -> dict[str, int]:
        """Copy of the maintenance/query counters."""
        return dict(self.counters)

    # -- structure (Theorem 1 and friends) ----------------------------------------

    def is_forest(self) -> bool:
        """Theorem 1's criterion: deadlock-free exclusive-lock graphs are
        forests (in-degree <= 1 in this orientation, and acyclic)."""
        return algorithms.is_forest(self._succ)

    def has_deadlock(self) -> bool:
        """True iff some subset of transactions forms a directed cycle."""
        return algorithms.has_cycle(self._succ)

    def descendants(self, txn: TxnId) -> set[TxnId]:
        """Transactions transitively waiting on *txn* (paper's descendant
        test: a wait response deadlocks iff the requested entity is locked
        by a descendant of the requester)."""
        return algorithms.descendants(self._succ, txn)

    def would_deadlock(self, requester: TxnId, holders: Iterable[TxnId]) -> bool:
        """Would blocking *requester* behind *holders* close a cycle?

        This is the paper's detection rule evaluated *before* the wait edge
        is inserted: the new arcs run holder -> requester, so a cycle forms
        iff some holder is already a descendant of the requester.
        """
        reachable = self.descendants(requester)
        return any(h == requester or h in reachable for h in holders)

    def cycle_through(self, txn: TxnId) -> list[TxnId] | None:
        """One deadlock cycle through *txn*, or ``None`` (one forward DFS;
        which of several cycles is returned is unspecified)."""
        self.counters["cycle_checks"] += 1
        if not self._succ.get(txn):
            return None
        return algorithms.find_cycle_through(self._succ, txn)

    def find_any_cycle(self) -> list[TxnId] | None:
        """Some deadlock cycle anywhere in the graph, or ``None``.

        Single linear DFS; used by sweep-style detection and the
        ``graph-acyclic`` oracle.
        """
        self.counters["cycle_checks"] += 1
        return algorithms.find_cycle(self._succ)

    def cycles_through(self, txn: TxnId, limit: int = 10_000) -> list[list[TxnId]]:
        """All simple deadlock cycles through *txn* (shared-lock systems can
        create several with a single wait response, Figure 3).

        The common no-deadlock case is answered by the reachability gate;
        only a confirmed cycle pays for the enumeration.
        """
        if self.cycle_through(txn) is None:
            return []
        self.counters["enumerations"] += 1
        return algorithms.simple_cycles_through(self._succ, txn, limit)

    def deadlocked_transactions(self, requester: TxnId) -> set[TxnId]:
        """Every transaction on some cycle through *requester*: reachable
        from it and reaching it (no enumeration, so never truncated)."""
        return algorithms.on_cycles_through(self._succ, requester)

    def cycle_arcs(self, cycle: list[TxnId]) -> list[WaitArc]:
        """The labeled arcs realising *cycle* (one arc per hop; if several
        entities label a hop, the lexicographically first is returned)."""
        arcs: list[WaitArc] = []
        for i, holder in enumerate(cycle):
            waiter = cycle[(i + 1) % len(cycle)]
            entities = sorted(self.entity_between(holder, waiter))
            if not entities:
                raise ValueError(f"no arc {holder} -> {waiter} in graph")
            arcs.append(WaitArc(holder, waiter, entities[0]))
        return arcs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arcs = ", ".join(f"{h}-[{e}]->{w}" for h, w, e in sorted(self))
        return f"ConcurrencyGraph({arcs})"
