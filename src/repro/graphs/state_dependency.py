"""State-dependency graphs — §4 of the paper (single-copy rollback).

Under the single-copy strategy, only two values of a variable are ever
available: the *base* value (an entity's global value / a local variable's
initial value) and the *current* local copy.  The value a variable held at a
past lock state is therefore reproducible iff either

* no write to the variable happened **before** that lock state (the base
  value is still correct there), or
* no write to the variable happened **after** that lock state (the current
  copy is still correct there).

The paper captures this with the *state-dependency graph* ``G_p``: vertices
are lock indices ``0..p``, consecutive indices are joined by chain edges,
and each write adds an edge between the written variable's *index of
restorability* (the last lock state before its first write) and the lock
index of the write.  A lock state is *well-defined* (recreatable) iff no
write edge spans it; equivalently, iff its vertex is an articulation point
of ``G_p`` (Corollary 1).

Lock-index conventions used throughout the library
---------------------------------------------------
* Lock state ``k`` (``k >= 1``) is the state immediately before the ``k``-th
  lock request; lock state ``0`` is the initial state.
* The lock index of a write operation is the number of lock requests issued
  before it, so a write with lock index ``m`` executes *after* lock state
  ``m``; it destroys the pre-write value at every lock state in the open/
  closed interval ``(u, m]`` where ``u`` is the variable's index of
  restorability.  (The paper's figures attach the write edge to the vertex
  of the state the write follows; spanning is therefore ``u < q <= m`` in
  our indexing, which the docstring of :meth:`StateDependencyGraph.
  well_defined` restates.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import algorithms


@dataclass(frozen=True)
class WriteEdge:
    """An SDG edge produced by a write: spans lock states in ``(lower,
    upper]`` and renders them undefined.

    Attributes
    ----------
    lower:
        The written variable's index of restorability ``u``.
    upper:
        The lock index ``m`` of the write.
    variable:
        The written entity or local variable (for diagnostics).
    """

    lower: int
    upper: int
    variable: str

    def spans(self, lock_index: int) -> bool:
        """True iff the edge makes lock state *lock_index* undefined."""
        return self.lower < lock_index <= self.upper


class StateDependencyGraph:
    """The state-dependency graph ``G_p`` of one transaction.

    Built by replaying a history: :meth:`add_lock_state` per lock request
    and :meth:`record_write` per write, or :meth:`from_writes` for a
    recorded one (which is how the single-copy strategy and the static
    analyses derive it — nothing keeps a graph up to date beside the copy
    cells).  Queries answer which lock states are *well-defined*, i.e.
    legal targets for single-copy rollback.
    """

    def __init__(self) -> None:
        self._lock_count = 0
        #: Index of restorability of every variable written so far.
        self._first_write: dict[str, int] = {}
        self._edges: list[WriteEdge] = []

    @classmethod
    def from_writes(
        cls, lock_count: int, writes: Iterable[tuple[int, str]]
    ) -> StateDependencyGraph:
        """The graph at lock state *lock_count* of a recorded history of
        ``(lock index, variable)`` writes, given in any order."""
        sdg = cls()
        for lock_index, variable in sorted(writes):
            sdg._lock_count = lock_index
            sdg.record_write(variable)
        sdg._lock_count = lock_count
        return sdg

    # -- updates ----------------------------------------------------------

    def add_lock_state(self) -> int:
        """Record that a lock request is being issued; returns its lock
        index (the index of the lock state immediately preceding it)."""
        self._lock_count += 1
        return self._lock_count

    def record_write(self, variable: str) -> WriteEdge | None:
        """Record a write to *variable* at the current lock index.

        Returns the new :class:`WriteEdge`, or ``None`` for a write at the
        variable's index of restorability (its first write, or another
        before the next lock request), which spans no lock state.
        """
        lower = self._first_write.setdefault(variable, self._lock_count)
        if self._lock_count > lower:
            edge = WriteEdge(lower, self._lock_count, variable)
            self._edges.append(edge)
            return edge
        return None

    # -- queries -----------------------------------------------------------

    @property
    def lock_count(self) -> int:
        """Number of lock requests issued so far (= index of the latest
        lock state)."""
        return self._lock_count

    @property
    def edges(self) -> list[WriteEdge]:
        """All write edges recorded so far."""
        return list(self._edges)

    def restorability_index(self, variable: str) -> int | None:
        """The variable's index of restorability, or ``None`` if unwritten."""
        return self._first_write.get(variable)

    def undefined_intervals(self) -> list[tuple[int, int]]:
        """Per-variable intervals ``(u, m]`` of undefined lock states."""
        # A variable's edges share their lower end and arrive in lock
        # order, so its latest edge is its whole interval.
        latest = {
            edge.variable: (edge.lower, edge.upper) for edge in self._edges
        }
        return sorted(latest.values())

    def well_defined(self, lock_index: int) -> bool:
        """Is lock state *lock_index* currently well-defined?

        A state is well-defined iff no write edge spans it (Theorem 4),
        i.e. no variable has both a write before it (``u < lock_index``)
        and a write at-or-after it (``last_write >= lock_index``).
        Lock state 0 (total rollback) is always well-defined.
        """
        if not 0 <= lock_index <= self._lock_count:
            raise ValueError(
                f"lock index {lock_index} out of range 0..{self._lock_count}"
            )
        return not any(edge.spans(lock_index) for edge in self._edges)

    def well_defined_states(self) -> list[int]:
        """All currently well-defined lock indices, ascending."""
        return [
            q for q in range(self._lock_count + 1) if self.well_defined(q)
        ]

    # -- the graph itself (figures, tests) ---------------------------------------

    def vertices(self) -> list[int]:
        """Vertices of ``G_p``: lock indices ``0..p``."""
        return list(range(self._lock_count + 1))

    def adjacency(self) -> dict[int, set[int]]:
        """Undirected adjacency of ``G_p``: chain edges between consecutive
        lock indices plus one edge per recorded write edge.

        Write edges are attached between ``lower`` and ``upper + 1`` when a
        lock state beyond the write exists (so that the articulation-point
        criterion of Corollary 1 coincides exactly with
        :meth:`well_defined`); a write edge whose span ends at the current
        frontier keeps its natural endpoint.
        """
        adj: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for v in range(self._lock_count):
            adj[v].add(v + 1)
            adj[v + 1].add(v)
        for edge in self._edges:
            upper = min(edge.upper + 1, self._lock_count)
            if upper > edge.lower:
                adj[edge.lower].add(upper)
                adj[upper].add(edge.lower)
        return adj

    def articulation_points(self) -> set[int]:
        """Articulation points of ``G_p`` (Hopcroft–Tarjan)."""
        return algorithms.articulation_points(self.adjacency())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = ", ".join(
            f"{e.variable}:({e.lower},{e.upper}]" for e in self._edges
        )
        return (
            f"StateDependencyGraph(lock_count={self._lock_count}, "
            f"spans=[{spans}])"
        )
