"""The single-copy (state-dependency-graph) strategy — paper §4.

Keeps exactly one local copy per exclusive-locked entity and per local
variable — the same storage bill as total restart — and rolls back only to
lock states that remain *well-defined* (reproducible): the rollback target
is clamped to the latest well-defined lock state at or below the ideal one,
trading some extra lost progress for the quadratic space MCS needs.

§5 calls k-copy this implementation "extended to allow more than one local
copy", so the strategy *is* :class:`~repro.core.k_copy.KCopyStrategy` with
nothing to spend: one copy cell per variable answers Theorem 4, and the
paper's :class:`~repro.graphs.state_dependency.StateDependencyGraph` is
read off the cells' write history when someone asks for it
(:meth:`~repro.core.k_copy.KCopyStrategy.graph_of`).

The monitoring cost the paper notes — "system monitoring of all write
operations to both local variables and global entities" — is the history
each cell keeps of its own writes while the transaction may still be
rolled back.
"""

from __future__ import annotations

from .k_copy import KCopyStrategy


class SingleCopyStrategy(KCopyStrategy):
    """Partial rollback to well-defined lock states with Θ(n) copies."""

    name = "single-copy"

    def __init__(self) -> None:
        super().__init__(extra_copies=0)
