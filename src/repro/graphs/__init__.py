"""Graph layer: concurrency (waits-for) graphs — scenario, snapshot and the
lock table's live one are the same class — state-dependency graphs, and
the underlying algorithms."""

from .concurrency import ConcurrencyGraph, WaitArc
from .state_dependency import StateDependencyGraph, WriteEdge

__all__ = [
    "ConcurrencyGraph",
    "StateDependencyGraph",
    "WaitArc",
    "WriteEdge",
]
