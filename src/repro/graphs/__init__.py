"""Graph layer: concurrency (waits-for) graphs, the incrementally
maintained waits-for structure, state-dependency graphs, and the
underlying algorithms."""

from .concurrency import ConcurrencyGraph, WaitArc
from .incremental import IncrementalWaitsFor
from .state_dependency import StateDependencyGraph, WriteEdge

__all__ = [
    "ConcurrencyGraph",
    "IncrementalWaitsFor",
    "StateDependencyGraph",
    "WaitArc",
    "WriteEdge",
]
