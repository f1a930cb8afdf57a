"""Execution traces: a structured record of what a run did.

Used by the examples to narrate scenarios, by tests to assert on event
order, and by the benchmarks to report per-run behaviour.  Each step of the
engine appends one :class:`TraceEvent`; deadlock events carry the cycles
and the chosen rollback actions.

The engine records every step here through :meth:`Trace.record`; when
its scheduler has a live event bus installed it also publishes the
resulting :class:`TraceEvent` as a STEP event, so the trace and the
run-wide observability stream carry the same record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

from ..core.scheduler import StepOutcome, StepResult


@dataclass
class TraceEvent:
    """One engine step: who ran, what happened, and any deadlock detail."""

    step: int
    txn_id: str
    outcome: StepOutcome
    operation: str = ""
    cycles: list[list[str]] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        base = f"[{self.step:>5}] {self.txn_id:<6} {self.outcome}"
        if self.operation:
            base += f" {self.operation}"
        if self.cycles:
            base += f" cycles={self.cycles} actions={self.actions}"
        return base


class Trace:
    """An append-only list of engine events with query helpers."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def record(
        self, step: int, result: StepResult, operation: str = ""
    ) -> TraceEvent:
        event = TraceEvent(
            step=step,
            txn_id=result.txn_id,
            outcome=result.outcome,
            operation=operation,
        )
        if result.deadlock is not None:
            event.cycles = [list(c) for c in result.deadlock.cycles]
            event.actions = [str(a) for a in result.actions]
        self._events.append(event)
        return event

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events(self, outcome: StepOutcome | None = None) -> list[TraceEvent]:
        """All events, optionally filtered by outcome."""
        if outcome is None:
            return list(self._events)
        return [e for e in self._events if e.outcome is outcome]

    def deadlock_events(self) -> list[TraceEvent]:
        return self.events(StepOutcome.DEADLOCK)

    def commits_in_order(self) -> list[str]:
        """Transaction ids in commit order."""
        return [e.txn_id for e in self.events(StepOutcome.COMMITTED)]

    def schedule(self) -> list[str]:
        """Transaction ids in step order — the interleaving that produced
        this trace, replayable through
        :class:`~repro.simulation.interleaving.Scripted`."""
        return [e.txn_id for e in self._events]

    def fingerprint(self) -> str:
        """Content hash of the full event sequence.

        Two runs are step-for-step identical iff their fingerprints match;
        the verification fuzzer uses this to assert seed reproducibility.
        """
        digest = hashlib.sha256()
        for event in self._events:
            digest.update(str(event).encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def render(self, limit: int | None = None) -> str:
        """Human-readable multi-line rendering (used by the examples)."""
        events = self._events if limit is None else self._events[:limit]
        return "\n".join(str(e) for e in events)
