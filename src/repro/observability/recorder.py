"""The run recorder: one bus, one event list, wired into a whole run.

:class:`RunRecorder` owns a live :class:`~repro.observability.events.EventBus`
and collects everything published on it.  :meth:`attach` points an
engine's scheduler (and its satellite subsystems — distributed message
log, write-ahead log) at that bus and optionally installs a *graph
sampler*: every ``sample_every`` recorded engine steps it publishes a
SAMPLE event carrying the live gauges and the current waits-for arcs, so
exporters can render periodic graph snapshots without replaying the run.

Attach is repeatable: chaos runs build a fresh scheduler per crash
segment, and re-attaching the same recorder stitches every segment into
one continuous, deterministically-ordered stream (the bus sequence
number never resets).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from ..core.transaction import TxnStatus
from .events import Event, EventBus, EventKind
from .export import JsonlStreamSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.engine import SimulationEngine


class RunRecorder:
    """Collects the event stream of one (possibly multi-segment) run.

    Parameters
    ----------
    sample_every:
        Recorded engine steps between waits-for SAMPLE snapshots;
        ``0`` disables the sampler.
    stream_to:
        Optional JSONL path; every event is additionally written there
        flush-on-write via :class:`JsonlStreamSink`, so a crash loses at
        most the last event instead of the whole in-memory list.
    append:
        Reopen ``stream_to`` without truncating — restart continuity for
        multi-segment (crash/recover) runs.
    """

    def __init__(
        self,
        sample_every: int = 0,
        stream_to: str | Path | None = None,
        append: bool = False,
    ) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.sample_every = sample_every
        self.bus = EventBus()
        self.events: list[Event] = []
        self.bus.subscribe(self.events.append)
        self.stream: JsonlStreamSink | None = None
        if stream_to is not None:
            self.stream = JsonlStreamSink(stream_to, append=append)
            self.bus.subscribe(self.stream)
        self._steps_seen = 0

    def close(self) -> None:
        """Flush and close the streaming sink (no-op when not streaming)."""
        if self.stream is not None:
            self.stream.close()

    def attach(self, engine: "SimulationEngine") -> "RunRecorder":
        """Wire *engine*'s scheduler (and satellites) to this recorder.

        Safe to call before a recovery manager attaches (it copies the
        scheduler's then-live bus onto the WAL it creates) or after one
        did (the existing WAL is re-pointed here); chaos runs call this
        first, per segment, via the ``instrument`` hook of
        :func:`repro.resilience.chaos.chaos_run`.
        """
        scheduler = engine.scheduler
        scheduler.bus = self.bus
        message_log = getattr(scheduler, "message_log", None)
        if message_log is not None:
            message_log.bus = self.bus
        if scheduler.wal is not None:
            scheduler.wal.bus = self.bus
        if self.sample_every:
            previous = engine.on_step

            def observe(eng: "SimulationEngine", event: object) -> None:
                if previous is not None:
                    previous(eng, event)
                self._on_step(eng)

            engine.on_step = observe
        return self

    def _on_step(self, engine: "SimulationEngine") -> None:
        self._steps_seen += 1
        if self._steps_seen % self.sample_every:
            return
        scheduler = engine.scheduler
        arcs = sorted(scheduler.lock_manager.table.waits_for.arcs)
        metrics = scheduler.metrics
        transactions = scheduler.transactions
        self.bus.publish(
            EventKind.SAMPLE,
            active=sum(1 for txn in transactions.values() if not txn.done),
            blocked=sum(
                1
                for txn in transactions.values()
                if txn.status is TxnStatus.BLOCKED
            ),
            wf_edges=len(arcs),
            arcs=[list(arc) for arc in arcs],
            rollbacks=metrics.rollbacks,
            states_lost=metrics.states_lost,
            commits=metrics.commits,
        )
