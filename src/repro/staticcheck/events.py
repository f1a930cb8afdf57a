"""Abstract lock events, their partial order, and the one harvest.

The predictor in :mod:`repro.staticcheck.predict` reasons about *traces*:
sequences of granted lock acquisitions.  This module gives those
acquisitions a partial-order semantics — the sound happens-before
relation of the lock-graph school of dynamic deadlock prediction
(Goodlock and its partial-order refinements, PAPERS.md) — so
feasibility questions ("could these four blocking points coexist in
*some* reordering?") become questions about boot segments.

The happens-before relation for this system has exactly two sources:

* **program order** — every transaction program is straight-line, so
  its own acquisitions are totally ordered;
* **boot-segment barriers** — a service journal spans server restarts;
  every event of boot segment *k* happens-before every event of segment
  *k + 1* (the crash is a global synchronisation point: nothing that
  ran only after the restart can be reordered before it).

There is deliberately **no** edge for the scheduler's own interleaving
choices: reordering those is precisely what the predictive closure
explores.  So the partial order *is* the boot segment: two acquisitions
by different transactions are concurrent (mutually reorderable) iff
they happened in the same segment.

There is one harvest, :func:`fold_events`, a fold over a bus event
stream that tracks grants, partial rollbacks, commits, sheds and
``SERVICE_RECOVER`` barriers.  Its two sources:

* :func:`harvest_journal` — a service WAL/request journal read via
  :func:`repro.observability.export.read_events_jsonl`;
* :func:`harvest_case` — the bus events of a
  :class:`~repro.verification.cases.ReplayCase`'s own replay (its
  schedule, interleaving seed and fault plan included).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from ..locking.modes import LockMode
from ..observability.events import Event, EventBus, EventKind
from ..observability.export import read_events_jsonl
from ..simulation.engine import SimulationEngine
from ..verification.cases import ReplayCase, replay


@dataclass(frozen=True)
class AbstractLockEvent:
    """One granted acquisition, abstracted out of its concrete run.

    ``segment`` is the boot segment the grant happened in and
    ``held_before`` the locks (entity, mode) the transaction already
    held at the grant, in acquisition order.
    """

    txn: str
    entity: str
    mode: LockMode
    segment: int
    held_before: tuple[tuple[str, LockMode], ...]


def concurrent(a: AbstractLockEvent, b: AbstractLockEvent) -> bool:
    """Neither ordered before the other — mutually reorderable."""
    return a.txn != b.txn and a.segment == b.segment


@dataclass
class JournalTrace:
    """Everything the harvest recovered from one event stream.

    ``lock_sequences`` maps each transaction to its full granted
    ``(entity, mode)`` sequence — the straight-line lock program the
    witness synthesiser replays when no workload can be regenerated;
    ``observed_deadlocks`` the transaction sets the live detector
    already reported (so predictions can be classified observed vs
    alternate-interleaving); ``segments`` how many boot segments the
    stream spans.
    """

    path: str
    events: list[AbstractLockEvent] = field(default_factory=list)
    lock_sequences: dict[str, tuple[tuple[str, LockMode], ...]] = field(
        default_factory=dict
    )
    observed_deadlocks: list[frozenset[str]] = field(default_factory=list)
    segments: int = 1

    @property
    def entities(self) -> list[str]:
        """Every entity any grant touched, sorted."""
        return sorted({event.entity for event in self.events})


_MODES = {"S": LockMode.SHARED, "X": LockMode.EXCLUSIVE}


def fold_events(events: Iterable[Event], path: str = "") -> JournalTrace:
    """Abstract a bus event stream into lock events.

    Replays the stream's grant/rollback/commit/shed bookkeeping: a
    partial ``ROLLBACK`` to lock ordinal *k* truncates the held set to
    its first *k* grants (the paper's partial-rollback semantics);
    commits and sheds clear it.  Every ``SERVICE_RECOVER`` marker after
    the first lock activity starts a new boot segment.
    """
    trace = JournalTrace(path=path)
    held: dict[str, list[tuple[str, LockMode]]] = {}
    # Insertion-ordered sets: a re-grant after a rollback is not new.
    sequences: dict[str, dict[tuple[str, LockMode], None]] = {}
    segment = 0
    saw_activity = False
    for event in events:
        if event.kind is EventKind.SERVICE_RECOVER:
            if saw_activity:
                segment += 1
            continue
        if event.kind is EventKind.LOCK_GRANT:
            txn = event.txn
            entity = str(event.data.get("entity", ""))
            mode = _MODES.get(str(event.data.get("mode", "X")), LockMode.EXCLUSIVE)
            if not txn or not entity:
                continue
            saw_activity = True
            trace.events.append(
                AbstractLockEvent(
                    txn=txn,
                    entity=entity,
                    mode=mode,
                    segment=segment,
                    held_before=tuple(held.get(txn, ())),
                )
            )
            held.setdefault(txn, []).append((entity, mode))
            sequences.setdefault(txn, {})[entity, mode] = None
        elif event.kind is EventKind.ROLLBACK:
            target = event.data.get("target")
            if event.txn in held and isinstance(target, int):
                # Partial rollback to lock ordinal *target*: grants past
                # it are released (ordinal 0 = total restart).
                held[event.txn] = held[event.txn][:target]
        elif event.kind in (EventKind.TXN_COMMIT, EventKind.TXN_SHED):
            held.pop(event.txn, None)
        elif event.kind is EventKind.DEADLOCK:
            cycles = event.data.get("cycles", [])
            for cycle in cycles:
                if isinstance(cycle, list) and cycle:
                    trace.observed_deadlocks.append(
                        frozenset(map(str, cycle))
                    )
    trace.lock_sequences = {
        txn: tuple(sequence) for txn, sequence in sequences.items()
    }
    trace.segments = segment + 1
    return trace


def harvest_journal(path: str | Path) -> JournalTrace:
    """Abstract a service journal into lock events."""
    return fold_events(read_events_jsonl(path), path=str(path))


class _Collect(list[Event]):
    """Bus sink keeping the events :func:`fold_events` reads."""

    kinds = (
        EventKind.LOCK_GRANT,
        EventKind.ROLLBACK,
        EventKind.TXN_COMMIT,
        EventKind.TXN_SHED,
        EventKind.DEADLOCK,
    )

    def __call__(self, event: Event) -> None:
        self.append(event)


def harvest_case(case: ReplayCase, path: str = "") -> JournalTrace:
    """Abstract the replay of *case* into lock events (one segment).

    The case runs as :func:`~repro.verification.cases.replay` runs it —
    schedule or interleaving seed, fault plan and step budget — with
    its oracles disarmed: they only watch the run, and the lock-order
    evidence is the run's.  A planted fault that aborts the run still
    leaves a valid partial trace.
    """
    collected = _Collect()

    def instrument(engine: SimulationEngine) -> None:
        bus = EventBus()
        bus.subscribe(collected)
        engine.scheduler.bus = bus

    replay(replace(case, checks=[]), instrument=instrument)
    return fold_events(collected, path=path)
