"""Differential replay verification: the simulator stays the oracle.

A live service run records every wire request (and every scheduler
decision) in its journal.  :func:`replay_journal` re-executes exactly
that request stream through a fresh, purely simulated
:class:`~repro.service.core.ServiceCore` — same deterministic core, no
sockets, no wall clock — and :func:`verify_journal` asserts the two
executions decided identically:

* **replies** — every reply, byte-normalized (rid, code, verb, values);
* **victims** — each deadlock's chosen victim cut
  (``VICTIM_SELECT.chosen``);
* **rollback depths** — each rollback's ``(victim, target, ideal)``;
* **commit sets** — the ordered list of committed transactions.

Crash segments replay too: the journal's ``SERVICE_RECOVER`` boot
markers carry the recovered state, config, and dedup seeds, so replay
rebuilds a successor core exactly where the restarted server did.  A
divergence means the live path (networking, parked futures, drain,
recovery) changed a scheduling decision — precisely the bug class this
oracle exists to catch.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Iterable

from ..observability.events import Event, EventKind
from ..observability.export import read_events_jsonl
from ..resilience.wal import WriteAheadLog
from ..storage.database import Database
from .core import ServiceConfig, ServiceCore


#: A journal written by an earlier release may carry, in its boot
#: markers, config fields that have since been removed.  Replay keeps
#: the fields :class:`ServiceConfig` still has and drops the rest: a
#: dropped field that mattered shows up as a divergence, not a
#: ``TypeError`` before the first request.
_CONFIG_FIELDS = frozenset(f.name for f in fields(ServiceConfig))


class ReplayDivergence(AssertionError):
    """Live and replayed executions disagreed; carries the messages."""

    def __init__(self, divergences: list[str]) -> None:
        super().__init__(
            f"{len(divergences)} divergence(s); first: {divergences[0]}"
        )
        self.divergences = divergences


def replay_journal(events: Iterable[Event]) -> list[Event]:
    """Re-execute a journal's request stream; returns the replayed events.

    Builds a fresh :class:`ServiceCore` at every boot marker and feeds
    it the recorded requests in arrival order.  The returned list is the
    replay's own bus stream, shaped exactly like a journal.
    """
    replayed: list[Event] = []
    core: ServiceCore | None = None
    for event in events:
        if event.kind is EventKind.SERVICE_RECOVER:
            data = event.data
            config = ServiceConfig(
                **{
                    name: value
                    for name, value in data.get("config", {}).items()
                    if name in _CONFIG_FIELDS
                }
            )
            recovered = (
                set(data.get("committed", ()))
                if data.get("recovered")
                else None
            )
            state = dict(data.get("state", {}))
            core = ServiceCore(
                Database(state),
                config=config,
                # A live WAL publishes its appends into the stream (the
                # ``metrics`` verb counts them); an in-memory one here
                # publishes the same.  Markers without the key had none.
                wal=WriteAheadLog(state) if data.get("wal") else None,
                recovered_committed=recovered,
                txn_counter_start=int(data.get("txn_counter", 0)),
                dedup_seed=dict(data.get("dedup", {})),
            )
            core.bus.subscribe(replayed.append)
            # The core published its own boot marker before we could
            # subscribe; replace it with one captured for comparison.
            replayed.append(
                Event(
                    seq=0, step=0, kind=EventKind.SERVICE_RECOVER,
                    txn="", data=dict(data),
                )
            )
        elif event.kind is EventKind.SERVICE_REQUEST:
            if core is None:
                raise ReplayDivergence(
                    ["journal has requests before any boot marker"]
                )
            request = dict(event.data)
            if event.txn:
                request["txn"] = event.txn
            core.handle(request)
    return replayed


def _reply_view(events: Iterable[Event]) -> list[dict]:
    # Journals of earlier releases carry a ``trace`` echo on replies.  It
    # restated the journal's own order, not a decision, so it is not
    # compared.
    return [
        {
            "txn": event.txn,
            **{k: v for k, v in event.data.items() if k != "trace"},
        }
        for event in events
        if event.kind is EventKind.SERVICE_REPLY
    ]


def _rollback_view(events: Iterable[Event]) -> list[tuple]:
    return [
        (
            event.txn,
            event.data.get("target"),
            event.data.get("ideal"),
            event.data.get("total"),
        )
        for event in events
        if event.kind is EventKind.ROLLBACK
    ]


def _victim_view(events: Iterable[Event]) -> list[list]:
    return [
        event.data.get("chosen", [])
        for event in events
        if event.kind is EventKind.VICTIM_SELECT
    ]


def _commit_view(events: Iterable[Event]) -> list[str]:
    return [
        event.txn
        for event in events
        if event.kind is EventKind.TXN_COMMIT
    ]


def _segments(events: Iterable[Event]) -> list[list[Event]]:
    """Split a stream into boot-marker-delimited crash segments."""
    segments: list[list[Event]] = []
    for event in events:
        if event.kind is EventKind.SERVICE_RECOVER:
            segments.append([])
        elif segments:
            segments[-1].append(event)
    return segments


def _compare(
    name: str, segment: int, live: list, replayed: list
) -> list[str]:
    """Prefix comparison: every *recorded* decision must be reproduced.

    A ``kill -9`` can tear the tail of the final handle call out of the
    live journal (flush-on-write loses at most the events being
    written), which replay — undisturbed — will complete.  Extra replay
    entries beyond the recorded suffix are therefore legal; anything
    the live run recorded that replay contradicts or lacks is not.
    """
    divergences: list[str] = []
    for index, (a, b) in enumerate(zip(live, replayed)):
        if a != b:
            divergences.append(
                f"segment {segment} {name}[{index}]: "
                f"live {a!r} != replay {b!r}"
            )
            # Later entries diverge in cascade; report the first.
            return divergences
    if len(live) > len(replayed):
        divergences.append(
            f"segment {segment} {name}: live recorded {len(live)} "
            f"entries but replay produced only {len(replayed)}"
        )
    return divergences


_VIEWS = (
    ("replies", _reply_view),
    ("rollback-depths", _rollback_view),
    ("victims", _victim_view),
    ("commit-set", _commit_view),
)


def verify_events(events: list[Event]) -> list[str]:
    """Replay *events* and return the divergence list (empty = verified)."""
    replayed = replay_journal(events)
    live_segments = _segments(events)
    replay_segments = _segments(replayed)
    if len(live_segments) != len(replay_segments):
        return [
            f"segment count: live {len(live_segments)} != "
            f"replay {len(replay_segments)}"
        ]
    divergences: list[str] = []
    for index, (live, rep) in enumerate(
        zip(live_segments, replay_segments)
    ):
        for name, view in _VIEWS:
            divergences += _compare(name, index, view(live), view(rep))
    return divergences


def verify_journal(path: str | Path) -> list[str]:
    """Replay the journal at *path*; returns divergences (empty = pass)."""
    return verify_events(read_events_jsonl(path))
