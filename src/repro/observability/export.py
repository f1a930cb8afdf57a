"""Exporters: JSONL event logs, Chrome trace_event JSON, graph snapshots.

Three output shapes for one event stream:

* :func:`to_jsonl` — one JSON object per line, keys sorted, newline
  terminated.  :func:`fingerprint` is the SHA-256 of exactly those bytes,
  so "same seed, byte-identical log" is a single string comparison.
* :func:`to_chrome` — the ``trace_event`` JSON object format understood
  by ``chrome://tracing`` and Perfetto: one timeline row per transaction,
  complete ("X") slices for the span and its blocked / rolling-back
  intervals, instant ("i") markers for deadlocks, victim choices,
  deadline rungs, degraded restarts and crashes.  Timestamps are logical engine steps
  (the ``ts`` unit is microseconds to a viewer, but only relative layout
  matters).
* :func:`graph_snapshots` — the recorder's periodic waits-for SAMPLE
  events re-rendered as Graphviz DOT via the existing
  :func:`repro.graphs.render.concurrency_to_dot`.
"""

from __future__ import annotations

import hashlib
import json
from _json import make_encoder
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, TextIO

from ..graphs.concurrency import ConcurrencyGraph
from ..graphs.render import concurrency_to_dot
from .events import Event, EventKind
from .spans import build_spans

#: Event kinds rendered as instant markers on a Chrome timeline.
_INSTANT_KINDS = {
    EventKind.DEADLOCK: "deadlock",
    EventKind.VICTIM_SELECT: "victim",
    EventKind.CRASH: "crash",
    EventKind.DEADLINE_RUNG: "deadline",
    EventKind.DEGRADE_RESTART: "degrade",
}


#: The C encoder ``json.dumps(obj, sort_keys=True, default=str)`` builds
#: per call (costlier than encoding a journal line), built once.
#: Stateless, so threads share it: it keeps no circular-reference marks,
#: and what it encodes (events' data, wire frames) is never circular.
_ENCODE = make_encoder(
    None, str, encode_basestring_ascii, None, ": ", ", ", True, False, True
)


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, default=str)``, byte for byte."""
    return "".join(_ENCODE(obj, 0))


def event_line(event: Event) -> str:
    """One event's JSONL row: ``json.dumps(event.to_obj(), sort_keys=True,
    default=str)``, built around one encode of ``data`` (the sorted keys
    are data, kind, seq, step, txn; ``txn`` is a string by contract)."""
    return (
        f'{{"data": {canonical_json(event.data)}, '
        f'"kind": "{event.kind.value}", "seq": {event.seq}, '
        f'"step": {event.step}, "txn": {encode_basestring_ascii(event.txn)}}}'
    )


def event_lines(events: Iterable[Event]) -> list[str]:
    """One sorted-keys JSON line per event (the JSONL rows)."""
    return [event_line(event) for event in events]


def to_jsonl(events: Iterable[Event]) -> str:
    """The canonical JSONL export (newline-terminated when non-empty)."""
    lines = event_lines(events)
    return "\n".join(lines) + ("\n" if lines else "")


def fingerprint(events: Iterable[Event]) -> str:
    """SHA-256 over the exact JSONL bytes — the determinism contract."""
    return hashlib.sha256(to_jsonl(events).encode()).hexdigest()


class JsonlStreamSink:
    """A bus sink that streams events to a JSONL file.

    Export-at-end loses the whole run if the process dies; a long-lived
    service cannot accept that.  Subscribed to an
    :class:`~repro.observability.events.EventBus`, this sink writes each
    event as one canonical JSONL line (identical bytes to
    :func:`to_jsonl`) and flushes, so a ``kill -9`` loses at most the
    event being written — unless ``buffered=True``, where lines wait
    for the owner's :meth:`flush` (the service's reply boundary, see
    :meth:`repro.service.server.LockServer._handle`).  ``append=True``
    reopens an existing file without truncation, the restart half of
    the segment-stitching contract: re-attaching a recorder after a
    crash continues the same stream, on a line of its own
    (:func:`open_jsonl_append`).
    """

    def __init__(
        self,
        path: str | Path,
        append: bool = False,
        buffered: bool = False,
    ) -> None:
        self.path = Path(path)
        self._buffered = buffered
        self._handle = (
            open_jsonl_append(self.path) if append else self.path.open("w")
        )
        self.flushes = 0  # explicit flush() calls: the owner's boundaries

    def __call__(self, event: Event) -> None:
        self._handle.write(event_line(event) + "\n")
        if not self._buffered:
            self._handle.flush()

    def flush(self) -> None:
        """Hand every line written so far to the operating system."""
        self._handle.flush()
        self.flushes += 1

    def fileno(self) -> int:
        """The file descriptor (what the owner ``fsync``s)."""
        return self._handle.fileno()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlStreamSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def open_jsonl_append(path: Path) -> TextIO:
    """Open *path* for appending records, first cutting a torn tail.

    The one record rule, shared with :func:`read_jsonl_objects`: a
    record exists iff its terminating newline is on disk.  What follows
    the last newline is a write a crash cut short; left in place, the
    next record would fuse with it into a corrupt line mid-file.
    """
    if path.exists():
        with path.open("rb+") as raw:
            keep = path.stat().st_size
            while keep:  # back a block at a time to the last newline
                start = max(0, keep - 4096)
                raw.seek(start)
                keep = start + raw.read(keep - start).rfind(b"\n") + 1
                if keep > start:
                    break
            raw.truncate(keep)
    return path.open("a")


def read_jsonl_objects(path: str | Path) -> list[dict[str, Any]]:
    """Parse an append-only JSONL file under the one record rule.

    Only newline-terminated lines are records: an unterminated final
    line — a write a crash cut short — is dropped even when it happens
    to parse; a terminated line that does not parse raises.  Blank lines
    are skipped.  The service's journal is read back through here.
    """
    lines = Path(path).read_text().split("\n")[:-1]
    return [json.loads(line) for line in lines if line.strip()]


def read_events_jsonl(path: str | Path) -> list[Event]:
    """Load a streamed JSONL event file back into :class:`Event` records.

    The inverse of :class:`JsonlStreamSink` (and of :func:`to_jsonl`):
    used by replay verification to feed a recorded request stream back
    through the simulator.  Torn-tail handling is
    :func:`read_jsonl_objects`'s.
    """
    return [
        Event(
            seq=obj["seq"],
            step=obj["step"],
            kind=EventKind(obj["kind"]),
            txn=obj.get("txn", ""),
            data=obj.get("data", {}),
        )
        for obj in read_jsonl_objects(path)
    ]


def to_chrome(events: list[Event]) -> dict[str, Any]:
    """The ``trace_event`` object-format document for chrome://tracing."""
    spans = build_spans(events)
    last_step = max((event.step for event in events), default=0)
    ordered = sorted(
        spans.values(), key=lambda span: (span.start, span.txn)
    )
    tids = {span.txn: index + 1 for index, span in enumerate(ordered)}
    trace_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro scheduler"},
        }
    ]
    for span in ordered:
        tid = tids[span.txn]
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": span.txn},
            }
        )
        end = span.end if span.end is not None else last_step
        trace_events.append(
            {
                "name": f"{span.txn} ({span.outcome})",
                "cat": "txn",
                "ph": "X",
                "ts": span.start,
                "dur": max(1, end - span.start),
                "pid": 1,
                "tid": tid,
                "args": {"outcome": span.outcome},
            }
        )
        for interval in span.intervals:
            iv_end = interval.end if interval.end is not None else last_step
            trace_events.append(
                {
                    "name": (
                        f"blocked on {interval.cause}"
                        if interval.kind == "blocked"
                        else f"rolling back (by {interval.cause})"
                    ),
                    "cat": interval.kind,
                    "ph": "X",
                    "ts": interval.start,
                    "dur": max(1, iv_end - interval.start),
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "cause": interval.cause,
                        "detail": interval.detail,
                    },
                }
            )
    for event in events:
        label = _INSTANT_KINDS.get(event.kind)
        if label is None:
            continue
        trace_events.append(
            {
                "name": f"{label}: {event.txn}" if event.txn else label,
                "cat": "marker",
                "ph": "i",
                "ts": event.step,
                "pid": 1,
                "tid": tids.get(event.txn, 0),
                "s": "t" if event.txn in tids else "g",
                "args": {
                    str(key): str(value)
                    for key, value in sorted(event.data.items())
                },
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "logical engine steps"},
    }


def graph_snapshots(events: Iterable[Event]) -> list[tuple[int, str]]:
    """``(step, dot_source)`` per recorded waits-for SAMPLE snapshot."""
    snapshots: list[tuple[int, str]] = []
    for event in events:
        if event.kind is not EventKind.SAMPLE:
            continue
        arcs = event.data.get("arcs")
        if arcs is None:
            continue
        graph = ConcurrencyGraph()
        for holder, waiter, entity in arcs:
            graph.add_wait(str(holder), str(waiter), str(entity))
        snapshots.append(
            (event.step, concurrency_to_dot(graph, title=f"step_{event.step}"))
        )
    return snapshots
