"""Transaction spans: per-transaction causal timelines built from events.

A :class:`Span` covers one transaction's life — admission to
commit/shed — and carries two views of it, folded in one pass:

* nested :class:`Interval` records for the time it spent **blocked** on
  a lock and the time it spent **rolling back**.  Every rolling-back
  interval carries a *cause link*: the transaction whose conflict forced
  the rollback and the sequence number of the triggering
  :data:`~repro.observability.events.EventKind.ROLLBACK` event, so a
  span timeline answers "who preempted whom, when, and what it cost"
  directly — the paper's Figure 2 mutual-preemption story as data;
* the drill-down :class:`Row` list ``repro trace <scenario> --txn T``
  renders: every event naming the transaction (except the STEP/SAMPLE
  heartbeat), the rollbacks of *other* transactions it preempted, and
  the inter-site messages it rode on, each attributed to a site.  Each
  of its own rollbacks is resolved back to the latest preceding WOUND
  message that named it, so a rollback caused from another site shows
  ``site a -> site b`` and the wound's ``cause_seq`` explicitly.

Spans are derived purely from the event stream (no scheduler access), so
they can be rebuilt from an exported JSONL log as well as from a live
:class:`~repro.observability.recorder.RunRecorder`.  Site attribution is
inferred from the message stream too: a transaction's LOCK_REQUEST /
UNLOCK / PROBE messages leave its home site, and a WOUND or a lock
grant/denial arrives at it.  A service journal needs no second causal
record: its ``rid``s (``{client}.{n}.{attempt}``) and bus ``seq``
already order every request and reply.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

from .events import Event, EventKind

#: Interval kinds a span may contain.
BLOCKED = "blocked"
ROLLING_BACK = "rolling-back"

#: Event kinds that never appear in a drill-down (engine heartbeat and
#: sampler noise).
_SKIPPED = frozenset({EventKind.STEP, EventKind.SAMPLE})

#: Event kinds that carry a ``sender`` -> ``receiver`` site pair.
_MESSAGES = frozenset({
    EventKind.MESSAGE_SEND,
    EventKind.MESSAGE_DROP,
    EventKind.MESSAGE_DELAY,
    EventKind.MESSAGE_DUPLICATE,
})

#: MESSAGE_SEND payload names whose *receiver* (not sender) is the home
#: site of the transaction the message names: a wound travels from the
#: requester's home to the victim's.
_RECEIVER_HOMED = frozenset({"wound", "lock-grant", "lock-denied-wait"})


@dataclass
class Interval:
    """A nested stretch of a span: blocked on a lock, or rolling back.

    ``cause`` is the transaction responsible (the lock holder side is not
    tracked for blocks, so it is the contested entity there; for
    rollbacks it is the *requester* whose conflict chose this victim —
    mandatory, validated by :func:`validate_spans`).  ``cause_seq`` is
    the sequence number of the event that opened the interval.
    """

    kind: str
    start: int
    end: int | None = None
    cause: str = ""
    cause_seq: int = -1
    detail: str = ""

    @property
    def duration(self) -> int | None:
        if self.end is None:
            return None
        return self.end - self.start


@dataclass
class Row:
    """One drill-down row.  ``site -> to_site`` is the link a message
    (or the wound behind a rollback, whose event ``cause_seq`` is)
    crossed; otherwise ``site`` is the home of the transaction the
    event names."""

    seq: int
    step: int
    kind: str
    detail: str
    site: int | None = None
    to_site: int | None = None
    cause_seq: int | None = None


@dataclass
class Span:
    """One transaction's timeline from admission to termination."""

    txn: str
    start: int
    end: int | None = None
    outcome: str = "active"
    home_site: int | None = None
    intervals: list[Interval] = field(default_factory=list)
    rows: list[Row] = field(default_factory=list)

    def open_interval(self, kind: str) -> Interval | None:
        for interval in reversed(self.intervals):
            if interval.kind == kind and interval.end is None:
                return interval
        return None

    def close_interval(self, kind: str, step: int) -> None:
        interval = self.open_interval(kind)
        if interval is not None:
            interval.end = step

    def cross_site_links(self) -> list[Row]:
        """Rows whose cause or payload crossed a site boundary."""
        return [
            row
            for row in self.rows
            if row.site is not None
            and row.to_site is not None
            and row.site != row.to_site
        ]

    def cross_site_rollbacks(self) -> list[Row]:
        """Rollback rows whose cause link crosses a site boundary."""
        return [
            row
            for row in self.cross_site_links()
            if row.kind == EventKind.ROLLBACK.value
        ]

    def trace_obj(self) -> dict[str, Any]:
        """The drill-down as JSON (``repro trace --txn T --format
        jsonl``); ``start`` is the step of its first row."""
        return {
            "txn": self.txn,
            "home_site": self.home_site,
            "sites": _sites(self.rows),
            "outcome": self.outcome,
            "start": self.rows[0].step if self.rows else 0,
            "end": self.end,
            "entries": [asdict(row) for row in self.rows],
            "cross_site_links": len(self.cross_site_links()),
            "cross_site_rollbacks": len(self.cross_site_rollbacks()),
        }


def _sites(rows: list[Row]) -> list[int]:
    """Every site the rows touched, sorted."""
    return sorted(
        {site for row in rows for site in (row.site, row.to_site)
         if site is not None}
    )


def _node(value: Any) -> int | None:
    return value if isinstance(value, int) else None


def _rollback_flavour(data: dict[str, Any]) -> str:
    if data.get("total"):
        return "total restart"
    return f"partial rollback to state {data.get('target', '?')}"


def _detail(event: Event) -> str:
    """The drill-down text of an event naming its own transaction."""
    kind, data = event.kind, event.data
    if kind in _MESSAGES:
        entity = data.get("entity", "")
        suffix = f" [{entity}]" if entity else ""
        return f"{data.get('message', '?')}{suffix}"
    if kind is EventKind.LOCK_BLOCK:
        return f"blocked on {data.get('entity', '?')}"
    if kind is EventKind.LOCK_GRANT:
        return f"granted {data.get('entity', '?')}"
    if kind is EventKind.ROLLBACK:
        return (
            f"{_rollback_flavour(data)}, {data.get('states_lost', '?')} "
            f"states lost, wounded by "
            f"{data.get('requester', '') or 'local conflict'}"
        )
    if kind is EventKind.TXN_COMMIT:
        return "committed"
    if kind is EventKind.TXN_SHED:
        return f"shed ({data.get('reason', 'overload')})"
    if kind is EventKind.DEADLOCK:
        via = " via probe" if data.get("probe") else ""
        return f"deadlock{via}: {data.get('cycles', [])}"
    if kind is EventKind.SERVICE_REQUEST:
        return f"request {data.get('verb', '?')} ({data.get('rid', '')})"
    if kind is EventKind.SERVICE_REPLY:
        return (
            f"reply {data.get('verb', '?')} code={data.get('code', '?')}"
        )
    return ", ".join(
        f"{key}={value}"
        for key, value in sorted(data.items())
        if key != "arcs" and not isinstance(value, (list, dict))
    )


def build_spans(events: Iterable[Event]) -> dict[str, Span]:
    """Fold the event stream into one :class:`Span` per transaction.

    Interval semantics:

    * ``blocked`` opens at LOCK_BLOCK and closes at the transaction's next
      LOCK_GRANT, ROLLBACK (the wait was cancelled), TXN_SHED, or span end.
    * ``rolling-back`` opens at ROLLBACK (closing any open blocked
      interval first) and closes at the victim's next STEP — the moment it
      is scheduled again — or at span end.

    A span opens at its transaction's first admit, block, grant,
    rollback, step, commit or shed event; drill-down rows seen before
    that (an admission queue's submit) are kept for it.  Home sites are
    first-observation-wins over the whole stream, so rows are attributed
    to them once the stream is folded.
    """
    spans: dict[str, Span] = {}
    early: dict[str, list[Row]] = {}
    homes: dict[str, int] = {}
    homed: list[tuple[Row, str]] = []
    wounds: dict[str, Event] = {}
    last_step = 0

    def span_for(txn: str, step: int) -> Span:
        if txn not in spans:
            spans[txn] = Span(txn=txn, start=step, rows=early.pop(txn, []))
        return spans[txn]

    def add_row(txn: str, row: Row) -> None:
        span = spans.get(txn)
        rows = early.setdefault(txn, []) if span is None else span.rows
        rows.append(row)

    for event in events:
        last_step = max(last_step, event.step)
        kind, txn, data = event.kind, event.txn, event.data
        if kind is EventKind.MESSAGE_SEND and txn:
            payload = data.get("message", "")
            side = "receiver" if payload in _RECEIVER_HOMED else "sender"
            home = _node(data.get(side))
            if home is not None:
                homes.setdefault(txn, home)
            if payload == "wound":
                wounds[txn] = event
        if txn and kind not in _SKIPPED:
            row = Row(event.seq, event.step, kind.value, _detail(event))
            wound = (
                wounds.pop(txn, None) if kind is EventKind.ROLLBACK else None
            )
            if kind in _MESSAGES:
                row.site = _node(data.get("sender"))
                row.to_site = _node(data.get("receiver"))
            elif (
                wound is not None
                and _node(wound.data.get("sender")) is not None
                and _node(wound.data.get("receiver")) is not None
            ):
                row.site = sender = wound.data["sender"]
                row.to_site = receiver = wound.data["receiver"]
                row.cause_seq = wound.seq
                row.detail += (
                    f" (wound crossed site {sender} -> site {receiver})"
                )
            else:
                homed.append((row, txn))
            add_row(txn, row)

        if kind is EventKind.TXN_ADMIT:
            span_for(txn, event.step)
        elif kind is EventKind.LOCK_BLOCK:
            span = span_for(txn, event.step)
            if span.open_interval(BLOCKED) is None:
                span.intervals.append(
                    Interval(
                        kind=BLOCKED,
                        start=event.step,
                        cause=str(data.get("entity", "")),
                        cause_seq=event.seq,
                    )
                )
        elif kind is EventKind.LOCK_GRANT:
            span = span_for(txn, event.step)
            span.close_interval(BLOCKED, event.step)
        elif kind is EventKind.ROLLBACK:
            requester = data.get("requester")
            if requester and requester != txn:
                row = Row(
                    event.seq,
                    event.step,
                    kind.value,
                    f"preempted {txn}: {_rollback_flavour(data)} "
                    f"({data.get('states_lost', '?')} states lost)",
                )
                homed.append((row, txn))
                add_row(requester, row)
            span = span_for(txn, event.step)
            span.close_interval(BLOCKED, event.step)
            span.close_interval(ROLLING_BACK, event.step)
            span.intervals.append(
                Interval(
                    kind=ROLLING_BACK,
                    start=event.step,
                    cause=str(data.get("requester", "")),
                    cause_seq=event.seq,
                    detail=(
                        f"to state {data.get('target', '?')}, "
                        f"{data.get('states_lost', '?')} states lost"
                    ),
                )
            )
        elif kind is EventKind.STEP:
            span = span_for(txn, event.step)
            span.close_interval(ROLLING_BACK, event.step)
        elif kind is EventKind.TXN_COMMIT or kind is EventKind.TXN_SHED:
            span = span_for(txn, event.step)
            span.end = event.step
            span.outcome = (
                "committed" if kind is EventKind.TXN_COMMIT else "shed"
            )
            span.close_interval(BLOCKED, event.step)
            span.close_interval(ROLLING_BACK, event.step)
    for row, txn in homed:
        row.site = homes.get(txn)
    # A run may end (crash, livelock stop) with spans still active; close
    # their intervals at the last observed step so durations are defined.
    for span in spans.values():
        span.home_site = homes.get(span.txn)
        for interval in span.intervals:
            if interval.end is None:
                interval.end = last_step
    return spans


def render_trace(span: Span) -> str:
    """Fixed-width human rendering of one span's drill-down."""
    home = "?" if span.home_site is None else str(span.home_site)
    sites = ",".join(str(site) for site in _sites(span.rows)) or "-"
    lines = [
        f"trace {span.txn} — home site {home}, sites touched: {sites}",
        f"outcome {span.outcome}"
        + (f" @ step {span.end}" if span.end is not None else ""),
        f"{'seq':>6} {'step':>6}  {'site':<7} event",
    ]
    for row in span.rows:
        if row.to_site is not None and row.site is not None:
            site = f"{row.site}->{row.to_site}"
        elif row.site is not None:
            site = str(row.site)
        else:
            site = "-"
        cause = (
            f"  <- seq {row.cause_seq}" if row.cause_seq is not None else ""
        )
        lines.append(
            f"{row.seq:>6} {row.step:>6}  {site:<7} "
            f"{row.kind:<18} {row.detail}{cause}"
        )
    lines.append(
        f"cross-site links: {len(span.cross_site_links())} "
        f"({len(span.cross_site_rollbacks())} rollback cause(s) crossing "
        f"a site boundary)"
    )
    return "\n".join(lines) + "\n"


def validate_spans(spans: dict[str, Span]) -> list[str]:
    """The span-model invariants; returns human-readable problems.

    * no interval or span has a negative duration,
    * every interval lies within its span,
    * every rolling-back interval names its cause (requester) and the
      triggering event.
    """
    problems: list[str] = []
    for txn in sorted(spans):
        span = spans[txn]
        if span.end is not None and span.end < span.start:
            problems.append(
                f"{txn}: span ends at {span.end} before it starts "
                f"at {span.start}"
            )
        for interval in span.intervals:
            if interval.end is not None and interval.end < interval.start:
                problems.append(
                    f"{txn}: {interval.kind} interval has negative duration "
                    f"({interval.start} -> {interval.end})"
                )
            if interval.start < span.start:
                problems.append(
                    f"{txn}: {interval.kind} interval starts before the span"
                )
            if (
                span.end is not None
                and interval.end is not None
                and interval.end > span.end
            ):
                problems.append(
                    f"{txn}: {interval.kind} interval outlives the span"
                )
            if interval.kind == ROLLING_BACK:
                if not interval.cause:
                    problems.append(
                        f"{txn}: rolling-back interval at {interval.start} "
                        f"has no cause (requester) link"
                    )
                if interval.cause_seq < 0:
                    problems.append(
                        f"{txn}: rolling-back interval at {interval.start} "
                        f"has no triggering event"
                    )
    return problems


def preemption_links(spans: dict[str, Span]) -> list[tuple[str, str, int]]:
    """``(requester, victim, step)`` per rolling-back interval — the cause
    links, flattened for reporting and the regression checks."""
    links: list[tuple[str, str, int]] = []
    for txn in sorted(spans):
        for interval in spans[txn].intervals:
            if interval.kind == ROLLING_BACK and interval.cause:
                links.append((interval.cause, txn, interval.start))
    return sorted(links, key=lambda item: (item[2], item[1], item[0]))
