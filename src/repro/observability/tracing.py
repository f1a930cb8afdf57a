"""Cross-site causal tracing: one transaction's life as a single timeline.

Spans (:mod:`repro.observability.spans`) already explain *what* happened
to each transaction inside one scheduler.  This module stitches the
*why* and *where*: :func:`build_txn_trace` folds a recorded event stream
into a :class:`TxnTrace` for one transaction: admission, blocks and
grants (with entities), inter-site messages it rode on, wounds and
probes that crossed a link, the partial rollback with its mandatory
cause link — resolved back to the message that carried the wound, so a
rollback caused from another site shows ``site a -> site b`` explicitly
— and the final commit/shed.  Site attribution is inferred from the
message stream itself (a transaction's LOCK_REQUESTs leave its home
site), so traces can be rebuilt from an exported JSONL log.  A service
journal needs no second causal record: its ``rid``s
(``{client}.{n}.{attempt}``) and bus ``seq`` already order every
request and reply.

``repro trace <scenario> --txn T007`` renders the timeline; the
``distributed`` scenario (five sites, rf=2, chaos faults) exists so the
cross-site story has a first-class, seeded reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .events import Event, EventKind

#: Event kinds that never appear in a transaction drill-down (engine
#: heartbeat and sampler noise); everything else concerning the
#: transaction is kept.
_SKIPPED = frozenset({EventKind.STEP, EventKind.SAMPLE})

#: MESSAGE_SEND payload names whose *receiver* (not sender) is the home
#: site of the transaction the message names: a wound travels from the
#: requester's home to the victim's.
_RECEIVER_HOMED = frozenset({"wound", "lock-grant", "lock-denied-wait"})


@dataclass
class TraceEntry:
    """One row of a transaction timeline."""

    seq: int
    step: int
    kind: str
    detail: str
    site: int | None = None
    to_site: int | None = None
    cause_seq: int | None = None

    def to_obj(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "step": self.step,
            "kind": self.kind,
            "detail": self.detail,
            "site": self.site,
            "to_site": self.to_site,
            "cause_seq": self.cause_seq,
        }


@dataclass
class TxnTrace:
    """One transaction's stitched, possibly cross-site timeline."""

    txn: str
    home_site: int | None = None
    outcome: str = "active"
    start: int = 0
    end: int | None = None
    entries: list[TraceEntry] = field(default_factory=list)

    @property
    def sites(self) -> list[int]:
        """Every site the timeline touched, sorted."""
        touched = set()
        for entry in self.entries:
            if entry.site is not None:
                touched.add(entry.site)
            if entry.to_site is not None:
                touched.add(entry.to_site)
        return sorted(touched)

    def cross_site_links(self) -> list[TraceEntry]:
        """Entries whose cause or payload crossed a site boundary."""
        return [
            entry
            for entry in self.entries
            if entry.site is not None
            and entry.to_site is not None
            and entry.site != entry.to_site
        ]

    def cross_site_rollbacks(self) -> list[TraceEntry]:
        """Rollback entries whose cause link crosses a site boundary."""
        return [
            entry
            for entry in self.cross_site_links()
            if entry.kind == EventKind.ROLLBACK.value
        ]

    def to_obj(self) -> dict[str, Any]:
        return {
            "txn": self.txn,
            "home_site": self.home_site,
            "sites": self.sites,
            "outcome": self.outcome,
            "start": self.start,
            "end": self.end,
            "entries": [entry.to_obj() for entry in self.entries],
            "cross_site_links": len(self.cross_site_links()),
            "cross_site_rollbacks": len(self.cross_site_rollbacks()),
        }


def infer_home_sites(events: Iterable[Event]) -> dict[str, int]:
    """``txn -> home site`` from the message stream.

    A transaction's LOCK_REQUEST / UNLOCK / PROBE messages leave its
    home site (the sender); a WOUND or a lock grant/denial *arrives* at
    it (the receiver).  First observation wins — deterministic because
    the event stream is totally ordered.
    """
    homes: dict[str, int] = {}
    for event in events:
        if event.kind is not EventKind.MESSAGE_SEND or not event.txn:
            continue
        if event.txn in homes:
            continue
        payload = event.data.get("message", "")
        sender = event.data.get("sender")
        receiver = event.data.get("receiver")
        if payload in _RECEIVER_HOMED:
            if isinstance(receiver, int):
                homes[event.txn] = receiver
        elif isinstance(sender, int):
            homes[event.txn] = sender
    return homes


def trace_ids(events: Iterable[Event]) -> list[str]:
    """Every transaction id with at least one non-heartbeat event."""
    seen: set[str] = set()
    for event in events:
        if event.txn and event.kind not in _SKIPPED:
            seen.add(event.txn)
    return sorted(seen)


def _message_detail(event: Event) -> str:
    payload = str(event.data.get("message", "?"))
    entity = event.data.get("entity", "")
    suffix = f" [{entity}]" if entity else ""
    return f"{payload}{suffix}"


def build_txn_trace(events: Iterable[Event], txn: str) -> TxnTrace:
    """Fold the event stream into *txn*'s end-to-end timeline.

    Keeps every event naming the transaction (except the STEP/SAMPLE
    heartbeat), rollbacks of *other* transactions it preempted, and —
    the cross-site stitch — resolves each of the transaction's own
    rollbacks back to the latest preceding WOUND message that named it,
    so the cause link carries the ``requester home -> victim home``
    site pair of the conflict that crossed the wire.
    """
    stream = list(events)
    homes = infer_home_sites(stream)
    trace = TxnTrace(txn=txn, home_site=homes.get(txn))
    last_wound: Event | None = None
    first = True
    for event in stream:
        kind = event.kind
        if (
            kind is EventKind.MESSAGE_SEND
            and event.txn == txn
            and event.data.get("message") == "wound"
        ):
            last_wound = event
        mine = event.txn == txn and kind not in _SKIPPED
        preempted = (
            kind is EventKind.ROLLBACK
            and event.txn != txn
            and event.data.get("requester") == txn
        )
        if not mine and not preempted:
            continue
        if mine and first:
            trace.start = event.step
            first = False
        site = homes.get(event.txn)
        entry = TraceEntry(
            seq=event.seq,
            step=event.step,
            kind=kind.value,
            detail="",
            site=site,
        )
        if kind is EventKind.MESSAGE_SEND or kind in (
            EventKind.MESSAGE_DROP,
            EventKind.MESSAGE_DELAY,
            EventKind.MESSAGE_DUPLICATE,
        ):
            sender = event.data.get("sender")
            receiver = event.data.get("receiver")
            entry.site = sender if isinstance(sender, int) else None
            entry.to_site = receiver if isinstance(receiver, int) else None
            entry.detail = _message_detail(event)
        elif kind is EventKind.LOCK_BLOCK:
            entry.detail = f"blocked on {event.data.get('entity', '?')}"
        elif kind is EventKind.LOCK_GRANT:
            entry.detail = f"granted {event.data.get('entity', '?')}"
        elif kind is EventKind.ROLLBACK:
            requester = event.data.get("requester", "")
            target = event.data.get("target", "?")
            lost = event.data.get("states_lost", "?")
            flavour = (
                "total restart" if event.data.get("total") else
                f"partial rollback to state {target}"
            )
            if preempted:
                entry.detail = (
                    f"preempted {event.txn}: {flavour} ({lost} states lost)"
                )
            else:
                entry.detail = (
                    f"{flavour}, {lost} states lost, wounded by "
                    f"{requester or 'local conflict'}"
                )
                if (
                    last_wound is not None
                    and last_wound.seq < event.seq
                ):
                    sender = last_wound.data.get("sender")
                    receiver = last_wound.data.get("receiver")
                    if isinstance(sender, int) and isinstance(
                        receiver, int
                    ):
                        entry.site = sender
                        entry.to_site = receiver
                        entry.cause_seq = last_wound.seq
                        entry.detail += (
                            f" (wound crossed site {sender} -> "
                            f"site {receiver})"
                        )
                    last_wound = None
        elif kind is EventKind.TXN_COMMIT:
            trace.outcome = "committed"
            trace.end = event.step
            entry.detail = "committed"
        elif kind is EventKind.TXN_SHED:
            trace.outcome = "shed"
            trace.end = event.step
            entry.detail = f"shed ({event.data.get('reason', 'overload')})"
        elif kind is EventKind.DEADLOCK:
            cycles = event.data.get("cycles", [])
            via = " via probe" if event.data.get("probe") else ""
            entry.detail = f"deadlock{via}: {cycles}"
        elif kind is EventKind.SERVICE_REQUEST:
            verb = event.data.get("verb", "?")
            rid = event.data.get("rid", "")
            entry.detail = f"request {verb} ({rid})"
        elif kind is EventKind.SERVICE_REPLY:
            entry.detail = (
                f"reply {event.data.get('verb', '?')} "
                f"code={event.data.get('code', '?')}"
            )
        else:
            interesting = {
                key: value
                for key, value in sorted(event.data.items())
                if key not in ("arcs",) and not isinstance(value, (list, dict))
            }
            entry.detail = ", ".join(
                f"{key}={value}" for key, value in interesting.items()
            )
        trace.entries.append(entry)
    return trace


def render_txn_trace(trace: TxnTrace) -> str:
    """Fixed-width human rendering of one transaction timeline."""
    home = "?" if trace.home_site is None else str(trace.home_site)
    sites = ",".join(str(site) for site in trace.sites) or "-"
    lines = [
        f"trace {trace.txn} — home site {home}, sites touched: {sites}",
        f"outcome {trace.outcome}"
        + (f" @ step {trace.end}" if trace.end is not None else ""),
        f"{'seq':>6} {'step':>6}  {'site':<7} event",
    ]
    for entry in trace.entries:
        if entry.to_site is not None and entry.site is not None:
            site = f"{entry.site}->{entry.to_site}"
        elif entry.site is not None:
            site = str(entry.site)
        else:
            site = "-"
        cause = (
            f"  <- seq {entry.cause_seq}"
            if entry.cause_seq is not None
            else ""
        )
        lines.append(
            f"{entry.seq:>6} {entry.step:>6}  {site:<7} "
            f"{entry.kind:<18} {entry.detail}{cause}"
        )
    crossed = trace.cross_site_rollbacks()
    lines.append(
        f"cross-site links: {len(trace.cross_site_links())} "
        f"({len(crossed)} rollback cause(s) crossing a site boundary)"
    )
    return "\n".join(lines) + "\n"
