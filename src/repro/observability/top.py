"""``repro top``: a text dashboard over the event stream.

One screen of what an operator wants: run counters, block-duration
percentiles, steps since the last commit, the hottest entities and the
worst rollback victims.  All of these come from the one fold,
:class:`~repro.observability.streaming.StreamingAggregator`: a live
server's ``metrics`` verb is a snapshot of it, and :func:`build_top`
feeds it a recorded prefix, so :func:`report_from_metrics` reads either
and :func:`render_top` draws both.  A recorded run adds what only the
raw events carry — the longest-blocked transactions and the state of the
admission / deadline machinery — and stays a pure function of the
events, replayable from a JSONL export.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any

from .events import Event, EventKind
from .spans import BLOCKED, build_spans
from .streaming import StreamingAggregator


@dataclass
class TopReport:
    """The dashboard's data, before rendering."""

    at: int
    hottest_entities: list[tuple[str, int]]
    longest_blocked: list[tuple[str, int, str]]
    #: ``(txn, rollbacks, states lost)``; a live report has no states lost.
    rollback_victims: list[tuple[Any, ...]]
    active: int
    blocked: int
    commits: int
    sheds: int
    deadlocks: int
    admission_window: int | None
    admission_queue: int
    deadline_rungs: Counter = field(default_factory=Counter)
    block_p50: int = 0
    block_p99: int = 0
    steps_since_commit: int = 0
    #: Read from a ``metrics`` snapshot, which carries no spans and no
    #: states lost per victim.
    live: bool = False

    def to_obj(self) -> dict[str, Any]:
        return {
            "at": self.at,
            "hottest_entities": [list(e) for e in self.hottest_entities],
            "longest_blocked": [list(e) for e in self.longest_blocked],
            "rollback_victims": [list(e) for e in self.rollback_victims],
            "active": self.active,
            "blocked": self.blocked,
            "commits": self.commits,
            "sheds": self.sheds,
            "deadlocks": self.deadlocks,
            "admission_window": self.admission_window,
            "admission_queue": self.admission_queue,
            "deadline_rungs": dict(sorted(self.deadline_rungs.items())),
            "block_p50": self.block_p50,
            "block_p99": self.block_p99,
            "steps_since_commit": self.steps_since_commit,
        }


def report_from_metrics(metrics: dict[str, Any], limit: int = 5) -> TopReport:
    """The dashboard as far as one ``metrics_obj`` snapshot carries it."""
    return TopReport(
        at=metrics["step"],
        hottest_entities=[tuple(e) for e in metrics["hot_entities"][:limit]],
        longest_blocked=[],
        rollback_victims=[
            tuple(v) for v in metrics["rollback_victims"][:limit]
        ],
        active=metrics["active"],
        blocked=metrics["blocked"],
        commits=metrics["commits"],
        sheds=metrics["sheds"],
        deadlocks=metrics["deadlocks"],
        admission_window=None,
        admission_queue=0,
        block_p50=metrics["block_p50"],
        block_p99=metrics["block_p99"],
        steps_since_commit=metrics["steps_since_commit"],
        live=True,
    )


def build_top(
    events: list[Event], at: int | None = None, limit: int = 5
) -> TopReport:
    """Fold the event prefix up to *at* (default: end of run)."""
    if at is None:
        at = max((event.step for event in events), default=0)
    window = [event for event in events if event.step <= at]

    # No more distinct keys than events, so the top-K counts are exact.
    aggregator = StreamingAggregator(capacity=max(1, len(window)))
    admission_window: int | None = None
    admission_queue = 0
    rungs: Counter = Counter()
    for event in window:
        aggregator(event)
        kind = event.kind
        if kind is EventKind.ADMISSION_WINDOW:
            value = event.data.get("window")
            admission_window = int(value) if isinstance(value, int) else None
        elif kind is EventKind.ADMISSION_SUBMIT:
            admission_queue += 1
        elif kind is EventKind.ADMISSION_ADMIT:
            admission_queue = max(0, admission_queue - 1)
        elif kind is EventKind.DEADLINE_RUNG:
            rungs[f"rung-{event.data.get('rung', '?')}"] += 1

    spans = build_spans(window)
    blocked_now = 0
    longest: list[tuple[str, int, str]] = []
    for txn in sorted(spans):
        for interval in spans[txn].intervals:
            if interval.kind != BLOCKED or interval.start > at:
                continue
            end = interval.end if interval.end is not None else at
            end = min(end, at)
            if end >= at > interval.start:
                blocked_now += 1
            longest.append((txn, end - interval.start, interval.cause))
    longest.sort(key=lambda item: (-item[1], item[0]))

    report = report_from_metrics(aggregator.metrics_obj(limit), limit)
    lost = aggregator.states_lost_by_victim.counts
    return replace(
        report,
        at=at,
        longest_blocked=longest[:limit],
        rollback_victims=[
            (txn, count, lost.get(txn, 0))
            for txn, count in report.rollback_victims
        ],
        blocked=blocked_now,
        admission_window=admission_window,
        admission_queue=admission_queue,
        deadline_rungs=rungs,
        live=False,
    )


def render_top(report: TopReport) -> str:
    """The dashboard as fixed-width terminal text."""
    lines = [
        f"repro top @ step {report.at}",
        "",
        f"active {report.active:>4}   blocked {report.blocked:>4}   "
        f"commits {report.commits:>4}   shed {report.sheds:>3}   "
        f"deadlocks {report.deadlocks:>4}",
        f"block p50/p99        {report.block_p50}/{report.block_p99} steps",
        f"steps since commit   {report.steps_since_commit}",
    ]
    if report.admission_window is not None:
        lines.append(
            f"admission window     {report.admission_window} "
            f"(queue ~{report.admission_queue})"
        )
    if report.deadline_rungs:
        rungs = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(report.deadline_rungs.items())
        )
        lines.append(f"deadline escalations {rungs}")
    lines.append("")
    lines.append("hottest entities (blocks)")
    for entity, count in report.hottest_entities or [("(none)", 0)]:
        lines.append(f"  {entity:<12} {count:>6}")
    if not report.live:
        lines.append("longest blocked (txn, steps, entity)")
        for txn, duration, entity in report.longest_blocked:
            lines.append(f"  {txn:<8} {duration:>6}  on {entity}")
        if not report.longest_blocked:
            lines.append("  (none)")
    lines.append(
        "rollback victims (txn, rollbacks)"
        if report.live
        else "rollback victims (txn, rollbacks, states lost)"
    )
    for txn, count, *lost in report.rollback_victims:
        lines.append(
            f"  {txn:<8} {count:>6}" + "".join(f"  {n:>6}" for n in lost)
        )
    if not report.rollback_victims:
        lines.append("  (none)")
    return "\n".join(lines)
