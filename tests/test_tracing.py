"""Cross-site causal stitching tests.

Covers the tracing story of ``docs/OBSERVABILITY.md``: the Lamport
clocks the distributed message log stamps on every send,
:func:`build_spans` stitching a recorded distributed run into one
cross-site drill-down per transaction whose rollback cause links name
the site boundary the wound crossed, and the service core's replies and
``metrics`` verb.
"""

import json

from repro.distributed.network import MessageLog, MessageType
from repro.observability.events import Event, EventKind
from repro.observability.spans import build_spans, render_trace
from repro.observability.streaming import render_prometheus
from repro.service.core import ServiceCore
from repro.storage.database import Database


def test_message_log_stamps_lamport_clocks():
    log = MessageLog()
    log.send(0, 1, MessageType.LOCK_REQUEST, "T1", "e0")
    log.send(1, 2, MessageType.WOUND, "T2")
    assert [m.lclock for m in log.messages] == [1, 3]
    # Send ticks the sender; delivery merges the receiver past it.
    assert log.clock(0) == 1
    assert log.clock(1) == 3  # merged to 2 by delivery, ticked to 3
    assert log.clock(2) == 4
    log.send(0, 0, MessageType.UNLOCK, "T1")  # local: not stamped
    assert log.clock(0) == 1


# ---------------------------------------------------------------------------
# Stitching a recorded distributed run
# ---------------------------------------------------------------------------


def _message(seq, step, txn, payload, sender, receiver):
    return Event(
        seq=seq, step=step, kind=EventKind.MESSAGE_SEND, txn=txn,
        data={"message": payload, "sender": sender, "receiver": receiver},
    )


def _admit(seq, txn):
    return Event(seq=seq, step=0, kind=EventKind.TXN_ADMIT, txn=txn)


def test_infer_home_sites_direction_rules():
    events = [
        _admit(0, "T1"),
        _message(1, 0, "T1", "lock-request", 2, 0),  # sender-homed
        _admit(2, "T2"),
        _message(3, 0, "T2", "wound", 0, 4),         # receiver-homed
        _message(4, 1, "T1", "wound", 3, 9),         # first wins
    ]
    spans = build_spans(events)
    assert {txn: span.home_site for txn, span in spans.items()} == {
        "T1": 2, "T2": 4,
    }
    # A row that is not a message sits at its transaction's home site.
    assert [row.site for row in spans["T1"].rows] == [2, 2, 3]


def test_home_site_is_known_before_its_first_message():
    # Home sites are first-observation-wins over the whole stream, so
    # rows recorded before the first message are still attributed.
    events = [
        _admit(0, "T1"),
        _message(1, 2, "T1", "lock-request", 3, 0),
    ]
    span = build_spans(events)["T1"]
    assert span.rows[0].site == 3
    assert span.trace_obj()["sites"] == [0, 3]


def test_cross_site_rollback_cause_link():
    events = [
        _message(0, 0, "T1", "lock-request", 1, 0),
        _message(1, 5, "T1", "wound", 4, 1),
        Event(seq=2, step=5, kind=EventKind.ROLLBACK, txn="T1",
              data={"requester": "T9", "target": 2, "states_lost": 3}),
        Event(seq=3, step=9, kind=EventKind.TXN_COMMIT, txn="T1",
              data={}),
    ]
    spans = build_spans(events)
    trace = spans["T1"]
    rollback = [e for e in trace.rows if e.kind == "rollback"][0]
    assert rollback.cause_seq == 1
    assert (rollback.site, rollback.to_site) == (4, 1)
    assert trace.cross_site_rollbacks() == [rollback]
    assert trace.outcome == "committed"
    rendering = render_trace(trace)
    assert "wound crossed site 4 -> site 1" in rendering
    assert "<- seq 1" in rendering
    # The requester's drill-down shows whom it preempted, at the
    # victim's home site.
    events.append(Event(seq=4, step=9, kind=EventKind.TXN_COMMIT,
                        txn="T9", data={}))
    spans = build_spans(events)
    preempted = spans["T9"].rows[:1]
    assert [(row.seq, row.site) for row in preempted] == [(2, 1)]
    assert preempted[0].detail == (
        "preempted T1: partial rollback to state 2 (3 states lost)"
    )
    assert spans["T9"].cross_site_rollbacks() == []


def test_rows_before_the_span_opens_are_kept():
    # An admission queue names a transaction before it is admitted: the
    # span (and its intervals) start at admission, the drill-down at
    # the first row.
    events = [
        Event(seq=0, step=1, kind=EventKind.ADMISSION_SUBMIT, txn="T1",
              data={"queue": 1}),
        Event(seq=1, step=7, kind=EventKind.TXN_ADMIT, txn="T1"),
    ]
    span = build_spans(events)["T1"]
    assert span.start == 7
    assert [row.seq for row in span.rows] == [0, 1]
    assert span.trace_obj()["start"] == 1
    assert span.rows[0].detail == "queue=1"


def test_distributed_scenario_has_cross_site_rollback_timeline():
    from repro.observability.scenarios import record_scenario

    recorder, context = record_scenario("distributed", seed=0)
    assert context["cross_site_rollbacks"] > 0
    spans = build_spans(recorder.events)
    crossing = [
        txn for txn in sorted(spans) if spans[txn].cross_site_rollbacks()
    ]
    assert crossing  # at least one victim wounded across a site link
    assert context["cross_site_rollbacks"] == sum(
        len(spans[txn].cross_site_rollbacks()) for txn in crossing
    )
    trace = spans[crossing[0]]
    rollback = trace.cross_site_rollbacks()[0]
    # The cause link resolves back to the wound message that crossed
    # the boundary, and the rendering shows it end to end.
    cause = next(
        e for e in recorder.events if e.seq == rollback.cause_seq
    )
    assert cause.kind is EventKind.MESSAGE_SEND
    assert cause.data["message"] == "wound"
    assert cause.data["sender"] != cause.data["receiver"]
    rendering = render_trace(trace)
    assert "wound crossed site" in rendering
    assert f"<- seq {rollback.cause_seq}" in rendering


def test_txn_trace_is_same_seed_stable():
    from repro.observability.scenarios import record_scenario

    first, _ = record_scenario("distributed", seed=3)
    second, _ = record_scenario("distributed", seed=3)
    spans_a, spans_b = build_spans(first.events), build_spans(second.events)
    for txn in sorted(spans_a)[:3]:
        a = spans_a[txn].trace_obj()
        b = spans_b[txn].trace_obj()
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )


# ---------------------------------------------------------------------------
# Service integration: verbs, determinism
# ---------------------------------------------------------------------------


def _trace(trace_id, span, clock, parent=""):
    return {"id": trace_id, "span": span, "parent": parent,
            "site": -1, "clock": clock}


def _script():
    """One transaction's request sequence as an earlier client sent it,
    with a ``trace`` dict on every request."""
    return [
        {"rid": "c.1.0", "verb": "begin",
         "trace": _trace("c.1", "c.1.0", 1)},
        {"rid": "c.2.0", "verb": "lock", "txn": "T1", "entity": "e000",
         "trace": _trace("c.1", "c.2.0", 3)},
        {"rid": "c.3.0", "verb": "write", "txn": "T1", "entity": "e000",
         "value": 7, "trace": _trace("c.1", "c.3.0", 5)},
        {"rid": "c.4.0", "verb": "status", "txn": "T1",
         "trace": _trace("c.1", "c.4.0", 7)},
        {"rid": "c.5.0", "verb": "commit", "txn": "T1",
         "trace": _trace("c.1", "c.5.0", 9)},
        {"rid": "c.6.0", "verb": "metrics",
         "trace": _trace("c.6", "c.6.0", 11)},
        {"rid": "c.7.0", "verb": "status",
         "trace": _trace("c.7", "c.7.0", 13)},
    ]


def _drive(core, requests):
    replies = []
    for request in requests:
        reply, completions = core.handle(dict(request))
        if reply is not None:
            replies.append(reply)
        replies.extend(done for _, done in completions)
    return replies


def _core():
    return ServiceCore(Database({"e000": 0, "e001": 0}))


def test_service_metrics_verb_reads_live_telemetry():
    core = _core()
    replies = {r["rid"]: r for r in _drive(core, _script())}
    metrics = replies["c.6.0"]
    assert metrics["ok"] and metrics["verb"] == "metrics"
    assert metrics["commits"] == 1
    assert metrics["events"] > 0
    assert "block_histogram" in metrics
    # The verb reads the same aggregator Prometheus exposition renders.
    exposition = render_prometheus(core.telemetry.metrics_obj())
    assert "repro_commits_total 1" in exposition


def test_service_replies_are_same_seed_deterministic():
    script = _script()
    first = _drive(_core(), script)
    second = _drive(_core(), script)
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    # The journal is the causal record: no reply echoes a trace.
    assert all("trace" not in reply for reply in first)


def test_service_untraced_requests_still_work():
    core = _core()
    replies = _drive(core, [
        {"rid": "r1", "verb": "begin"},
        {"rid": "r2", "verb": "status"},
    ])
    assert all(reply["ok"] for reply in replies)
    assert all("trace" not in reply for reply in replies)
