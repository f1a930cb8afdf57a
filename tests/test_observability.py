"""The observability layer: bus, recorder, spans, exporters, CLI verbs.

The load-bearing properties, in test order:

* bus mechanics — monotonic clock, never-resetting sequence numbers,
  per-kind routes, a NULL_BUS that wants nothing;
* non-interference — attaching a recorder must not change what the
  engine computes (same trace fingerprint and metrics with and without);
* determinism — recording the same scenario twice from the same seed
  yields byte-identical JSONL (the ``repro trace`` contract);
* span validity — no negative durations, every rolling-back interval
  carries its preemption cause;
* exporter schemas — Chrome ``trace_event`` shape, summary() JSON
  round-trip with the contention collections;
* CLI exit codes for ``repro trace`` / ``repro top``.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.observability.events import (
    NULL_BUS,
    Event,
    EventBus,
    EventKind,
    NullBus,
    events_of,
)
from repro.observability.export import (
    JsonlStreamSink,
    event_lines,
    fingerprint,
    graph_snapshots,
    to_chrome,
    to_jsonl,
)
from repro.observability.scenarios import SCENARIOS, record_scenario
from repro.observability.spans import (
    ROLLING_BACK,
    build_spans,
    preemption_links,
    validate_spans,
)
from repro.observability.streaming import LogHistogram, StreamingAggregator
from repro.observability.top import build_top, render_top, report_from_metrics
from repro.service import protocol

#: One recording per scenario per module run — the expensive fixture.
_CACHE = {}

#: Seed for tests that need *a* recording of the default ``run``
#: scenario: it commits all ten transactions in 458 steps.  Seed 39 of
#: the same scenario is Figure 2's livelock (20 000 steps without a
#: commit) and is recorded exactly once, by
#: ``test_run_seed_39_is_figure2_livelock``.
RUN_SEED = 0


def recorded(name, seed=7):
    key = (name, seed)
    if key not in _CACHE:
        _CACHE[key] = record_scenario(name, seed=seed)
    return _CACHE[key]


# -- bus mechanics -----------------------------------------------------------


class _Only:
    """A recording sink that declares the kinds it takes."""

    def __init__(self, *kinds):
        self.kinds = frozenset(kinds)
        self.events = []

    def __call__(self, event):
        self.events.append(event)


class TestEventBus:
    def test_publish_stamps_step_and_monotonic_seq(self):
        bus = EventBus()
        kept = []
        bus.subscribe(kept.append)
        bus.advance(3)
        bus.publish(EventKind.LOCK_GRANT, "T1", entity="x")
        bus.publish(EventKind.LOCK_BLOCK, "T2", entity="x")
        first, second = kept
        assert (first.step, second.step) == (3, 3)
        assert second.seq == first.seq + 1

    def test_advance_ignores_late_clock(self):
        bus = EventBus()
        kept = []
        bus.subscribe(kept.append)
        bus.advance(5)
        bus.advance(2)  # late: must not rewind
        bus.publish(EventKind.STEP)
        assert [e.step for e in kept] == [5]

    def test_sinks_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("a"))
        bus.subscribe(lambda e: order.append("b"))
        bus.publish(EventKind.STEP)
        assert order == ["a", "b"]

    def test_null_bus_wants_nothing_and_is_inert(self):
        assert isinstance(NULL_BUS, NullBus)
        assert not any(NULL_BUS.wants(kind) for kind in EventKind)
        assert NULL_BUS.publish(EventKind.STEP) is None
        NULL_BUS.advance(10)  # no-op, no error
        with pytest.raises(ValueError):
            NULL_BUS.subscribe(lambda e: None)

    def test_sink_with_kinds_gets_exactly_those_in_subscription_order(self):
        bus = EventBus()
        log = []

        def sink(name, *kinds):
            def record(event):
                log.append((name, event.kind))

            if kinds:
                record.kinds = frozenset(kinds)
            return record

        bus.subscribe(sink("grants", EventKind.LOCK_GRANT))
        bus.subscribe(sink("all"))
        bus.subscribe(sink("both", EventKind.LOCK_GRANT, EventKind.ROLLBACK))
        for kind in (EventKind.STEP, EventKind.LOCK_GRANT, EventKind.ROLLBACK):
            bus.publish(kind, "T1")
        assert log == [
            ("all", EventKind.STEP),
            ("grants", EventKind.LOCK_GRANT),
            ("all", EventKind.LOCK_GRANT),
            ("both", EventKind.LOCK_GRANT),
            ("all", EventKind.ROLLBACK),
            ("both", EventKind.ROLLBACK),
        ]

    def test_unrouted_events_consume_a_seq(self):
        bus = EventBus()
        sink = _Only(EventKind.ROLLBACK)
        bus.subscribe(sink)
        assert bus.publish(EventKind.STEP) is None  # nobody takes it
        assert not bus.wants(EventKind.LOCK_GRANT)  # guarded, not built
        assert bus.wants(EventKind.ROLLBACK)
        bus.publish(EventKind.ROLLBACK, "T1")
        assert [e.seq for e in sink.events] == [2]
        assert bus.seq == 3

    def test_unsubscribe_reroutes(self):
        bus = EventBus()
        sink = _Only(EventKind.ROLLBACK)
        bus.subscribe(sink)
        assert bus.wants(EventKind.ROLLBACK)
        bus.unsubscribe(sink)
        assert not bus.wants(EventKind.ROLLBACK)
        bus.subscribe(sink.events.append)  # no ``kinds``: every kind
        assert all(bus.wants(kind) for kind in EventKind)

    def test_events_of_filters_by_kind(self):
        bus = EventBus()
        kept = []
        bus.subscribe(kept.append)
        bus.publish(EventKind.STEP)
        bus.publish(EventKind.ROLLBACK, "T1")
        rollbacks = list(events_of(kept, EventKind.ROLLBACK))
        assert [e.txn for e in rollbacks] == ["T1"]


# -- non-interference --------------------------------------------------------


def _bare_run(seed):
    from repro.core.scheduler import Scheduler
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.interleaving import RandomInterleaving
    from repro.simulation.workload import WorkloadConfig, generate_workload

    database, programs = generate_workload(
        WorkloadConfig(
            n_transactions=10,
            n_entities=6,
            locks_per_txn=(2, 4),
            write_ratio=1.0,
            skew="hotspot",
        ),
        seed=seed,
    )
    scheduler = Scheduler(database, strategy="mcs", policy="min-cost")
    engine = SimulationEngine(
        scheduler,
        RandomInterleaving(seed=seed),
        max_steps=200_000,
        livelock_window=20_000,
    )
    for program in programs:
        engine.add(program)
    return engine.run()


def test_recorder_does_not_change_the_run():
    """The observer must not perturb: same workload with and without the
    bus attached produces the same trace and the same metrics."""
    bare = _bare_run(seed=7)
    _recorder, context = recorded("run", seed=7)
    assert context["steps"] == bare.steps
    assert context["committed"] == bare.committed
    assert context["metrics"] == bare.metrics.summary()


def test_recorded_trace_matches_bare_trace():
    bare = _bare_run(seed=7)
    recorder, _context = recorded("run", seed=7)
    steps = [e for e in recorder.events if e.kind is EventKind.STEP]
    assert len(steps) == len(bare.trace)
    assert [e.step for e in steps] == [t.step for t in bare.trace]


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_same_seed_is_byte_identical(scenario):
    seed = RUN_SEED if scenario == "run" else 3
    first, _ = record_scenario(scenario, seed=seed)
    second, _ = record_scenario(scenario, seed=seed)
    assert to_jsonl(first.events) == to_jsonl(second.events)
    assert fingerprint(first.events) == fingerprint(second.events)


def test_run_seed_39_is_figure2_livelock():
    """The default scenario at seed 39 stops committing after three
    transactions: mutual preemption under ``min-cost`` (the paper's
    Figure 2).  Pinned so the run is known as a livelock, not passed over
    by tests that only check an exit code.  (Which seed livelocks depends
    on how equal-cost victims tie-break; it was seed 3 while ties went to
    the lexicographically first transaction id.)"""
    _recorder, context = record_scenario("run", seed=39)
    assert context["livelock"] is True
    assert context["committed"] == ["T005", "T008", "T002"]
    assert context["steps"] == 20_097


def test_different_seeds_diverge():
    first, _ = recorded("run", seed=7)
    second, _ = record_scenario("run", seed=8)
    assert fingerprint(first.events) != fingerprint(second.events)


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        record_scenario("nope", seed=0)


# -- span validity -----------------------------------------------------------


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_span_timelines_validate(scenario):
    recorder, _context = recorded(scenario)
    spans = build_spans(recorder.events)
    assert spans, "scenario produced no transaction spans"
    assert validate_spans(spans) == []


def test_every_rollback_interval_has_a_cause():
    recorder, _context = recorded("run")
    spans = build_spans(recorder.events)
    rollback_intervals = [
        interval
        for span in spans.values()
        for interval in span.intervals
        if interval.kind == ROLLING_BACK
    ]
    assert rollback_intervals, "run scenario produced no rollbacks"
    for interval in rollback_intervals:
        assert interval.cause
        assert interval.cause_seq >= 0


def test_no_negative_durations():
    recorder, _context = recorded("overload")
    for span in build_spans(recorder.events).values():
        if span.end is not None:
            assert span.end >= span.start
        for interval in span.intervals:
            if interval.end is not None:
                assert interval.duration >= 0


def test_preemption_links_name_both_sides():
    recorder, _context = recorded("run")
    links = preemption_links(build_spans(recorder.events))
    assert links
    assert any(victim != by for victim, by, _seq in links)


# -- exporters ---------------------------------------------------------------


def test_jsonl_lines_are_sorted_key_objects():
    recorder, _context = recorded("run")
    lines = to_jsonl(recorder.events).splitlines()
    assert len(lines) == len(recorder.events)
    for line in lines[:20]:
        obj = json.loads(line)
        assert list(obj) == sorted(obj)
        assert {"kind", "step", "seq"} <= set(obj)


def test_chrome_export_schema():
    recorder, _context = recorded("run")
    document = json.loads(json.dumps(to_chrome(recorder.events)))
    assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = document["traceEvents"]
    assert events
    for entry in events:
        assert entry["ph"] in ("M", "X", "i")
        assert {"name", "pid", "tid"} <= set(entry)
        if entry["ph"] == "X":
            assert entry["dur"] >= 1
            assert entry["ts"] >= 0
        if entry["ph"] == "i":
            assert entry["s"] in ("t", "g")
    # one timeline row (thread_name metadata) per transaction span
    rows = [e for e in events if e["name"] == "thread_name"]
    assert len(rows) == len(build_spans(recorder.events))


def test_graph_snapshots_render_dot():
    recorder, _context = recorded("run")
    snapshots = graph_snapshots(recorder.events)
    assert snapshots
    for step, dot in snapshots:
        assert step >= 0
        assert dot.startswith("digraph")


def test_metrics_summary_full_schema():
    """summary() is the documented JSON contract: every key present,
    the whole object round-trippable, collections in sorted order."""
    _recorder, context = recorded("run")
    summary = context["metrics"]
    assert json.loads(json.dumps(summary)) == summary
    expected = {
        "ops_executed", "locks_granted", "blocks", "deadlocks",
        "rollbacks", "partial_rollbacks", "total_rollbacks",
        "states_lost", "overshoot_states", "mean_states_lost", "commits",
        "copies_peak", "storage_faults", "degraded_restarts",
        "backoff_stalls", "restart_escalations", "admitted", "shed",
        "admission_queue_peak", "deadline_expiries", "deadline_partials",
        "deadline_restarts", "timeout_rollbacks",
        "unavailable_stalls", "replica_catchups", "stale_write_skips",
        "rollbacks_by_victim",
        "hottest_entities", "mutual_preemption_pairs",
    }
    assert set(summary) == expected
    victims = summary["rollbacks_by_victim"]
    assert list(victims) == sorted(victims)
    assert sum(victims.values()) == summary["rollbacks"]
    for entity, count in summary["hottest_entities"]:
        assert isinstance(entity, str) and count >= 1
    for pair in summary["mutual_preemption_pairs"]:
        assert len(pair) == 2 and pair == sorted(pair)


# -- time series and top -----------------------------------------------------


def test_percentile_nearest_rank():
    # Block percentiles are nearest-rank over log2 bucket upper bounds.
    assert LogHistogram().quantile(0.99) == 0
    one = LogHistogram()
    one.add(5)
    assert one.quantile(0.50) == 7
    hundred = LogHistogram()
    for value in range(1, 101):
        hundred.add(value)
    assert hundred.quantile(0.50) == 63  # rank 50 holds 50, in [32, 63]
    assert hundred.quantile(0.99) == 127  # rank 99 holds 99, in [64, 127]


def test_timeseries_windows_cover_the_run():
    recorder, context = recorded("run")
    aggregator = StreamingAggregator(window_steps=50)
    for event in recorder.events:
        aggregator(event)
    series = aggregator.timeseries_obj()
    windows = series["windows"]
    assert windows
    assert windows[-1]["step"] >= context["steps"] - 1
    assert sum(w["commits"] for w in windows) == len(context["committed"])
    assert series["block_p99"] >= series["block_p50"] >= 0


def test_top_report_is_consistent_and_renders():
    recorder, context = recorded("overload")
    report = build_top(recorder.events, limit=3)
    assert report.commits == context["committed"]
    assert report.active == 0  # everything terminated by end of run
    assert len(report.hottest_entities) <= 3
    obj = json.loads(json.dumps(report.to_obj()))
    assert obj["commits"] == report.commits
    text = render_top(report)
    assert "hottest entities" in text
    assert f"repro top @ step {report.at}" in text


def test_top_mid_run_sees_live_state():
    recorder, context = recorded("overload")
    report = build_top(recorder.events, at=context["steps"] // 2)
    assert report.commits < context["committed"]
    assert report.active > 0


def test_live_top_renders_a_metrics_snapshot():
    # ``top --follow`` draws the ``metrics`` verb through render_top,
    # omitting what a snapshot does not carry.
    aggregator = StreamingAggregator()
    for event in recorded("overload")[0].events:
        aggregator(event)
    metrics = aggregator.metrics_obj()
    text = render_top(report_from_metrics(metrics, limit=3))
    assert text.startswith(f"repro top @ step {metrics['step']}\n")
    assert f"steps since commit   {metrics['steps_since_commit']}" in text
    assert "rollback victims (txn, rollbacks)\n" in text
    assert "longest blocked" not in text


# -- CLI ---------------------------------------------------------------------


def test_cli_trace_smoke_exits_zero(capsys):
    assert main(["trace", "--smoke", "--seed", str(RUN_SEED)]) == 0
    out = capsys.readouterr().out
    assert "deterministic        True" in out
    assert "span errors          0" in out


def test_cli_trace_jsonl_to_file(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    assert main(
        ["trace", "--seed", str(RUN_SEED), "--out", str(out_file)]
    ) == 0
    capsys.readouterr()
    lines = out_file.read_text().splitlines()
    assert lines
    json.loads(lines[0])


def test_cli_trace_chrome_stdout(capsys):
    assert main(["trace", "--seed", str(RUN_SEED), "--format", "chrome"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["traceEvents"]


def test_cli_trace_summary(capsys):
    assert main(["trace", "--seed", str(RUN_SEED), "--format", "summary"]) == 0
    out = capsys.readouterr().out
    assert "fingerprint" in out
    assert "block p50/p99" in out


def test_cli_top(capsys):
    assert main(["top", "--seed", str(RUN_SEED)]) == 0
    assert "repro top @ step" in capsys.readouterr().out


def test_cli_top_json(capsys):
    assert main(["top", "--seed", str(RUN_SEED), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "hottest_entities" in obj


# -- crash-safe streaming ----------------------------------------------------


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, default=str)


#: Non-ASCII included; no surrogates, which a UTF-8 file cannot hold.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
#: JSON values, nested, plus values only ``default=str`` can encode.
_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | _TEXT
    | st.decimals(allow_nan=False)
    | st.sampled_from(list(EventKind))
    | st.frozensets(st.integers(), max_size=1),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=12,
)
_DATA = st.dictionaries(_TEXT, _VALUES, max_size=4)
_EVENTS = st.lists(
    st.builds(
        Event,
        st.integers(0, 2**40),
        st.integers(0, 2**40),
        st.sampled_from(list(EventKind)),
        _TEXT,
        _DATA,
    ),
    max_size=4,
)


class TestSameBytes:
    """The one line builder and the wire encoder write exactly the bytes
    ``json.dumps(..., sort_keys=True, default=str)`` writes."""

    @given(_EVENTS)
    def test_sink_lines_equal_event_lines_and_json_dumps(self, events):
        expected = [_dumps(event.to_obj()) for event in events]
        assert event_lines(events) == expected
        assert to_jsonl(events) == "".join(line + "\n" for line in expected)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.jsonl"
            with JsonlStreamSink(path) as sink:
                for event in events:
                    sink(event)
            assert path.read_text() == to_jsonl(events)

    @given(_DATA)
    def test_wire_frame_equals_json_dumps(self, obj):
        assert protocol.encode(obj) == (_dumps(obj) + "\n").encode()

    def test_event_data_defaults_to_a_fresh_dict(self):
        first, second = Event(0, 0, EventKind.STEP), Event(1, 0, EventKind.STEP)
        assert first.data == {} and first.data is not second.data
        with pytest.raises(AttributeError):
            first.seq = 5


class TestJsonlStreaming:
    """Flush-on-write streaming: a killed process loses at most the event
    being written, and the on-disk bytes match the canonical export."""

    def test_stream_matches_canonical_export(self, tmp_path):
        from repro.observability.export import read_events_jsonl
        from repro.observability.recorder import RunRecorder

        path = tmp_path / "stream.jsonl"
        recorder = RunRecorder(stream_to=path)
        recorder.bus.publish(EventKind.STEP)
        recorder.bus.publish(EventKind.LOCK_GRANT, "T1", entity="x")
        # Flush-on-write: the file is complete *before* close.
        assert path.read_text() == to_jsonl(recorder.events)
        recorder.close()
        loaded = read_events_jsonl(path)
        assert loaded == recorder.events

    def test_append_stitches_restart_segments(self, tmp_path):
        from repro.observability.export import read_events_jsonl
        from repro.observability.recorder import RunRecorder

        path = tmp_path / "stream.jsonl"
        first = RunRecorder(stream_to=path)
        first.bus.publish(EventKind.STEP)
        first.close()
        second = RunRecorder(stream_to=path, append=True)
        second.bus.publish(EventKind.WAL_RECOVER, data_field=1)
        second.close()
        kinds = [event.kind for event in read_events_jsonl(path)]
        assert kinds == [EventKind.STEP, EventKind.WAL_RECOVER]

    def test_torn_final_line_is_skipped(self, tmp_path):
        from repro.observability.export import read_events_jsonl
        from repro.observability.recorder import RunRecorder

        path = tmp_path / "stream.jsonl"
        recorder = RunRecorder(stream_to=path)
        recorder.bus.publish(EventKind.STEP)
        recorder.bus.publish(EventKind.TXN_COMMIT, "T1")
        recorder.close()
        # Simulate a kill -9 mid-write: truncate inside the last line.
        torn = path.read_text()[:-10]
        path.write_text(torn)
        loaded = read_events_jsonl(path)
        assert [event.kind for event in loaded] == [EventKind.STEP]

    def test_corrupt_interior_line_raises(self, tmp_path):
        from repro.observability.export import read_events_jsonl

        path = tmp_path / "stream.jsonl"
        path.write_text('{"bad json\n{"seq": 0}\n')
        with pytest.raises(json.JSONDecodeError):
            read_events_jsonl(path)

    def test_recorder_without_stream_has_no_sink(self):
        from repro.observability.recorder import RunRecorder

        recorder = RunRecorder()
        assert recorder.stream is None
        recorder.close()  # no-op, must not raise
