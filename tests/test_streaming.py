"""Differential and bounded-memory tests for the streaming telemetry.

The contract under test (see ``docs/OBSERVABILITY.md``):

* :class:`~repro.observability.streaming.StreamingAggregator` folded
  over any event stream produces **byte-identical** JSON to
  :func:`reference`, a test-local recomputation that shares no code
  with the fold: each window's gauges and deltas come from a direct
  scan of the raw list, and block p50/p99 from :func:`nearest_rank` over
  bucket-rounded durations — checked on the named scenarios and on
  hypothesis-generated streams;
* offline ``repro top`` reads the same fold as the live ``metrics``
  verb;
* its tracked state is bounded by the live population (windows
  excluded), independent of how many events flow through — checked on a
  million-event synthetic run;
* the sketches are exact in their exact regime: the log histogram's
  quantile matches the nearest-rank percentile over bucket upper
  bounds, and space-saving counts are exact while distinct keys fit.
"""

import json
from bisect import bisect_left, bisect_right

import pytest

from repro.observability.events import Event, EventKind
from repro.observability.streaming import (
    LogHistogram,
    SpaceSavingTopK,
    StreamingAggregator,
    render_prometheus,
)

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

_SETTLES = (
    EventKind.LOCK_GRANT,
    EventKind.ROLLBACK,
    EventKind.TXN_COMMIT,
    EventKind.TXN_SHED,
)


def fold(events, window_steps=50):
    aggregator = StreamingAggregator(window_steps=window_steps)
    for event in events:
        aggregator(event)
    return aggregator


def histogram_of(values):
    histogram = LogHistogram()
    for value in values:
        histogram.add(value)
    return histogram


def nearest_rank(values, percent):
    """The value at rank ceil(percent/100 * n) of the sorted sample."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = -(-len(ordered) * percent // 100)
    return ordered[max(rank, 1) - 1]


def bucket_round(duration):
    """A duration's log2 bucket upper bound: 0, 1, 3, 7, 15, ..."""
    return (1 << duration.bit_length()) - 1


def block_durations(events):
    """Per transaction: a block runs from its first LOCK_BLOCK to the
    next grant, rollback, commit or shed; one still open ends at the
    last step."""
    last = events[-1].step if events else 0
    durations = []
    for txn in sorted({event.txn for event in events}):
        since = None
        for event in events:
            if event.txn != txn:
                continue
            if event.kind is EventKind.LOCK_BLOCK and since is None:
                since = event.step
            elif event.kind in _SETTLES and since is not None:
                durations.append(event.step - since)
                since = None
        if since is not None:
            durations.append(last - since)
    return durations


def gauges(prefix):
    """Active, blocked and waits-for edges after *prefix*."""
    started = {
        event.txn
        for event in prefix
        if event.txn
        and event.kind in (EventKind.TXN_ADMIT, EventKind.STEP)
    }
    finished = {
        event.txn
        for event in prefix
        if event.kind in (EventKind.TXN_COMMIT, EventKind.TXN_SHED)
    }
    last_settle = {}
    for event in prefix:
        if event.kind is EventKind.LOCK_BLOCK or event.kind in _SETTLES:
            last_settle[event.txn] = event.kind
    samples = [
        event.data["wf_edges"]
        for event in prefix
        if event.kind is EventKind.SAMPLE
    ]
    return {
        "active": len(started - finished),
        "blocked": sum(
            kind is EventKind.LOCK_BLOCK for kind in last_settle.values()
        ),
        "wf_edges": samples[-1] if samples else 0,
    }


def reference(events, window_steps=50):
    """What ``timeseries_obj()`` must say about *events* (steps are
    non-decreasing), recomputed window by window from the raw list:
    gauges over every event up to the window's close, deltas over the
    window's own events."""
    steps = [event.step for event in events]
    by_prefix = {}  # consecutive empty windows share one prefix
    windows = []
    for window in range(steps[-1] // window_steps + 1 if steps else 0):
        start = window * window_steps
        close = min(start + window_steps - 1, steps[-1])
        end = bisect_right(steps, close)
        if end not in by_prefix:
            by_prefix[end] = gauges(events[:end])
        inside = events[bisect_left(steps, start):end]
        rollbacks = [e for e in inside if e.kind is EventKind.ROLLBACK]
        windows.append({
            "window": window,
            "step": close,
            **by_prefix[end],
            "rollbacks": len(rollbacks),
            "states_lost": sum(e.data["states_lost"] for e in rollbacks),
            "commits": sum(e.kind is EventKind.TXN_COMMIT for e in inside),
        })
    rounded = [bucket_round(d) for d in block_durations(events)]
    return {
        "window_steps": window_steps,
        "windows": windows,
        "block_p50": nearest_rank(rounded, 50),
        "block_p99": nearest_rank(rounded, 99),
        "block_count": len(rounded),
        "peak_active": max((w["active"] for w in windows), default=0),
        "peak_blocked": max((w["blocked"] for w in windows), default=0),
        "peak_wf_edges": max((w["wf_edges"] for w in windows), default=0),
    }


def assert_identical(events, window_steps=50):
    streamed = fold(events, window_steps).timeseries_obj()
    expected = reference(events, window_steps=window_steps)
    assert json.dumps(streamed, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


# ---------------------------------------------------------------------------
# The sketches in their exact regime
# ---------------------------------------------------------------------------


class TestLogHistogram:
    def test_bucketing(self):
        histogram = LogHistogram()
        for value in (0, 1, 2, 3, 4, 7, 8, 1023, 1024):
            histogram.add(value)
        # 0 -> bucket 0; [2^(b-1), 2^b - 1] -> bucket b.
        assert histogram.buckets == {
            0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1,
        }
        assert histogram.count == 9

    def test_quantile_matches_nearest_rank_on_upper_bounds(self):
        # Replacing every value by its bucket upper bound, the histogram
        # quantile IS the nearest-rank percentile — the exactness the
        # batch/streaming equivalence relies on.
        values = [0, 1, 1, 2, 3, 5, 9, 17, 170, 1000]
        histogram = histogram_of(values)
        rounded = [bucket_round(v) for v in values]
        for percent in (0, 25, 50, 90, 99, 100):
            assert histogram.quantile(percent / 100) == nearest_rank(
                rounded, percent
            )

    def test_empty(self):
        assert LogHistogram().quantile(0.99) == 0

    def test_copy_is_independent(self):
        histogram = histogram_of([1, 2, 3])
        clone = histogram.copy()
        clone.add(100)
        assert histogram.count == 3 and clone.count == 4


class TestSpaceSavingTopK:
    def test_exact_within_capacity(self):
        sketch = SpaceSavingTopK(capacity=4)
        for key in "aabbbcdddd":
            sketch.add(key)
        assert sketch.exact
        assert sketch.top() == [("d", 4), ("b", 3), ("a", 2), ("c", 1)]

    def test_eviction_is_deterministic_and_bounded(self):
        sketch = SpaceSavingTopK(capacity=2)
        for key in ("a", "a", "b", "c"):
            sketch.add(key)
        # "b" (count 1) is the unique minimum and is evicted; "c"
        # inherits its floor.
        assert set(sketch.counts) == {"a", "c"}
        assert sketch.counts["c"] == 2 and sketch.errors["c"] == 1
        assert not sketch.exact
        assert len(sketch.counts) <= 2

    def test_heavy_hitter_survives_noise(self):
        sketch = SpaceSavingTopK(capacity=4)
        for i in range(100):
            sketch.add("hot")
            sketch.add(f"noise{i}")
        assert sketch.top(1)[0][0] == "hot"


# ---------------------------------------------------------------------------
# Differential: the fold == a direct scan of the raw list, byte for byte
# ---------------------------------------------------------------------------

_SCENARIO_SEEDS = [("run", 0), ("chaos", 1), ("overload", 2),
                   ("distributed", 0)]


@pytest.mark.parametrize("scenario,seed", _SCENARIO_SEEDS)
def test_scenarios_fold_identically(scenario, seed):
    from repro.observability.scenarios import record_scenario

    recorder, _ = record_scenario(scenario, seed=seed)
    assert_identical(recorder.events)
    assert_identical(recorder.events, window_steps=7)


_KINDS = (
    EventKind.TXN_ADMIT,
    EventKind.STEP,
    EventKind.TXN_COMMIT,
    EventKind.TXN_SHED,
    EventKind.LOCK_BLOCK,
    EventKind.LOCK_GRANT,
    EventKind.ROLLBACK,
    EventKind.SAMPLE,
    EventKind.DEADLOCK,
    EventKind.MESSAGE_SEND,
)


@st.composite
def event_streams(draw):
    """Arbitrary-ish streams: monotone steps, small txn/entity pools."""
    n = draw(st.integers(min_value=0, max_value=120))
    step = 0
    events = []
    for seq in range(n):
        step += draw(st.integers(min_value=0, max_value=40))
        kind = draw(st.sampled_from(_KINDS))
        txn = draw(st.sampled_from(["", "T1", "T2", "T3", "T4"]))
        data = {}
        if kind is EventKind.ROLLBACK:
            data["states_lost"] = draw(
                st.integers(min_value=0, max_value=9)
            )
        elif kind is EventKind.SAMPLE:
            data["wf_edges"] = draw(st.integers(min_value=0, max_value=9))
        elif kind is EventKind.LOCK_BLOCK:
            data["entity"] = draw(st.sampled_from(["e0", "e1", "e2"]))
        elif kind is EventKind.MESSAGE_SEND:
            data["sender"] = draw(st.integers(min_value=0, max_value=3))
            data["receiver"] = draw(st.integers(min_value=0, max_value=3))
        events.append(Event(seq=seq, step=step, kind=kind, txn=txn,
                            data=data))
    return events


@given(events=event_streams(),
       window_steps=st.integers(min_value=1, max_value=60))
@settings(max_examples=150, deadline=None)
def test_streaming_equals_batch_on_random_streams(events, window_steps):
    assert_identical(events, window_steps=window_steps)


def test_snapshot_is_non_destructive():
    from repro.observability.scenarios import record_scenario

    recorder, _ = record_scenario("run", seed=0)
    events = recorder.events
    aggregator = StreamingAggregator()
    mid = len(events) // 2
    for event in events[:mid]:
        aggregator(event)
    aggregator.timeseries_obj()  # live read mid-stream
    aggregator.metrics_obj()
    for event in events[mid:]:
        aggregator(event)
    assert json.dumps(
        aggregator.timeseries_obj(), sort_keys=True
    ) == json.dumps(reference(events), sort_keys=True)


@pytest.mark.parametrize("scenario,seed", _SCENARIO_SEEDS)
def test_offline_top_reads_the_live_fold(scenario, seed):
    """``repro top`` on a recording shows what the ``metrics`` verb of a
    server that published the same stream would."""
    from repro.observability.scenarios import record_scenario
    from repro.observability.top import build_top

    recorder, _ = record_scenario(scenario, seed=seed)
    report = build_top(recorder.events)
    live = fold(recorder.events).metrics_obj()
    shared = (
        "active", "commits", "sheds", "deadlocks", "block_p50",
        "block_p99", "steps_since_commit",
    )
    assert {key: getattr(report, key) for key in shared} == {
        key: live[key] for key in shared
    }
    assert report.hottest_entities == [
        tuple(item) for item in live["hot_entities"][:5]
    ]
    assert [victim[:2] for victim in report.rollback_victims] == [
        tuple(item) for item in live["rollback_victims"][:5]
    ]


def test_steps_since_commit_shows_a_commit_free_stretch():
    """Figure 2's livelock as an operator sees it: rollbacks keep
    coming, commits stop, and the gauge grows with every step."""
    from repro.observability.top import build_top, render_top

    events = [Event(seq=0, step=0, kind=EventKind.TXN_ADMIT, txn="T1"),
              Event(seq=1, step=3, kind=EventKind.TXN_COMMIT, txn="T1")]
    for step in range(4, 400):
        kind = EventKind.ROLLBACK if step % 2 else EventKind.STEP
        events.append(Event(seq=len(events), step=step, kind=kind,
                            txn=f"T{2 + step % 2}",
                            data={"states_lost": 1} if step % 2 else {}))
    aggregator = fold(events[:2])
    assert aggregator.metrics_obj()["steps_since_commit"] == 0
    for event in events[2:]:
        aggregator(event)
    metrics = aggregator.metrics_obj()
    assert metrics["steps_since_commit"] == 399 - 3
    assert metrics["commits"] == 1 and metrics["rollbacks"] == 198
    assert "\nrepro_steps_since_commit 396\n" in render_prometheus(metrics)
    assert "steps since commit   396" in render_top(build_top(events))


# ---------------------------------------------------------------------------
# Routed: the service core's aggregator == a full fold, byte for byte
# ---------------------------------------------------------------------------


def _request_script(seed, length=300):
    """A seeded mix of every verb over four entities and four session
    slots: deadlocks, deadline sheds, 429s, aborts, idempotent retries
    and requests naming gone transactions.  Each ``yield`` receives the
    immediate reply (``None`` while the request is parked)."""
    import random

    rng = random.Random(seed)
    verbs = (
        ["begin"] + ["lock"] * 6 + ["read", "write", "unlock", "commit",
                                    "abort", "tick", "metrics", "status"]
    )
    live = []
    last = None
    for n in range(length):
        if last is not None and rng.random() < 0.1:
            request = dict(last)  # a retry under the same idempotency key
        else:
            verb = rng.choice(verbs) if live else "begin"
            request = {"verb": verb, "idem": f"k{n}"}
            if verb not in ("begin", "tick", "metrics", "status"):
                request["txn"] = (
                    rng.choice(live) if rng.random() < 0.97 else "T999"
                )
                request["entity"] = f"e{rng.randrange(4):03d}"
                request["mode"] = rng.choice("SX")
                request["value"] = n
        request["rid"] = f"r{n}"
        reply = yield request
        last = request
        if reply is None:
            continue
        if request["verb"] == "begin" and reply["code"] == 200:
            live.append(reply["txn"])
        elif reply["code"] == 410 or (
            request["verb"] in ("commit", "abort") and reply["code"] == 200
        ):
            if request.get("txn") in live:
                live.remove(request["txn"])


@pytest.mark.parametrize("seed", [2, 3, 7])  # each has a deadlock
def test_routed_core_telemetry_equals_a_full_fold(seed):
    """The core's aggregator is routed only the kinds it folds and
    catches the rest up from the bus clock; after every request its
    snapshots must equal a full fold of the same stream.  Two cores are
    driven: one whose bus builds every event (the reference listens to
    all kinds) and one that builds only what the core itself wants."""
    from repro.observability.events import EventBus
    from repro.service.core import ServiceConfig, ServiceCore
    from repro.storage.database import Database

    def core(bus=None):
        return ServiceCore(
            Database({f"e{i:03d}": 0 for i in range(4)}),
            ServiceConfig(max_sessions=4, deadline_steps=30),
            bus=bus,
        )

    bus = EventBus()
    reference = StreamingAggregator()
    bus.subscribe(reference)  # before the boot marker, as the core's
    full, bare = core(bus), core()
    script = _request_script(seed)
    request = next(script)
    while True:
        reply, _ = full.handle(dict(request))
        assert bare.handle(dict(request))[0] == reply
        expected = (
            json.dumps(reference.metrics_obj(), sort_keys=True),
            json.dumps(reference.timeseries_obj(), sort_keys=True),
        )
        for routed in (full.telemetry, bare.telemetry):
            assert (
                json.dumps(routed.metrics_obj(), sort_keys=True),
                json.dumps(routed.timeseries_obj(), sort_keys=True),
            ) == expected
        try:
            request = script.send(reply)
        except StopIteration:
            break
    assert reference.deadlocks and reference.rollbacks and reference.sheds
    assert full.telemetry.events_seen > len(full.telemetry.windows)


# ---------------------------------------------------------------------------
# Bounded memory on a million-event run
# ---------------------------------------------------------------------------


def _synthetic_stream(n_events, txns=8, entities=6):
    """A cheap deterministic block/grant/rollback churn: a fixed
    transaction population active for the whole run."""
    seq = 0
    for i in range(n_events):
        step = i // 2
        txn = f"T{i % txns}"
        phase = i % 6
        if phase == 0:
            kind, data = EventKind.STEP, {}
        elif phase == 1:
            kind = EventKind.LOCK_BLOCK
            data = {"entity": f"e{i % entities}"}
        elif phase == 2:
            kind, data = EventKind.LOCK_GRANT, {}
        elif phase == 3:
            kind = EventKind.ROLLBACK
            data = {"states_lost": i % 4}
        elif phase == 4:
            kind = EventKind.MESSAGE_SEND
            data = {"sender": i % 5, "receiver": (i + 1) % 5}
        else:
            kind, data = EventKind.SAMPLE, {"wf_edges": i % 7}
        yield Event(seq=seq, step=step, kind=kind, txn=txn, data=data)
        seq += 1


def test_million_event_run_stays_bounded():
    aggregator = StreamingAggregator()
    checkpoint = None
    for i, event in enumerate(_synthetic_stream(1_000_000)):
        aggregator(event)
        if i == 99_999:
            checkpoint = aggregator.tracked_state_size()
    final = aggregator.tracked_state_size()
    assert aggregator.events_seen == 1_000_000
    # Tracked state after 10^6 events equals tracked state after 10^5:
    # it depends on the population (txns, entities, sites, buckets,
    # top-K capacity), not on the event count.
    assert final == checkpoint
    assert final < 100
    # The only O(run-length) artifact is the window list itself: the
    # last step is 499_999, so 9_999 windows have closed (the one in
    # flight only materializes in snapshots).
    assert len(aggregator.windows) == 9_999


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def test_render_prometheus_is_deterministic_and_complete():
    from repro.observability.scenarios import record_scenario

    recorder, _ = record_scenario("distributed", seed=0)
    aggregator = fold(recorder.events)
    metrics = aggregator.metrics_obj()
    first = render_prometheus(metrics)
    second = render_prometheus(fold(recorder.events).metrics_obj())
    assert first == second
    assert f"repro_commits_total {aggregator.commits}" in first
    assert f"repro_rollbacks_total {aggregator.rollbacks}" in first
    assert 'repro_block_steps_bucket{le="+Inf"}' in first
    assert 'repro_site_up{site="0"} 1' in first
    # Cumulative bucket counts end at the histogram total.
    total = metrics["block_histogram"]["count"]
    assert f'le="+Inf"}} {total}' in first
