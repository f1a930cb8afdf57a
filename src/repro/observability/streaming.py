"""Bounded-memory streaming telemetry over the event bus.

:class:`StreamingAggregator` is the one fold of the event stream into
windows, block percentiles, top-K lists and run counters.  It is an
ordinary bus sink that folds the stream as it happens and retains **no
raw events**, so the same code serves a live server (the ``metrics``
verb, ``/metrics``, ``repro top --follow``) and a recorded list fed
through it (``repro top``, ``repro trace --format summary``):

* windowed gauges (active, blocked, waits-for edges) are sampled at each
  window close, with rollbacks, states lost and commits as per-window
  deltas (``tests/test_streaming.py`` checks every window against a
  direct scan of the raw list);
* block-duration percentiles come from a :class:`LogHistogram` — a
  log2-bucketed counting sketch whose p50/p99 are nearest-rank over
  bucket upper bounds, within 2x of the exact durations;
* hottest entities and rollback victims use :class:`SpaceSavingTopK`
  (Metwally et al. heavy hitters) — exact whenever the number of
  distinct keys fits the capacity, bounded-error otherwise;
* per-site gauges (message in/out, liveness) index by site id, bounded
  by the deployment size.

Tracked state is O(windows + live transactions + top-K capacity +
sites + histogram buckets) — independent of the event count, which is
what the bounded-memory test asserts on a long seeded run.  A
long-lived owner keeps it independent of the *transaction* count too,
by calling :meth:`StreamingAggregator.forget` once it has dropped a
finished transaction itself.

Handed the bus it listens to, the aggregator subscribes only to the
:data:`FOLDED_KINDS`, so the bus never builds the rest.  Every other
kind changes no fold state — only the event count, the last step and
which windows have closed — and the snapshots read those three from the
bus clock, so they stay byte-identical to a fold of the full stream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from .events import Event, EventBus, EventKind

#: The kinds :meth:`StreamingAggregator.__call__` reads.
FOLDED_KINDS = frozenset({
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
    EventKind.SITE_FAILED,
    EventKind.SITE_RECOVERED,
})


class LogHistogram:
    """Log2-bucketed counting histogram of non-negative integers.

    Value ``v`` lands in bucket ``v.bit_length()`` (0 stays in bucket 0),
    so bucket ``b >= 1`` covers ``[2^(b-1), 2^b - 1]`` and at most
    ``bit_length(max_value) + 1`` buckets ever exist.  Quantiles use the
    nearest-rank rule over bucket upper bounds: exact for 0/1 durations,
    within 2x above.
    """

    __slots__ = ("buckets", "count")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0

    def add(self, value: int) -> None:
        bucket = value.bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1

    def copy(self) -> "LogHistogram":
        clone = LogHistogram()
        clone.buckets = dict(self.buckets)
        clone.count = self.count
        return clone

    @staticmethod
    def upper_bound(bucket: int) -> int:
        return 0 if bucket == 0 else (1 << bucket) - 1

    def quantile(self, fraction: float) -> int:
        """Nearest-rank quantile as the covering bucket's upper bound."""
        if not self.count:
            return 0
        rank = min(
            self.count - 1,
            max(0, int(fraction * self.count + 0.999999) - 1),
        )
        seen = 0
        answer = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            answer = self.upper_bound(bucket)
            if rank < seen:
                break
        return answer

    def to_obj(self) -> dict[str, Any]:
        """JSON-ready state: ``{upper_bound: count}`` plus the total."""
        return {
            "buckets": {
                str(self.upper_bound(bucket)): self.buckets[bucket]
                for bucket in sorted(self.buckets)
            },
            "count": self.count,
        }


class SpaceSavingTopK:
    """Space-saving heavy hitters with deterministic eviction.

    Exact counts whenever the number of distinct keys is at most
    ``capacity``; otherwise each kept count overestimates by at most the
    evicted floor, recorded per key in ``errors``.  Eviction ties break
    on the key itself so two identical streams always keep the same set.
    """

    __slots__ = ("capacity", "counts", "errors")

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}

    def add(self, key: str, amount: int = 1) -> None:
        if key in self.counts:
            self.counts[key] += amount
            return
        if len(self.counts) < self.capacity:
            self.counts[key] = amount
            self.errors[key] = 0
            return
        evicted = min(self.counts, key=lambda k: (self.counts[k], k))
        floor = self.counts.pop(evicted)
        self.errors.pop(evicted)
        self.counts[key] = floor + amount
        self.errors[key] = floor

    @property
    def exact(self) -> bool:
        """True while nothing has been evicted (all counts exact)."""
        return not any(self.errors.values())

    def top(self, limit: int | None = None) -> list[tuple[str, int]]:
        ordered = sorted(
            self.counts.items(), key=lambda item: (-item[1], item[0])
        )
        return ordered if limit is None else ordered[:limit]


@dataclass
class SiteGauges:
    """Per-site live gauges, bounded by the deployment's site count."""

    messages_out: int = 0
    messages_in: int = 0
    failures: int = 0
    recoveries: int = 0
    up: bool = True

    def to_obj(self) -> dict[str, Any]:
        return {
            "messages_out": self.messages_out,
            "messages_in": self.messages_in,
            "failures": self.failures,
            "recoveries": self.recoveries,
            "up": self.up,
        }


@dataclass
class WindowSample:
    """Gauges and per-window deltas at the close of one window."""

    window: int
    step: int
    active: int
    blocked: int
    wf_edges: int
    rollbacks: int
    states_lost: int
    commits: int

    def to_obj(self) -> dict[str, int]:
        return asdict(self)


class StreamingAggregator:
    """A bus sink that folds the event stream in bounded memory.

    Fed a list of events (the instance is callable with one
    :class:`~repro.observability.events.Event`) or subscribed like any
    sink, it folds every event it is given.  Constructed with ``bus=``,
    it subscribes itself to the :data:`FOLDED_KINDS` only and its
    snapshots catch up the event count, the last step and the window
    closes from that bus's clock (see the module docstring).

    A window closes when the first event at or past its end arrives; the
    window in flight and blocks still open are accounted at the last
    step by the snapshot methods, non-destructively, so the aggregator
    can be read live and keep streaming.  A transaction that committed
    or was shed is never re-activated by a later event naming it.
    """

    def __init__(
        self,
        window_steps: int = 50,
        capacity: int = 16,
        bus: EventBus | None = None,
    ) -> None:
        if window_steps < 1:
            raise ValueError("window_steps must be positive")
        self.window_steps = window_steps
        self.windows: list[WindowSample] = []
        self.block_histogram = LogHistogram()
        self.hot_entities = SpaceSavingTopK(capacity)
        self.rollback_victims = SpaceSavingTopK(capacity)
        self.states_lost_by_victim = SpaceSavingTopK(capacity)
        self.sites: dict[int, SiteGauges] = {}
        self.events_seen = 0
        self.commits = 0
        self.rollbacks = 0
        self.sheds = 0
        self.deadlocks = 0
        self.states_lost = 0
        #: Transactions seen committed or shed, forgotten ones included.
        self.done = 0
        self._active: set[str] = set()
        self._done: set[str] = set()
        self._blocked_since: dict[str, int] = {}
        self._wf_edges = 0
        self._window = 0
        self._win_rollbacks = 0
        self._win_states_lost = 0
        self._win_commits = 0
        self._last_step = 0
        self._last_commit_step = 0
        self._any_events = False
        self._bus = bus
        if bus is not None:
            self.kinds = FOLDED_KINDS
            self._seq_base = bus.seq
            bus.subscribe(self)

    # -- the fold ---------------------------------------------------------

    def __call__(self, event: Event) -> None:
        self.events_seen += 1
        self._advance_to(event.step)
        self._any_events = True
        kind = event.kind
        if kind is EventKind.TXN_ADMIT or kind is EventKind.STEP:
            if event.txn and event.txn not in self._done:
                self._active.add(event.txn)
        elif kind is EventKind.TXN_COMMIT or kind is EventKind.TXN_SHED:
            self._active.discard(event.txn)
            if event.txn not in self._done:
                self._done.add(event.txn)
                self.done += 1
            self._end_block(event.txn, event.step)
            if kind is EventKind.TXN_SHED:
                self.sheds += 1
        elif kind is EventKind.LOCK_BLOCK:
            self._blocked_since.setdefault(event.txn, event.step)
            entity = event.data.get("entity", "")
            if entity:
                self.hot_entities.add(str(entity))
        elif kind is EventKind.LOCK_GRANT:
            self._end_block(event.txn, event.step)
        elif kind is EventKind.ROLLBACK:
            self._end_block(event.txn, event.step)
            self._win_rollbacks += 1
            self.rollbacks += 1
            lost = event.data.get("states_lost", 0)
            lost = int(lost) if isinstance(lost, int) else 0
            self._win_states_lost += lost
            self.states_lost += lost
            self.rollback_victims.add(event.txn)
            if lost:
                self.states_lost_by_victim.add(event.txn, lost)
        elif kind is EventKind.SAMPLE:
            edges = event.data.get("wf_edges", self._wf_edges)
            self._wf_edges = (
                int(edges) if isinstance(edges, int) else self._wf_edges
            )
        elif kind is EventKind.DEADLOCK:
            self.deadlocks += 1
        elif kind is EventKind.MESSAGE_SEND:
            sender = event.data.get("sender")
            receiver = event.data.get("receiver")
            if isinstance(sender, int):
                self._site(sender).messages_out += 1
            if isinstance(receiver, int):
                self._site(receiver).messages_in += 1
        elif kind is EventKind.SITE_FAILED:
            site = event.data.get("site")
            if isinstance(site, int):
                gauges = self._site(site)
                gauges.failures += 1
                gauges.up = False
        elif kind is EventKind.SITE_RECOVERED:
            site = event.data.get("site")
            if isinstance(site, int):
                gauges = self._site(site)
                gauges.recoveries += 1
                gauges.up = True
        if kind is EventKind.TXN_COMMIT:
            self._win_commits += 1
            self.commits += 1
            self._last_commit_step = event.step

    def _advance_to(self, step: int) -> None:
        """Close every window that ends before *step*."""
        while step >= (self._window + 1) * self.window_steps:
            self._close_window((self._window + 1) * self.window_steps - 1)
            self._window += 1
        self._last_step = max(self._last_step, step)

    def forget(self, txn: str) -> None:
        """Drop finished *txn* from the fold state; its owner promises
        that no later event names it.  ``done`` still counts it."""
        self._done.discard(txn)

    def _site(self, site: int) -> SiteGauges:
        if site not in self.sites:
            self.sites[site] = SiteGauges()
        return self.sites[site]

    def _end_block(self, txn: str, step: int) -> None:
        since = self._blocked_since.pop(txn, None)
        if since is not None:
            self.block_histogram.add(step - since)

    def _close_window(self, at_step: int) -> None:
        self.windows.append(self._sample(at_step))
        self._win_rollbacks = 0
        self._win_states_lost = 0
        self._win_commits = 0

    def _sample(self, at_step: int) -> WindowSample:
        return WindowSample(
            window=self._window,
            step=at_step,
            active=len(self._active),
            blocked=len(self._blocked_since),
            wf_edges=self._wf_edges,
            rollbacks=self._win_rollbacks,
            states_lost=self._win_states_lost,
            commits=self._win_commits,
        )

    # -- snapshots (non-destructive: the fold keeps running) ---------------

    def _catch_up(self) -> None:
        """Account the events the bus did not route here: they only
        count, move the last step and close windows."""
        bus = self._bus
        if bus is not None and bus.seq > self._seq_base:
            self.events_seen = bus.seq - self._seq_base
            self._any_events = True
            self._advance_to(bus.last_step)

    def _final_samples(self) -> list[WindowSample]:
        self._catch_up()
        samples = list(self.windows)
        if self._any_events:
            samples.append(self._sample(self._last_step))
        return samples

    def _final_histogram(self) -> LogHistogram:
        histogram = self.block_histogram.copy()
        for txn in sorted(self._blocked_since):
            histogram.add(self._last_step - self._blocked_since[txn])
        return histogram

    def timeseries_obj(self) -> dict[str, Any]:
        """Every window, block p50/p99 and the gauge peaks."""
        samples = self._final_samples()
        histogram = self._final_histogram()

        def peak(gauge: str) -> int:
            return max(
                (getattr(sample, gauge) for sample in samples), default=0
            )

        return {
            "window_steps": self.window_steps,
            "windows": [sample.to_obj() for sample in samples],
            "block_p50": histogram.quantile(0.50),
            "block_p99": histogram.quantile(0.99),
            "block_count": histogram.count,
            "peak_active": peak("active"),
            "peak_blocked": peak("blocked"),
            "peak_wf_edges": peak("wf_edges"),
        }

    def metrics_obj(self, limit: int = 8) -> dict[str, Any]:
        """The live-endpoint snapshot (``metrics`` verb, Prometheus)."""
        samples = self._final_samples()
        histogram = self._final_histogram()
        last = samples[-1].to_obj() if samples else None
        return {
            "events": self.events_seen,
            "step": self._last_step,
            "window_steps": self.window_steps,
            "windows": len(samples),
            "last_window": last,
            "active": len(self._active),
            "blocked": len(self._blocked_since),
            "done": self.done,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "sheds": self.sheds,
            "deadlocks": self.deadlocks,
            "states_lost": self.states_lost,
            "steps_since_commit": self._last_step - self._last_commit_step,
            "block_p50": histogram.quantile(0.50),
            "block_p99": histogram.quantile(0.99),
            "block_histogram": histogram.to_obj(),
            "hot_entities": [
                list(item) for item in self.hot_entities.top(limit)
            ],
            "rollback_victims": [
                list(item) for item in self.rollback_victims.top(limit)
            ],
            "sites": {
                str(site): self.sites[site].to_obj()
                for site in sorted(self.sites)
            },
        }

    def tracked_state_size(self) -> int:
        """Entries of mutable fold state, *excluding* the O(windows)
        sample list — the quantity the bounded-memory test pins as
        independent of the event count."""
        return (
            len(self._active)
            + len(self._done)
            + len(self._blocked_since)
            + len(self.block_histogram.buckets)
            + len(self.hot_entities.counts)
            + len(self.rollback_victims.counts)
            + len(self.states_lost_by_victim.counts)
            + len(self.sites)
        )


def render_prometheus(metrics: dict[str, Any], prefix: str = "repro") -> str:
    """Prometheus text exposition (0.0.4) of a ``metrics_obj`` snapshot.

    Deterministic: metric families and label values appear in sorted
    order, so two scrapes of the same logical state are byte-identical.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str) -> str:
        lines.append(f"# HELP {prefix}_{name} {help_text}")
        lines.append(f"# TYPE {prefix}_{name} {kind}")
        return f"{prefix}_{name}"

    for name, help_text in (
        ("commits_total", "Transactions committed"),
        ("rollbacks_total", "Partial rollbacks performed"),
        ("sheds_total", "Transactions shed by admission or deadline"),
        ("deadlocks_total", "Deadlocks detected"),
        ("states_lost_total", "Transaction states lost to rollback"),
        ("events_total", "Events folded by the streaming aggregator"),
    ):
        key = name.removesuffix("_total")
        value = metrics.get("events" if key == "events" else key, 0)
        lines.append(f"{family(name, 'counter', help_text)} {value}")
    for name, key, help_text in (
        ("step", "step", "Logical step of the last folded event"),
        ("steps_since_commit", "steps_since_commit",
         "Logical steps since the last commit"),
        ("active", "active", "Live transactions"),
        ("blocked", "blocked", "Transactions blocked on a lock"),
        ("block_steps_p50", "block_p50",
         "Median block duration (bucket upper bound)"),
        ("block_steps_p99", "block_p99",
         "p99 block duration (bucket upper bound)"),
    ):
        lines.append(
            f"{family(name, 'gauge', help_text)} {metrics.get(key, 0)}"
        )
    histogram = metrics.get("block_histogram", {})
    if isinstance(histogram, dict) and "buckets" in histogram:
        name = family(
            "block_steps", "histogram", "Block durations in logical steps"
        )
        cumulative = 0
        for upper in sorted(histogram["buckets"], key=int):
            cumulative += histogram["buckets"][upper]
            lines.append(f'{name}_bucket{{le="{upper}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {histogram["count"]}')
        lines.append(f"{name}_count {histogram['count']}")
    name = family(
        "hot_entity_blocks", "gauge", "Blocks per hottest entity (top-K)"
    )
    for entity, count in metrics.get("hot_entities", []):
        lines.append(f'{name}{{entity="{entity}"}} {count}')
    name = family(
        "rollbacks_by_victim", "gauge", "Rollbacks per victim (top-K)"
    )
    for victim, count in metrics.get("rollback_victims", []):
        lines.append(f'{name}{{txn="{victim}"}} {count}')
    sites = metrics.get("sites", {})
    if sites:
        up = family("site_up", "gauge", "Site liveness")
        for site in sorted(sites, key=int):
            lines.append(f'{up}{{site="{site}"}} {int(sites[site]["up"])}')
        out = family(
            "site_messages_out", "counter", "Messages sent by site"
        )
        for site in sorted(sites, key=int):
            lines.append(
                f'{out}{{site="{site}"}} {sites[site]["messages_out"]}'
            )
        inn = family(
            "site_messages_in", "counter", "Messages delivered to site"
        )
        for site in sorted(sites, key=int):
            lines.append(
                f'{inn}{{site="{site}"}} {sites[site]["messages_in"]}'
            )
    return "\n".join(lines) + "\n"
