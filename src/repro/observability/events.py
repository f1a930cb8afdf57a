"""The event bus: one deterministically-ordered stream for the whole run.

Every layer of the system — scheduler, victim selection, admission,
deadlines, distributed messaging, WAL, and the simulation engine
itself — publishes :class:`Event` records to an
:class:`EventBus`.  Consumers (the
:class:`~repro.observability.recorder.RunRecorder`, the streaming
telemetry, the service journal, tests) subscribe as plain callables; a
sink with a ``kinds`` attribute receives only those kinds.

Two properties the rest of the observability layer depends on:

* **Determinism.**  Events carry only logical time (the engine step and a
  monotonically increasing sequence number) and JSON-serializable data;
  no wall clock, no ids, no unordered collections.  Two runs from the
  same seed publish byte-identical streams (see
  ``docs/OBSERVABILITY.md`` for the contract).
* **Zero cost per kind nobody wants.**  The bus keeps a route — the
  tuple of sinks — per kind, and a publish site that builds a payload
  guards it with ``if bus.wants(kind):``, so an event no sink takes is
  never built.  It still consumes its sequence number, so what a sink
  receives does not depend on who else listens.  Schedulers default to
  :data:`NULL_BUS`, the bus that wants nothing.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable, NamedTuple


class EventKind(enum.Enum):
    """The event taxonomy (see ``docs/OBSERVABILITY.md``).

    Grouped by publishing layer; the string values are what appears in
    the JSONL export, so they are part of the fingerprint contract.
    Members hash by identity, in C (``Enum`` hashes the name in Python):
    every route lookup hashes one, and no output depends on the hash.
    """

    __hash__ = object.__hash__

    # -- engine -----------------------------------------------------------
    STEP = "engine.step"
    SAMPLE = "engine.sample"

    # -- scheduler / locking ----------------------------------------------
    TXN_ADMIT = "txn.admit"
    TXN_COMMIT = "txn.commit"
    TXN_SHED = "txn.shed"
    LOCK_GRANT = "lock.grant"
    LOCK_BLOCK = "lock.block"
    DEADLOCK = "deadlock.detect"
    VICTIM_SELECT = "victim.select"
    ROLLBACK = "rollback"
    DEGRADE_RESTART = "degrade.restart"

    # -- admission / overload ----------------------------------------------
    ADMISSION_SUBMIT = "admission.submit"
    ADMISSION_ADMIT = "admission.admit"
    ADMISSION_WINDOW = "admission.window"
    ADMISSION_REORDER = "admission.reorder"
    PREDICT_RISK = "predict.risk"
    DEADLINE_RUNG = "deadline.rung"

    # -- distributed messaging ---------------------------------------------
    MESSAGE_SEND = "message.send"
    MESSAGE_DROP = "message.drop"
    MESSAGE_DUPLICATE = "message.duplicate"
    MESSAGE_DELAY = "message.delay"

    # -- distributed topology / replication ---------------------------------
    SITE_FAILED = "site.failed"
    SITE_RECOVERED = "site.recovered"
    REPLICA_CATCHUP = "replica.catchup"
    PARTITION_START = "network.partition"
    PARTITION_HEAL = "network.heal"

    # -- lock service -------------------------------------------------------
    SERVICE_REQUEST = "service.request"
    SERVICE_REPLY = "service.reply"
    SERVICE_REJECT = "service.reject"
    SERVICE_DRAIN = "service.drain"
    SERVICE_RECOVER = "service.recover"

    # -- durability / chaos ------------------------------------------------
    WAL_APPEND = "wal.append"
    WAL_CHECKPOINT = "wal.checkpoint"
    WAL_RECOVER = "wal.recover"
    CRASH = "chaos.crash"

    def __str__(self) -> str:
        return self.value


class _EventFields(NamedTuple):
    seq: int
    step: int
    kind: EventKind
    txn: str
    data: dict[str, Any]


class Event(_EventFields):
    """One published event: an immutable tuple, cheap to build.

    ``seq`` is the bus-wide sequence number (total order), ``step`` the
    logical engine step at publish time, ``txn`` the primary transaction
    the event concerns (may be empty), and ``data`` the kind-specific
    payload — JSON-serializable values only, by contract.  Omitted,
    ``data`` is a fresh empty dict, never one shared between events.
    """

    __slots__ = ()

    def __new__(
        cls, seq: int, step: int, kind: EventKind, txn: str = "",
        data: dict[str, Any] | None = None,
    ) -> "Event":
        data = {} if data is None else data
        return tuple.__new__(cls, (seq, step, kind, txn, data))

    def to_obj(self) -> dict[str, Any]:
        """The JSON-ready form used by the exporters (stable key set)."""
        return {
            "seq": self.seq,
            "step": self.step,
            "kind": self.kind.value,
            "txn": self.txn,
            "data": self.data,
        }


#: A bus consumer: called synchronously with each published event.  A
#: sink may carry a ``kinds`` attribute (a collection of
#: :class:`EventKind`); it then receives only those kinds.
Sink = Callable[[Event], None]


class EventBus:
    """Deterministically-ordered fan-out of :class:`Event` records.

    The bus holds a logical clock (:attr:`step`) advanced by the driving
    engine; publishers need not know the time.  Sinks are invoked in
    subscription order, synchronously, so a consumer always sees events
    in exactly the order they were published.

    Delivery is routed by kind: :meth:`subscribe` and
    :meth:`unsubscribe` rebuild a ``kind -> sinks`` table from each
    sink's optional ``kinds``, and an event whose kind has no route is
    never built — it only consumes its :attr:`seq`.
    """

    def __init__(self) -> None:
        self.step = 0
        #: Events published so far, routed or not: the next event's seq.
        self.seq = 0
        #: The step the latest event (routed or not) was published at.
        self.last_step = 0
        self._sinks: list[Sink] = []
        self._routes: dict[EventKind, tuple[Sink, ...]] = {}

    def advance(self, step: int) -> None:
        """Move the logical clock (monotonic; late advances are ignored)."""
        if step > self.step:
            self.step = step

    def subscribe(self, sink: Sink) -> None:
        """Add *sink*; its ``kinds`` (if any) are read here, once."""
        if sink not in self._sinks:
            self._sinks.append(sink)
            self._reroute()

    def unsubscribe(self, sink: Sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)
            self._reroute()

    def _reroute(self) -> None:
        routes: dict[EventKind, tuple[Sink, ...]] = {}
        for sink in self._sinks:
            for kind in getattr(sink, "kinds", EventKind):
                routes[kind] = routes.get(kind, ()) + (sink,)
        self._routes = routes

    def wants(self, kind: EventKind) -> bool:
        """Whether some sink takes *kind* — the guard of every publish
        site that builds a payload::

            if bus.wants(EventKind.LOCK_GRANT):
                bus.publish(EventKind.LOCK_GRANT, txn, entity=entity)

        ``False`` means the event has been published to nobody right
        here: it consumed its seq, and the caller must not publish it.
        """
        if kind in self._routes:
            return True
        self.seq += 1
        self.last_step = self.step
        return False

    def publish(
        self, kind: EventKind, txn: str = "", **data: Any
    ) -> Event | None:
        """Publish one event to the sinks that take its kind; returns it,
        or ``None`` when no sink does (it still consumes its seq)."""
        seq = self.seq
        self.seq = seq + 1
        self.last_step = self.step
        route = self._routes.get(kind)
        if route is None:
            return None
        event = Event(seq, self.step, kind, txn, data)
        for sink in route:
            sink(event)
        return event


class NullBus(EventBus):
    """The bus that wants nothing: no sink, no clock, no sequence.

    :meth:`wants` is ``False`` for every kind and :meth:`publish` drops
    the event, so an uninstrumented run pays one call per potential
    event and allocates nothing.
    """

    def advance(self, step: int) -> None:
        pass

    def subscribe(self, sink: Sink) -> None:
        raise ValueError(
            "cannot subscribe to the null bus; install a real EventBus first"
        )

    def wants(self, kind: EventKind) -> bool:
        return False

    def publish(
        self, kind: EventKind, txn: str = "", **data: Any
    ) -> Event | None:
        return None


#: The shared disabled bus every scheduler starts with.
NULL_BUS = NullBus()


def events_of(
    events: Iterable[Event], *kinds: EventKind, txn: str | None = None
) -> list[Event]:
    """Filter helper used throughout the consumers and tests."""
    wanted = set(kinds)
    return [
        event
        for event in events
        if (not wanted or event.kind in wanted)
        and (txn is None or event.txn == txn)
    ]
