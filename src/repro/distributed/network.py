"""Simulated inter-site communication with message accounting.

§3.3's argument is about *communication cost*: maintaining a global
concurrency graph across sites is impractical, and partial rollback adds
value-shipping traffic when transactions move between sites.
:class:`MessageLog` counts every message the distributed layer would send,
by type, so experiments can compare deployment choices quantitatively.

The log is also the chaos engine's interception point for *network
faults* (see :mod:`repro.resilience.faults`): an installed
:attr:`MessageLog.fault_filter` may drop, duplicate, or delay any send.
Dropped messages are counted but never delivered; duplicated messages are
delivered twice; delayed messages sit in a pending queue until
:meth:`MessageLog.flush_delayed` releases them (delivering out of send
order — reordering).  The accounting identity

``attempted == total + dropped + pending_delayed - duplicated``

holds at all times and is what the fault tests assert.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ..observability.events import NULL_BUS, EventBus, EventKind


class MessageType(enum.Enum):
    """The message vocabulary of the simulated distributed system."""

    LOCK_REQUEST = "lock-request"
    LOCK_GRANT = "lock-grant"
    LOCK_DENIED_WAIT = "lock-denied-wait"
    UNLOCK = "unlock"
    VALUE_SHIP = "value-ship"
    ROLLBACK_NOTIFY = "rollback-notify"
    WOUND = "wound"
    PROBE = "probe"
    REPLICA_CATCHUP = "replica-catchup"

    def __str__(self) -> str:
        return self.value


class DeliveryAction(enum.Enum):
    """What a fault filter decides to do with one attempted send."""

    DELIVER = "deliver"
    DROP = "drop"
    DUPLICATE = "duplicate"
    DELAY = "delay"


@dataclass(frozen=True)
class Message:
    """One simulated message between two sites.

    ``lclock`` is the sender's Lamport clock at send time (0 when the
    log predates clock stamping) — the causal substrate cross-site
    tracing uses to order hops between sites.
    """

    sender: int
    receiver: int
    kind: MessageType
    txn_id: str
    entity: str = ""
    lclock: int = 0


def reachable(groups: list[set[int]] | None, a: int, b: int) -> bool:
    """Whether sites *a* and *b* can talk while the network is split
    into *groups* (``None``: the network is whole).  A site talks to
    itself; a site no group names reaches no one."""
    if a == b or groups is None:
        return True
    for group in groups:
        if a in group:
            return b in group
    return False


#: Fault filter signature: ``(send_index, message) -> DeliveryAction``.
#: ``send_index`` counts attempted inter-site sends from 0, so a seeded
#: fault plan can target exact sends deterministically.
FaultFilter = Callable[[int, Message], DeliveryAction]


@dataclass
class MessageLog:
    """Append-only log of inter-site messages with per-type counters.

    Messages between a site and itself are not counted (local calls are
    free), mirroring how the paper distinguishes intra-site from
    inter-site coordination.  ``messages``/``counts`` reflect *delivered*
    messages only; ``attempted``, ``dropped``, ``duplicated``, and the
    pending-delay queue account for injected network faults.
    """

    messages: list[Message] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    fault_filter: FaultFilter | None = None
    attempted: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    _delay_queue: list[Message] = field(default_factory=list)
    #: Observability bus (the recorder installs the scheduler's live bus).
    bus: EventBus = NULL_BUS
    #: Per-site Lamport clocks: send ticks the sender, delivery merges
    #: the receiver (``max(local, message) + 1``).  Purely a function of
    #: the deterministic send order, so same-seed runs stamp the same
    #: clocks — the cross-site tracing contract.
    site_clocks: dict[int, int] = field(default_factory=dict)

    def clock(self, site: int) -> int:
        """The current Lamport clock of *site*."""
        return self.site_clocks.get(site, 0)

    def send(
        self,
        sender: int,
        receiver: int,
        kind: MessageType,
        txn_id: str,
        entity: str = "",
    ) -> None:
        """Record a message unless it stays within a single site."""
        if sender == receiver:
            return
        lclock = self.site_clocks.get(sender, 0) + 1
        self.site_clocks[sender] = lclock
        message = Message(sender, receiver, kind, txn_id, entity, lclock)
        index = self.attempted
        self.attempted += 1
        action = (
            self.fault_filter(index, message)
            if self.fault_filter is not None
            else DeliveryAction.DELIVER
        )
        if action is DeliveryAction.DROP:
            self.dropped += 1
            self._publish(EventKind.MESSAGE_DROP, message)
            return
        if action is DeliveryAction.DELAY:
            self.delayed += 1
            self._delay_queue.append(message)
            self._publish(EventKind.MESSAGE_DELAY, message)
            return
        self._deliver(message)
        self._publish(EventKind.MESSAGE_SEND, message)
        if action is DeliveryAction.DUPLICATE:
            self.duplicated += 1
            self._deliver(message)
            self._publish(EventKind.MESSAGE_DUPLICATE, message)

    def _publish(self, kind: EventKind, message: Message) -> None:
        if self.bus.wants(kind):
            self.bus.publish(
                kind,
                message.txn_id,
                sender=message.sender,
                receiver=message.receiver,
                message=str(message.kind),
                entity=message.entity,
                lclock=message.lclock,
            )

    def _deliver(self, message: Message) -> None:
        self.messages.append(message)
        self.counts[message.kind] += 1
        self.site_clocks[message.receiver] = (
            max(self.site_clocks.get(message.receiver, 0), message.lclock)
            + 1
        )

    def flush_delayed(self, limit: int | None = None) -> int:
        """Deliver up to *limit* pending delayed messages (all by default).

        Delivery happens after later sends have already been delivered —
        the reordering a real network's variable latency produces.
        Returns the number of messages released.
        """
        n = len(self._delay_queue) if limit is None else min(
            limit, len(self._delay_queue)
        )
        for message in self._delay_queue[:n]:
            self._deliver(message)
        del self._delay_queue[:n]
        return n

    @property
    def pending_delayed(self) -> int:
        """Delayed messages not yet flushed."""
        return len(self._delay_queue)

    @property
    def total(self) -> int:
        """Total inter-site messages delivered."""
        return sum(self.counts.values())

    def count(self, kind: MessageType) -> int:
        return self.counts.get(kind, 0)

    def consistent(self) -> bool:
        """The fault-accounting identity every state must satisfy."""
        return self.total == (
            self.attempted - self.dropped - self.pending_delayed
            + self.duplicated
        )

    def summary(self) -> dict[str, int]:
        """Per-type counts plus the total, for benchmark reporting."""
        result = {str(kind): count for kind, count in self.counts.items()}
        result["total"] = self.total
        if self.attempted != self.total:
            result["attempted"] = self.attempted
            result["dropped"] = self.dropped
            result["duplicated"] = self.duplicated
            result["pending_delayed"] = self.pending_delayed
        return result
