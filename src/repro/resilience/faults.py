"""Deterministic fault planning and injection.

A :class:`FaultPlan` is generated *entirely* from one seed: which engine
steps crash the scheduler, which inter-site sends are dropped, duplicated,
or delayed, which rollback invocations hit damaged copy storage, which
transactions stall and for how long.  The plan is a plain value — it can
be fingerprinted, serialised into a regression case, and replayed
byte-for-byte — so every chaos run is exactly reproducible from
``(workload config, workload seed, chaos seed)``.

:class:`FaultInjector` arms a plan against a live
:class:`~repro.simulation.engine.SimulationEngine` through the existing
observation surfaces, without changing any engine code path when no fault
is scheduled:

* scheduler/site crashes and transaction stalls key on the *recorded
  trace-event index* (the engine's idle iterations are invisible to the
  trace, so event indices are stable across schedulers);
* network faults key on the *attempted-send index* of the
  :class:`~repro.distributed.network.MessageLog`;
* storage faults key on the *rollback invocation index* via the strategy
  ``fault_hook`` — ``copy-pop`` faults fire for copy-keeping strategies
  (MCS / k-copy / single-copy), ``undo-apply`` faults for the undo log;
  total restart keeps no partial state and is immune by construction.

Counters live in the injector, not in the engine, and persist across
:meth:`FaultInjector.attach` calls — after a crash the recovery loop
attaches the same injector to the successor engine and the global indices
keep counting, so "crash at event 40" and "drop send 17" mean the same
thing no matter how many times the system has already crashed.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, field

from ..distributed.network import DeliveryAction, Message, reachable
from ..errors import StorageFault


class CrashSignal(Exception):
    """The injected scheduler crash.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the run
    harness converts simulation errors into verdicts, but a crash is
    control flow — the chaos loop must catch it and recover, and nothing
    else may swallow it.
    """

    def __init__(self, event_index: int) -> None:
        super().__init__(f"injected crash at event {event_index}")
        self.event_index = event_index


class FaultKind(enum.Enum):
    """Vocabulary of injectable faults (see docs/RESILIENCE.md)."""

    CRASH = "crash"
    SITE_CRASH = "site-crash"
    PARTITION = "partition"
    MESSAGE_DROP = "message-drop"
    MESSAGE_DUPLICATE = "message-duplicate"
    MESSAGE_DELAY = "message-delay"
    COPY_POP_FAILURE = "copy-pop"
    UNDO_APPLY_FAILURE = "undo-apply"
    TXN_STALL = "txn-stall"

    def __str__(self) -> str:
        return self.value


#: Strategy names whose rollback reads copy stacks (``copy-pop`` faults).
_COPY_STRATEGIES = ("mcs", "single-copy", "sdg", "k-copy")


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault.

    ``at`` is the fault's index in its own counting domain: recorded
    trace-event index for crashes and stalls, attempted-send index for
    network faults, rollback-invocation index for storage faults.
    ``arg`` names the victim where one is needed (a transaction id for
    stalls, a site number rendered as a string for site crashes, a group
    spec such as ``"0,2|1,3"`` for partitions — groups separated by
    ``|``, member sites by ``,``) and ``duration`` the outage length in
    recorded events.
    """

    kind: FaultKind
    at: int
    arg: str = ""
    duration: int = 0

    def render(self) -> str:
        return f"{self.kind}@{self.at}:{self.arg}:{self.duration}"

    def to_dict(self) -> dict:
        return {
            "kind": str(self.kind),
            "at": self.at,
            "arg": self.arg,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(
            kind=FaultKind(data["kind"]),
            at=int(data["at"]),
            arg=str(data.get("arg", "")),
            duration=int(data.get("duration", 0)),
        )


@dataclass
class FaultPlan:
    """A complete, serialisable fault schedule for one chaos run."""

    seed: int
    events: list[FaultEvent] = field(default_factory=list)
    #: When False the scheduler propagates storage faults instead of
    #: degrading to a total restart — the regression suite uses this to
    #: pin the failure mode of an undegraded fault.
    degrade: bool = True
    #: Delayed messages are released every this-many recorded events
    #: (reordering them after later traffic).
    flush_every: int = 5

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon: int,
        txn_ids: list[str] | None = None,
        n_sites: int = 0,
        crashes: int = 0,
        site_crashes: int = 0,
        partitions: int = 0,
        message_faults: int = 0,
        storage_faults: int = 0,
        stalls: int = 0,
        degrade: bool = True,
    ) -> "FaultPlan":
        """Draw a schedule from one seed.

        ``horizon`` bounds every index: crash/stall events are placed in
        ``[1, horizon)`` recorded events, message faults over the first
        ``horizon`` attempted sends, storage faults over the first
        ``max(4, horizon // 20)`` rollback invocations (rollbacks are far
        rarer than steps).  Counts request *at most* that many faults;
        colliding draws merge.
        """
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        rng = random.Random(seed)
        events: list[FaultEvent] = []
        for _ in range(crashes):
            events.append(
                FaultEvent(FaultKind.CRASH, rng.randrange(1, horizon))
            )
        for _ in range(site_crashes):
            if n_sites < 1:
                break
            events.append(
                FaultEvent(
                    FaultKind.SITE_CRASH,
                    rng.randrange(1, horizon),
                    arg=str(rng.randrange(n_sites)),
                    duration=rng.randrange(2, 12),
                )
            )
        for _ in range(partitions):
            if n_sites < 2:
                break
            # A random two-group split: each site joins group 0 or 1,
            # re-drawn until both groups are inhabited.
            while True:
                split = [rng.randrange(2) for _ in range(n_sites)]
                if 0 < sum(split) < n_sites:
                    break
            groups = [
                ",".join(
                    str(s) for s in range(n_sites) if split[s] == side
                )
                for side in (0, 1)
            ]
            events.append(
                FaultEvent(
                    FaultKind.PARTITION,
                    rng.randrange(1, horizon),
                    arg="|".join(groups),
                    duration=rng.randrange(4, 20),
                )
            )
        message_kinds = (
            FaultKind.MESSAGE_DROP,
            FaultKind.MESSAGE_DUPLICATE,
            FaultKind.MESSAGE_DELAY,
        )
        for _ in range(message_faults):
            events.append(
                FaultEvent(
                    rng.choice(message_kinds), rng.randrange(horizon)
                )
            )
        rollback_horizon = max(4, horizon // 20)
        storage_kinds = (
            FaultKind.COPY_POP_FAILURE,
            FaultKind.UNDO_APPLY_FAILURE,
        )
        for _ in range(storage_faults):
            events.append(
                FaultEvent(
                    rng.choice(storage_kinds),
                    rng.randrange(rollback_horizon),
                )
            )
        for _ in range(stalls):
            if not txn_ids:
                break
            events.append(
                FaultEvent(
                    FaultKind.TXN_STALL,
                    rng.randrange(1, horizon),
                    arg=rng.choice(sorted(txn_ids)),
                    duration=rng.randrange(2, 10),
                )
            )
        events.sort(key=lambda e: (e.at, str(e.kind), e.arg))
        return cls(seed=seed, events=events, degrade=degrade)

    # -- queries --------------------------------------------------------------

    def of_kind(self, *kinds: FaultKind) -> list[FaultEvent]:
        return [e for e in self.events if e.kind in kinds]

    def crash_indices(self) -> list[int]:
        """Recorded-event indices at which the scheduler crashes."""
        return sorted({e.at for e in self.of_kind(FaultKind.CRASH)})

    @property
    def empty(self) -> bool:
        return not self.events

    def fingerprint(self) -> str:
        """Content hash: identical seed and knobs ⇒ identical hash."""
        digest = hashlib.sha256()
        digest.update(
            f"seed={self.seed};degrade={self.degrade};"
            f"flush={self.flush_every}\n".encode()
        )
        for event in self.events:
            digest.update(event.render().encode())
            digest.update(b"\n")
        return digest.hexdigest()

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "degrade": self.degrade,
            "flush_every": self.flush_every,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            events=[
                FaultEvent.from_dict(e) for e in data.get("events", [])
            ],
            degrade=bool(data.get("degrade", True)),
            flush_every=int(data.get("flush_every", 5)),
        )


class FaultInjector:
    """Arms a :class:`FaultPlan` against live engines.

    One injector serves one chaos *run*, which may span several engines
    (one per crash segment): global counters survive re-attachment, so
    plan indices always refer to run-global positions.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.events_seen = 0
        self.sends_seen = 0
        self.rollbacks_seen = 0
        self.crashes_fired = 0
        self._crash_at = set(plan.crash_indices())
        self._message_actions: dict[int, DeliveryAction] = {}
        for event in plan.of_kind(FaultKind.MESSAGE_DROP):
            self._message_actions[event.at] = DeliveryAction.DROP
        for event in plan.of_kind(FaultKind.MESSAGE_DUPLICATE):
            self._message_actions[event.at] = DeliveryAction.DUPLICATE
        for event in plan.of_kind(FaultKind.MESSAGE_DELAY):
            self._message_actions[event.at] = DeliveryAction.DELAY
        self._storage_faults: dict[int, FaultKind] = {
            event.at: event.kind
            for event in plan.of_kind(
                FaultKind.COPY_POP_FAILURE, FaultKind.UNDO_APPLY_FAILURE
            )
        }
        self._stall_events = plan.of_kind(FaultKind.TXN_STALL)
        self._site_events = plan.of_kind(FaultKind.SITE_CRASH)
        self._partition_events = plan.of_kind(FaultKind.PARTITION)
        #: txn_id -> recorded-event index at which the stall ends.
        self.stalled_until: dict[str, int] = {}
        #: site -> recorded-event index at which the site comes back up.
        self.down_until: dict[int, int] = {}
        #: The active partition's groups (None when the network is whole).
        self.partition_groups: list[set[int]] | None = None
        #: Recorded-event index at which the active partition heals.
        self._partition_until = -1
        #: The attached scheduler when it has a view (the distributed
        #: one: sites, links, a message log), else None.
        self._distributed = None

    # -- attachment ---------------------------------------------------------

    def attach(self, engine) -> None:
        """Install every interception point on *engine* (chainable with a
        pre-existing observer, which runs first)."""
        scheduler = engine.scheduler
        scheduler.degrade_on_fault = self.plan.degrade
        scheduler.strategy.fault_hook = self._on_strategy_rollback
        view = getattr(scheduler, "view", None)
        self._distributed = scheduler if view is not None else None
        previous = engine.on_step

        def observe(eng, event) -> None:
            if previous is not None:
                previous(eng, event)
            self._on_event(eng, event)

        engine.on_step = observe
        engine.interleaving = _StallAwareInterleaving(
            engine.interleaving, self, view
        )
        if view is not None:
            scheduler.message_log.fault_filter = self._on_send
            # After a crash the recovery loop builds a new scheduler;
            # sites still inside an outage window and a still-active
            # partition must be visible to it from its first step.
            for site in sorted(self.down_until):
                scheduler.site_failed(site)
            if self.partition_groups is not None:
                scheduler.on_partition(self.partition_groups)

    # -- interception points ---------------------------------------------------

    def _on_event(self, engine, event) -> None:
        """Per recorded trace event: stalls, site outages, delayed-message
        release, and — last, so all bookkeeping is crash-consistent — the
        scheduler crash itself."""
        index = self.events_seen
        self.events_seen += 1
        distributed = self._distributed
        for fault in self._stall_events:
            if fault.at == index:
                self.stalled_until[fault.arg] = index + fault.duration
        for fault in self._site_events:
            if fault.at == index:
                self.down_until[int(fault.arg)] = index + fault.duration
                if distributed is not None:
                    distributed.site_failed(int(fault.arg))
        for fault in self._partition_events:
            if fault.at == index:
                self.partition_groups = _parse_groups(fault.arg)
                self._partition_until = index + fault.duration
                if distributed is not None:
                    distributed.on_partition(self.partition_groups)
        for txn_id, until in list(self.stalled_until.items()):
            if until <= index:
                del self.stalled_until[txn_id]
        for site, until in list(self.down_until.items()):
            if until <= index:
                del self.down_until[site]
                if distributed is not None:
                    distributed.site_recovered(site)
        if self.partition_groups is not None and self._partition_until <= index:
            self.partition_groups = None
            self._partition_until = -1
            if distributed is not None:
                distributed.on_heal()
        if (
            distributed is not None
            and distributed.message_log.pending_delayed
            and index % self.plan.flush_every == 0
        ):
            distributed.message_log.flush_delayed()
        if index in self._crash_at:
            self.crashes_fired += 1
            raise CrashSignal(index)

    def _on_send(self, _log_index: int, message: Message) -> DeliveryAction:
        """MessageLog fault filter; run-global send index, down-site
        partitions win over planned per-send faults."""
        index = self.sends_seen
        self.sends_seen += 1
        if (
            message.sender in self.down_until
            or message.receiver in self.down_until
        ):
            return DeliveryAction.DROP
        if not reachable(
            self.partition_groups, message.sender, message.receiver
        ):
            return DeliveryAction.DROP
        return self._message_actions.get(index, DeliveryAction.DELIVER)

    def _on_strategy_rollback(self, strategy, txn, ordinal) -> None:
        """Strategy fault hook: fail the matching rollback invocations."""
        index = self.rollbacks_seen
        self.rollbacks_seen += 1
        kind = self._storage_faults.get(index)
        if kind is None:
            return
        if kind is FaultKind.COPY_POP_FAILURE and any(
            strategy.name.startswith(prefix) for prefix in _COPY_STRATEGIES
        ):
            raise StorageFault(
                f"injected copy-stack pop failure for {txn.txn_id} "
                f"(rollback #{index} to lock state {ordinal})"
            )
        if (
            kind is FaultKind.UNDO_APPLY_FAILURE
            and strategy.name == "undo-log"
        ):
            raise StorageFault(
                f"injected undo-log apply failure for {txn.txn_id} "
                f"(rollback #{index} to lock state {ordinal})"
            )

    # -- stall queries ------------------------------------------------------

    def blocked_txns(self, view=None) -> set[str]:
        """Transactions that must not be scheduled right now: explicitly
        stalled ones, plus (given a view) those homed on down sites."""
        blocked = set(self.stalled_until)
        if view is not None and self.down_until:
            for txn_id, home in view.home_sites.items():
                if home in self.down_until:
                    blocked.add(txn_id)
        return blocked


def _parse_groups(arg: str) -> list[set[int]]:
    """Parse a partition group spec such as ``"0,2|1,3"``."""
    groups = [
        {int(site) for site in part.split(",") if site != ""}
        for part in arg.split("|")
        if part != ""
    ]
    if len(groups) < 2:
        raise ValueError(
            f"partition spec {arg!r} must name at least two groups"
        )
    return groups


class _StallAwareInterleaving:
    """Wraps an interleaving policy to skip stalled transactions.

    Falls back to the unfiltered runnable set when stalls would leave
    nothing to schedule — a stall yields to competitors, it never wedges
    the run.
    """

    def __init__(self, inner, injector: FaultInjector, view) -> None:
        self.inner = inner
        self.injector = injector
        #: The distributed scheduler's placement (fixed for the run; None
        #: for a single-site scheduler), so transactions homed on down
        #: sites are skipped too.
        self.view = view
        self.name = f"stall-aware({inner.name})"

    def choose(self, runnable, step):
        blocked = self.injector.blocked_txns(self.view)
        if blocked:
            active = [t for t in runnable if t not in blocked]
            if active:
                return self.inner.choose(active, step)
        return self.inner.choose(runnable, step)

    def reset(self) -> None:
        self.inner.reset()
