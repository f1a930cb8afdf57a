"""Counters collected by the scheduler and the simulation engine.

The paper's claims are about *progress lost to rollback* and *storage
overhead*; :class:`Metrics` tracks exactly those, plus the raw event counts
needed to describe a run (deadlocks, blocks, grants, completions).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


#: Reason string recorded when a transaction is shed past its deadline.
DEADLINE_EXCEEDED = "deadline-exceeded"


@dataclass
class RollbackEvent:
    """One recorded rollback: who, how far, and what it cost."""

    victim: str
    requester: str
    target_ordinal: int
    ideal_ordinal: int
    states_lost: int


@dataclass
class Metrics:
    """Aggregated counters for one scheduler/simulation run."""

    ops_executed: int = 0
    locks_granted: int = 0
    blocks: int = 0
    deadlocks: int = 0
    rollbacks: int = 0
    total_rollbacks: int = 0
    states_lost: int = 0
    overshoot_states: int = 0
    commits: int = 0
    copies_peak: int = 0
    storage_faults: int = 0
    degraded_restarts: int = 0
    backoff_stalls: int = 0
    restart_escalations: int = 0
    admitted: int = 0
    shed: int = 0
    admission_queue_peak: int = 0
    deadline_expiries: int = 0
    deadline_partials: int = 0
    deadline_restarts: int = 0
    timeout_rollbacks: int = 0
    unavailable_stalls: int = 0
    replica_catchups: int = 0
    stale_write_skips: int = 0
    rollback_events: list[RollbackEvent] = field(default_factory=list)
    rollbacks_by_victim: Counter = field(default_factory=Counter)
    preemptions: Counter = field(default_factory=Counter)
    blocks_by_entity: Counter = field(default_factory=Counter)
    deadlock_entities: Counter = field(default_factory=Counter)
    shed_outcomes: dict[str, str] = field(default_factory=dict)

    def record_rollback(
        self,
        victim: str,
        requester: str,
        target_ordinal: int,
        ideal_ordinal: int,
        states_lost: int,
    ) -> None:
        """Record a rollback of *victim* caused by *requester*'s conflict.

        ``overshoot_states`` accumulates the extra loss the strategy forced
        beyond the ideal target (single-copy clamping, total restart); it is
        zero under MCS.
        """
        self.rollbacks += 1
        if target_ordinal == 0:
            self.total_rollbacks += 1
        self.states_lost += states_lost
        self.rollback_events.append(
            RollbackEvent(
                victim, requester, target_ordinal, ideal_ordinal, states_lost
            )
        )
        self.rollbacks_by_victim[victim] += 1
        if victim != requester:
            self.preemptions[(requester, victim)] += 1

    def record_shed(self, txn_id: str, reason: str = DEADLINE_EXCEEDED) -> None:
        """A transaction was removed from the system without committing.

        Shedding is always explicit — *reason* names the policy decision
        (the deadline ladder's last rung records :data:`DEADLINE_EXCEEDED`)
        so that "never silently looping" is auditable after the run.
        """
        self.shed += 1
        self.shed_outcomes[txn_id] = reason

    def forget(self, txn_id: str) -> None:
        """Drop a forgotten transaction from the per-transaction books;
        a victim takes its rollback events and preemption pairs along."""
        self.shed_outcomes.pop(txn_id, None)
        if self.rollbacks_by_victim.pop(txn_id, 0):
            self.rollback_events = [
                e for e in self.rollback_events if e.victim != txn_id
            ]
            for pair in [p for p in self.preemptions if p[1] == txn_id]:
                del self.preemptions[pair]

    def observe_admission_queue(self, depth: int) -> None:
        """Track the peak depth of the admission controller's wait queue."""
        self.admission_queue_peak = max(self.admission_queue_peak, depth)

    def observe_copies(self, copies: int) -> None:
        """Track the peak number of stored value copies across the system."""
        self.copies_peak = max(self.copies_peak, copies)

    def record_block(self, entity: str) -> None:
        """A lock request on *entity* received a wait response."""
        self.blocks += 1
        self.blocks_by_entity[entity] += 1

    def record_deadlock_arcs(self, entities: Iterable[str]) -> None:
        """Entities on a deadlock's arcs; no caller (a perf tracer hook)."""
        for entity in entities:
            self.deadlock_entities[entity] += 1

    def hottest_entities(self, n: int = 5) -> list[tuple[str, int]]:
        """The *n* entities most often blocked on (contention hot spots)."""
        return self.blocks_by_entity.most_common(n)

    @property
    def partial_rollbacks(self) -> int:
        """Rollbacks that did not restart the victim from scratch."""
        return self.rollbacks - self.total_rollbacks

    @property
    def mean_states_lost(self) -> float:
        """Average states lost per rollback (0.0 when none occurred)."""
        if not self.rollbacks:
            return 0.0
        return self.states_lost / self.rollbacks

    def mutual_preemption_pairs(self) -> set[tuple[str, str]]:
        """Unordered pairs that preempted each other at least once each —
        the signature of (potentially infinite) mutual preemption."""
        pairs = set()
        for (requester, victim), _count in self.preemptions.items():
            if self.preemptions.get((victim, requester)):
                pairs.add(tuple(sorted((requester, victim))))
        return pairs

    def summary(self) -> dict[str, object]:
        """Headline numbers plus the contention collections, all
        JSON-serializable (benchmark reporting and the trace exporters)."""
        return {
            "ops_executed": self.ops_executed,
            "locks_granted": self.locks_granted,
            "blocks": self.blocks,
            "deadlocks": self.deadlocks,
            "rollbacks": self.rollbacks,
            "partial_rollbacks": self.partial_rollbacks,
            "total_rollbacks": self.total_rollbacks,
            "states_lost": self.states_lost,
            "overshoot_states": self.overshoot_states,
            "mean_states_lost": round(self.mean_states_lost, 3),
            "commits": self.commits,
            "copies_peak": self.copies_peak,
            "storage_faults": self.storage_faults,
            "degraded_restarts": self.degraded_restarts,
            "backoff_stalls": self.backoff_stalls,
            "restart_escalations": self.restart_escalations,
            "admitted": self.admitted,
            "shed": self.shed,
            "admission_queue_peak": self.admission_queue_peak,
            "deadline_expiries": self.deadline_expiries,
            "deadline_partials": self.deadline_partials,
            "deadline_restarts": self.deadline_restarts,
            "timeout_rollbacks": self.timeout_rollbacks,
            "unavailable_stalls": self.unavailable_stalls,
            "replica_catchups": self.replica_catchups,
            "stale_write_skips": self.stale_write_skips,
            "rollbacks_by_victim": {
                victim: count
                for victim, count in sorted(self.rollbacks_by_victim.items())
            },
            "hottest_entities": [
                [entity, count] for entity, count in self.hottest_entities()
            ],
            "mutual_preemption_pairs": [
                list(pair) for pair in sorted(self.mutual_preemption_pairs())
            ],
        }
