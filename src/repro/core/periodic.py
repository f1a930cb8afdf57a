"""Periodic deadlock detection: an ablation of detection timing.

The paper's system detects deadlock *at the wait response* — it maintains
the concurrency graph continuously, so a cycle is found the instant it
forms.  Many real systems instead sweep for cycles on a timer, trading
detection latency (deadlocked transactions sit blocked until the next
sweep) for not running detection on every conflict.

:class:`PeriodicDetectionScheduler` implements the sweep variant on the
same machinery: blocked requests never trigger detection; every
``interval`` engine steps the whole waits-for graph is scanned, every
cycle found is resolved with the configured victim policy (the nominal
"requester" of a swept deadlock is its most recent blocker), and the
wasted blocked time is measurable against the immediate-detection
baseline.
"""

from __future__ import annotations

from ..core.detection import Deadlock
from ..core.rollback import RollbackStrategy
from ..observability.events import EventKind
from ..core.scheduler import Scheduler, StepOutcome, StepResult
from ..core.victim import VictimPolicy
from ..graphs.concurrency import ConcurrencyGraph
from ..locking.table import Grant
from ..storage.database import Database

TxnId = str


class PeriodicDetectionScheduler(Scheduler):
    """2PL with sweep-based (rather than on-block) deadlock detection."""

    def __init__(
        self,
        database: Database,
        strategy: RollbackStrategy | str = "mcs",
        policy: VictimPolicy | str = "ordered-min-cost",
        interval: int = 50,
        check_consistency: bool = True,
    ) -> None:
        super().__init__(
            database,
            strategy=strategy,
            policy=policy,
            check_consistency=check_consistency,
        )
        if interval < 1:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.sweeps = 0
        self.sweep_deadlocks = 0
        self.blocked_step_total = 0
        self._blocked_at: dict[TxnId, int] = {}
        self._clock = 0

    # -- suppress on-block detection -------------------------------------

    def _detect(self, requester: TxnId) -> Deadlock | None:
        """Blocked requests are left waiting until the next sweep."""
        self._blocked_at[requester] = self._clock
        return None

    # -- engine hook: the sweep ------------------------------------------------

    def on_engine_step(self, step: int) -> None:
        self._clock += 1
        if self._clock % self.interval:
            return
        self.sweep()

    def sweep(self) -> int:
        """Scan the whole waits-for graph; resolve every cycle found.

        Returns the number of deadlocks resolved.  Cycles are resolved
        one at a time (a rollback may break several), re-scanning until
        the graph is acyclic.
        """
        self.sweeps += 1
        resolved = 0
        while True:
            live = self.lock_manager.table.waits_for
            if live.find_any_cycle() is None:
                break  # cheap existence gate for idle sweeps
            cycle = self._any_cycle(live)
            if cycle is None:
                break
            nominal = max(
                cycle, key=lambda txn_id: self._blocked_at.get(txn_id, -1)
            )
            deadlock = Deadlock(nominal, live, 10_000)
            self.metrics.bump("deadlocks")
            self.sweep_deadlocks += 1
            if self.bus.wants(EventKind.DEADLOCK):
                self.bus.publish(
                    EventKind.DEADLOCK,
                    nominal,
                    cycles=[list(c) for c in deadlock.cycles],
                    swept=True,
                )
            for txn_id in deadlock.members:
                blocked_at = self._blocked_at.get(txn_id)
                if blocked_at is not None:
                    self.blocked_step_total += self._clock - blocked_at
            self._resolve(deadlock)
            resolved += 1
        return resolved

    @staticmethod
    def _any_cycle(graph: ConcurrencyGraph) -> list[TxnId] | None:
        for txn_id in sorted(graph.transactions):
            cycle = graph.cycle_through(txn_id)
            if cycle is not None:
                return cycle
        return None

    # -- bookkeeping --------------------------------------------------------

    def _complete_grant(self, grant: Grant) -> None:
        super()._complete_grant(grant)
        self._blocked_at.pop(grant.txn, None)

    def step(self, txn_id: TxnId) -> StepResult:
        result = super().step(txn_id)
        if result.outcome in (StepOutcome.COMMITTED,):
            self._blocked_at.pop(txn_id, None)
        return result
