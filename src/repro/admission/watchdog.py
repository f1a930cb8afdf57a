"""The starvation watchdog: Theorem 2 aging as an enforcement mechanism.

The paper's Figure 2 shows two transactions preempting each other forever
under unconstrained min-cost victim selection; Theorem 2 cures it with a
time-invariant partial order on who may preempt whom.  The watchdog turns
that theorem into a runtime guarantee that works *regardless of the active
victim policy*:

* It tracks per-transaction preemption counts (rollbacks forced by other
  transactions) and no-progress windows (steps without the program counter
  advancing).
* When a transaction starves — its preemption count reaches the configured
  limit, or it makes no progress for a whole window — the *eldest* starving
  transaction (minimum entry order, exactly Theorem 2's suggested order) is
  granted **preemption immunity**: victim policies treat it as off-limits,
  so its rollback count stops growing and it runs to commit.  Immunity is
  exclusive — at most one transaction holds it — because immunity for two
  mutually-deadlocked transactions would leave no victim at all.
* If an immune transaction is preempted anyway (a victim policy that
  ignores the immunity set, e.g. a fault-injection policy), the bound is
  violated and the watchdog raises
  :class:`~repro.errors.LivelockDetected` carrying a full
  :class:`~repro.core.diagnosis.LivelockDiagnosis` — the waits-for
  subgraph, the preemption history, and the suspected Figure-2 pair —
  instead of letting the run spin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.diagnosis import diagnose
from ..errors import LivelockDetected
from ..observability.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.scheduler import Scheduler


class StarvationWatchdog:
    """Grants Theorem 2 aging immunity; detects violated rollback bounds.

    Parameters
    ----------
    preemption_limit:
        Preemptions (rollbacks forced by others) a transaction may suffer
        before it is considered starving.
    no_progress_window:
        Steps without program-counter progress after which a live
        transaction is considered starving even if rarely preempted
        (covers convoys where it is queued, not preempted).
    """

    def __init__(
        self, preemption_limit: int = 3, no_progress_window: int = 500
    ) -> None:
        if preemption_limit < 1:
            raise ValueError("preemption_limit must be positive")
        if no_progress_window < 1:
            raise ValueError("no_progress_window must be positive")
        self.preemption_limit = preemption_limit
        self.no_progress_window = no_progress_window
        #: Preemption count per transaction (victim of someone else's
        #: conflict), maintained incrementally from the metrics event log.
        self.preemption_counts: dict[str, int] = {}
        self._events_seen = 0
        self._best_pc: dict[str, int] = {}
        self._progress_at: dict[str, int] = {}
        self._current_immune: str | None = None

    # -- observation -------------------------------------------------------

    def _ingest_events(self, scheduler: "Scheduler", step: int) -> None:
        events = scheduler.metrics.rollback_events
        for event in events[self._events_seen:]:
            if event.victim == event.requester:
                continue
            count = self.preemption_counts.get(event.victim, 0) + 1
            self.preemption_counts[event.victim] = count
            if event.victim == self._current_immune:
                raise LivelockDetected(
                    f"{event.victim} was preempted by {event.requester} "
                    f"despite holding preemption immunity "
                    f"(count {count} > limit {self.preemption_limit}): the "
                    f"active victim policy ignores the Theorem 2 partial "
                    f"order",
                    diagnosis=diagnose(scheduler, step=step),
                )
        self._events_seen = len(events)

    def _track_progress(self, scheduler: "Scheduler", step: int) -> None:
        for txn_id in sorted(scheduler.transactions):
            txn = scheduler.transactions[txn_id]
            if txn.done:
                self._best_pc.pop(txn_id, None)
                self._progress_at.pop(txn_id, None)
                continue
            # Progress means the execution *frontier* moved: the pc
            # surpassed the furthest point this transaction ever reached.
            # A rollback resets the pc downwards and the subsequent
            # re-climb merely repeats lost work, so neither counts —
            # exactly the signature of Figure 2's livelock, where victims
            # oscillate below their frontier forever.
            best = self._best_pc.get(txn_id)
            if best is None or txn.pc > best:
                self._best_pc[txn_id] = txn.pc
                self._progress_at[txn_id] = step

    def _starving(self, scheduler: "Scheduler", step: int) -> list[str]:
        starving = []
        for txn_id in sorted(scheduler.transactions):
            txn = scheduler.transactions[txn_id]
            if txn.done:
                continue
            if self.preemption_counts.get(txn_id, 0) >= self.preemption_limit:
                starving.append(txn_id)
                continue
            since = self._progress_at.get(txn_id)
            if since is not None and step - since >= self.no_progress_window:
                starving.append(txn_id)
        return starving

    # -- enforcement -------------------------------------------------------

    def tick(self, scheduler: "Scheduler", step: int) -> None:
        """Observe, then (re)assign the single immunity slot.

        Immunity goes to the starving transaction with the minimum entry
        order — the eldest, per Theorem 2's time-invariant order — and is
        released when its holder terminates.
        """
        self._ingest_events(scheduler, step)
        self._track_progress(scheduler, step)
        if self._current_immune is not None:
            holder = scheduler.transactions.get(self._current_immune)
            if holder is None or holder.done:
                scheduler.preemption_immune.discard(self._current_immune)
                scheduler.bus.publish(
                    EventKind.IMMUNITY_RELEASE, self._current_immune
                )
                self._current_immune = None
        starving = self._starving(scheduler, step)
        if not starving:
            return
        eldest = min(
            starving,
            key=lambda t: (scheduler.transactions[t].entry_order, t),
        )
        if self._current_immune is not None:
            holder = scheduler.transactions[self._current_immune]
            if (
                scheduler.transactions[eldest].entry_order,
                eldest,
            ) >= (holder.entry_order, self._current_immune):
                return
            # A strictly elder transaction started starving after the
            # current holder got the slot (e.g. the holder is a blocked
            # waiter downstream of the actual livelock).  Hand the slot
            # over: entry order is time-invariant, so every handoff moves
            # toward the eldest and the chain is finite.
            scheduler.preemption_immune.discard(self._current_immune)
            scheduler.bus.publish(
                EventKind.IMMUNITY_HANDOFF,
                eldest,
                previous=self._current_immune,
            )
        self._current_immune = eldest
        scheduler.preemption_immune.add(eldest)
        scheduler.metrics.immunity_grants += 1
        if scheduler.bus.wants(EventKind.IMMUNITY_GRANT):
            scheduler.bus.publish(
                EventKind.IMMUNITY_GRANT,
                eldest,
                preemptions=self.preemption_counts.get(eldest, 0),
                starving=starving,
            )

    @property
    def immune(self) -> str | None:
        """The transaction currently holding the immunity slot, if any."""
        return self._current_immune

    def verdict(self, scheduler: "Scheduler") -> dict[str, object]:
        """A summary of what the watchdog saw and did (CLI reporting)."""
        worst = max(self.preemption_counts.values(), default=0)
        return {
            "immunity_grants": scheduler.metrics.immunity_grants,
            "max_preemptions": worst,
            "preemption_limit": self.preemption_limit,
            "mutual_preemption_pairs": sorted(
                scheduler.metrics.mutual_preemption_pairs()
            ),
            "currently_immune": self._current_immune,
        }
