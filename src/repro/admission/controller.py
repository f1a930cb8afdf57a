"""The admission controller: queue arrivals instead of over-admitting.

Arrivals are submitted to the controller rather than registered directly
with the scheduler; each tick the controller asks its policy for the
current capacity and admits queued programs while the number in flight
(registered but not yet committed or shed) is below it.  Admission is
FIFO unless the policy exposes a ``priority`` hook (the ``predictive``
policy does): then the lowest-risk queued program is admitted first,
with arrival order as the deterministic tiebreak, and every admission
that overtakes earlier arrivals publishes an ``ADMISSION_REORDER``
event.  Everything is counted in :class:`~repro.core.metrics.Metrics` —
admissions, and the peak queue depth — so a run's report can show what
the gate did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..observability.events import EventKind
from .policies import AdmissionPolicy, AdmissionSnapshot, make_admission_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.scheduler import Scheduler
    from ..core.transaction import TransactionProgram


class AdmissionController:
    """Admission gate in front of :meth:`Scheduler.register`.

    Parameters
    ----------
    policy:
        An :class:`~repro.admission.policies.AdmissionPolicy` instance or
        registry name (``"fixed-mpl"``, ``"aimd"``, ``"predictive"``).
    """

    def __init__(self, policy: AdmissionPolicy | str = "fixed-mpl") -> None:
        self.policy = (
            make_admission_policy(policy) if isinstance(policy, str) else policy
        )
        #: (arrival index, program), in arrival order.
        self._queue: list[tuple[int, "TransactionProgram"]] = []
        self._arrivals = 0
        #: txn_id -> step at which the transaction was admitted.
        self.admitted_at: dict[str, int] = {}
        #: Policy window-history entries already published to the bus.
        self._history_seen = 0
        #: Whether the policy's static risk anchor has been announced.
        self._risk_published = False
        #: Admissions that overtook at least one earlier arrival.
        self.reorders = 0

    def pending(self) -> int:
        """Programs queued but not yet admitted."""
        return len(self._queue)

    def submit(self, program: "TransactionProgram") -> None:
        """Queue *program* for admission at the next capacity check."""
        self._queue.append((self._arrivals, program))
        self._arrivals += 1

    def in_flight(self, scheduler: "Scheduler") -> int:
        """Admitted transactions that have not yet terminated.

        The controller is the gate in front of :meth:`Scheduler.register`
        — every registration on its scheduler is an admission (the lock
        service and :func:`~repro.admission.stress.overload_run` register
        nothing else) — so this is the scheduler's live count, kept at
        registration and at termination.
        """
        return scheduler.live_count

    def snapshot(self, scheduler: "Scheduler", step: int) -> AdmissionSnapshot:
        metrics = scheduler.metrics
        return AdmissionSnapshot(
            step=step,
            in_flight=self.in_flight(scheduler),
            queued=len(self._queue),
            commits=metrics.commits,
            rollbacks=metrics.rollbacks,
            shed=metrics.shed,
        )

    def _publish_risk_anchor(self, scheduler: "Scheduler") -> None:
        """Announce the predictive policy's static anchor, once."""
        if self._risk_published:
            return
        self._risk_published = True
        report = getattr(self.policy, "report", None)
        recommended = getattr(self.policy, "recommended", None)
        if (
            report is None
            or recommended is None
            or not scheduler.bus.wants(EventKind.PREDICT_RISK)
        ):
            return
        scheduler.bus.publish(
            EventKind.PREDICT_RISK,
            mean_pair_risk=round(report.mean_pair_risk, 6),
            recommended_mpl=recommended,
            classes=len(report.classes),
            templates=report.total_templates,
        )

    def _pop_next(self) -> tuple[int, "TransactionProgram", float, int]:
        """The next program to admit: (arrival, program, risk, skipped).

        FIFO without a policy ``priority`` hook; otherwise the queued
        program with the lowest ``(risk, arrival)`` pair — arrival order
        breaks ties, so equal-risk workloads degrade to exact FIFO.
        ``skipped`` counts the earlier arrivals it overtook.
        """
        priority = getattr(self.policy, "priority", None)
        if priority is None:
            arrival, program = self._queue.pop(0)
            return arrival, program, 0.0, 0
        best = min(
            range(len(self._queue)),
            key=lambda i: (priority(self._queue[i][1]), self._queue[i][0]),
        )
        arrival, program = self._queue.pop(best)
        return arrival, program, priority(program), best

    def tick(self, scheduler: "Scheduler", step: int) -> list[str]:
        """Admit queued programs up to the policy's current capacity.

        Returns the ids admitted this tick (the guard hangs deadlines off
        them).  Peak queue depth is observed *before* draining so a burst
        that is absorbed within one tick still shows up in metrics.
        """
        scheduler.metrics.observe_admission_queue(len(self._queue))
        self._publish_risk_anchor(scheduler)
        admitted: list[str] = []
        while self._queue:
            snapshot = self.snapshot(scheduler, step)
            if snapshot.in_flight >= self.policy.capacity(snapshot):
                break
            _arrival, program, risk, skipped = self._pop_next()
            scheduler.register(program)
            self.admitted_at[program.txn_id] = step
            scheduler.metrics.admitted += 1
            if skipped:
                self.reorders += 1
            bus = scheduler.bus
            if skipped and bus.wants(EventKind.ADMISSION_REORDER):
                bus.publish(
                    EventKind.ADMISSION_REORDER,
                    program.txn_id,
                    skipped=skipped,
                    risk=round(risk, 6),
                )
            if bus.wants(EventKind.ADMISSION_ADMIT):
                bus.publish(
                    EventKind.ADMISSION_ADMIT,
                    program.txn_id,
                    queued_behind=len(self._queue),
                )
            admitted.append(program.txn_id)
        history = getattr(self.policy, "history", None)
        if history is not None:
            for at, window in history[self._history_seen:]:
                if scheduler.bus.wants(EventKind.ADMISSION_WINDOW):
                    scheduler.bus.publish(
                        EventKind.ADMISSION_WINDOW, window=window, at=at
                    )
            self._history_seen = len(history)
        return admitted
