"""Structured liveness diagnoses.

When the system stops making progress — a driver exhausts its step budget,
or the engine's livelock window sees no commit for too long — a bare
exception message is useless for triage.  :class:`LivelockDiagnosis`
captures what the paper's Figure 2 discussion says actually matters: who
could still run, who was blocked on whom (the waits-for subgraph), how the
preemptions were distributed, and which pair of transactions looks like a
mutual-preemption ("potentially infinite" §3.1) couple.

:func:`diagnose` builds one from a live scheduler; it is shared by
:meth:`repro.core.scheduler.Scheduler.run_until_quiescent` (via
:class:`~repro.errors.QuiescenceTimeout`) and ``repro overload``, which
prints it when a run stops on the engine's livelock window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.concurrency import ConcurrencyGraph
    from .scheduler import Scheduler


@dataclass
class LivelockDiagnosis:
    """A snapshot explaining why the system may not be making progress.

    Attributes
    ----------
    step:
        Engine/driver step at which the diagnosis was taken (``None``
        when the driver does not count steps).
    runnable / blocked:
        Transaction ids by current ability to run, sorted.
    graph:
        The waits-for subgraph over the live transactions.
    preemption_counts:
        Per-transaction count of rollbacks forced by *other*
        transactions' conflicts.
    preemption_history:
        ``(requester, victim)`` pairs in occurrence order.
    suspected_pair:
        The unordered pair with the most mutual preemptions — the
        Figure 2 signature — or ``None`` when no pair ever preempted
        each other in both directions.
    """

    step: int | None
    runnable: list[str]
    blocked: list[str]
    graph: "ConcurrencyGraph"
    preemption_counts: dict[str, int] = field(default_factory=dict)
    preemption_history: list[tuple[str, str]] = field(default_factory=list)
    suspected_pair: tuple[str, str] | None = None

    def describe(self) -> str:
        """Multi-line human-readable rendering (triage output)."""
        lines = [
            f"runnable: {', '.join(self.runnable) or '(none)'}",
            f"blocked:  {', '.join(self.blocked) or '(none)'}",
        ]
        arcs = sorted(
            (arc.waiter, arc.holder, arc.entity) for arc in self.graph.arcs
        )
        if arcs:
            lines.append("waits-for:")
            lines.extend(
                f"  {waiter} -> {holder} on {entity!r}"
                for waiter, holder, entity in arcs
            )
        if self.preemption_counts:
            worst = sorted(
                self.preemption_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
            lines.append(
                "preemptions: "
                + ", ".join(f"{txn}×{count}" for txn, count in worst)
            )
        if self.suspected_pair is not None:
            a, b = self.suspected_pair
            lines.append(f"suspected mutual-preemption pair: {a} <-> {b}")
        return "\n".join(lines)


def diagnose(scheduler: "Scheduler", step: int | None = None) -> LivelockDiagnosis:
    """Build a :class:`LivelockDiagnosis` from *scheduler*'s live state."""
    from .transaction import TxnStatus

    metrics = scheduler.metrics
    history = [
        (rb.requester, rb.victim)
        for rb in metrics.rollback_events
        if rb.victim != rb.requester
    ]
    counts: dict[str, int] = {}
    for _requester, victim in history:
        counts[victim] = counts.get(victim, 0) + 1
    pairs = metrics.mutual_preemption_pairs()
    suspected: tuple[str, str] | None = None
    if pairs:
        suspected = max(
            sorted(pairs),
            key=lambda pair: (
                metrics.preemptions.get((pair[0], pair[1]), 0)
                + metrics.preemptions.get((pair[1], pair[0]), 0)
            ),
        )
    return LivelockDiagnosis(
        step=step,
        runnable=scheduler.runnable(),
        blocked=sorted(
            txn_id
            for txn_id, txn in scheduler.transactions.items()
            if txn.status is TxnStatus.BLOCKED
        ),
        graph=scheduler.concurrency_graph(),
        preemption_counts=counts,
        preemption_history=history,
        suspected_pair=suspected,
    )
