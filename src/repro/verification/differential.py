"""Differential oracle: all rollback strategies agree on the outcome.

The paper's §4 presents total restart, MCS, and the single-copy strategy
as interchangeable *implementations* of the same abstract rollback — how
copies are kept must never change what a transaction computes.  The
differential oracle makes that executable: run the identical workload and
interleaving seed under every strategy (partial and total rollback alike)
and demand that each run commits every transaction and reaches the same
serializable final database state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.victim import VictimPolicy
from ..simulation.interleaving import RandomInterleaving
from ..simulation.workload import WorkloadConfig, generate_workload
from .harness import RunOutcome, run_with_oracles
from .oracles import OracleViolation

#: The four copy strategies plus the total-restart baseline — the full
#: partial-vs-total spectrum the differential oracle compares.
COPY_STRATEGIES = ("mcs", "single-copy", "k-copy:2", "undo-log", "total")


@dataclass
class DifferentialReport:
    """Outcome of one workload across every compared strategy."""

    outcomes: list[RunOutcome]
    violation: OracleViolation | None

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def steps(self) -> int:
        return sum(outcome.steps for outcome in self.outcomes)

    def failing_outcome(self) -> RunOutcome | None:
        """The outcome carrying a per-run violation, if any."""
        for outcome in self.outcomes:
            if outcome.violation is not None:
                return outcome
        return None


def differential_check(
    config: WorkloadConfig,
    workload_seed: int,
    interleave_seed: int,
    strategies: tuple[str, ...] = COPY_STRATEGIES,
    policy: VictimPolicy | str = "ordered-min-cost",
    checks: str | list[str] = "all",
    ordered: bool | None = None,
    max_steps: int = 200_000,
) -> DifferentialReport:
    """Run one workload under every strategy and compare the outcomes.

    Each strategy gets a fresh interleaving generator built from the same
    ``interleave_seed``; schedules still diverge once strategies block
    and roll back differently, which is the point — equivalent final
    states must emerge from genuinely different executions.  Per-run
    oracle violations surface first; otherwise every strategy must have
    committed every transaction.
    """
    outcomes: list[RunOutcome] = []
    for strategy in strategies:
        outcome = run_with_oracles(
            config,
            workload_seed,
            RandomInterleaving(seed=interleave_seed),
            strategy=strategy,
            policy=policy,
            checks=checks,
            ordered=ordered,
            max_steps=max_steps,
        )
        outcomes.append(outcome)
        if outcome.violation is not None:
            return DifferentialReport(outcomes, outcome.violation)

    # Each final state was held to the serial one (``final-state``), so
    # the strategies agree once all commit; an excused livelock does not.
    _db, programs = generate_workload(config, seed=workload_seed)
    expected_commits = sorted(p.txn_id for p in programs)
    for outcome in outcomes:
        committed = sorted(outcome.result.committed)
        if committed != expected_commits:
            return DifferentialReport(
                outcomes,
                OracleViolation(
                    "differential",
                    f"strategy {outcome.strategy!r} committed {committed} "
                    f"instead of all of {expected_commits}",
                ),
            )
    return DifferentialReport(outcomes, None)
