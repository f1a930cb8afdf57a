"""Replayable failure cases: plain-data descriptions of one exact run.

A :class:`ReplayCase` pins down everything needed to re-execute a fuzzer
run step for step: the workload knobs and seed (programs are regenerated,
not stored), the strategy and victim policy by name, the oracle set, and
the interleaving as an explicit schedule of transaction ids.  Replay
drives the same engine through a
:class:`~repro.simulation.interleaving.Scripted` policy, stopping when
the schedule is exhausted, so the shrinker can treat "subset of the
schedule" as "candidate smaller failure".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable

from ..simulation.engine import SimulationEngine
from ..simulation.interleaving import RandomInterleaving, Scripted
from ..simulation.workload import WorkloadConfig
from .faults import resolve_policy
from .harness import RunOutcome, run_with_oracles
from .oracles import OracleViolation


@dataclass
class ReplayCase:
    """One exact run, as plain values (JSON-serialisable; see
    :mod:`repro.verification.regressions`)."""

    workload: dict
    workload_seed: int
    strategy: str
    policy: str
    schedule: list[str]
    checks: str | list[str] = "all"
    ordered: bool | None = None
    oracle: str | None = None
    description: str = ""
    extra_steps: int = 8
    #: Optional serialised :class:`~repro.resilience.faults.FaultPlan`;
    #: replay re-arms the same injected faults (crash events are ignored —
    #: scripted replays have no recovery loop).
    fault_plan: dict | None = None
    #: A liveness case has no schedule: the run is driven to completion by
    #: ``RandomInterleaving`` from this seed within ``extra_steps`` steps,
    #: and a livelock or an exhausted budget is the violation.
    interleaving_seed: int | None = None

    def workload_config(self) -> WorkloadConfig:
        knobs = dict(self.workload)
        for key in ("locks_per_txn", "writes_per_entity"):
            if key in knobs:
                knobs[key] = tuple(knobs[key])
        return WorkloadConfig(**knobs)

    def with_schedule(self, schedule: list[str]) -> "ReplayCase":
        return replace(self, schedule=list(schedule))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReplayCase":
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


def make_case(
    config: WorkloadConfig,
    workload_seed: int,
    outcome: RunOutcome,
    checks: str | list[str] = "all",
    ordered: bool | None = None,
    fault_plan: dict | None = None,
) -> ReplayCase:
    """Package a failing :class:`RunOutcome` as a replayable case."""
    violation = outcome.violation
    return ReplayCase(
        workload=asdict(config),
        workload_seed=workload_seed,
        strategy=outcome.strategy,
        policy=outcome.policy,
        schedule=list(outcome.schedule),
        checks=checks,
        ordered=ordered,
        oracle=violation.oracle if violation else None,
        description=str(violation) if violation else "",
        fault_plan=fault_plan,
    )


def replay(
    case: ReplayCase,
    instrument: Callable[[SimulationEngine], None] | None = None,
) -> RunOutcome:
    """Re-execute *case* and report what the oracles observed.

    The schedule is followed entry by entry (entries naming a transaction
    that is not currently runnable are skipped, as
    :class:`~repro.simulation.interleaving.Scripted` defines); the run
    stops once the schedule is consumed.  A budget of
    ``len(schedule) + extra_steps`` engine steps bounds pathological
    replays.  A liveness case (``interleaving_seed`` set) runs to completion
    under a seeded random interleaving instead.  ``instrument`` is
    :func:`~repro.verification.harness.run_with_oracles`'s.
    """
    liveness = case.interleaving_seed is not None
    return run_with_oracles(
        case.workload_config(),
        case.workload_seed,
        RandomInterleaving(case.interleaving_seed) if liveness
        else Scripted(case.schedule),
        strategy=case.strategy,
        policy=resolve_policy(case.policy),
        checks=case.checks,
        ordered=case.ordered,
        max_steps=len(case.schedule) + case.extra_steps,
        livelock_window=5_000 if liveness else 0,
        stop_when_scripted_exhausted=True,
        fault_plan=case.fault_plan,
        instrument=instrument,
    )


def reproduces(case: ReplayCase) -> OracleViolation | None:
    """The violation the replay produces, if it matches the case's oracle.

    A case without a recorded oracle accepts any violation; otherwise the
    replay must fire the *same* oracle (shrinking must not wander onto a
    different bug).
    """
    outcome = replay(case)
    violation = outcome.violation
    if violation is None:
        return None
    if case.oracle is not None and violation.oracle != case.oracle:
        return None
    return violation
