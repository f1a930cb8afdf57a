"""The instrumented run harness shared by the fuzzer and the replayer.

:func:`run_with_oracles` executes one workload through a
:class:`~repro.simulation.engine.SimulationEngine` with an
:class:`~repro.verification.oracles.OracleSuite` attached as the step
observer, then applies the post-run oracles (livelock freedom per
Theorem 2, serializable final state).  The outcome — including the exact
interleaving as a replayable schedule — comes back as a
:class:`RunOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from ..core.scheduler import Scheduler
from ..core.victim import VictimPolicy
from ..errors import ReproError
from ..simulation.engine import SimulationEngine, SimulationResult
from ..simulation.interleaving import InterleavingPolicy, Scripted
from ..simulation.trace import Trace
from ..simulation.workload import (
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)
from .oracles import (
    ORDERED_POLICIES,
    OracleSuite,
    OracleViolation,
    make_oracles,
)


class _StopRun(Exception):
    """Internal control flow: abort an engine run without a verdict."""


@dataclass
class RunOutcome:
    """One instrumented run: its result, schedule, and any violation.

    ``schedule`` and ``fingerprint`` are read off ``trace`` when first
    read: the fingerprint renders every deadlock's cycle record, which
    a caller that never reads it (the predictor's harvest) need not pay.
    """

    strategy: str
    policy: str
    violation: OracleViolation | None
    result: SimulationResult | None
    trace: Trace

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def steps(self) -> int:
        return len(self.trace)

    @cached_property
    def schedule(self) -> list[str]:
        return self.trace.schedule()

    @cached_property
    def fingerprint(self) -> str:
        return self.trace.fingerprint()


def policy_name(policy: VictimPolicy | str) -> str:
    return policy if isinstance(policy, str) else policy.name


def is_ordered_policy(policy: VictimPolicy | str) -> bool:
    """Whether *policy* claims the Theorem 2 ordering discipline."""
    return policy_name(policy) in ORDERED_POLICIES


def run_with_oracles(
    config: WorkloadConfig,
    workload_seed: int,
    interleaving: InterleavingPolicy,
    strategy: str = "mcs",
    policy: VictimPolicy | str = "ordered-min-cost",
    checks: str | list[str] = "all",
    ordered: bool | None = None,
    max_steps: int = 200_000,
    livelock_window: int = 20_000,
    stop_when_scripted_exhausted: bool = False,
    fault_plan: dict | None = None,
    instrument: Callable[[SimulationEngine], None] | None = None,
) -> RunOutcome:
    """Run one workload under oracle observation.

    The workload is regenerated from ``(config, workload_seed)`` so a
    run is fully described by plain values — exactly what the shrinker
    and the regression loader need to replay it.  ``ordered`` overrides
    the policy-name-based inference of whether the Theorem 2 oracles
    apply (the fault-injection tests fuzz a *broken* "ordered" policy and
    must keep the oracle armed).  With
    ``stop_when_scripted_exhausted=True`` a :class:`Scripted`
    interleaving ends the run once its schedule is consumed instead of
    falling through to round-robin — replays then execute exactly the
    recorded prefix.

    ``fault_plan`` (a serialised
    :class:`~repro.resilience.faults.FaultPlan`) arms a fault injector on
    the run — the regression loader uses this to replay chaos-found
    failures.  Crash events are stripped: this harness has no recovery
    loop; crash-recovery equivalence is
    :func:`repro.resilience.chaos.chaos_run`'s job.

    ``instrument`` is called with the built engine before the fault
    injector attaches, as in :func:`~repro.resilience.chaos.chaos_run`
    (the deadlock predictor installs its event bus this way).
    """
    db, programs = generate_workload(config, seed=workload_seed)
    expected = expected_final_state(db, programs)
    scheduler = Scheduler(db, strategy=strategy, policy=policy)
    if ordered is None:
        ordered = is_ordered_policy(policy)
    exclusive_only = config.write_ratio >= 1.0
    suite = OracleSuite(
        make_oracles(
            checks, exclusive_only=exclusive_only, ordered_policy=ordered
        )
    )

    def observe(engine: SimulationEngine, event) -> None:
        suite(engine, event)
        if (
            stop_when_scripted_exhausted
            and isinstance(interleaving, Scripted)
            and interleaving.exhausted
            and not engine.scheduler.all_done
        ):
            raise _StopRun

    engine = SimulationEngine(
        scheduler,
        interleaving,
        max_steps=max_steps,
        livelock_window=livelock_window,
        on_step=observe,
    )
    if instrument is not None:
        instrument(engine)
    if fault_plan is not None:
        # Imported lazily: repro.resilience.chaos imports this module.
        from ..resilience.faults import FaultInjector, FaultKind, FaultPlan

        plan = FaultPlan.from_dict(dict(fault_plan))
        plan.events = [
            e for e in plan.events if e.kind is not FaultKind.CRASH
        ]
        FaultInjector(plan).attach(engine)
    for program in programs:
        engine.add(program)

    violation: OracleViolation | None = None
    result: SimulationResult | None = None
    try:
        result = engine.run()
    except OracleViolation as exc:
        violation = exc
    except _StopRun:
        pass
    except ReproError as exc:
        # Any library error escaping the run — the engine's own sanity
        # machinery (undetected deadlock, lost wakeup, step-budget
        # overrun) or a lower layer (e.g. an injected StorageFault with
        # degradation disabled) — is an invariant failure from the
        # fuzzer's point of view.
        violation = OracleViolation("engine", str(exc))

    if violation is None and result is not None:
        if result.livelock_detected:
            if ordered:
                violation = OracleViolation(
                    "livelock-free",
                    f"livelock under order-respecting policy "
                    f"{policy_name(policy)!r} (Theorem 2 violated): "
                    f"{result.metrics.rollbacks} rollbacks, "
                    f"{len(result.committed)} commits",
                )
        elif result.final_state != expected:
            diff = {
                name: (result.final_state.get(name), value)
                for name, value in expected.items()
                if result.final_state.get(name) != value
            }
            violation = OracleViolation(
                "final-state",
                f"non-serializable final state under {strategy!r}: "
                f"(got, want) per entity {diff}",
            )

    return RunOutcome(
        strategy=strategy,
        policy=policy_name(policy),
        violation=violation,
        result=result,
        trace=engine.trace,
    )
