"""The one instrumented run: every oracle-armed engine is built here.

:func:`run_armed` runs programs on a scheduler with an
:class:`~repro.verification.oracles.OracleSuite` as the step observer,
then applies :func:`post_run_verdict` (livelock freedom per Theorem 2,
serializable final state), into a :class:`RunOutcome` that carries the
exact interleaving as a replayable schedule.  A chaos segment and a
sweep cell call it directly; :func:`run_with_oracles` regenerates a
workload first (the fuzzer, the replayer, and with ``checks=[]``
``repro run``/``compare`` and the trace ``run`` scenario).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from ..core.scheduler import Scheduler
from ..core.transaction import TransactionProgram
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
    ``interrupted`` is the ``interrupt`` exception that ended the run
    (a chaos crash), if any; ``result`` is then ``None``.
    """

    strategy: str
    policy: str
    trace: Trace
    violation: OracleViolation | None = None
    result: SimulationResult | None = None
    interrupted: Exception | None = None

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


def post_run_verdict(
    final_state: dict,
    expected: dict,
    *,
    strategy: str,
    policy: str,
    livelocked: bool = False,
    oracle: str = "final-state",
    detail: str = "",
) -> OracleViolation | None:
    """The verdict a finished run earns, or ``None``.

    *livelocked* is a livelock its caller judges (one under an ordered
    policy): ``livelock-free``, as Theorem 2 rules it out.  Otherwise a
    final state other than the serial *expected* one fails *oracle*:
    ``final-state`` for one engine run, ``recovery-equivalence`` for a
    chaos run.  *detail* is appended to the message.
    """
    if livelocked:
        return OracleViolation(
            "livelock-free",
            f"livelock under order-respecting policy {policy!r} "
            f"(Theorem 2 violated){detail}",
        )
    if final_state == expected:
        return None
    diff = {
        name: (final_state.get(name), value)
        for name, value in expected.items()
        if final_state.get(name) != value
    }
    return OracleViolation(
        oracle,
        f"non-serializable final state under {strategy!r}{detail}: "
        f"(got, want) per entity {diff}",
    )


def run_armed(
    scheduler: Scheduler,
    programs: Iterable[TransactionProgram],
    interleaving: InterleavingPolicy,
    *,
    strategy: str | None = None,
    expected: dict | None = None,
    checks: str | list[str] = "all",
    exclusive_only: bool = False,
    ordered: bool = False,
    max_steps: int = 200_000,
    livelock_window: int = 20_000,
    stop_when_scripted_exhausted: bool = False,
    attach: Iterable[Callable[[SimulationEngine], object] | None] = (),
    interrupt: type[Exception] | tuple[type[Exception], ...] = (),
) -> RunOutcome:
    """Run *programs* on *scheduler* with the *checks* oracles armed.

    The *attach* hooks (``None`` skipped) get the engine in order before
    any program is added.  An *interrupt* exception ends the run into
    ``RunOutcome.interrupted``; any other library error is the
    ``engine`` verdict.  Given the serial *expected* state, a finished
    run is judged by :func:`post_run_verdict`; a livelock under an
    unordered policy is excused.  *strategy* labels the outcome.
    """
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
    for hook in attach:
        if hook is not None:
            hook(engine)
    for program in programs:
        engine.add(program)

    outcome = RunOutcome(
        strategy or scheduler.strategy.name, scheduler.policy.name, engine.trace
    )
    try:
        outcome.result = result = engine.run()
    except OracleViolation as exc:
        outcome.violation = exc
    except _StopRun:
        pass
    except interrupt as exc:
        outcome.interrupted = exc
    except ReproError as exc:
        # Any library error escaping the run — the engine's own sanity
        # machinery (undetected deadlock, lost wakeup, step-budget
        # overrun) or a lower layer (e.g. an injected StorageFault with
        # degradation disabled) — is an invariant failure from the
        # fuzzer's point of view.
        outcome.violation = OracleViolation("engine", str(exc))
    else:
        if expected is not None and (ordered or not result.livelock_detected):
            outcome.violation = post_run_verdict(
                result.final_state,
                expected,
                strategy=outcome.strategy,
                policy=outcome.policy,
                livelocked=result.livelock_detected,
            )
    return outcome


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
    """Run one workload, regenerated from ``(config, workload_seed)``,
    under oracle observation on a fresh scheduler.

    A run is thus fully described by plain values — exactly what the
    shrinker and the regression loader need to replay it.  ``ordered``
    overrides the policy-name-based inference of whether the Theorem 2
    oracles apply (the fault-injection tests fuzz a *broken* "ordered"
    policy and must keep the oracle armed).  With
    ``stop_when_scripted_exhausted=True`` a :class:`Scripted`
    interleaving ends the run once its schedule is consumed — replays
    then execute exactly the recorded prefix.  ``fault_plan`` (a
    serialised :class:`~repro.resilience.faults.FaultPlan`) arms a fault
    injector, after ``instrument``, with its crash events stripped:
    crash recovery is :func:`repro.resilience.chaos.chaos_run`'s job.
    """
    db, programs = generate_workload(config, seed=workload_seed)
    inject = None
    if fault_plan is not None:
        # Imported lazily: repro.resilience.chaos imports this module.
        from ..resilience.faults import FaultInjector, FaultKind, FaultPlan

        plan = FaultPlan.from_dict(dict(fault_plan))
        plan.events = [
            e for e in plan.events if e.kind is not FaultKind.CRASH
        ]
        inject = FaultInjector(plan).attach
    return run_armed(
        Scheduler(db, strategy=strategy, policy=policy),
        programs,
        interleaving,
        strategy=strategy,
        expected=expected_final_state(db, programs),
        checks=checks,
        exclusive_only=config.write_ratio >= 1.0,
        ordered=is_ordered_policy(policy) if ordered is None else ordered,
        max_steps=max_steps,
        livelock_window=livelock_window,
        stop_when_scripted_exhausted=stop_when_scripted_exhausted,
        attach=(instrument, inject),
    )
