"""The chaos loop: run a workload under injected faults, crash, recover,
and prove the outcome unchanged.

:func:`chaos_run` executes one workload as a sequence of *segments*: an
engine runs under a :class:`~repro.resilience.faults.FaultInjector` and a
:class:`~repro.resilience.recovery.RecoveryManager` until either the
workload completes or an injected :class:`CrashSignal` kills the
scheduler.  On a crash the recovery manager rebuilds the durable state
from checkpoint + WAL redo, the surviving programs are re-registered —
in their original admission order — on a fresh scheduler over the
recovered database, and the next segment resumes with the same injector
(fault indices are run-global).  When the last segment finishes, the
final database state must equal the analytically expected serial state;
anything else raises the ``recovery-equivalence`` verdict.

:func:`crash_recovery_sweep` is the acceptance gate: for every strategy
it runs the fault-free reference, then re-runs the workload with a crash
injected at every recorded event index, checking each recovered run
converges to the same committed final state.

Both entry points are deterministic functions of
``(workload config, workload seed, chaos seed)``:
:meth:`ChaosRunOutcome.fingerprint` folds the fault-plan hash and every
segment's trace hash into one digest, and identical inputs produce the
identical digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from ..core.scheduler import Scheduler
from ..errors import ReproError
from ..observability.events import EventKind
from ..simulation.engine import SimulationEngine
from ..simulation.interleaving import RandomInterleaving
from ..simulation.workload import (
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)
from ..storage.database import Database
from ..verification.differential import COPY_STRATEGIES
from ..verification.harness import is_ordered_policy, policy_name
from ..verification.oracles import OracleSuite, OracleViolation, make_oracles
from .faults import CrashSignal, FaultEvent, FaultInjector, FaultKind, FaultPlan
from .recovery import RecoveryManager

#: Name of the post-run chaos verdict (also a ``repro fuzz`` check name).
RECOVERY_EQUIVALENCE = "recovery-equivalence"

#: Step oracles that hold for the distributed scheduler.  ``graph-acyclic``
#: and ``forest`` assume every cycle resolves the moment it forms, and
#: ``cycles-through-requester`` assumes every DEADLOCK event carries the
#: detected cycles; the distributed design (§3.3) deliberately lets
#: cross-site cycles stand until a timestamp rule or wait timeout clears
#: them — and reports timestamp-rule resolutions as cycle-less DEADLOCK
#: events, since no single site ever saw a cycle.  Those three are
#: centralised-only invariants.
DISTRIBUTED_SAFE_CHECKS = (
    "no-commit-loss",
    "lock-table",
    "preemption-order",
    "no-stale-read",
)


@dataclass
class ChaosRunOutcome:
    """One chaos run: its plan, per-segment traces, and the verdict."""

    strategy: str
    policy: str
    plan: FaultPlan
    violation: OracleViolation | None
    committed: list[str]
    final_state: dict
    segment_fingerprints: list[str]
    steps: int
    crashes: int
    metrics_summaries: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def segments(self) -> int:
        return len(self.segment_fingerprints)

    def fingerprint(self) -> str:
        """One digest over the fault plan and every segment trace —
        identical inputs reproduce it byte-for-byte."""
        digest = hashlib.sha256()
        digest.update(self.plan.fingerprint().encode())
        for segment in self.segment_fingerprints:
            digest.update(segment.encode())
            digest.update(b"\n")
        return digest.hexdigest()


@dataclass
class ChaosReport:
    """A whole chaos campaign (several runs, e.g. one per strategy)."""

    outcomes: list[ChaosRunOutcome]
    violations: list[OracleViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def steps(self) -> int:
        return sum(outcome.steps for outcome in self.outcomes)

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for outcome in self.outcomes:
            digest.update(outcome.fingerprint().encode())
            digest.update(b"\n")
        return digest.hexdigest()


def _segment_seed(chaos_seed: int, segment: int) -> int:
    """Deterministic per-segment interleaving seed (avoids Python's
    randomised string hashing; plain integer arithmetic only)."""
    return (chaos_seed * 1_000_003 + segment * 7_919 + 12_289) % (2**31)


def _build_scheduler(
    state: dict,
    strategy: str,
    policy,
    view,
    cross_site_mode: str,
    wait_timeout: int,
    backoff_seed: int,
):
    database = Database(dict(state))
    if view is None:
        return Scheduler(database, strategy=strategy, policy=policy)
    from ..distributed import DistributedScheduler

    return DistributedScheduler(
        database,
        view,
        strategy=strategy,
        policy=policy,
        cross_site_mode=cross_site_mode,
        wait_timeout=wait_timeout,
        backoff_seed=backoff_seed,
    )


def chaos_run(
    config: WorkloadConfig,
    workload_seed: int,
    chaos_seed: int,
    strategy: str = "mcs",
    policy="ordered-min-cost",
    plan: FaultPlan | None = None,
    crashes: int = 1,
    site_crashes: int = 0,
    partitions: int = 0,
    message_faults: int = 0,
    storage_faults: int = 0,
    stalls: int = 0,
    degrade: bool = True,
    checkpoint_every: int = 25,
    sites: int = 0,
    replicate: int = 0,
    cross_site_mode: str = "wound-wait",
    wait_timeout: int = 200,
    checks: str | list[str] = "all",
    max_steps: int = 200_000,
    livelock_window: int = 20_000,
    horizon: int | None = None,
    instrument: Callable[[SimulationEngine], None] | None = None,
) -> ChaosRunOutcome:
    """Run one workload under one fault plan, recovering across crashes.

    With ``plan=None`` the plan is generated from ``chaos_seed`` and the
    fault-count knobs; pass an explicit plan to replay a known schedule
    (the crash sweep and the regression loader do).  ``sites > 0`` runs
    the distributed scheduler (available copies), exposing the network,
    site-crash, and partition fault kinds; ``replicate`` picks its
    placement: 0 is a fixed round-robin ring (one copy per entity),
    ``>= 1`` a consistent-hash ring with that replication factor.
    ``instrument`` is called with each segment's engine before it runs
    (first in the attach order, so an attached observability recorder's
    bus is live before the recovery manager copies it onto the WAL) —
    the recorder re-attaches across crash segments and stitches one
    continuous event stream.
    """
    database, programs = generate_workload(config, seed=workload_seed)
    expected = expected_final_state(database, programs)
    total_ops = sum(len(p.operations) + 1 for p in programs)
    if plan is None:
        plan = FaultPlan.generate(
            chaos_seed,
            horizon=horizon or max(16, 2 * total_ops),
            txn_ids=[p.txn_id for p in programs],
            n_sites=sites,
            crashes=crashes,
            site_crashes=site_crashes,
            partitions=partitions,
            message_faults=message_faults,
            storage_faults=storage_faults,
            stalls=stalls,
            degrade=degrade,
        )
    view = None
    if sites > 0:
        from ..distributed import hash_view, round_robin_partition

        entities = database.snapshot().keys()
        view = (
            hash_view(entities, programs, sites, rf=replicate)
            if replicate > 0
            else round_robin_partition(entities, programs, sites)
        )

    injector = FaultInjector(plan)
    ordered = is_ordered_policy(policy)
    exclusive_only = config.write_ratio >= 1.0
    if sites > 0 and checks == "all":
        checks = list(DISTRIBUTED_SAFE_CHECKS)

    state = database.snapshot()
    survivors = list(programs)
    committed: list[str] = []
    segment_fingerprints: list[str] = []
    metrics_summaries: list[dict] = []
    steps = 0
    final_state: dict = dict(state)
    violation: OracleViolation | None = None
    livelocked = False
    # Every segment ends in either completion or one planned crash, so
    # the loop is bounded by the number of planned crashes (+1 for the
    # final segment; +1 slack for a crash index never reached).
    max_segments = len(plan.crash_indices()) + 2

    for segment in range(max_segments):
        scheduler = _build_scheduler(
            state, strategy, policy, view, cross_site_mode, wait_timeout,
            backoff_seed=_segment_seed(chaos_seed, segment),
        )
        suite = OracleSuite(
            make_oracles(
                checks,
                exclusive_only=exclusive_only,
                ordered_policy=ordered,
            )
        )
        engine = SimulationEngine(
            scheduler,
            RandomInterleaving(seed=_segment_seed(chaos_seed, segment)),
            max_steps=max_steps,
            livelock_window=livelock_window,
            stop_on_livelock=True,
            on_step=suite,
        )
        if instrument is not None:
            instrument(engine)
        recovery = RecoveryManager(survivors, checkpoint_every)
        recovery.attach(engine)
        injector.attach(engine)  # last: crash fires after WAL bookkeeping
        for program in survivors:
            engine.add(program)
        try:
            result = engine.run()
        except CrashSignal:
            scheduler.bus.publish(
                EventKind.CRASH,
                segment=segment,
                at=len(engine.trace),
            )
            segment_fingerprints.append(engine.trace.fingerprint())
            metrics_summaries.append(scheduler.metrics.summary())
            steps += len(engine.trace)
            recovered = recovery.recover()
            committed.extend(recovered.committed)
            state = recovered.state
            survivors = recovered.survivors
            final_state = dict(state)
            if not survivors:
                break
            continue
        except OracleViolation as exc:
            violation = exc
            segment_fingerprints.append(engine.trace.fingerprint())
            steps += len(engine.trace)
            break
        except ReproError as exc:
            violation = OracleViolation("engine", str(exc))
            segment_fingerprints.append(engine.trace.fingerprint())
            steps += len(engine.trace)
            break
        segment_fingerprints.append(engine.trace.fingerprint())
        metrics_summaries.append(scheduler.metrics.summary())
        steps += len(engine.trace)
        committed.extend(result.committed)
        final_state = result.final_state
        livelocked = result.livelock_detected
        break
    else:
        violation = OracleViolation(
            "engine",
            f"chaos loop exceeded {max_segments} segments without "
            f"completing (crash indices {plan.crash_indices()})",
        )

    if violation is None and livelocked and ordered:
        violation = OracleViolation(
            "livelock-free",
            f"livelock under order-respecting policy "
            f"{policy_name(policy)!r} during chaos run "
            f"(seed {chaos_seed})",
        )
    if violation is None and final_state != expected:
        diff = {
            name: (final_state.get(name), value)
            for name, value in expected.items()
            if final_state.get(name) != value
        }
        violation = OracleViolation(
            RECOVERY_EQUIVALENCE,
            f"post-recovery final state diverges from the fault-free "
            f"serial state under {strategy!r} (chaos seed {chaos_seed}, "
            f"{injector.crashes_fired} crash(es)): (got, want) per "
            f"entity {diff}",
        )
    return ChaosRunOutcome(
        strategy=strategy,
        policy=policy_name(policy),
        plan=plan,
        violation=violation,
        committed=committed,
        final_state=final_state,
        segment_fingerprints=segment_fingerprints,
        steps=steps,
        crashes=injector.crashes_fired,
        metrics_summaries=metrics_summaries,
    )


def crash_recovery_sweep(
    config: WorkloadConfig,
    workload_seed: int,
    strategies: tuple[str, ...] = COPY_STRATEGIES,
    policy="ordered-min-cost",
    chaos_seed: int = 0,
    checkpoint_every: int = 10,
    every: int = 1,
    sites: int = 0,
    replicate: int = 0,
    cross_site_mode: str = "wound-wait",
    checks: str | list[str] = "all",
    max_steps: int = 200_000,
    deadline=None,
) -> ChaosReport:
    """Crash at *every* recorded event index, for every strategy.

    The fault-free reference run fixes the number of recorded events N;
    the sweep then replays the workload N times per strategy with a
    single crash planted at event k (k = 0, ``every``, 2·``every``, …),
    asserting each recovered run reaches the fault-free committed final
    state.  ``deadline`` (a no-argument callable returning True when the
    budget is spent) lets CI cap the sweep without losing determinism of
    whatever prefix did run.
    """
    outcomes: list[ChaosRunOutcome] = []
    violations: list[OracleViolation] = []
    for strategy in strategies:
        reference = chaos_run(
            config,
            workload_seed,
            chaos_seed,
            strategy=strategy,
            policy=policy,
            plan=FaultPlan(seed=chaos_seed, events=[]),
            checkpoint_every=checkpoint_every,
            sites=sites,
            replicate=replicate,
            cross_site_mode=cross_site_mode,
            checks=checks,
            max_steps=max_steps,
        )
        outcomes.append(reference)
        if reference.violation is not None:
            violations.append(reference.violation)
            continue
        n_events = reference.steps
        for k in range(0, n_events, max(1, every)):
            if deadline is not None and deadline():
                break
            outcome = chaos_run(
                config,
                workload_seed,
                chaos_seed,
                strategy=strategy,
                policy=policy,
                plan=FaultPlan(
                    seed=chaos_seed,
                    events=[FaultEvent(FaultKind.CRASH, k)],
                ),
                checkpoint_every=checkpoint_every,
                sites=sites,
                replicate=replicate,
                cross_site_mode=cross_site_mode,
                checks=checks,
                max_steps=max_steps,
            )
            outcomes.append(outcome)
            if outcome.violation is not None:
                violations.append(outcome.violation)
            elif outcome.final_state != reference.final_state:
                violations.append(
                    OracleViolation(
                        RECOVERY_EQUIVALENCE,
                        f"crash at event {k} under {strategy!r} recovered "
                        f"to a different final state than the fault-free "
                        f"run",
                    )
                )
    return ChaosReport(outcomes=outcomes, violations=violations)


def recovery_equivalence_check(
    config: WorkloadConfig,
    workload_seed: int,
    chaos_seed: int,
    strategy: str = "mcs",
    policy="ordered-min-cost",
    sample: int = 3,
    checkpoint_every: int = 10,
    max_steps: int = 200_000,
) -> OracleViolation | None:
    """Sampled crash-recovery equivalence (the fuzzer's post-run check).

    Runs the fault-free reference, then ``sample`` crash points spread
    evenly across the recorded events; returns the first violation found
    or ``None``.  Much cheaper than the full sweep while still exercising
    early, middle, and late crash points every round.
    """
    reference = chaos_run(
        config,
        workload_seed,
        chaos_seed,
        strategy=strategy,
        policy=policy,
        plan=FaultPlan(seed=chaos_seed, events=[]),
        checkpoint_every=checkpoint_every,
        max_steps=max_steps,
    )
    if reference.violation is not None:
        return reference.violation
    n_events = reference.steps
    if n_events < 2 or sample < 1:
        return None
    points = sorted(
        {
            1 + (i * (n_events - 1)) // max(1, sample)
            for i in range(sample)
        }
    )
    for k in points:
        outcome = chaos_run(
            config,
            workload_seed,
            chaos_seed,
            strategy=strategy,
            policy=policy,
            plan=FaultPlan(
                seed=chaos_seed, events=[FaultEvent(FaultKind.CRASH, k)]
            ),
            checkpoint_every=checkpoint_every,
            max_steps=max_steps,
        )
        if outcome.violation is not None:
            return outcome.violation
        if outcome.final_state != reference.final_state:
            return OracleViolation(
                RECOVERY_EQUIVALENCE,
                f"crash at event {k} under {strategy!r} recovered to a "
                f"different final state than the fault-free run",
            )
    return None
