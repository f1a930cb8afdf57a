"""The chaos loop: run a workload under injected faults, crash, recover,
and prove the outcome unchanged.

A chaos run is the verification harness plus a recovery loop.
:func:`chaos_run` plans the faults, then runs the workload in
*segments*, each one :func:`~repro.verification.harness.run_armed` with
a :class:`~repro.resilience.recovery.RecoveryManager` and a
:class:`~repro.resilience.faults.FaultInjector` attached, until the
workload completes.  On an injected :class:`CrashSignal` the recovery
manager rebuilds the durable state from checkpoint + WAL redo, the
surviving programs are re-registered — in their original admission
order — on a fresh scheduler over the recovered database, and the next
segment resumes with the same injector (fault indices are run-global).
The stitched final state must be the serial one: the harness's
post-run verdict, named ``recovery-equivalence`` here.

:func:`crash_recovery_sweep` is the acceptance gate: for every strategy
it runs the fault-free reference, then re-runs the workload with a crash
at every recorded event index (or at a few sampled ones, the fuzzer's
``recovery-equivalence`` check).

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
from ..verification.harness import (
    is_ordered_policy,
    policy_name,
    post_run_verdict,
    run_armed,
)
from ..verification.oracles import OracleViolation
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

    outcomes: list[ChaosRunOutcome] = field(default_factory=list)

    @property
    def violations(self) -> list[OracleViolation]:
        return [o.violation for o in self.outcomes if o.violation is not None]

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
        from ..distributed import DistributedScheduler
        from ..distributed import hash_view, round_robin_partition

        entities = database.snapshot().keys()
        view = (
            hash_view(entities, programs, sites, rf=replicate)
            if replicate > 0
            else round_robin_partition(entities, programs, sites)
        )

    injector = FaultInjector(plan)
    ordered = is_ordered_policy(policy)
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
        seed = _segment_seed(chaos_seed, segment)
        scheduler = (
            Scheduler(Database(dict(state)), strategy=strategy, policy=policy)
            if view is None
            else DistributedScheduler(
                Database(dict(state)),
                view,
                strategy=strategy,
                policy=policy,
                cross_site_mode=cross_site_mode,
                wait_timeout=wait_timeout,
                backoff_seed=seed,
            )
        )
        recovery = RecoveryManager(survivors, checkpoint_every)
        run = run_armed(
            scheduler,
            survivors,
            RandomInterleaving(seed=seed),
            checks=checks,
            exclusive_only=config.write_ratio >= 1.0,
            ordered=ordered,
            max_steps=max_steps,
            livelock_window=livelock_window,
            # Last: the crash fires after the WAL bookkeeping.
            attach=(instrument, recovery.attach, injector.attach),
            interrupt=CrashSignal,
        )
        if run.interrupted is not None:
            scheduler.bus.publish(
                EventKind.CRASH, segment=segment, at=run.steps
            )
        segment_fingerprints.append(run.fingerprint)
        steps += run.steps
        if run.violation is not None:
            violation = run.violation
            break
        metrics_summaries.append(scheduler.metrics.summary())
        if run.interrupted is not None:
            recovered = recovery.recover()
            committed.extend(recovered.committed)
            state = recovered.state
            survivors = recovered.survivors
            final_state = dict(state)
            if not survivors:
                break
            continue
        committed.extend(run.result.committed)
        final_state = run.result.final_state
        livelocked = run.result.livelock_detected
        break
    else:
        violation = OracleViolation(
            "engine",
            f"chaos loop exceeded {max_segments} segments without "
            f"completing (crash indices {plan.crash_indices()})",
        )

    if violation is None:
        # Unlike one engine run, a chaos run does not excuse a livelock
        # under an unordered policy: the work it left undone reads as a
        # diverged final state.
        violation = post_run_verdict(
            final_state,
            expected,
            strategy=strategy,
            policy=policy_name(policy),
            livelocked=livelocked and ordered,
            oracle=RECOVERY_EQUIVALENCE,
            detail=f" (chaos seed {chaos_seed}, "
            f"{injector.crashes_fired} crash(es))",
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
    sample: int | None = None,
    sites: int = 0,
    replicate: int = 0,
    cross_site_mode: str = "wound-wait",
    checks: str | list[str] = "all",
    max_steps: int = 200_000,
    deadline=None,
) -> ChaosReport:
    """Crash at *every* recorded event index, for every strategy.

    The fault-free reference run fixes the number of recorded events N;
    the sweep then replays the workload per strategy with one crash at
    event k (k = 0, ``every``, 2·``every``, …).  ``sample`` is the
    fuzzer's cheap check instead: that many crash points spread over
    events 1…N-1, ending the sweep at its first violation.  ``deadline``
    (a no-argument callable returning True when the budget is spent)
    lets CI cap the sweep without losing determinism of whatever prefix
    did run.
    """
    report = ChaosReport()

    def one_run(strategy: str, events: list[FaultEvent]) -> ChaosRunOutcome:
        outcome = chaos_run(
            config,
            workload_seed,
            chaos_seed,
            strategy=strategy,
            policy=policy,
            plan=FaultPlan(seed=chaos_seed, events=events),
            checkpoint_every=checkpoint_every,
            sites=sites,
            replicate=replicate,
            cross_site_mode=cross_site_mode,
            checks=checks,
            max_steps=max_steps,
        )
        report.outcomes.append(outcome)
        return outcome

    for strategy in strategies:
        reference = one_run(strategy, [])
        n_events = reference.steps if reference.ok else 0
        if sample is None:
            points = range(0, n_events, max(1, every))
        else:
            points = sorted(
                {1 + i * (n_events - 1) // sample for i in range(sample)}
            ) if n_events > 1 else []
        for k in points:
            if (sample and not report.ok) or (
                deadline is not None and deadline()
            ):
                break
            one_run(strategy, [FaultEvent(FaultKind.CRASH, k)])
        if sample and not report.ok:
            break
    return report
