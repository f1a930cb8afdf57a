"""The seeded schedule fuzzer: randomized workloads × interleavings ×
strategies, reproducible from one integer.

A *campaign* derives everything — workload shapes, workload seeds,
interleaving seeds — from a single base seed through a private
:class:`random.Random`, so the same seed replays the identical campaign
byte for byte (:attr:`FuzzReport.fingerprint` proves it).  Every round
generates one workload flavour and runs it through the differential
oracle across all copy strategies with the step oracles attached; any
violation is captured as a replayable case and (optionally) shrunk to a
minimal interleaving on the spot.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

from ..core.victim import VictimPolicy
from ..simulation.workload import WorkloadConfig
from .cases import ReplayCase, make_case
from .differential import COPY_STRATEGIES, differential_check
from .oracles import POST_RUN_CHECKS, OracleViolation
from .shrinker import ShrinkResult, shrink

#: Workload-shape axes a campaign cycles through (deterministically, from
#: the campaign seed): exclusive-only rounds exercise Theorem 1's forest
#: oracle, mixed rounds exercise shared-lock multi-cycle deadlocks;
#: clustered vs scattered writes and the three-phase discipline change
#: which lock states are well defined (§5), stressing the single-copy and
#: k-copy clamping paths.
_SKEWS = ("hotspot", "uniform", "zipf")

#: Named campaign presets (``repro fuzz --profile``).  ``hot`` is the
#: high-contention shape the overload work targets: many writers fighting
#: over very few entities, where every round is deadlock-dense and the
#: rollback machinery (and its bounds) actually gets exercised.
FUZZ_PROFILES: dict[str, dict[str, object]] = {
    "default": {},
    "hot": {
        "n_transactions": 8,
        "n_entities": 3,
        "locks_per_txn": (2, 3),
        "write_ratio": 1.0,
    },
}


def apply_profile(config: "FuzzConfig", profile: str) -> "FuzzConfig":
    """A copy of *config* with the named profile's overrides applied."""
    if profile not in FUZZ_PROFILES:
        raise ValueError(
            f"unknown fuzz profile {profile!r}; choose from "
            f"{sorted(FUZZ_PROFILES)}"
        )
    from dataclasses import replace

    return replace(config, **FUZZ_PROFILES[profile])  # type: ignore[arg-type]


@dataclass
class FuzzConfig:
    """Campaign parameters; everything else derives from ``seed``."""

    seed: int = 0
    steps: int = 2_000
    checks: str | list[str] = "all"
    strategies: tuple[str, ...] = COPY_STRATEGIES
    policy: VictimPolicy | str = "ordered-min-cost"
    ordered: bool | None = None
    n_transactions: int = 5
    n_entities: int = 5
    locks_per_txn: tuple[int, int] = (2, 4)
    write_ratio: float = 0.75
    max_run_steps: int = 200_000
    shrink_failures: bool = True
    max_replays: int = 2_000
    max_failures: int = 5
    time_budget: float | None = None


@dataclass
class FuzzFailure:
    """One captured violation: the case that provokes it and, when the
    violation is tied to a single run, its shrunk form."""

    violation: OracleViolation
    round_index: int
    case: ReplayCase | None = None
    shrunk: ShrinkResult | None = None


@dataclass
class FuzzReport:
    """Everything one campaign did, reproducible from its config."""

    config: FuzzConfig
    rounds: int = 0
    total_steps: int = 0
    deadlocks: int = 0
    rollbacks: int = 0
    commits: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    run_fingerprints: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def fingerprint(self) -> str:
        """Hash over every run's trace fingerprint: two campaigns with
        the same seed must produce the same value."""
        digest = hashlib.sha256()
        for fp in self.run_fingerprints:
            digest.update(fp.encode())
        return digest.hexdigest()


def round_workload(
    config: FuzzConfig, round_index: int, rng: random.Random
) -> WorkloadConfig:
    """The workload flavour for one campaign round.

    Even rounds are exclusive-only (Theorem 1 territory); odd rounds mix
    in shared locks.  The remaining shape axes are drawn from the
    campaign generator, so the flavour sequence is a pure function of the
    campaign seed.
    """
    write_ratio = 1.0 if round_index % 2 == 0 else config.write_ratio
    return WorkloadConfig(
        n_transactions=config.n_transactions,
        n_entities=config.n_entities,
        locks_per_txn=config.locks_per_txn,
        write_ratio=write_ratio,
        clustered_writes=rng.random() < 0.7,
        three_phase=rng.random() < 0.2,
        skew=_SKEWS[rng.randrange(len(_SKEWS))],
    )


def _split_checks(
    checks: str | list[str],
) -> tuple[str | list[str], list[str]]:
    """Separate post-run checks (``recovery-equivalence``) from the step
    oracle names.  ``"all"`` means all *step* oracles — post-run checks
    cost a handful of extra full runs per round, so they are opt-in by
    name."""
    if isinstance(checks, str):
        if checks == "all":
            return "all", []
        items = [c.strip() for c in checks.split(",") if c.strip()]
    else:
        items = list(checks)
    post = [c for c in items if c in POST_RUN_CHECKS]
    step = [c for c in items if c not in POST_RUN_CHECKS]
    return step, post


def fuzz_campaign(config: FuzzConfig) -> FuzzReport:
    """Run one campaign until the step budget (or time budget) is spent.

    Each round: derive a workload flavour and a seed pair, then run the
    differential check across every configured strategy with all step
    oracles armed.  Violations tied to a single run are packaged as
    replayable cases and shrunk; cross-strategy (differential) violations
    are reported with the offending strategies named.  The campaign
    continues after a failure until ``max_failures`` distinct violations
    accumulate, so one bug does not mask another.
    """
    rng = random.Random(config.seed)
    report = FuzzReport(config=config)
    started = time.monotonic()
    ordered = config.ordered
    step_checks, post_checks = _split_checks(config.checks)
    while report.total_steps < config.steps:
        if (
            config.time_budget is not None
            and time.monotonic() - started >= config.time_budget
        ):
            break
        if len(report.failures) >= config.max_failures:
            break
        workload = round_workload(config, report.rounds, rng)
        workload_seed = rng.randrange(2**32)
        interleave_seed = rng.randrange(2**32)
        diff = differential_check(
            workload,
            workload_seed,
            interleave_seed,
            strategies=config.strategies,
            policy=config.policy,
            checks=step_checks,
            ordered=ordered,
            max_steps=config.max_run_steps,
        )
        report.rounds += 1
        report.total_steps += diff.steps
        for outcome in diff.outcomes:
            report.run_fingerprints.append(outcome.fingerprint)
            if outcome.result is not None:
                report.deadlocks += outcome.result.metrics.deadlocks
                report.rollbacks += outcome.result.metrics.rollbacks
                report.commits += outcome.result.metrics.commits
        if diff.violation is None and "recovery-equivalence" in post_checks:
            # Sampled crash-recovery equivalence: one strategy per round
            # (rotating), a few crash points per run.  Imported lazily —
            # repro.resilience.chaos imports this package.
            from ..resilience.chaos import crash_recovery_sweep

            strategy = config.strategies[
                (report.rounds - 1) % len(config.strategies)
            ]
            sweep = crash_recovery_sweep(
                workload,
                workload_seed,
                strategies=(strategy,),
                policy=config.policy,
                chaos_seed=rng.randrange(2**32),
                sample=3,
                max_steps=config.max_run_steps,
            )
            if sweep.violations:
                # Crash runs cannot be replayed by a scripted schedule
                # (the recovery loop spans several engines), so the
                # failure is recorded without a shrinkable case; the
                # chaos CLI reproduces it from the seeds.
                report.failures.append(
                    FuzzFailure(
                        violation=sweep.violations[0],
                        round_index=report.rounds - 1,
                    )
                )
                continue
        if diff.violation is None:
            continue
        failure = FuzzFailure(
            violation=diff.violation, round_index=report.rounds - 1
        )
        failing = diff.failing_outcome()
        if failing is not None:
            failure.case = make_case(
                workload,
                workload_seed,
                failing,
                checks=config.checks,
                ordered=ordered,
            )
            if config.shrink_failures:
                try:
                    failure.shrunk = shrink(
                        failure.case, max_replays=config.max_replays
                    )
                except ValueError:
                    # Replay did not reproduce (e.g. a violation that
                    # depends on engine-level timing the scripted replay
                    # cannot express); keep the unshrunk case.
                    failure.shrunk = None
        report.failures.append(failure)
    report.elapsed = time.monotonic() - started
    return report


def fuzz_policy(
    policy: VictimPolicy | str,
    seed: int = 0,
    steps: int = 2_000,
    ordered: bool | None = None,
    strategy: str = "mcs",
    **overrides,
) -> FuzzReport:
    """Convenience wrapper: fuzz a single (strategy, policy) pair.

    Used by the fault-injection tests: fuzz a deliberately broken policy
    with ``ordered=True`` and assert the Theorem 2 oracles catch it.
    """
    config = FuzzConfig(
        seed=seed,
        steps=steps,
        strategies=(strategy,),
        policy=policy,
        ordered=ordered,
        **overrides,
    )
    return fuzz_campaign(config)


def describe_failure(failure: FuzzFailure) -> str:
    """Human-oriented multi-line description (CLI and triage output)."""
    lines = [f"round {failure.round_index}: {failure.violation}"]
    if failure.shrunk is not None:
        lines.append(
            f"  shrunk {failure.shrunk.original_length} -> "
            f"{failure.shrunk.length} events "
            f"({failure.shrunk.replays} replays)"
        )
        lines.append(
            f"  minimal schedule: {failure.shrunk.case.schedule}"
        )
    elif failure.case is not None:
        lines.append(
            f"  schedule ({len(failure.case.schedule)} events): "
            f"{failure.case.schedule}"
        )
    return "\n".join(lines)
