"""Seeded overload stress runs (the ``repro overload`` CLI's engine room).

A stress run throws a contended synthetic workload at a scheduler wrapped
in an :class:`~repro.admission.guard.OverloadGuard` and reports what the
resilience layer did: throughput, shed rate, p99 commit latency (in engine
steps, arrival to commit), and admission-window trajectory.  Two load shapes:

* **closed loop** (``interarrival=0``) — every transaction arrives at step
  0 and the admission queue is the only throttle (the classic MPL
  experiment);
* **open loop** (``interarrival=k``) — one arrival every *k* steps,
  regardless of completions (the overload experiment: offered load is
  independent of service rate).

Everything is driven by one seed: same config and seed, same report —
:meth:`OverloadReport.fingerprint` exists precisely to assert that.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from ..core.scheduler import Scheduler, StepOutcome
from ..simulation.engine import SimulationEngine, SimulationResult
from ..simulation.interleaving import RandomInterleaving
from ..simulation.workload import WorkloadConfig, generate_workload
from .controller import AdmissionController
from .deadlines import DeadlineEnforcer
from .guard import OverloadGuard
from .policies import AimdPolicy, FixedMplPolicy, PredictivePolicy


def _workload_config(config: "OverloadConfig") -> WorkloadConfig:
    """The synthetic workload one stress config describes."""
    return WorkloadConfig(
        n_transactions=config.n_transactions,
        n_entities=config.n_entities,
        locks_per_txn=config.locks_per_txn,
        write_ratio=config.write_ratio,
    )


@dataclass
class OverloadConfig:
    """Knobs for one overload stress run.

    The workload defaults are deliberately hostile: many writers over few
    entities, the regime where unbounded admission dissolves into rollback
    churn.  Set ``admission_policy=None`` / ``deadline_steps=0`` to switch
    individual pillars off (the CLI's baseline comparisons do exactly
    that).
    """

    n_transactions: int = 32
    n_entities: int = 6
    locks_per_txn: tuple[int, int] = (2, 4)
    write_ratio: float = 1.0
    interarrival: int = 0
    admission_policy: str | None = "aimd"
    mpl: int = 8
    aimd_initial: int = 8
    aimd_min_window: int = 1
    aimd_max_window: int = 32
    aimd_window_steps: int = 40
    aimd_rollback_threshold: float = 0.5
    deadline_steps: int = 600
    strategy: str = "mcs"
    policy: str = "ordered-min-cost"
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        if self.interarrival < 0:
            raise ValueError("interarrival must be non-negative")
        if self.deadline_steps < 0:
            raise ValueError("deadline_steps must be non-negative")
        if self.admission_policy not in (
            None, "fixed-mpl", "aimd", "predictive",
        ):
            raise ValueError(
                f"unknown admission policy {self.admission_policy!r}"
            )


@dataclass
class OverloadReport:
    """What one stress run did, in headline numbers."""

    seed: int
    steps: int
    submitted: int
    admitted: int
    committed: int
    shed: list[str]
    starved: list[str]
    rollbacks: int
    total_rollbacks: int
    deadline_expiries: int
    admission_queue_peak: int
    throughput_per_kstep: float
    shed_rate: float
    p99_latency_steps: int
    mean_latency_steps: float
    window_history: list[tuple[int, int]] = field(default_factory=list)

    @property
    def no_starvation(self) -> bool:
        """Every admitted transaction reached an explicit terminal state."""
        return not self.starved

    def fingerprint(self) -> str:
        """SHA-256 over the deterministic content (two runs with the same
        config and seed must agree on this)."""
        payload = {
            "seed": self.seed,
            "steps": self.steps,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "committed": self.committed,
            "shed": self.shed,
            "starved": self.starved,
            "rollbacks": self.rollbacks,
            "total_rollbacks": self.total_rollbacks,
            "deadline_expiries": self.deadline_expiries,
            "admission_queue_peak": self.admission_queue_peak,
            "p99_latency_steps": self.p99_latency_steps,
            "window_history": self.window_history,
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        """Multi-line human-readable report (CLI output)."""
        lines = [
            f"steps                {self.steps}",
            f"submitted/admitted   {self.submitted}/{self.admitted}",
            f"committed            {self.committed}",
            f"shed                 {len(self.shed)}"
            + (f" ({', '.join(self.shed)})" if self.shed else ""),
            f"starved              {len(self.starved)}"
            + (f" ({', '.join(self.starved)})" if self.starved else ""),
            f"throughput           {self.throughput_per_kstep:.2f} commits/kstep",
            f"shed rate            {self.shed_rate:.1%}",
            f"p99 commit latency   {self.p99_latency_steps} steps",
            f"mean commit latency  {self.mean_latency_steps:.1f} steps",
            f"rollbacks            {self.rollbacks} "
            f"({self.total_rollbacks} total restarts)",
            f"deadline expiries    {self.deadline_expiries}",
            f"admission queue peak {self.admission_queue_peak}",
        ]
        if self.window_history:
            tail = ", ".join(
                f"{w}@{s}" for s, w in self.window_history[-6:]
            )
            lines.append(f"aimd window (last)   {tail}")
        return "\n".join(lines)


def build_guard(config: OverloadConfig, scheduler: Scheduler, seed: int) -> (
    OverloadGuard
):
    """The guard a stress run wires between engine and scheduler."""
    controller = None
    if config.admission_policy == "fixed-mpl":
        controller = AdmissionController(FixedMplPolicy(mpl=config.mpl))
    elif config.admission_policy == "aimd":
        controller = AdmissionController(
            AimdPolicy(
                initial=config.aimd_initial,
                min_window=config.aimd_min_window,
                max_window=config.aimd_max_window,
                window_steps=config.aimd_window_steps,
                rollback_threshold=config.aimd_rollback_threshold,
                seed=seed,
            )
        )
    elif config.admission_policy == "predictive":
        # Static risk analysis of the exact workload this run will
        # generate (same config, same seed — generation is pure, so no
        # execution happens here).  The policy anchors its window on the
        # analyzer's recommended MPL and reorders admission by template
        # risk.
        from ..staticcheck.workload import analyze_config

        controller = AdmissionController(
            PredictivePolicy(
                report=analyze_config(_workload_config(config), seed=seed),
                min_window=config.aimd_min_window,
                max_window=config.aimd_max_window,
                window_steps=config.aimd_window_steps,
                rollback_threshold=config.aimd_rollback_threshold,
            )
        )
    deadlines = (
        DeadlineEnforcer(config.deadline_steps)
        if config.deadline_steps
        else None
    )
    return OverloadGuard(scheduler, controller=controller, deadlines=deadlines)


def overload_run(
    config: OverloadConfig,
    seed: int = 0,
    instrument: Callable[[SimulationEngine], None] | None = None,
) -> tuple[OverloadReport, SimulationResult]:
    """One seeded stress run; returns the report and the raw result.

    ``instrument`` (if given) is called with the built engine before any
    arrival is scheduled — the hook the observability recorder uses to
    install its event bus on the scheduler.
    """
    database, programs = generate_workload(
        _workload_config(config), seed=seed
    )
    scheduler = Scheduler(
        database, strategy=config.strategy, policy=config.policy
    )
    guard = build_guard(config, scheduler, seed)
    engine = SimulationEngine(
        scheduler,
        interleaving=RandomInterleaving(seed=seed),
        max_steps=config.max_steps,
        overload=guard,
    )
    if instrument is not None:
        instrument(engine)
    arrival_steps: dict[str, int] = {}
    for index, program in enumerate(programs):
        arrival = index * config.interarrival
        arrival_steps[program.txn_id] = arrival
        engine.add_at(arrival, program)
    result = engine.run()
    return _report(config, scheduler, result, arrival_steps, guard, seed), result


def _percentile(values: list[int], fraction: float) -> int:
    if not values:
        return 0
    ordered = sorted(values)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index]


def _report(
    config: OverloadConfig,
    scheduler: Scheduler,
    result: SimulationResult,
    arrival_steps: dict[str, int],
    guard: OverloadGuard,
    seed: int,
) -> OverloadReport:
    metrics = scheduler.metrics
    commit_steps = {
        event.txn_id: event.step
        for event in result.trace.events(StepOutcome.COMMITTED)
    }
    latencies = [
        step - arrival_steps[txn_id]
        for txn_id, step in sorted(commit_steps.items())
        if txn_id in arrival_steps
    ]
    starved = sorted(
        txn_id
        for txn_id, txn in scheduler.transactions.items()
        if not txn.done
    )
    admitted = metrics.admitted
    window_history: list[tuple[int, int]] = []
    if guard.controller is not None:
        # Any adaptive policy (aimd, predictive) reports its trajectory.
        window_history = list(
            getattr(guard.controller.policy, "history", ())
        )
    return OverloadReport(
        seed=seed,
        steps=result.steps,
        submitted=len(arrival_steps),
        admitted=admitted,
        committed=len(result.committed),
        shed=result.shed,
        starved=starved,
        rollbacks=metrics.rollbacks,
        total_rollbacks=metrics.total_rollbacks,
        deadline_expiries=metrics.deadline_expiries,
        admission_queue_peak=metrics.admission_queue_peak,
        throughput_per_kstep=(
            1000.0 * len(result.committed) / result.steps
            if result.steps
            else 0.0
        ),
        shed_rate=len(result.shed) / admitted if admitted else 0.0,
        p99_latency_steps=_percentile(latencies, 0.99),
        mean_latency_steps=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        window_history=window_history,
    )


# -- regression-case support (tests/regressions/*.json, kind="overload") ----


@dataclass
class OverloadRegression:
    """A pinned comparison: adaptive admission vs unbounded admission.

    The check runs the same seeded workload twice — once with the AIMD
    admission gate, once with admission disabled — and asserts both that
    adaptive admission reduced the rollback count and that the exact
    counts match the pinned values (full determinism regression).
    """

    path: str
    seed: int
    config: OverloadConfig
    expect_adaptive_rollbacks: int
    expect_unbounded_rollbacks: int

    def check(self) -> str:
        adaptive, _ = overload_run(self.config, seed=self.seed)
        unbounded_config = OverloadConfig(
            **{
                **_config_dict(self.config),
                "admission_policy": None,
            }
        )
        unbounded, _ = overload_run(unbounded_config, seed=self.seed)
        if adaptive.rollbacks >= unbounded.rollbacks:
            return (
                "violation:overload adaptive admission did not reduce "
                f"rollbacks ({adaptive.rollbacks} >= {unbounded.rollbacks})"
            )
        if adaptive.rollbacks != self.expect_adaptive_rollbacks:
            return (
                "violation:overload adaptive rollbacks drifted: "
                f"{adaptive.rollbacks} != {self.expect_adaptive_rollbacks}"
            )
        if unbounded.rollbacks != self.expect_unbounded_rollbacks:
            return (
                "violation:overload unbounded rollbacks drifted: "
                f"{unbounded.rollbacks} != {self.expect_unbounded_rollbacks}"
            )
        return "clean"


def _config_dict(config: OverloadConfig) -> dict[str, object]:
    from dataclasses import asdict

    data = asdict(config)
    data["locks_per_txn"] = tuple(data["locks_per_txn"])
    return data


def load_overload_case(path: str, data: dict[str, object]) -> OverloadRegression:
    """Build an :class:`OverloadRegression` from a parsed JSON case."""
    config_data = dict(data.get("config", {}))
    if "locks_per_txn" in config_data:
        config_data["locks_per_txn"] = tuple(config_data["locks_per_txn"])
    return OverloadRegression(
        path=path,
        seed=int(data["seed"]),
        config=OverloadConfig(**config_data),
        expect_adaptive_rollbacks=int(data["expect_adaptive_rollbacks"]),
        expect_unbounded_rollbacks=int(data["expect_unbounded_rollbacks"]),
    )
