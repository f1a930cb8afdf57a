"""Named partition/heal chaos scenarios over replicated placements.

Each scenario is a fully seeded recipe — workload shape, topology,
replication factor, and an explicit :class:`~repro.resilience.faults.FaultPlan`
— so one name reproduces one byte-identical run anywhere.  A scenario's
*verdict* requires quiescence (every transaction committed, the final
state equal to the fault-free serial state, no oracle violation) plus a
scenario-specific fault signature, asserted over the run's metrics: a
partition drain scenario that never fired a wait timeout did not
actually exercise the §3.3 mixed-cycle path, so it fails even though the
run was "clean".

The module also backs the ``kind="distributed"`` regression cases under
``tests/regressions/`` (see :func:`load_distributed_case`): a case file
pins a scenario name and seeds, and its ``check()`` replays the scenario
and re-asserts the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..resilience.faults import FaultEvent, FaultKind, FaultPlan
from ..simulation.workload import WorkloadConfig

#: Signature predicate: metric name -> minimum value over summed segments.
Signature = dict[str, int]


@dataclass(frozen=True)
class Scenario:
    """One named chaos recipe.

    ``plan_builder`` maps the chaos seed to the explicit fault plan;
    ``signature`` names the metric minima that prove the scenario
    exercised its intended failure path.
    """

    name: str
    description: str
    config: WorkloadConfig
    sites: int
    replicate: int
    wait_timeout: int
    plan_builder: Callable[[int], FaultPlan]
    signature: Signature = field(default_factory=dict)
    cross_site_mode: str = "wound-wait"


@dataclass
class ScenarioOutcome:
    """A scenario run: the underlying chaos outcome plus the verdict."""

    scenario: str
    ok: bool
    reasons: list[str]
    chaos_outcome: object
    metrics: dict[str, int]

    @property
    def verdict(self) -> str:
        if self.ok:
            return "clean"
        return "violation:" + "; ".join(self.reasons)


def _two_group_split(sites: int) -> str:
    """The canonical near-even split spec: low half vs high half."""
    half = sites // 2
    low = ",".join(str(s) for s in range(half))
    high = ",".join(str(s) for s in range(half, sites))
    return f"{low}|{high}"


def _partition_heal_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        events=[
            FaultEvent(
                FaultKind.PARTITION, 8, arg=_two_group_split(5), duration=30
            ),
        ],
    )


def _timeout_drain_plan(seed: int) -> FaultPlan:
    # The partition covers most of the run: cross-partition conflicts
    # cannot be wounded (the message has nowhere to travel), so mixed
    # cycles stand until the wait timeout rolls a participant back.
    return FaultPlan(
        seed=seed,
        events=[
            FaultEvent(
                FaultKind.PARTITION, 2, arg=_two_group_split(4),
                duration=400,
            ),
        ],
    )


def _rolling_outage_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        events=[
            FaultEvent(FaultKind.SITE_CRASH, 6, arg="0", duration=10),
            FaultEvent(FaultKind.SITE_CRASH, 20, arg="2", duration=10),
            FaultEvent(FaultKind.SITE_CRASH, 34, arg="4", duration=10),
        ],
    )


def _split_brain_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        events=[
            FaultEvent(
                FaultKind.PARTITION, 5, arg=_two_group_split(6), duration=25
            ),
            FaultEvent(FaultKind.SITE_CRASH, 12, arg="1", duration=8),
            FaultEvent(
                FaultKind.PARTITION, 55, arg=_two_group_split(6),
                duration=15,
            ),
        ],
    )


_CONTENDED = WorkloadConfig(
    n_transactions=10,
    n_entities=6,
    locks_per_txn=(3, 5),
    write_ratio=0.8,
    skew="hotspot",
)

_MIXED = WorkloadConfig(
    n_transactions=12,
    n_entities=14,
    locks_per_txn=(2, 4),
    write_ratio=0.5,
)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="partition-heal",
            description=(
                "one mid-run partition over 5 sites (rf=2) that heals; "
                "cut-off replicas catch up before rejoining the read set"
            ),
            config=_MIXED,
            sites=5,
            replicate=2,
            wait_timeout=60,
            plan_builder=_partition_heal_plan,
            signature={"commits": 12},
        ),
        Scenario(
            name="partition-timeout-drain",
            description=(
                "a long partition over a contended workload: mixed "
                "cross-partition cycles are invisible to wound-wait "
                "(the wound cannot cross the cut) and drain only via "
                "the wait-timeout rule"
            ),
            config=_CONTENDED,
            sites=4,
            replicate=2,
            wait_timeout=30,
            plan_builder=_timeout_drain_plan,
            signature={"timeout_rollbacks": 1},
        ),
        Scenario(
            name="rolling-outage",
            description=(
                "three staggered single-site crashes with recovery: "
                "each recovering replica must catch up before serving"
            ),
            config=_MIXED,
            sites=5,
            replicate=2,
            wait_timeout=60,
            plan_builder=_rolling_outage_plan,
            signature={"replica_catchups": 1},
        ),
        Scenario(
            name="split-brain",
            description=(
                "repeated partition plus a site crash inside one half: "
                "writes miss cut-off replicas (stale skips) and the "
                "heal pays the catch-up debt"
            ),
            config=_MIXED,
            sites=6,
            replicate=3,
            wait_timeout=50,
            plan_builder=_split_brain_plan,
            signature={"commits": 12},
        ),
    )
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def run_scenario(
    name: str,
    workload_seed: int = 0,
    chaos_seed: int = 0,
    strategy: str = "mcs",
    max_steps: int = 200_000,
) -> ScenarioOutcome:
    """Run one named scenario and compute its verdict.

    Quiescence — every transaction committed and the final state equal
    to the fault-free serial state — is required of every scenario; the
    scenario's signature minima are required on top.
    """
    from ..resilience.chaos import chaos_run

    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        )
    outcome = chaos_run(
        scenario.config,
        workload_seed=workload_seed,
        chaos_seed=chaos_seed,
        strategy=strategy,
        plan=scenario.plan_builder(chaos_seed),
        sites=scenario.sites,
        replicate=scenario.replicate,
        cross_site_mode=scenario.cross_site_mode,
        wait_timeout=scenario.wait_timeout,
        max_steps=max_steps,
    )
    totals: dict[str, int] = {}
    for summary in outcome.metrics_summaries:
        for key, value in summary.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    reasons: list[str] = []
    if outcome.violation is not None:
        reasons.append(str(outcome.violation))
    elif len(outcome.committed) < scenario.config.n_transactions:
        reasons.append(
            f"no quiescence: {len(outcome.committed)} of "
            f"{scenario.config.n_transactions} transactions committed"
        )
    for metric in sorted(scenario.signature):
        minimum = scenario.signature[metric]
        if totals.get(metric, 0) < minimum:
            reasons.append(
                f"fault signature missing: {metric} = "
                f"{totals.get(metric, 0)} < {minimum} — the scenario did "
                f"not exercise its intended failure path"
            )
    return ScenarioOutcome(
        scenario=name,
        ok=not reasons,
        reasons=reasons,
        chaos_outcome=outcome,
        metrics=totals,
    )


# -- regression-case integration (kind="distributed") ----------------------


@dataclass
class DistributedRegression:
    """A pinned scenario run for ``tests/regressions/`` (kind =
    ``"distributed"``): replaying it must reproduce the recorded verdict
    *and* fingerprint, so both the behaviour and the determinism of the
    distributed chaos stack are regression-locked."""

    path: str
    scenario: str
    workload_seed: int
    chaos_seed: int
    strategy: str = "mcs"
    fingerprint: str = ""

    def check(self) -> str:
        outcome = run_scenario(
            self.scenario,
            workload_seed=self.workload_seed,
            chaos_seed=self.chaos_seed,
            strategy=self.strategy,
        )
        if not outcome.ok:
            return outcome.verdict
        if self.fingerprint:
            actual = outcome.chaos_outcome.fingerprint()
            if actual != self.fingerprint:
                return (
                    f"violation:fingerprint drifted: recorded "
                    f"{self.fingerprint[:16]}…, replayed {actual[:16]}…"
                )
        return "clean"


def load_distributed_case(
    path: str, document: dict
) -> DistributedRegression:
    """Build a :class:`DistributedRegression` from a parsed case file."""
    return DistributedRegression(
        path=path,
        scenario=str(document["scenario"]),
        workload_seed=int(document.get("workload_seed", 0)),
        chaos_seed=int(document.get("chaos_seed", 0)),
        strategy=str(document.get("strategy", "mcs")),
        fingerprint=str(document.get("fingerprint", "")),
    )
