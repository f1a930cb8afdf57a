"""Experiment sweeps: run configuration matrices and aggregate results.

The benchmark harness (and any downstream study) repeats one pattern: fix
a workload, vary one axis (strategy, policy, concurrency, budget...), run
several seeds, aggregate the metrics, and compare rows.  This module
packages that pattern, each run one
:func:`~repro.verification.harness.run_armed` over a scheduler factory:

>>> sweep = Sweep(
...     base=WorkloadConfig(n_transactions=10, n_entities=8),
...     seeds=range(4),
... )
>>> rows = sweep.over_strategies(["total", "mcs", "single-copy"])
>>> rows[0].mean("states_lost")
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from ..core.scheduler import Scheduler
from .engine import SimulationResult
from .interleaving import RandomInterleaving
from .workload import WorkloadConfig, expected_final_state, generate_workload

SchedulerFactory = Callable[..., Scheduler]


@dataclass
class CellResult:
    """Aggregated outcome of one sweep cell (one label, many seeds)."""

    label: str
    runs: list[SimulationResult] = field(default_factory=list)
    serializable: bool = True
    livelocks: int = 0

    def add(self, result: SimulationResult, ok: bool) -> None:
        self.runs.append(result)
        self.serializable = self.serializable and ok
        if result.livelock_detected:
            self.livelocks += 1

    # -- aggregation ----------------------------------------------------------

    def total(self, metric: str) -> float:
        """Sum of a metrics-summary field across completed runs."""
        return sum(
            run.metrics.summary()[metric]
            for run in self.runs
            if not run.livelock_detected
        )

    def mean(self, metric: str) -> float:
        completed = [r for r in self.runs if not r.livelock_detected]
        if not completed:
            return float("nan")
        return self.total(metric) / len(completed)

    def peak(self, metric: str) -> float:
        values = [
            run.metrics.summary()[metric]
            for run in self.runs
            if not run.livelock_detected
        ]
        return max(values, default=float("nan"))

    def total_steps(self) -> int:
        return sum(
            run.steps for run in self.runs if not run.livelock_detected
        )

    def row(self, metrics: Sequence[str] = ("deadlocks", "rollbacks",
                                            "states_lost")) -> dict:
        """Flat dict for tabular reporting."""
        out: dict[str, Any] = {"label": self.label}
        for metric in metrics:
            out[metric] = self.total(metric)
        out["steps"] = self.total_steps()
        out["livelocks"] = self.livelocks
        out["serializable"] = self.serializable
        return out


@dataclass
class Sweep:
    """A reusable workload × seeds harness.

    Parameters
    ----------
    base:
        The workload configuration shared by every cell.
    seeds:
        Workload/interleaving seeds; each cell runs all of them.
    max_steps, livelock_window:
        Engine safety limits.
    """

    base: WorkloadConfig
    seeds: Iterable[int] = (0, 1, 2)
    max_steps: int = 1_000_000
    livelock_window: int = 20_000

    def run_cell(
        self,
        label: str,
        make_scheduler: SchedulerFactory,
        config: WorkloadConfig | None = None,
    ) -> CellResult:
        """Run one cell: every seed through a fresh scheduler, judged by
        the harness's post-run verdict with no step oracle armed (a
        livelock is counted, and ``cmd_sweep`` judges it)."""
        # Imported lazily: repro.verification imports this package.
        from ..verification.harness import run_armed

        cell = CellResult(label)
        for seed in self.seeds:
            db, programs = generate_workload(
                config or self.base, seed=seed
            )
            outcome = run_armed(
                make_scheduler(db),
                programs,
                RandomInterleaving(rng=random.Random(seed * 101 + 7)),
                expected=expected_final_state(db, programs),
                checks=[],
                max_steps=self.max_steps,
                livelock_window=self.livelock_window,
            )
            if outcome.result is None:
                raise outcome.violation
            cell.add(outcome.result, outcome.ok)
        return cell

    # -- common axes ------------------------------------------------------------

    def over_strategies(
        self, strategies: Sequence[str], policy: str = "ordered-min-cost"
    ) -> list[CellResult]:
        """One cell per rollback strategy, same policy."""
        return [
            self.run_cell(
                strategy,
                lambda db, s=strategy: Scheduler(db, strategy=s,
                                                 policy=policy),
            )
            for strategy in strategies
        ]

    def over_policies(
        self, policies: Sequence[str], strategy: str = "mcs"
    ) -> list[CellResult]:
        """One cell per victim policy, same strategy."""
        return [
            self.run_cell(
                policy,
                lambda db, p=policy: Scheduler(db, strategy=strategy,
                                               policy=p),
            )
            for policy in policies
        ]

    def over_concurrency(
        self,
        levels: Sequence[int],
        strategy: str = "mcs",
        policy: str = "ordered-min-cost",
    ) -> list[CellResult]:
        """One cell per transaction count (entities scale to match)."""
        cells = []
        for n in levels:
            config = replace(
                self.base,
                n_transactions=n,
                n_entities=max(self.base.n_entities, n),
            )
            cells.append(
                self.run_cell(
                    f"n={n}",
                    lambda db: Scheduler(db, strategy=strategy,
                                         policy=policy),
                    config=config,
                )
            )
        return cells


def tabulate(cells: Sequence[CellResult],
             metrics: Sequence[str] = ("deadlocks", "rollbacks",
                                       "states_lost")) -> str:
    """Plain-text table over cell rows (benchmark / notebook output)."""
    rows = [cell.row(metrics) for cell in cells]
    if not rows:
        return "(no cells)"
    keys = list(rows[0].keys())
    widths = {
        key: max(len(str(key)), *(len(str(r[key])) for r in rows))
        for key in keys
    }
    lines = ["  ".join(str(k).ljust(widths[k]) for k in keys)]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            "  ".join(str(row[k]).ljust(widths[k]) for k in keys)
        )
    return "\n".join(lines)
