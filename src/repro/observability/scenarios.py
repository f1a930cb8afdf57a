"""Named, seeded scenarios for ``repro trace``.

Each scenario builds a run with a :class:`~repro.observability.recorder.
RunRecorder` attached from the first step, executes it, and returns the
recorder plus a JSON-ready context summary.  All of them are pure
functions of ``(name, seed)``: running one twice yields byte-identical
JSONL exports, which is exactly what the CLI's determinism contract (and
the double-run tests) assert.

Scenarios
---------
``run``
    A contended synthetic workload on the centralised scheduler under
    unconstrained ``min-cost`` selection — blocks, deadlocks, victim
    selections, and rollbacks in every trace.
``chaos``
    A :func:`~repro.resilience.chaos.chaos_run` with one injected crash:
    WAL appends and checkpoints, the CRASH event, recovery, and the
    recorder re-attached across segments into one continuous stream.
``overload``
    An :func:`~repro.admission.stress.overload_run` through the full
    admission layer: submit/admit events, AIMD window moves and deadline
    rungs.
``distributed``
    A five-site replicated deployment (rf=2, consistent-hash view) under
    cross-site wound-wait — the ``repro chaos --sites 5 --replicate 2``
    topology with a recorder attached.  Wounds cross site boundaries as
    messages before the victim's partial rollback, so this is the seeded
    reproduction behind ``repro trace distributed --txn <id>``:
    a cross-site timeline whose rollback cause links name the
    ``requester home -> victim home`` link that carried the wound.
"""

from __future__ import annotations

from typing import Any

from .recorder import RunRecorder

#: Selectable scenario names, in documentation order.
SCENARIOS: tuple[str, ...] = (
    "run", "chaos", "overload", "distributed",
)


def record_scenario(
    name: str = "run", seed: int = 0, sample_every: int = 25
) -> tuple[RunRecorder, dict[str, Any]]:
    """Run scenario *name* from *seed* with a recorder attached.

    Returns ``(recorder, context)`` where ``context`` is a
    JSON-serializable description of what the run did (scenario-specific
    headline numbers; the event stream itself lives on the recorder).
    """
    if name == "run":
        return _scenario_run(seed, sample_every)
    if name == "chaos":
        return _scenario_chaos(seed, sample_every)
    if name == "overload":
        return _scenario_overload(seed, sample_every)
    if name == "distributed":
        return _scenario_distributed(seed, sample_every)
    raise ValueError(
        f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
    )


def _scenario_run(
    seed: int, sample_every: int
) -> tuple[RunRecorder, dict[str, Any]]:
    from ..core.scheduler import Scheduler
    from ..simulation.engine import SimulationEngine
    from ..simulation.interleaving import RandomInterleaving
    from ..simulation.workload import WorkloadConfig, generate_workload

    database, programs = generate_workload(
        WorkloadConfig(
            n_transactions=10,
            n_entities=6,
            locks_per_txn=(2, 4),
            write_ratio=1.0,
            skew="hotspot",
        ),
        seed=seed,
    )
    scheduler = Scheduler(database, strategy="mcs", policy="min-cost")
    engine = SimulationEngine(
        scheduler,
        RandomInterleaving(seed=seed),
        max_steps=200_000,
        livelock_window=20_000,
    )
    recorder = RunRecorder(sample_every=sample_every).attach(engine)
    for program in programs:
        engine.add(program)
    result = engine.run()
    return recorder, {
        "scenario": "run",
        "seed": seed,
        "steps": result.steps,
        "committed": result.committed,
        "livelock": result.livelock_detected,
        "metrics": result.metrics.summary(),
    }


def _scenario_chaos(
    seed: int, sample_every: int
) -> tuple[RunRecorder, dict[str, Any]]:
    from ..resilience.chaos import chaos_run
    from ..simulation.workload import WorkloadConfig

    recorder = RunRecorder(sample_every=sample_every)
    outcome = chaos_run(
        WorkloadConfig(
            n_transactions=5,
            n_entities=6,
            locks_per_txn=(2, 4),
            write_ratio=1.0,
            skew="uniform",
        ),
        workload_seed=seed,
        chaos_seed=seed,
        crashes=1,
        checkpoint_every=10,
        instrument=recorder.attach,
    )
    return recorder, {
        "scenario": "chaos",
        "seed": seed,
        "steps": outcome.steps,
        "segments": outcome.segments,
        "crashes": outcome.crashes,
        "committed": sorted(outcome.committed),
        "ok": outcome.ok,
        "violation": (
            None if outcome.violation is None else str(outcome.violation)
        ),
    }


def _scenario_overload(
    seed: int, sample_every: int
) -> tuple[RunRecorder, dict[str, Any]]:
    from ..admission.stress import OverloadConfig, overload_run

    recorder = RunRecorder(sample_every=sample_every)
    report, result = overload_run(
        OverloadConfig(
            n_transactions=24,
            n_entities=4,
            locks_per_txn=(2, 4),
            deadline_steps=120,
            max_steps=60_000,
        ),
        seed=seed,
        instrument=recorder.attach,
    )
    return recorder, {
        "scenario": "overload",
        "seed": seed,
        "steps": report.steps,
        "admitted": report.admitted,
        "committed": report.committed,
        "shed": sorted(report.shed),
        "deadline_expiries": report.deadline_expiries,
        "fingerprint": report.fingerprint(),
        "livelock": result.livelock_detected,
    }


def _scenario_distributed(
    seed: int, sample_every: int
) -> tuple[RunRecorder, dict[str, Any]]:
    """Five sites, rf=2, cross-site wound-wait under a hot workload.

    The shape mirrors ``repro chaos --sites 5 --replicate 2`` with the
    recorder attached from the first step.  The workload is contended
    enough that wounds routinely cross a site link before the victim's
    partial rollback — the cross-site cause links ``repro trace
    distributed --txn <id>`` renders.
    """
    from ..observability.tracing import build_txn_trace, trace_ids
    from ..resilience.chaos import chaos_run
    from ..simulation.workload import WorkloadConfig

    recorder = RunRecorder(sample_every=sample_every)
    outcome = chaos_run(
        WorkloadConfig(
            n_transactions=10,
            n_entities=8,
            locks_per_txn=(2, 4),
            write_ratio=1.0,
            skew="hotspot",
        ),
        workload_seed=seed,
        chaos_seed=seed,
        crashes=0,
        sites=5,
        replicate=2,
        cross_site_mode="wound-wait",
        instrument=recorder.attach,
    )
    cross_site_rollbacks = sum(
        len(build_txn_trace(recorder.events, txn).cross_site_rollbacks())
        for txn in trace_ids(recorder.events)
    )
    return recorder, {
        "scenario": "distributed",
        "seed": seed,
        "steps": outcome.steps,
        "sites": 5,
        "replicate": 2,
        "committed": sorted(outcome.committed),
        "cross_site_rollbacks": cross_site_rollbacks,
        "ok": outcome.ok,
        "violation": (
            None if outcome.violation is None else str(outcome.violation)
        ),
    }
