"""E10 — §3.3: partial rollback in distributed systems.

Paper artefacts (qualitative): global concurrency-graph maintenance is
impractical across sites, so distributed systems combine site-local
detection with timestamp rules; "these mechanisms in no way invalidate the
advantages of rolling a transaction back to the latest possible state",
though partial rollback costs extra inter-site communication.

Measured: centralised vs 2/4-site deployments under wound-wait and
wait-die; per-configuration messages, rollbacks, restarts, and lost
progress; and partial-vs-total rollback *within* the distributed setting.

The replicated sweep additionally records the ``distributed_replication``
section of ``BENCH_scale.json``: steps/second, messages/transaction, and
availability under a single permanent site crash, scaling to 100 sites
over 10^5 entities.  CI replays ``--smoke`` and gates throughput at
±25%:

    python benchmarks/bench_distributed.py --json ../BENCH_scale.json
"""

import argparse
import sys
import time

from conftest import report
import perfjson

from repro import Scheduler
from repro.distributed import (
    PROBE,
    WAIT_DIE,
    WOUND_WAIT,
    DistributedScheduler,
    hash_view,
    round_robin_partition,
)
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)

CONFIG = dict(
    n_transactions=12, n_entities=15, locks_per_txn=(2, 5),
    write_ratio=0.8, skew="hotspot",
)
SEEDS = (0, 1, 2)


def run_centralised(strategy="mcs"):
    totals = {"deployment": "centralised", "strategy": strategy,
              "messages": 0, "rollbacks": 0, "restarts": 0,
              "escalations": 0, "states_lost": 0, "overshoot": 0,
              "steps": 0}
    for seed in SEEDS:
        db, programs = generate_workload(WorkloadConfig(**CONFIG), seed)
        expected = expected_final_state(db, programs)
        scheduler = Scheduler(db, strategy=strategy,
                              policy="ordered-min-cost")
        engine = SimulationEngine(
            scheduler, RandomInterleaving(seed=seed + 3),
            max_steps=800_000,
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.final_state == expected
        totals["rollbacks"] += result.metrics.rollbacks
        totals["restarts"] += result.metrics.total_rollbacks
        totals["escalations"] += result.metrics.restart_escalations
        totals["states_lost"] += result.metrics.states_lost
        totals["overshoot"] += result.metrics.overshoot_states
        totals["steps"] += result.steps
    return totals


def run_distributed(n_sites, mode, strategy="mcs"):
    totals = {"deployment": f"{n_sites} sites/{mode}",
              "strategy": strategy, "messages": 0, "rollbacks": 0,
              "restarts": 0, "escalations": 0, "states_lost": 0,
              "overshoot": 0, "steps": 0}
    for seed in SEEDS:
        db, programs = generate_workload(WorkloadConfig(**CONFIG), seed)
        expected = expected_final_state(db, programs)
        partition = round_robin_partition(db.names(), programs, n_sites)
        scheduler = DistributedScheduler(
            db, partition, strategy=strategy, policy="ordered-min-cost",
            cross_site_mode=mode, wait_timeout=150,
        )
        engine = SimulationEngine(
            scheduler, RandomInterleaving(seed=seed + 3),
            max_steps=800_000,
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.final_state == expected
        totals["messages"] += scheduler.message_log.total
        totals["rollbacks"] += result.metrics.rollbacks
        totals["restarts"] += result.metrics.total_rollbacks
        totals["escalations"] += result.metrics.restart_escalations
        totals["states_lost"] += result.metrics.states_lost
        totals["overshoot"] += result.metrics.overshoot_states
        totals["steps"] += result.steps
    return totals


def full_sweep():
    rows = [run_centralised()]
    for n_sites in (2, 4):
        for mode in (WOUND_WAIT, WAIT_DIE, PROBE):
            rows.append(run_distributed(n_sites, mode))
    # Partial vs total rollback within the distributed setting.
    rows.append({**run_distributed(2, WOUND_WAIT, strategy="total"),
                 "deployment": "2 sites/wound-wait"})
    return rows


# -- replicated sweep (perf-trajectory section) ---------------------------

#: ``(sites, rf, transactions, entities)`` sweep points, smallest first.
#: The last point is the scale demonstration: 100 sites over 10^5
#: entities (contention is naturally low there; the point measures the
#: view/replication overhead per step, not conflict resolution).
REPLICATED_SWEEP = [
    (5, 2, 12, 60),
    (10, 2, 24, 400),
    (100, 2, 120, 100_000),
]
SMOKE_REPLICATED_SWEEP = REPLICATED_SWEEP[:1]


def _replicated_run(n_sites, rf, n_transactions, n_entities, seed,
                    fail_site=None, check_state=True):
    """One replicated execution; returns ``(result, scheduler, elapsed)``.

    With *fail_site* set, that site is down for the whole run — the
    available-copies layer must keep every entity reachable through the
    surviving replicas (rf >= 2), so commits measure availability.
    """
    cfg = WorkloadConfig(
        n_transactions=n_transactions, n_entities=n_entities,
        locks_per_txn=(2, 4), write_ratio=0.6,
        skew="uniform" if n_entities > 1000 else "hotspot",
    )
    db, programs = generate_workload(cfg, seed)
    expected = expected_final_state(db, programs)
    view = hash_view(db.names(), programs, n_sites, rf=rf)
    scheduler = DistributedScheduler(
        db, view, strategy="mcs", policy="ordered-min-cost",
        wait_timeout=150,
    )
    if fail_site is not None:
        scheduler.site_failed(fail_site)
    engine = SimulationEngine(
        scheduler, RandomInterleaving(seed=seed + 3), max_steps=800_000
    )
    for program in programs:
        engine.add(program)
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    if check_state:
        assert result.final_state == expected
    return result, scheduler, elapsed


def run_replicated(n_sites, rf, n_transactions, n_entities, seed=0):
    """One ``distributed_replication`` row: throughput, message cost,
    and availability while one site is permanently down."""
    result, scheduler, elapsed = _replicated_run(
        n_sites, rf, n_transactions, n_entities, seed
    )
    commits = result.metrics.commits
    down_result, down_scheduler, _ = _replicated_run(
        n_sites, rf, n_transactions, n_entities, seed,
        fail_site=0, check_state=False,
    )
    return {
        "sites": n_sites,
        "rf": rf,
        "transactions": n_transactions,
        "entities": n_entities,
        "steps": result.steps,
        "seconds": round(elapsed, 3),
        "steps_per_sec": perfjson.rate(result.steps, elapsed),
        "messages_per_txn": round(
            scheduler.message_log.total / max(commits, 1), 2
        ),
        "availability_1down": round(
            down_result.metrics.commits / n_transactions, 3
        ),
        "catchups_1down": down_scheduler.metrics.replica_catchups,
    }


def replicated_sweep(points=REPLICATED_SWEEP):
    return [run_replicated(*point) for point in points]


def test_replicated_overheads(benchmark):
    rows = benchmark.pedantic(
        lambda: replicated_sweep(SMOKE_REPLICATED_SWEEP),
        rounds=1, iterations=1,
    )
    for row in rows:
        # Write-all-available over rf=2 must cost real messages, and a
        # single site crash must not dent availability.
        assert row["messages_per_txn"] > 0
        assert row["availability_1down"] == 1.0
        assert row["steps_per_sec"] > 0
    report("E11 — replicated deployments (rf=2, 1-down availability)", rows)
    benchmark.extra_info.update({
        f"steps_per_sec@{row['sites']}sites": row["steps_per_sec"]
        for row in rows
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Run the replicated-scheduler sweep; optionally record a "
            "'distributed_replication' section into the perf trajectory "
            "and/or gate against it."
        )
    )
    parser.add_argument("--json", metavar="PATH",
                        help="trajectory file to update")
    parser.add_argument("--section", default="distributed_replication")
    parser.add_argument("--smoke", action="store_true",
                        help="only the smallest sweep point")
    parser.add_argument("--compare", metavar="PATH",
                        help="committed trajectory to gate against")
    parser.add_argument("--compare-section",
                        default="distributed_replication")
    parser.add_argument("--gate", type=float,
                        default=perfjson.DEFAULT_TOLERANCE)
    parser.add_argument("--recorded", default="")
    args = parser.parse_args(argv)

    points = SMOKE_REPLICATED_SWEEP if args.smoke else REPLICATED_SWEEP
    rows = replicated_sweep(points)
    report("bench_distributed replicated sweep", rows)
    if args.json:
        perfjson.update_section(
            args.json, args.section, rows, recorded=args.recorded,
            note=(
                "consistent-hash views + available-copies replication "
                "(rf=2): read-one/write-all-available message cost and "
                "availability under one permanent site crash"
            ),
        )
        print(f"wrote section {args.section!r} to {args.json}")
    if args.compare:
        committed = perfjson.section_rows(
            perfjson.load(args.compare), args.compare_section
        )
        failures = perfjson.gate(
            rows, committed, metric="steps_per_sec", tolerance=args.gate,
        )
        if failures:
            for failure in failures:
                print(f"PERF GATE FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf gate OK: {len(rows)} row(s) within {args.gate:.0%} "
            f"of {args.compare}:{args.compare_section}"
        )
    return 0


def test_distributed_deployments(benchmark):
    rows = benchmark.pedantic(full_sweep, rounds=1, iterations=1)
    by_deploy = {
        (row["deployment"], row["strategy"]): row for row in rows
    }
    centralised = rows[0]
    two_ww = by_deploy[("2 sites/wound-wait", "mcs")]
    four_ww = by_deploy[("4 sites/wound-wait", "mcs")]
    two_probe = by_deploy[("2 sites/probe", "mcs")]
    total_row = by_deploy[("2 sites/wound-wait", "total")]
    # Probe mode only rolls back on true global deadlocks: no restarts,
    # zero overshoot under MCS.
    assert two_probe["restarts"] == 0
    assert two_probe["overshoot"] == 0
    # Shape 1: centralised needs no messages; more sites => more messages.
    assert centralised["messages"] == 0
    assert four_ww["messages"] > two_ww["messages"] > 0
    # Shape 2: under MCS, the only total restarts are retry-budget
    # escalations — a repeatedly-wounded victim the ladder promotes to a
    # full restart (seed 1 of this fixed sweep produces exactly 3).
    # Partial rollback itself never restarts: every restart must be
    # accounted for by an escalation, while the total strategy restarts
    # on every rollback.
    assert two_ww["restarts"] == two_ww["escalations"] == 3
    assert total_row["restarts"] == total_row["rollbacks"] > 0
    # Shape 3: the paper's precise advantage — rolling back only to the
    # latest state where the conflict disappears — shows up as zero
    # overshoot for MCS vs real overshoot for total restart at the sites.
    assert two_ww["overshoot"] == 0
    assert total_row["overshoot"] > 0
    report(
        "E10 — distributed deployments (3 seeds per row)",
        rows,
        paper_note=(
            "site-local detection + timestamp rules compose with partial "
            "rollback; communication is the price of distribution"
        ),
    )
    benchmark.extra_info.update({
        "centralised_lost": centralised["states_lost"],
        "two_site_ww_lost": two_ww["states_lost"],
        "two_site_total_lost": total_row["states_lost"],
    })


if __name__ == "__main__":
    sys.exit(main())
