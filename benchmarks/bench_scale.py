"""E15 — simulator scale and throughput (calibration, not a paper claim).

The reproduction runs on a pure-Python discrete-step simulator rather
than the authors' hardware, so absolute timings are not comparable to any
real DBMS; this bench calibrates what the simulator itself sustains —
simulation steps per second across system sizes — and records whether
the work per step stays constant as the system grows.  Since the
scheduler keeps its ready list, blocked count and live count at its
status transitions (no population scan per step), next to the live
waits-for graph and the running copies total, it does: the 200-
transaction point runs at the rate of the 10-transaction one instead of
at 40% of it.  What slope remains is deadlock resolution (15 deadlocks
at the largest point, 4-6 below) and the interleaving's per-step sort.

Besides the pytest shape test, this file is the perf-trajectory writer:

    PYTHONPATH=src python benchmarks/bench_scale.py --json BENCH_scale.json

runs the sweep and records rows (steps/sec, detection-time share,
incremental-graph maintenance counters) into the committed trajectory
file; CI replays it in ``--smoke`` mode and gates with ``--compare``
(fail on >25% regression against the committed rows).  See
docs/PERFORMANCE.md.
"""

import argparse
import random
import sys
import time

from conftest import report
import perfjson

from repro import Scheduler
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)

#: The full sweep: (n_transactions, n_entities) points, smallest first.
SWEEP = [(10, 20), (50, 100), (100, 200), (200, 400)]

#: Points re-measured by the CI smoke gate (kept small enough that the
#: bench job stays in seconds).
SMOKE_SWEEP = SWEEP[:2]


def run_scale(n_transactions, n_entities, seed=0):
    config = WorkloadConfig(
        n_transactions=n_transactions,
        n_entities=n_entities,
        locks_per_txn=(2, 5),
        write_ratio=0.8,
        skew="uniform",
    )
    db, programs = generate_workload(config, seed=seed)
    expected = expected_final_state(db, programs)
    scheduler = Scheduler(db, strategy="mcs", policy="ordered-min-cost")
    timing = {"seconds": 0.0, "checks": 0}
    inner_check = scheduler.detector.check

    def timed_check(requester):
        timing["checks"] += 1
        t0 = time.perf_counter()
        try:
            return inner_check(requester)
        finally:
            timing["seconds"] += time.perf_counter() - t0

    scheduler.detector.check = timed_check
    engine = SimulationEngine(
        scheduler,
        RandomInterleaving(rng=random.Random(seed + 1)),
        max_steps=5_000_000,
    )
    for program in programs:
        engine.add(program)
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    assert result.final_state == expected
    return {
        "transactions": n_transactions,
        "entities": n_entities,
        "steps": result.steps,
        "deadlocks": result.metrics.deadlocks,
        "seconds": round(elapsed, 3),
        "steps_per_sec": perfjson.rate(result.steps, elapsed),
        "detection_share": round(
            timing["seconds"] / max(elapsed, perfjson.MIN_ELAPSED), 3
        ),
        "detection_checks": timing["checks"],
        "graph_counters": result.graph_counters,
    }


def scale_sweep(points=SWEEP):
    return [run_scale(n_txns, n_entities) for n_txns, n_entities in points]


def run_telemetry(n_transactions, n_entities, seed=0):
    """Streaming-aggregator overhead: the same workload twice, once with
    the scheduler's default ``NULL_BUS`` (publishing short-circuits on
    the hot path) and once with a live bus feeding a
    :class:`~repro.observability.streaming.StreamingAggregator`.  The
    delta is the full cost of live telemetry — event construction,
    dispatch, and the bounded-memory fold."""
    from repro.observability.events import EventBus
    from repro.observability.streaming import StreamingAggregator

    def timed_run(bus=None):
        config = WorkloadConfig(
            n_transactions=n_transactions,
            n_entities=n_entities,
            locks_per_txn=(2, 5),
            write_ratio=0.8,
            skew="uniform",
        )
        db, programs = generate_workload(config, seed=seed)
        expected = expected_final_state(db, programs)
        scheduler = Scheduler(
            db, strategy="mcs", policy="ordered-min-cost"
        )
        aggregator = None
        if bus is not None:
            aggregator = StreamingAggregator()
            bus.subscribe(aggregator)
            scheduler.bus = bus
        engine = SimulationEngine(
            scheduler,
            RandomInterleaving(rng=random.Random(seed + 1)),
            max_steps=5_000_000,
        )
        for program in programs:
            engine.add(program)
        started = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - started
        assert result.final_state == expected
        return result, aggregator, elapsed

    # Best-of-3 on both sides: the small sweep points finish in
    # milliseconds, so single-shot ratios would be scheduler-jitter
    # noise rather than aggregator cost.
    baseline_result, _, baseline = timed_run()
    result, aggregator, instrumented = timed_run(EventBus())
    for _ in range(2):
        _, _, again = timed_run()
        baseline = min(baseline, again)
        _, _, again = timed_run(EventBus())
        instrumented = min(instrumented, again)
    # Telemetry must be an observer: identical trajectory either way.
    assert result.steps == baseline_result.steps
    overhead = instrumented / max(baseline, perfjson.MIN_ELAPSED) - 1.0
    return {
        "transactions": n_transactions,
        "entities": n_entities,
        "steps": result.steps,
        "events": aggregator.events_seen,
        "tracked_state": aggregator.tracked_state_size(),
        "baseline_sec": round(baseline, 3),
        "telemetry_sec": round(instrumented, 3),
        "steps_per_sec": perfjson.rate(result.steps, instrumented),
        "overhead_frac": round(overhead, 3),
    }


def telemetry_sweep(points=SWEEP):
    return [
        run_telemetry(n_txns, n_entities)
        for n_txns, n_entities in points
    ]


def test_simulator_scale(benchmark):
    rows = benchmark.pedantic(scale_sweep, rounds=1, iterations=1)
    # Shape: throughput stays within an order of magnitude as the system
    # grows 20x — per-step cost is near-constant outside detection.
    rates = [row["steps_per_sec"] for row in rows]
    assert min(rates) > 0
    assert max(rates) / min(rates) < 60
    # Shape: incremental maintenance is balanced (every edge added is
    # eventually removed: the run ends with an empty waits-for graph).
    for row in rows:
        counters = row["graph_counters"]
        assert counters["edges_added"] == counters["edges_removed"]
    report(
        "E15 — simulator throughput vs system size",
        [
            {k: v for k, v in row.items() if k != "graph_counters"}
            for row in rows
        ],
        paper_note=(
            "calibration of the Python substrate (repro band: 'works but "
            "concurrency simulation slower'); absolute times are not "
            "paper-comparable"
        ),
    )
    benchmark.extra_info.update({
        f"rate@{row['transactions']}txns": row["steps_per_sec"]
        for row in rows
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Run the scale sweep; optionally record it into a perf "
            "trajectory file and/or gate against a committed one."
        )
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the measured rows into this trajectory file",
    )
    parser.add_argument(
        "--section",
        default="current",
        help="section name to write (default: current)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"only the {len(SMOKE_SWEEP)} smallest sweep points",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="measure streaming-aggregator overhead instead of raw "
             "throughput (writes/gates the telemetry_overhead section)",
    )
    parser.add_argument(
        "--compare",
        metavar="PATH",
        help="gate the measured rows against this committed trajectory",
    )
    parser.add_argument(
        "--compare-section",
        default="current",
        help="section of the committed file to gate against",
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=perfjson.DEFAULT_TOLERANCE,
        help="allowed fractional regression (default: 0.25)",
    )
    parser.add_argument(
        "--recorded",
        default="",
        help="provenance stamp stored with the written section",
    )
    args = parser.parse_args(argv)

    points = SMOKE_SWEEP if args.smoke else SWEEP
    # Telemetry mode defaults to its own trajectory section so the raw
    # throughput rows and the overhead rows never gate against each
    # other by accident.
    section = args.section
    compare_section = args.compare_section
    if args.telemetry:
        rows = telemetry_sweep(points)
        if section == "current":
            section = "telemetry_overhead"
        if compare_section == "current":
            compare_section = "telemetry_overhead"
    else:
        rows = scale_sweep(points)
    report(
        "bench_scale sweep",
        [
            {k: v for k, v in row.items() if k != "graph_counters"}
            for row in rows
        ],
    )
    if args.json:
        perfjson.update_section(
            args.json, section, rows, recorded=args.recorded
        )
        print(f"wrote section {section!r} to {args.json}")
    if args.compare:
        committed = perfjson.section_rows(
            perfjson.load(args.compare), compare_section
        )
        failures = perfjson.gate(rows, committed, tolerance=args.gate)
        if failures:
            for failure in failures:
                print(f"PERF GATE FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf gate OK: {len(rows)} row(s) within {args.gate:.0%} of "
            f"{args.compare}:{compare_section}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
