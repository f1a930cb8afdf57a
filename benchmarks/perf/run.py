"""One bounded-time benchmark: six workloads, end-to-end and per-layer.

Two ways in, one code path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process — what ``BENCHMARK.json`` invokes.  The
    last line of stdout is one JSON object (``correct``, ``attempted``,
    ``failed``, ``metrics``) carrying the ``end_to_end`` metrics of
    ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` metrics
    (``--trace 1``).

``run.py --seed N``
    Every workload, each in its own child process of the form above (a
    fresh interpreter per workload, killed at its timeout): first
    untraced for the end-to-end metrics, then traced for the per-layer
    ones.  Prints every metric by name with unit, direction and bound and
    exits non-zero on any failure.  ``--check-repeat``, ``--smoke``,
    ``--only`` and ``--inject-hang`` are variations of this mode.

See README.md for the workloads, the metric/layer map and calibration.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"

#: End-to-end metrics of ISSUE 12 that ``BENCHMARK.json`` cannot list,
#: because its contract wants every metric non-zero on every workload:
#: these are zero on the service workloads (no rollbacks there) or zero
#: whenever nothing fails.  The full report prints and gates them here;
#: the traced run also reports the first as a per-layer metric.
LOCAL_END_TO_END = [
    {"name": "states_lost_per_txn", "unit": "count", "better": "lower",
     "bound": 0.0},
    {"name": "failed_frac", "unit": "frac", "better": "lower", "bound": 0.0},
]

#: Instance sub-seeds of run seed ``s`` are ``s * SEED_STRIDE + i``; the
#: warm-up takes the last slot, which no measured instance reaches.
SEED_STRIDE = 1009


def sub_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 of an empty one:
    every instance failed before its first request)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


# -- one workload, in this process -------------------------------------------


class Instance:
    """One workload instance and what its replays agree on.

    A replay repeats the instance from the same sub-seed, so its i-th
    request does the same work every time; other tenants of the machine
    only ever make it slower.  The instance therefore keeps, per request,
    the fastest latency any replay saw (its *floor*), and likewise the
    fastest remainder of the timed region (harness time between
    requests).  ``run_s`` is the sum of the two: the timed region as it
    reads with the interference filtered out.
    """

    def __init__(self, first) -> None:
        self.first = first
        self.floors = array("d", first.latencies)
        self.rest_s = first.run_s - sum(first.latencies)
        self.raw_run_s = [first.run_s]
        self.setup_s = [first.setup_s]
        self.attempted = first.attempted
        self.failed = first.failed
        self.problems = list(first.problems)
        first.latencies.clear()

    def replay(self, again, deterministic: bool) -> None:
        failed = again.failed
        if deterministic and (
            again.counts != self.first.counts
            or len(again.latencies) != len(self.floors)
        ):
            self.problems.append("counts differ between replays")
            failed = again.attempted
        # Over TCP a retried request adds a latency; map() then stops at
        # the shorter list and the tail stays in rest_s.
        self.floors = array("d", map(min, self.floors, again.latencies))
        self.rest_s = min(self.rest_s, again.run_s - sum(again.latencies))
        self.raw_run_s.append(again.run_s)
        self.setup_s.append(again.setup_s)
        self.attempted += again.attempted
        self.failed += failed
        self.problems.extend(again.problems)

    @property
    def run_s(self) -> float:
        return sum(self.floors) + self.rest_s


def timings(instances: list[Instance]) -> dict[str, float]:
    """The three timings over *instances*, their request floors pooled."""
    floors = sorted(x for instance in instances for x in instance.floors)
    return {
        "txn_per_s": (
            sum(i.first.commits for i in instances)
            / sum(i.run_s for i in instances)
        ),
        "req_p50_ms": percentile(floors, 0.50) * 1e3,
        "req_p99_ms": percentile(floors, 0.99) * 1e3,
    }


def measure(args: argparse.Namespace) -> int:
    if args.hang:
        time.sleep(3600)  # --inject-hang: the parent's timeout must end this
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import trace as tracing
    from workloads import WORKLOADS
    # Five samples where setup_s is reported, one where it is not.
    import_s = statistics.median(
        import_seconds() for _ in range(1 if args.smoke or args.trace else 5)
    )

    workload = WORKLOADS[args.workload]
    distinct, replays = workload.plan(args.seconds)
    scale = 1.0
    if args.trace:
        # Every instance runs twice, plain then traced, so the overhead
        # and the count comparison are like for like.
        replays = 1
    if args.smoke:
        distinct, replays, scale = 1, 1, 0.25
    tmp = OUT / "tmp"
    give_up_at = time.perf_counter() + 2.5 * args.seconds + 10.0

    def run_instance(index, tracer=None):
        return workload.run(sub_seed(args.seed, index), scale, tracer, tmp)

    run_instance(SEED_STRIDE - 1)  # warm-up, discarded
    tracer = tracing.Tracer() if args.trace else None
    plain: list[Instance] = []
    traced = []
    # One pass over all the instances per replay, so the replays of one
    # instance are seconds apart: a slow spell of the machine, which
    # lasts 0.1-3 s here, cannot cover all of them.
    runs_done = 0
    for this_pass, index in itertools.product(range(replays), range(distinct)):
        if time.perf_counter() > give_up_at:
            break
        outcome = run_instance(index)
        if this_pass == 0:
            plain.append(Instance(outcome))
        else:
            plain[index].replay(outcome, workload.deterministic)
        if tracer is not None:
            traced.append(run_instance(index, tracer))
            traced[-1].latencies.clear()
        runs_done += 1
    problems = [p for i in plain for p in i.problems]
    problems += [p for o in traced for p in o.problems]
    attempted = sum(i.attempted for i in plain) or 1
    failed = sum(i.failed for i in plain)
    if runs_done < replays * distinct:
        problems.append(
            f"gave up after {runs_done} of {replays * distinct} instance runs"
        )
        failed = attempted
    commits = sum(i.first.commits for i in plain)
    values = timings(plain)
    values.update(
        states_lost_per_txn=(
            sum(i.first.counts["states_lost"] for i in plain) / max(commits, 1)
        ),
        copies_peak=statistics.fmean(i.first.copies_peak for i in plain),
        failed_frac=failed / attempted,
        # What a process pays before its first transaction: importing the
        # program (median of five fresh interpreters), then building one
        # instance (median over every instance run).
        setup_s=import_s + statistics.median(
            s for i in plain for s in i.setup_s
        ),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    detail: dict = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "instances": distinct, "replays": replays,
        "import_s": import_s,
        "per_instance": [timings([i]) for i in plain],
        "latency_samples": sum(len(i.floors) for i in plain),
        "timed_s": sum(s for i in plain for s in i.raw_run_s),
        "counts": summed_counts([i.first for i in plain]),
    }

    if tracer is not None:
        counts = summed_counts(traced)
        if workload.deterministic:
            detail["counts_stable"] = counts == detail["counts"]
            if not detail["counts_stable"]:
                problems.append("counts differ between plain and traced run")
        detail["counts"] = counts
        overhead = sum(o.run_s for o in traced) / detail["timed_s"] - 1.0
        layer = per_layer_values(tracer, counts, overhead, import_s)
        layer["states_lost_per_txn"] = values["states_lost_per_txn"]
        tracer.write(
            OUT / f"trace_{workload.name}.json",
            {"workload": workload.name, "seed": args.seed,
             "instances": distinct},
        )
        values = layer

    manifest = json.loads(MANIFEST.read_text())
    listed = manifest["per_layer" if args.trace else "end_to_end"]
    correct = not problems and failed == 0
    detail.update(
        values=values, problems=problems[:20], correct=correct,
        attempted=attempted, failed=failed,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run_{workload.name}_t{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0 if correct else 1


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program and the
    workloads, timed by that interpreter itself."""
    code = (
        "import sys, time; started = time.perf_counter(); "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "import workloads; print(time.perf_counter() - started)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(done.stdout)


def summed_counts(outcomes: list) -> dict[str, float]:
    total: dict[str, float] = {}
    for outcome in outcomes:
        for name, value in outcome.counts.items():
            total[name] = total.get(name, 0) + value
    return total


#: Exact counters reported per layer (zero where a workload has no such
#: layer); ``runnable_sum``/``blocked_sum`` become step-weighted means.
COUNT_NAMES = (
    "steps", "ops_executed", "locks_granted", "blocks", "deadlocks",
    "rollbacks", "total_rollbacks", "states_lost", "overshoot_states",
    "graph.edges_added", "graph.edges_removed", "graph.refreshes",
    "graph.enumerations", "graph.materializations", "messages_total",
    "timeout_rollbacks", "requests", "wal_records", "journal_bytes",
    "client_retries", "rejects_429", "rejects_503",
)


def per_layer_values(tracer, counts, overhead, import_s) -> dict[str, float]:
    import trace as tracing

    spans = tracer.totals()
    values: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        span = spans.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = span["calls"]
        values[f"{name}.self_s"] = span["self_s"]
    # What the client waited that no server-side span covers: socket
    # and event-loop scheduling.
    client = spans.get("client.request")
    values["net.wait_s"] = (
        client["self_s"] - tracer.root_seconds(without="client.request")
        if client else 0.0
    )
    for name in COUNT_NAMES:
        values[name] = counts.get(name, 0)
    steps = max(counts.get("steps", 0), 1)
    deadlocks = counts.get("deadlocks", 0)
    values["mean_runnable"] = counts.get("runnable_sum", 0) / steps
    values["mean_blocked"] = counts.get("blocked_sum", 0) / steps
    # Zero where the workload never calls DeadlockDetector.check (svc has
    # no blocks; dist_repl detects through its own global graph).
    checks = values["detection.check.calls"]
    values["detect.hit_ratio"] = deadlocks / checks if checks else 0.0
    values["sched.useful_step_frac"] = (
        steps - counts.get("states_lost", 0)
    ) / steps
    values["victim.cuts_per_deadlock"] = (
        values["graphs.vertex_cut.calls"] / max(deadlocks, 1)
    )
    values["trace_overhead_frac"] = overhead
    values["import_s"] = import_s
    return values


# -- every workload, one child each -------------------------------------------


def environment_stamp() -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    fs_type, best = "unknown", -1
    for line in Path("/proc/mounts").read_text().splitlines():
        _device, mount, kind = line.split()[:3]
        if str(OUT).startswith(mount) and len(mount) > best:
            fs_type, best = kind, len(mount)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return (
        f"python {platform.python_version()} | nproc {os.cpu_count()} | "
        f"fs {fs_type} ({OUT}) | commit {commit}"
    )


def run_child(name, seed, seconds, trace, smoke, hang) -> dict:
    """One workload in a fresh interpreter; a hang is killed at three
    times the expected wall time and reported as a total failure."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if hang:
        command.append("--hang")
    timeout = 3.0 * (seconds + (1.0 if smoke else 4.0))
    detail_path = OUT / f"run_{name}_t{trace}.json"
    detail_path.unlink(missing_ok=True)
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
        note = done.stderr.strip().splitlines()[-1:] if done.returncode else []
    except subprocess.TimeoutExpired:
        note = [f"killed after {timeout:.0f} s"]
    wall_s = time.perf_counter() - started
    if detail_path.exists():
        detail = json.loads(detail_path.read_text())
    else:
        detail = {
            "workload": name, "correct": False, "problems": note,
            "values": {"failed_frac": 1.0}, "counts": {},
        }
    detail["wall_s"] = wall_s
    return detail


def gated_metrics() -> list[dict]:
    return json.loads(MANIFEST.read_text())["end_to_end"] + LOCAL_END_TO_END


def print_end_to_end(details: dict[str, dict]) -> None:
    print("\nend-to-end (untraced; timings are over the request floors of a "
          "run's instances)")
    for metric in gated_metrics():
        key = metric["name"]
        print(
            f"  {key} [{metric['unit']}, {metric['better']} is "
            f"better, bound {metric['bound']}]"
        )
        for name, detail in details.items():
            value = detail["values"].get(key)
            text = "n/a" if value is None else f"{value:.6g}"
            extra = ""
            each = [i[key] for i in detail.get("per_instance", []) if key in i]
            if each:
                extra = (
                    f"  (instances min {min(each):.4g} max {max(each):.4g}, "
                    f"n={len(each)} x {detail['replays']} replays"
                )
                if key.startswith("req_p"):
                    extra += f", {detail['latency_samples']} samples"
                extra += ")"
            print(f"    {name:<11} {text:>12}{extra}")


def print_per_layer(details: dict[str, dict]) -> None:
    print("\nper-layer (traced; columns: " + " ".join(details) + ")")
    names = sorted({n for d in details.values() for n in d["values"]})
    for name in names:
        cells = []
        for detail in details.values():
            value = detail["values"].get(name)
            cells.append("-" if value is None else f"{value:.5g}")
        print(f"  {name:<28} " + " ".join(f"{c:>10}" for c in cells))


def failures_of(details: dict[str, dict]) -> list[str]:
    failures = []
    for name, detail in details.items():
        if not detail.get("correct"):
            failures.append(
                f"{name}: failed_frac "
                f"{detail['values'].get('failed_frac', 1.0):.3g} "
                f"{'; '.join(detail.get('problems', []))}"
            )
        if detail.get("counts_stable") is False:
            failures.append(f"{name}: counts_stable: false")
    return failures


def compare_sets(first: dict, second: dict) -> list[str]:
    """``--check-repeat``: every end-to-end metric of the second set
    within its own bound of the first (bound 0 means exactly equal)."""
    disagreements = []
    for metric in gated_metrics():
        key, bound = metric["name"], metric["bound"]
        for name in first:
            a = first[name]["values"].get(key)
            b = second[name]["values"].get(key)
            if a is None or b is None:
                disagreements.append(f"{name} {key}: missing")
                continue
            spread = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            verdict = "ok" if spread <= bound else "DISAGREE"
            print(
                f"  {name:<11} {key:<20} {a:>12.6g} {b:>12.6g} "
                f"{spread:>7.3f} / {bound} {verdict}"
            )
            if spread > bound:
                disagreements.append(f"{name} {key}: {a} vs {b}")
    return disagreements


def run_all(args: argparse.Namespace) -> int:
    from_manifest = [w["name"] for w in json.loads(
        MANIFEST.read_text())["workloads"]]
    names = [args.only] if args.only else from_manifest
    seconds = 0.5 if args.smoke else args.seconds
    started = time.perf_counter()
    stamp = environment_stamp()
    print(stamp)

    def run_set(trace: int, run_seconds: float) -> dict[str, dict]:
        details = {}
        for name in names:
            details[name] = run_child(
                name, args.seed, run_seconds, trace, args.smoke,
                hang=(name == args.inject_hang),
            )
            print(
                f"  {name} trace={trace}: {details[name]['wall_s']:.1f} s"
                f"{'' if details[name].get('correct') else '  FAILED'}",
                flush=True,
            )
        return details

    untraced = run_set(0, seconds)
    print_end_to_end(untraced)
    failures = failures_of(untraced)
    result = {"environment": stamp, "seed": args.seed,
              "untraced": untraced}
    if args.check_repeat:
        again = run_set(0, seconds)
        print("\ncheck-repeat: workload metric first second spread / bound")
        failures += failures_of(again) + compare_sets(untraced, again)
        result["untraced_repeat"] = again
    else:
        # Traced runs do each instance twice, so give them half the time.
        traced = run_set(1, seconds / 2)
        print_per_layer(traced)
        failures += failures_of(traced)
        result["traced"] = traced
    result["failures"] = failures
    result["wall_s"] = time.perf_counter() - started
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"\nwall {result['wall_s']:.1f} s; full result in {out}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measured seconds per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one quarter-size instance per workload")
    parser.add_argument("--hang", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--only", metavar="WORKLOAD")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--inject-hang", metavar="WORKLOAD",
                        help="make that workload's child hang (tests the "
                             "timeout path; the run must exit non-zero)")
    parser.add_argument("--out", default=str(OUT / "result.json"))
    args = parser.parse_args(argv)
    if args.workload:
        return measure(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
