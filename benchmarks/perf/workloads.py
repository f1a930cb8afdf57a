"""The six benchmark workloads.

Every workload is a function ``run(seed, scale, tracer, tmp) ->
Outcome`` that builds fresh objects from *seed* (set-up, timed on its
own), runs them to completion (the timed region), and checks the outputs
afterwards.  *scale* multiplies the transaction count only (``--smoke``
uses a quarter); *tracer* is ``None`` for the end-to-end run.

Policy ``ordered-min-cost`` and strategy ``mcs`` everywhere: Theorem 2
is what makes termination provable, and every engine is additionally
guarded by a step budget and the livelock window.  See README.md for why
each workload exists and how the sizes were calibrated.
"""

from __future__ import annotations

import asyncio
import gc
import random
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from repro import Scheduler
from repro.distributed.replication import ReplicatedScheduler
from repro.distributed.views import hash_view
from repro.errors import ReproError
from repro.service import replay
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.core import ServiceConfig
from repro.service.protocol import ServiceError
from repro.service.server import LockServer, build_core
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)
from repro.simulation.interleaving import InterleavingPolicy

import trace as tracing

#: Metrics counters copied out of every run (exact for a seed wherever
#: the workload is deterministic).
METRIC_COUNTERS = (
    "ops_executed", "locks_granted", "blocks", "deadlocks", "rollbacks",
    "total_rollbacks", "states_lost", "overshoot_states",
    "timeout_rollbacks",
)
GRAPH_COUNTERS = (
    "edges_added", "edges_removed", "refreshes", "enumerations",
    "materializations",
)


@dataclass
class Outcome:
    """What one instance of a workload measured."""

    setup_s: float
    run_s: float
    #: Transactions (sim/dist) or requests (svc) attempted / not completed
    #: correctly; an instance failing its output check fails entirely.
    attempted: int
    failed: int
    commits: int
    copies_peak: int
    #: Seconds per engine step (sim/dist) or per request (svc).
    latencies: list[float]
    counts: dict[str, float]
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Distinct instances (sub-seeds) in a run: as many as it takes for
    #: the run's timings to depend little on the seed.
    distinct: int
    #: Seconds one instance takes on the 2-core sandbox (set-up, run and
    #: output check); sizes a run to ``--seconds``.
    instance_s: float
    #: Whether every count repeats exactly for a seed (not over TCP).
    deterministic: bool
    run: Callable[[int, float, "tracing.Tracer | None", Path], Outcome]

    def plan(self, seconds: float) -> tuple[int, int]:
        """``(distinct instances, replays of each)`` that fill *seconds*:
        at least two replays, fewer instances when that is too long."""
        budget = 0.9 * seconds / self.instance_s
        distinct = max(1, min(self.distinct, int(budget / 2)))
        return distinct, max(2, round(budget / distinct))


def _scaled(count: int, scale: float) -> int:
    return max(2, int(count * scale))


def _scheduler_counts(scheduler: Scheduler, steps: int) -> dict[str, float]:
    metrics = scheduler.metrics
    counts: dict[str, float] = {"steps": steps}
    for name in METRIC_COUNTERS:
        counts[name] = getattr(metrics, name)
    graph = scheduler.lock_manager.table.waits_for.counters_snapshot()
    for name in GRAPH_COUNTERS:
        counts[f"graph.{name}"] = graph[name]
    return counts


# -- simulator workloads ------------------------------------------------------


class StampingInterleaving(InterleavingPolicy):
    """Delegates the choice and notes when it was asked.

    The engine asks once per step, so consecutive stamps bound one whole
    engine step — scan, choice, scheduler step, trace record — which is
    the simulator's counterpart of one service request.
    """

    name = "stamping"

    def __init__(self, inner: InterleavingPolicy) -> None:
        self.inner = inner
        self.stamps: list[float] = []

    def choose(self, runnable, step):
        self.stamps.append(perf_counter())
        return self.inner.choose(runnable, step)

    def reset(self) -> None:
        self.inner.reset()
        self.stamps.clear()


def _engine_instance(
    config: WorkloadConfig,
    seed: int,
    max_steps: int,
    tracer: "tracing.Tracer | None",
    make_scheduler: Callable[[Any, Any], Scheduler] | None = None,
) -> Outcome:
    began = perf_counter()
    db, programs = generate_workload(config, seed=seed)
    expected = expected_final_state(db, programs)
    if make_scheduler is None:
        scheduler = Scheduler(db, strategy="mcs", policy="ordered-min-cost")
    else:
        scheduler = make_scheduler(db, programs)
    inner = RandomInterleaving(rng=random.Random(seed + 1))
    interleaving = StampingInterleaving(inner)
    engine = SimulationEngine(
        scheduler, interleaving, max_steps=max_steps,
        livelock_window=20_000, stop_on_livelock=True,
    )
    for program in programs:
        engine.add(program)
    setup_s = perf_counter() - began

    if tracer is not None:
        tracing.attach_engine(tracer, engine, inner)
        if make_scheduler is not None:
            tracing.attach_distributed(tracer, scheduler)
    problems: list[str] = []
    result = None
    gc.collect()
    started = perf_counter()
    try:
        result = engine.run()
    except ReproError as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    ended = perf_counter()
    if tracer is not None:
        tracer.restore()

    stamps = interleaving.stamps
    latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    if stamps:
        latencies.append(ended - stamps[-1])
    n = config.n_transactions
    commits = scheduler.metrics.commits
    if result is not None:
        if result.livelock_detected:
            problems.append("livelock")
        if commits != n:
            problems.append(f"{commits} of {n} committed")
        if result.final_state != expected:
            problems.append("final state differs from the serial oracle")
    steps = result.steps if result is not None else len(stamps)
    counts = _scheduler_counts(scheduler, steps)
    if result is not None:
        counts["runnable_sum"] = result.mean_runnable * steps
        counts["blocked_sum"] = result.mean_blocked * steps
    message_log = getattr(scheduler, "message_log", None)
    if message_log is not None:
        counts["messages_total"] = message_log.total
    return Outcome(
        setup_s=setup_s,
        run_s=ended - started,
        attempted=n,
        failed=n if problems else 0,
        commits=commits,
        copies_peak=scheduler.metrics.copies_peak,
        latencies=latencies,
        counts=counts,
        problems=problems,
    )


def _sim_scale(seed, scale, tracer, tmp):
    # 1 600 entities, not 800: at 800 deadlocks are 0.5-0.9 % of the
    # steps and cost 1-30 ms each, so the 99th percentile of step time
    # falls on or off them by seed (0.25 or 4 ms).  At 1 600 there are
    # 1-4 per instance and the tail is the blocked steps on every seed.
    return _engine_instance(
        WorkloadConfig(
            n_transactions=_scaled(400, scale), n_entities=1600,
            locks_per_txn=(2, 5), write_ratio=0.8, skew="uniform",
        ),
        seed, 100_000, tracer,
    )


#: Concurrent transactions in one hot instance.  Cost per instance grows
#: steeply with this number (16 x 10: 35 ms; 24 x 10: 0.22 s, and its S/X
#: seed 4054 livelocks; 40 x 10: 1-4 s; README, calibration), so a run
#: measures many small instances instead of a few large ones.
HOT_TRANSACTIONS = 16


def _hot(write_ratio: float):
    def run(seed, scale, tracer, tmp):
        return _engine_instance(
            WorkloadConfig(
                n_transactions=_scaled(HOT_TRANSACTIONS, scale),
                n_entities=10, locks_per_txn=(3, 6),
                write_ratio=write_ratio, skew="uniform",
            ),
            seed, 15_000, tracer,
        )
    return run


def _dist_repl(seed, scale, tracer, tmp):
    def make_scheduler(db, programs):
        view = hash_view(db.names(), programs, 8, rf=2)
        return ReplicatedScheduler(
            db, view, strategy="mcs", policy="ordered-min-cost",
            wait_timeout=150,
        )

    return _engine_instance(
        WorkloadConfig(
            n_transactions=_scaled(100, scale), n_entities=200,
            locks_per_txn=(2, 4), write_ratio=0.6, skew="hotspot",
        ),
        seed, 40_000, tracer, make_scheduler,
    )


# -- service workloads --------------------------------------------------------

#: One shared entity (``e000``, S-locked by every transaction) plus the
#: private ones the sessions X-lock; ``build_core`` names them e000...
SVC_ENTITIES = 64
SVC_SESSIONS = 2
#: One closed-loop TCP client, not two.  The server is saturated by one
#: (447 txn/s with one, 415 with two, whose requests then queue: p50 0.34
#: -> 0.74 ms), and with two the run-to-run spread of every timing is
#: 2-4 x wider (p50 0.02 -> 0.08, p99 0.10 -> 0.18), because three Python
#: threads then compete for one GIL and two cores inside the load
#: generator.  Interleaved sessions are what svc_core measures.
TCP_CLIENTS = 1
REQUESTS_PER_TXN = 6


def _svc_config(sessions: int) -> ServiceConfig:
    return ServiceConfig(max_sessions=sessions, deadline_steps=400)


def _private_entities(rng: random.Random, sessions: int) -> list[str]:
    return [
        f"e{k:03d}" for k in rng.sample(range(1, SVC_ENTITIES), sessions)
    ]


def _session_script(private: str, transactions: int) -> Iterator[dict]:
    """One session's requests; each ``yield`` receives that reply."""
    for _ in range(transactions):
        reply = yield {"verb": "begin"}
        txn = reply["txn"]
        yield {"verb": "lock", "txn": txn, "entity": "e000", "mode": "S"}
        yield {"verb": "lock", "txn": txn, "entity": private, "mode": "X"}
        reply = yield {"verb": "read", "txn": txn, "entity": private}
        yield {
            "verb": "write", "txn": txn, "entity": private,
            "value": int(reply["value"]) + 1,
        }
        yield {"verb": "commit", "txn": txn}


def _check_private_counters(
    database, privates: list[str], commits: list[int], problems: list[str]
) -> None:
    for private, committed in zip(privates, commits):
        if database[private] != committed:
            problems.append(
                f"{private} == {database[private]} after {committed} commits"
            )


def _svc_core(seed, scale, tracer, tmp):
    transactions = _scaled(1200, scale)
    rng = random.Random(seed)
    began = perf_counter()
    core, _sink = build_core(
        SVC_ENTITIES, 0, _svc_config(SVC_SESSIONS), None, None
    )
    privates = _private_entities(rng, SVC_SESSIONS)
    scripts = [_session_script(p, transactions) for p in privates]
    pending = [next(script) for script in scripts]
    setup_s = perf_counter() - began

    if tracer is not None:
        tracing.attach_core(tracer, core)
    attempted = SVC_SESSIONS * transactions * REQUESTS_PER_TXN
    answered = 0
    commits = [0] * SVC_SESSIONS
    sent = [0] * SVC_SESSIONS
    latencies: list[float] = []
    problems: list[str] = []
    live = list(range(SVC_SESSIONS))
    handle = core.handle
    gc.collect()
    started = perf_counter()
    # Closed loop, two interleaved sessions: the seed picks whose turn it
    # is; a session's next request is built from its last reply.
    while live:
        index = live[rng.randrange(len(live))]
        request = pending[index]
        sent[index] += 1
        rid = f"s{index}.{sent[index]}"
        request["rid"] = rid
        request["idem"] = rid
        t0 = perf_counter()
        reply, completions = handle(request)
        t1 = perf_counter()
        if reply is None:
            reply = next((r for done, r in completions if done == rid), None)
        if reply is None or reply.get("code") != 200:
            problems.append(f"{rid} {request['verb']}: {reply}")
            live.remove(index)
            continue
        latencies.append(t1 - t0)
        answered += 1
        if request["verb"] == "commit":
            commits[index] += 1
        try:
            pending[index] = scripts[index].send(reply)
        except StopIteration:
            live.remove(index)
    ended = perf_counter()
    if tracer is not None:
        tracer.restore()

    _check_private_counters(core.database, privates, commits, problems)
    metrics = core.scheduler.metrics
    counts = _scheduler_counts(
        core.scheduler, metrics.ops_executed + metrics.commits
    )
    counts["requests"] = core.requests_handled
    return Outcome(
        setup_s=setup_s,
        run_s=ended - started,
        attempted=attempted,
        failed=attempted if problems else attempted - answered,
        commits=sum(commits),
        copies_peak=metrics.copies_peak,
        latencies=latencies,
        counts=counts,
        problems=problems,
    )


def _tcp_session(
    client: ServiceClient,
    private: str,
    transactions: int,
    deadline: float,
    tally: dict[str, Any],
) -> None:
    """One closed-loop client: every transaction is attempted once, the
    client's own retry budget bounds each request, *deadline* the loop."""
    for _ in range(transactions):
        if perf_counter() > deadline:
            tally["problems"].append("wall deadline reached")
            return
        try:
            txn = client.begin()
            tally["answered"] += 1
            client.lock(txn, "e000", "S")
            tally["answered"] += 1
            client.lock(txn, private, "X")
            tally["answered"] += 1
            value = client.read(txn, private)
            tally["answered"] += 1
            client.write(txn, private, int(value) + 1)
            tally["answered"] += 1
            client.commit(txn)
            tally["answered"] += 1
            tally["commits"] += 1
        except (ServiceError, OSError) as exc:
            tally["problems"].append(f"{type(exc).__name__}: {exc}")


def _svc_tcp(seed, scale, tracer, tmp):
    transactions = _scaled(300, scale)
    rng = random.Random(seed)
    tmp.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="svc_tcp.", dir=tmp))
    journal_path = workdir / "journal.jsonl"
    loop = asyncio.new_event_loop()
    loop_thread = threading.Thread(target=loop.run_forever, daemon=True)
    policy = RetryPolicy(
        request_timeout=5.0, max_attempts=10, backoff_base=0.01,
        backoff_cap=0.2, sleep_budget=10.0,
    )
    problems: list[str] = []
    clients: list[ServiceClient] = []
    server = None

    async def boot():
        # WAL fsync per record and journal flush per event: exactly what
        # build_core sets for a served core, unchanged by the benchmark.
        core, sink = build_core(
            SVC_ENTITIES, 0, _svc_config(TCP_CLIENTS),
            workdir / "wal.jsonl", journal_path,
        )
        lock_server = LockServer(
            core, sink, tick_interval=0.01, drain_timeout=2.0
        )
        return lock_server, sink, await lock_server.start()

    async def stop():
        server.begin_drain()
        await server.wait_closed()

    try:
        began = perf_counter()
        loop_thread.start()
        server, sink, port = asyncio.run_coroutine_threadsafe(
            boot(), loop
        ).result(10)
        privates = _private_entities(rng, TCP_CLIENTS)
        for index in range(TCP_CLIENTS):
            client = ServiceClient(
                "127.0.0.1", port, name=f"c{index}", policy=policy,
                seed=seed + index,
            )
            clients.append(client)
            client.status()  # connects
        setup_s = perf_counter() - began

        core = server.core
        if tracer is not None:
            tracing.attach_core(tracer, core, sink)
            tracing.attach_wire(tracer, clients)
        tallies = [
            {"answered": 0, "commits": 0, "problems": []} for _ in clients
        ]
        threads = [
            threading.Thread(
                target=_tcp_session,
                args=(client, private, transactions,
                      perf_counter() + 60.0, tally),
            )
            for client, private, tally in zip(clients, privates, tallies)
        ]
        gc.collect()
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = perf_counter()
        if tracer is not None:
            tracer.restore()
        for client in clients:
            client.close()
        asyncio.run_coroutine_threadsafe(stop(), loop).result(15)
        server = None

        for tally in tallies:
            problems.extend(tally["problems"])
        commits = [tally["commits"] for tally in tallies]
        _check_private_counters(core.database, privates, commits, problems)
        problems.extend(replay.verify_journal(journal_path))
        metrics = core.scheduler.metrics
        counts = _scheduler_counts(
            core.scheduler, metrics.ops_executed + metrics.commits
        )
        counts["requests"] = core.requests_handled
        counts["wal_records"] = len(core.wal)
        counts["journal_bytes"] = journal_path.stat().st_size
        stats = [client.stats for client in clients]
        counts["client_retries"] = sum(s.retries for s in stats)
        counts["rejects_429"] = sum(s.rejected_429 for s in stats)
        counts["rejects_503"] = sum(s.rejected_503 for s in stats)
        attempted = TCP_CLIENTS * transactions * REQUESTS_PER_TXN
        answered = sum(tally["answered"] for tally in tallies)
        return Outcome(
            setup_s=setup_s,
            run_s=ended - started,
            attempted=attempted,
            failed=attempted if problems else attempted - answered,
            commits=sum(commits),
            copies_peak=metrics.copies_peak,
            # Each client's first request, the status that connected, is set-up.
            latencies=[
                latency for s in stats for latency in s.latencies[1:]
            ],
            counts=counts,
            problems=problems,
        )
    finally:
        for client in clients:
            client.close()
        if server is not None and loop_thread.is_alive():
            asyncio.run_coroutine_threadsafe(stop(), loop).result(15)
        if loop_thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            loop_thread.join(timeout=5)
        loop.close()
        shutil.rmtree(workdir, ignore_errors=True)


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_scale", 3, 0.78, True, _sim_scale),
        Workload("sim_hot_x", 100, 0.044, True, _hot(1.0)),
        Workload("sim_hot_sx", 140, 0.032, True, _hot(0.5)),
        Workload("svc_core", 2, 0.87, True, _svc_core),
        Workload("svc_tcp", 2, 1.0, False, _svc_tcp),
        Workload("dist_repl", 9, 0.42, True, _dist_repl),
    )
}
