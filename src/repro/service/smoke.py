"""The end-to-end smoke: boot, storm, ``kill -9``, restart, drain, verify.

This is the CI gate behind ``repro serve --smoke``.  One run exercises
the whole robustness surface in sequence:

1. boot a server subprocess with a journal, its one durable log;
2. aim concurrent clients at one hot entity, each performing
   read-modify-write increments in its own transactions;
3. ``SIGKILL`` the server mid-storm — no warning, no flush;
4. restart on the same journal: the database recovers by redo, the
   idempotency window re-seeds from it, and the clients' retry
   ladders carry them across the outage (dead transactions answer 410
   and are restarted by the client loop) — steps 3 and 4 once per
   ``kill_after`` value, so a second crash lands on files a first
   recovery already repaired and appended to;
5. ``SIGTERM`` for a graceful drain once the storm completes;
6. verify the two oracles — **no lost or doubled increment** (the hot
   entity's last committed install in the journal must equal the
   clients' count of acknowledged commits, modulo commits whose outcome
   the client never learned) and
   **zero replay divergence** (the journal re-executed through a fresh
   simulated core reproduces every reply, victim, rollback depth, and
   commit).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Sequence

from ..observability.export import read_jsonl_objects
from .client import RetryBudgetExhausted, RetryPolicy, ServiceClient
from .protocol import ServiceError
from .replay import verify_journal

#: The hot entity every smoke client hammers.
HOT_ENTITY = "e000"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_server(
    port: int,
    journal: Path,
    entities: int = 4,
    max_sessions: int = 8,
    deadline: int = 60,
    tick_interval: float = 0.02,
) -> subprocess.Popen:
    """Start ``python -m repro serve`` with the repo on PYTHONPATH."""
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)  # repro: noqa[RR001] subprocess env passthrough, not a decision input
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1",
            "--port", str(port),
            "--entities", str(entities),
            "--journal", str(journal),
            "--max-sessions", str(max_sessions),
            "--deadline", str(deadline),
            "--tick-interval", str(tick_interval),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_listening(
    port: int, proc: subprocess.Popen, timeout: float = 15.0
) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited early with code {proc.returncode}"
            )
        try:
            with socket.create_connection(
                ("127.0.0.1", port), timeout=0.2
            ):
                return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"server never listened on port {port}")


class _Worker:
    """One storm client: increments the hot entity until its quota."""

    def __init__(
        self, index: int, port: int, target_commits: int, deadline: float
    ) -> None:
        self.name = f"smoke{index}"
        self.port = port
        self.target = target_commits
        self.deadline = deadline
        self.committed = 0
        #: Commits whose outcome the client never learned (retry budget
        #: exhausted mid-commit): each may or may not have applied.
        self.unknown = 0
        self.errors: list[str] = []
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        policy = RetryPolicy(
            request_timeout=2.0,
            max_attempts=12,
            backoff_base=0.05,
            backoff_cap=0.5,
            sleep_budget=30.0,
        )
        with ServiceClient(
            "127.0.0.1", self.port, name=self.name,
            policy=policy, seed=hash(self.name) & 0xFFFF,
        ) as client:
            while (
                self.committed < self.target
                and time.monotonic() < self.deadline
            ):
                try:
                    txn = client.begin()
                    client.lock(txn, HOT_ENTITY, "X")
                    value = client.read(txn, HOT_ENTITY)
                    client.write(txn, HOT_ENTITY, int(value) + 1)
                except (ServiceError, RetryBudgetExhausted):
                    # Shed, dead after a crash, or unreachable too long:
                    # nothing committed, start a fresh transaction.
                    continue
                try:
                    client.commit(txn)
                    self.committed += 1
                except RetryBudgetExhausted:
                    self.unknown += 1
                except ServiceError:
                    continue
            if self.committed < self.target:
                self.errors.append(
                    f"{self.name}: {self.committed}/{self.target} "
                    f"commits before the wall-clock deadline"
                )


def run_smoke(
    workdir: str | Path,
    clients: int = 4,
    commits_per_client: int = 3,
    kill_after: Sequence[float] = (1.0,),
    entities: int = 4,
    wall_clock_budget: float = 90.0,
) -> dict:
    """Run the full smoke sequence; returns the report dictionary.

    The report's ``ok`` field is the CI verdict; ``problems`` lists every
    oracle violation when it is ``False``.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal = workdir / "smoke.journal.jsonl"
    if journal.exists():
        journal.unlink()
    port = _free_port()

    proc = _spawn_server(port, journal, entities=entities)
    try:
        _wait_listening(port, proc)
        deadline = time.monotonic() + wall_clock_budget
        workers = [
            _Worker(i, port, commits_per_client, deadline)
            for i in range(clients)
        ]
        for worker in workers:
            worker.thread.start()

        for delay in kill_after:
            time.sleep(delay)
            proc.kill()  # SIGKILL: the crash the journal must absorb
            proc.wait()
            proc = _spawn_server(port, journal, entities=entities)
            _wait_listening(port, proc)

        for worker in workers:
            worker.thread.join(timeout=wall_clock_budget)

        proc.send_signal(signal.SIGTERM)  # graceful drain
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    committed = sum(w.committed for w in workers)
    unknown = sum(w.unknown for w in workers)
    problems = [e for w in workers for e in w.errors]

    # Oracle 1: no lost, no doubled increment.  The durable value must
    # account for every acknowledged commit exactly once; commits with
    # unknown outcomes may each have applied or not.  It is read by a
    # scan of its own, not through the server's recovery it checks.
    records = [
        (obj["txn"], obj["data"])
        for obj in read_jsonl_objects(journal)
        if obj["kind"] == "wal.append"
    ]
    committed_txns = {
        txn for txn, data in records if data["record"] == "commit"
    }
    final = 0
    for txn, data in records:
        if (
            data["record"] == "install"
            and data["entity"] == HOT_ENTITY
            and txn in committed_txns
        ):
            final = int(data["value"])
    if not committed <= final <= committed + unknown:
        problems.append(
            f"commit-loss oracle: recovered {HOT_ENTITY}={final}, "
            f"acknowledged={committed}, unknown-outcome={unknown}"
        )

    # Oracle 2: the differential replay — live vs. simulated.
    divergences = verify_journal(journal)
    problems.extend(f"replay: {d}" for d in divergences)

    return {
        "ok": not problems,
        "problems": problems,
        "clients": clients,
        "acknowledged_commits": committed,
        "unknown_outcome_commits": unknown,
        "recovered_value": final,
        "journal_committed_txns": len(committed_txns),
        "replay_divergences": len(divergences),
        "journal_events": (
            journal.read_text().count("\n") if journal.exists() else 0
        ),
    }
