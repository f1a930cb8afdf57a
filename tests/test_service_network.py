"""Black-box tests of the live TCP service: retry storms through the
fault proxy, structured overload, drain, and in-process crash recovery.

The server runs on a background thread's event loop; clients are plain
blocking :class:`~repro.service.client.ServiceClient` threads — the
same uncoordinated concurrency production would bring.  No
pytest-asyncio: each test owns its loop via ``asyncio.run`` semantics
on the server thread.

Oracles for the storm test:

* **no commit loss** — the final value of the hot entity equals the
  number of commit acknowledgements the clients counted (each
  transaction increments by exactly one under an exclusive lock);
* **no double apply** — the same equality, from the other side: with
  the proxy *duplicating* request lines, any dedup failure would
  overshoot;
* **no starvation** — every client reaches its quota within the
  wall-clock budget;
* **replay** — the journal re-executed through a fresh simulated core
  reproduces every decision.
"""

import asyncio
import itertools
import json
import socket
import threading
import time

import pytest

from repro.resilience.faults import FaultPlan
from repro.service.client import (
    RetryBudgetExhausted,
    RetryPolicy,
    ServiceClient,
)
from repro.service.core import ServiceConfig
from repro.service.protocol import ServiceError
from repro.service.proxy import FaultProxy
from repro.service.replay import verify_journal
from repro.service.server import MAX_FRAME, LockServer, _Connection, build_core

HOT = "e000"


class ServerHarness:
    """A LockServer (and optionally a FaultProxy) on a background loop."""

    def __init__(
        self,
        tmp_path,
        config=None,
        proxy_plan=None,
        tick_interval=0.01,
    ):
        self.config = config or ServiceConfig(
            max_sessions=8, deadline_steps=80
        )
        self.journal_path = tmp_path / "journal.jsonl"
        self.proxy_plan = proxy_plan
        self.tick_interval = tick_interval
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.server = None
        self.proxy = None
        self.port = None
        self.client_port = None

    def __enter__(self):
        self.thread.start()

        async def boot():
            core, sink = build_core(
                4, 0, self.config, None, self.journal_path
            )
            self.server = LockServer(
                core, sink, tick_interval=self.tick_interval,
                drain_timeout=2.0,
            )
            self.port = await self.server.start()
            if self.proxy_plan is not None:
                self.proxy = FaultProxy(
                    "127.0.0.1", self.port, self.proxy_plan, delay=0.05
                )
                await self.proxy.start()
                self.client_port = self.proxy.port
            else:
                self.client_port = self.port

        asyncio.run_coroutine_threadsafe(boot(), self.loop).result(10)
        return self

    def __exit__(self, *exc):
        async def shutdown():
            if self.proxy is not None:
                await self.proxy.stop()
            self.server.begin_drain()
            await self.server.wait_closed()

        asyncio.run_coroutine_threadsafe(shutdown(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()

    def drain(self):
        self.loop.call_soon_threadsafe(self.server.begin_drain)


def storm_policy():
    return RetryPolicy(
        request_timeout=0.5,
        max_attempts=12,
        backoff_base=0.02,
        backoff_cap=0.25,
        sleep_budget=20.0,
    )


def increment_worker(name, port, quota, results, deadline):
    committed = 0
    unknown = 0
    with ServiceClient(
        "127.0.0.1", port, name=name, policy=storm_policy(),
        seed=sum(map(ord, name)),
    ) as client:
        while committed < quota and time.monotonic() < deadline:
            try:
                txn = client.begin()
                client.lock(txn, HOT, "X")
                value = client.read(txn, HOT)
                client.write(txn, HOT, int(value) + 1)
            except (ServiceError, RetryBudgetExhausted):
                continue
            try:
                client.commit(txn)
                committed += 1
            except RetryBudgetExhausted:
                unknown += 1
            except ServiceError:
                continue
    results[name] = {"committed": committed, "unknown": unknown}


def run_storm(harness, clients, quota, budget=60.0):
    deadline = time.monotonic() + budget
    results = {}
    threads = [
        threading.Thread(
            target=increment_worker,
            args=(f"c{i}", harness.client_port, quota, results, deadline),
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=budget)
    return results


#: Client names are the idempotency-key namespace: every throwaway
#: observer needs a fresh one or the dedup window answers for its
#: predecessor.
_observer_names = itertools.count()


def read_value(port, entity=HOT):
    """One throwaway transaction reading *entity* over the wire."""
    with ServiceClient(
        "127.0.0.1", port,
        name=f"observer{next(_observer_names)}",
        policy=storm_policy(),
    ) as client:
        txn = client.begin()
        client.lock(txn, entity, "S")
        value = client.read(txn, entity)
        client.commit(txn)
        return int(value)


def raw_request(port, obj):
    """One frame over a bare socket: asserts the *wire* shape."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall((json.dumps(obj) + "\n").encode())
        reader = sock.makefile("rb")
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            line = reader.readline()
            if not line:
                break
            reply = json.loads(line)
            if reply.get("rid") == obj.get("rid"):
                return reply
    raise AssertionError("no reply on the wire")


class TestLiveService:
    def test_happy_path_over_tcp(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with ServiceClient(
                "127.0.0.1", harness.client_port, name="solo"
            ) as client:
                txn = client.begin()
                client.lock(txn, HOT, "X")
                assert client.read(txn, HOT) == 0
                client.write(txn, HOT, 41)
                assert client.commit(txn)["committed"] is True
                status = client.status()
                assert status["commits"] == 1
            assert verify_journal(harness.journal_path) == []

    def test_overload_is_a_structured_429_on_the_wire(self, tmp_path):
        config = ServiceConfig(max_sessions=1, deadline_steps=200)
        with ServerHarness(tmp_path, config=config) as harness:
            with ServiceClient(
                "127.0.0.1", harness.client_port, name="holder"
            ) as holder:
                holder.begin()
                reply = raw_request(
                    harness.client_port,
                    {"rid": "probe.1", "verb": "begin"},
                )
                assert reply["ok"] is False
                assert reply["code"] == 429

    def test_unkeyable_rid_is_a_400_and_the_connection_survives(
        self, tmp_path
    ):
        # A list or object rid cannot key a waiter: the core's 400 comes
        # back on the same connection, which still serves the next frame.
        with ServerHarness(tmp_path) as harness:
            with socket.create_connection(
                ("127.0.0.1", harness.client_port), timeout=5
            ) as sock, sock.makefile("rb") as reader:
                for rid in ([1], {"a": 1}):
                    sock.sendall(
                        (json.dumps({"rid": rid, "verb": "status"}) + "\n")
                        .encode()
                    )
                    reply = json.loads(reader.readline())
                    assert reply["rid"] == rid
                    assert reply["code"] == 400
                sock.sendall(b'{"rid": "after", "verb": "status"}\n')
                reply = json.loads(reader.readline())
                assert reply["rid"] == "after" and reply["ok"] is True

    def test_drain_is_a_structured_503(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            harness.drain()
            time.sleep(0.05)
            reply = raw_request(
                harness.client_port, {"rid": "probe.1", "verb": "begin"}
            )
            assert reply["code"] == 503
            assert "draining" in reply["error"]

    def test_concurrent_storm_plain_network(self, tmp_path):
        clients, quota = 4, 3
        with ServerHarness(tmp_path) as harness:
            results = run_storm(harness, clients, quota)
            final = read_value(harness.client_port)
        committed = sum(r["committed"] for r in results.values())
        unknown = sum(r["unknown"] for r in results.values())
        assert len(results) == clients  # nobody starved
        assert all(
            r["committed"] == quota for r in results.values()
        ), results
        assert committed <= final <= committed + unknown
        assert verify_journal(tmp_path / "journal.jsonl") == []


def wire(port):
    """A bare socket and a line reader on it."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    return sock, sock.makefile("rb")


def frame(obj):
    return (json.dumps(obj) + "\n").encode()


def until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestFraming:
    """Newline framing on a live server: however the bytes arrive, each
    frame gets its answer on the connection that sent it."""

    def test_two_frames_in_one_write(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            sock, reader = wire(harness.client_port)
            with sock, reader:
                sock.sendall(
                    frame({"rid": "a", "verb": "status"})
                    + frame({"rid": "b", "verb": "status"})
                )
                rids = [json.loads(reader.readline())["rid"] for _ in "ab"]
                assert rids == ["a", "b"]

    def test_frame_split_across_writes_mid_utf8(self, tmp_path):
        data = json.dumps(
            {"rid": "grüße", "verb": "status"}, ensure_ascii=False
        ).encode() + b"\n"
        cut = data.index("ü".encode()) + 1  # inside the two-byte sequence
        with ServerHarness(tmp_path) as harness:
            sock, reader = wire(harness.client_port)
            with sock, reader:
                for part in (data[:3], data[3:cut], data[cut:]):
                    sock.sendall(part)
                    time.sleep(0.05)  # each part its own read
                reply = json.loads(reader.readline())
                assert reply["rid"] == "grüße" and reply["ok"] is True

    def test_malformed_line_is_a_400_and_the_connection_survives(
        self, tmp_path
    ):
        with ServerHarness(tmp_path) as harness:
            sock, reader = wire(harness.client_port)
            with sock, reader:
                sock.sendall(b"not json\n\xff\xfe\n")
                for _ in range(2):
                    reply = json.loads(reader.readline())
                    assert reply["code"] == 400 and reply["rid"] is None
                sock.sendall(frame({"rid": "after", "verb": "status"}))
                assert json.loads(reader.readline())["rid"] == "after"

    def test_over_limit_frame_is_a_400_and_closes(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            sock, reader = wire(harness.client_port)
            with sock, reader:
                sock.sendall(b"x" * (MAX_FRAME + 1))
                reply = json.loads(reader.readline())
                assert reply["code"] == 400 and "longer" in reply["error"]
                assert reader.readline() == b""  # closed
            # Other connections are unaffected.
            reply = raw_request(
                harness.client_port, {"rid": "next", "verb": "status"}
            )
            assert reply["ok"] is True

    def test_over_limit_frame_through_the_proxy_is_the_servers_400(
        self, tmp_path
    ):
        plan = FaultPlan(seed=0)  # no faults: the proxy only relays
        with ServerHarness(tmp_path, proxy_plan=plan) as harness:
            for size in (70_000, 3 * MAX_FRAME):
                sock, reader = wire(harness.client_port)
                with sock, reader:
                    sock.sendall(b"x" * size + b"\n")
                    reply = json.loads(reader.readline())
                    assert reply["code"] == 400
                    assert reply["error"] == (
                        f"frame longer than {MAX_FRAME} bytes"
                    )
            reply = raw_request(
                harness.client_port, {"rid": "next", "verb": "status"}
            )
            assert reply["ok"] is True

    def test_parked_reply_reaches_the_asker_and_disconnect_drops_only_its_waiters(
        self, tmp_path
    ):
        with ServerHarness(tmp_path) as harness:
            server = harness.server
            (a, ra), (c, rc), (b, rb) = (
                wire(harness.client_port) for _ in range(3)
            )
            with a, ra, b, rb, c, rc:
                txns = {}
                # a holds the hot entity; c, then b, queue behind it.
                for name, sock, reader in (("a", a, ra), ("c", c, rc),
                                           ("b", b, rb)):
                    sock.sendall(frame({"rid": f"{name}.0", "verb": "begin"}))
                    txns[name] = json.loads(reader.readline())["txn"]
                    sock.sendall(frame({
                        "rid": f"{name}.1", "verb": "lock",
                        "txn": txns[name], "entity": HOT, "mode": "X",
                    }))
                    if name == "a":
                        assert json.loads(ra.readline())["ok"] is True
                    else:
                        until(lambda: f"{name}.1" in server._waiters)
                rb.close()
                b.close()  # b's parked lock request loses its connection
                until(lambda: "b.1" not in server._waiters)
                assert "c.1" in server._waiters
                a.sendall(frame({"rid": "a.2", "verb": "abort",
                                 "txn": txns["a"]}))
                assert json.loads(ra.readline())["rid"] == "a.2"
                # c's grant arrives on c's connection, and only there.
                reply = json.loads(rc.readline())
                assert reply["rid"] == "c.1" and reply["ok"] is True
                a.settimeout(0.2)
                with pytest.raises(TimeoutError):
                    a.recv(1)
                # b's transaction lives on without its client and is
                # next in line; end both so the drain need not wait.
                for name in "cb":
                    c.sendall(frame({"rid": f"c.{name}", "verb": "abort",
                                     "txn": txns[name]}))
                    assert json.loads(rc.readline())["rid"] == f"c.{name}"

    def test_client_that_never_reads_stops_being_read(
        self, tmp_path, monkeypatch
    ):
        connections = []
        made = _Connection.connection_made

        def record(self, transport):
            connections.append(transport)
            made(self, transport)

        monkeypatch.setattr(_Connection, "connection_made", record)
        burst = frame({"rid": 1, "verb": "status"}) * 2000
        with ServerHarness(tmp_path) as harness:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(1.0)
            sock.connect(("127.0.0.1", harness.client_port))
            with sock:
                sent = 0
                deadline = time.monotonic() + 10
                with pytest.raises(TimeoutError):
                    while time.monotonic() < deadline:
                        sock.sendall(burst)
                        sent += len(burst)
                (transport,) = connections
                handled = harness.server.core.requests_handled
                time.sleep(0.2)
                # Reads paused: the server takes no more of its requests,
                # and what it holds for the client stays bounded.
                assert harness.server.core.requests_handled == handled
                assert not transport.is_reading()
                assert transport.get_write_buffer_size() < 4 * 2**20
                assert handled * len(frame({"rid": 1, "verb": "status"})) < sent


class TestRetryStormThroughFaults:
    def test_storm_through_drop_duplicate_delay_proxy(self, tmp_path):
        clients, quota = 4, 3
        plan = FaultPlan.generate(
            seed=1981, horizon=250, message_faults=40, crashes=3
        )
        with ServerHarness(tmp_path, proxy_plan=plan) as harness:
            results = run_storm(harness, clients, quota, budget=90.0)
            # Observe through the *clean* port: the proxy may still be
            # scheduled to drop the observer's lines.
            final = read_value(harness.port)
            counters = harness.proxy.counters()
        committed = sum(r["committed"] for r in results.values())
        unknown = sum(r["unknown"] for r in results.values())
        # The plan must actually have perturbed the run.
        assert counters["dropped"] + counters["duplicated"] > 0, counters
        # No starvation: every client reached its quota despite faults.
        assert all(
            r["committed"] == quota for r in results.values()
        ), (results, counters)
        # No commit loss, no double apply: duplicates deduplicated,
        # drops retried, every acknowledged increment exactly once.
        assert committed <= final <= committed + unknown, (
            final, results, counters,
        )
        assert verify_journal(tmp_path / "journal.jsonl") == []


class TestInProcessRestart:
    def test_recovery_reconstructs_state_and_dedup(self, tmp_path):
        config = ServiceConfig(max_sessions=8, deadline_steps=80)
        with ServerHarness(tmp_path, config=config) as harness:
            with ServiceClient(
                "127.0.0.1", harness.client_port, name="a"
            ) as client:
                txn = client.begin()
                client.lock(txn, HOT, "X")
                client.write(txn, HOT, 7)
                client.commit(txn)
                # Left in flight across the "crash":
                limbo = client.begin()
                client.lock(limbo, "e001", "X")
                client.write(limbo, "e001", 5)
        # First server exited (drained); boot a successor on the same
        # journal, as after a crash.
        with ServerHarness(tmp_path, config=config) as harness:
            assert read_value(harness.client_port, HOT) == 7
            assert read_value(harness.client_port, "e001") == 0
            with ServiceClient(
                "127.0.0.1", harness.client_port, name="b"
            ) as client:
                with pytest.raises(ServiceError) as exc:
                    client.lock(limbo, "e001", "X")
                assert exc.value.code == 410
                fresh = client.begin()
                assert fresh not in (txn, limbo)  # counter restored
                client.commit(fresh)
            assert verify_journal(tmp_path / "journal.jsonl") == []
