"""The service's durability contract, proven at every crash state.

The contract (``LockServer._handle``): the journal is the one durable
log and the reply is the boundary.  Between replies the journal is
buffered; after each request it is flushed before the first reply
leaves, and ``fsync``ed first when the request committed something.
Two suites hold it up:

* **the one record rule** — a record exists iff its terminating newline
  is on disk; readers drop an unterminated tail, append-openers cut it,
  so a crash *followed by an append* can no longer fuse two records and
  stop the second recovery from booting;
* **the crash-state harness** — a scripted in-process run (no sockets)
  whose file handle records every ``(journal size, replies delivered)``
  a ``kill -9`` could leave behind, each of which — any byte offset
  inside a write, and what a power loss leaves (the file as of its last
  returned ``fsync``) — must recover with no acknowledged commit lost,
  none applied twice, and the journal still usable afterwards.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.observability.events import EventBus, EventKind
from repro.observability.export import (
    JsonlStreamSink,
    open_jsonl_append,
    read_events_jsonl,
    read_jsonl_objects,
)
from repro.service.core import ServiceConfig
from repro.service.replay import verify_journal
from repro.service.server import LockServer, build_core
from repro.service.smoke import run_smoke

ENTITIES = 4
FRAGMENT = '{"kind": "commit", "txn'  # a record a crash cut short


# -- the one record rule ------------------------------------------------------


class TestOneRecordRule:
    def test_reader_drops_an_unterminated_line_that_parses(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": 2}')
        assert read_jsonl_objects(path) == [{"n": 1}]
        path.write_text(FRAGMENT)  # the file is only a fragment
        assert read_jsonl_objects(path) == []

    def test_reader_raises_on_a_corrupt_terminated_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": \n{"n": 3}\n')
        with pytest.raises(ValueError):
            read_jsonl_objects(path)

    @pytest.mark.parametrize(
        "before, after",
        [
            ('{"n": 1}\n', '{"n": 1}\n'),  # intact: untouched
            ('{"n": 1}\n' + FRAGMENT, '{"n": 1}\n'),
            ('{"n": 1}\n{"n": 2}', '{"n": 1}\n'),  # parses, no newline
            (FRAGMENT, ""),  # the file is only a fragment
            ("", ""),
            ("x" * 9000 + "\n" + "y" * 9000, "x" * 9000 + "\n"),
            ("y" * 9000, ""),  # longer than one tail block, no newline
        ],
    )
    def test_append_opener_cuts_to_the_last_newline(
        self, tmp_path, before, after
    ):
        path = tmp_path / "log.jsonl"
        path.write_text(before)
        with open_jsonl_append(path) as handle:
            handle.write('{"n": 9}\n')
        assert path.read_text() == after + '{"n": 9}\n'

    def test_append_opener_creates_a_missing_file(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        open_jsonl_append(path).close()
        assert path.read_text() == ""

    def test_journal_survives_a_crash_after_a_repaired_tail(self, tmp_path):
        """The double crash, three times over: a torn tail, a recovery
        that appends, and a later recovery that must still read every
        line."""
        journal_path = tmp_path / "j.jsonl"
        for boot in range(3):
            harness = Harness(journal_path)
            assert harness.counter() == boot
            harness.transaction(f"boot{boot}", "e001")
            harness.close()
            with journal_path.open("a") as handle:
                handle.write(FRAGMENT)  # crash mid-write
        harness = Harness(journal_path)
        assert harness.counter() == 3
        harness.close()
        assert FRAGMENT not in journal_path.read_text()
        assert verify_journal(journal_path) == []
        markers = [
            event
            for event in read_events_jsonl(journal_path)
            if event.kind is EventKind.SERVICE_RECOVER
        ]
        assert [m.data["recovered"] for m in markers] == [
            False, True, True, True,
        ]

    def test_buffered_sink_waits_for_flush(self, tmp_path):
        path = tmp_path / "j.jsonl"
        bus = EventBus()
        sink = JsonlStreamSink(path, buffered=True)
        bus.subscribe(sink)
        bus.publish(EventKind.STEP)
        assert path.read_text() == "" and sink.flushes == 0
        sink.flush()
        assert len(read_events_jsonl(path)) == 1 and sink.flushes == 1
        sink.close()
        sink.close()  # idempotent


def test_verify_replays_metrics_of_a_wal_backed_core(tmp_path):
    """A ``metrics`` reply counts the events the WAL published; replay
    must attach a WAL to each segment the boot marker says had one."""
    journal_path = tmp_path / "j.jsonl"
    for boot in range(2):  # a fresh boot, then a recovery
        core, sink = build_core(
            ENTITIES, 0, ServiceConfig(), None, journal_path
        )
        rids = iter(range(100))

        def send(verb, **fields):
            rid = f"b{boot}.{next(rids)}"
            return core.handle({"rid": rid, "verb": verb, **fields})[0]

        txn = send("begin")["txn"]
        send("lock", txn=txn, entity="e001", mode="X")
        send("write", txn=txn, entity="e001", value=boot + 1)
        send("commit", txn=txn)
        assert send("metrics")["commits"] == 1
        sink.close()
    assert verify_journal(journal_path) == []
    markers = [
        event.data
        for event in read_events_jsonl(journal_path)
        if event.kind is EventKind.SERVICE_RECOVER
    ]
    assert [marker.get("wal") for marker in markers] == [True, True]


# -- the crash-state harness --------------------------------------------------


class Harness:
    """A served core without sockets: ``LockServer._handle(request,
    None)`` on files in a temporary directory, replies collected."""

    def __init__(self, journal_path: Path) -> None:
        self.core, self.sink = build_core(
            ENTITIES,
            0,
            ServiceConfig(max_sessions=8, deadline_steps=200),
            None,
            journal_path,
        )
        self.server = LockServer(self.core, self.sink)
        self.server._deliver = self._deliver
        self.requests: list[dict] = []
        self.delivered: list[tuple[str, dict]] = []
        self._serial: dict[str, int] = {}

    def _deliver(self, rid, reply) -> None:
        self.delivered.append((rid, reply))

    def replies(self) -> dict[str, dict]:
        return dict(self.delivered)

    def submit(self, request: dict) -> dict | None:
        """One request through the server; its reply if it came at once."""
        self.requests.append(request)
        self.server._handle(request, None)
        return self.replies().get(request["rid"])

    def send(self, client: str, verb: str, **fields) -> dict | None:
        """A request shaped like the client library's first attempt."""
        serial = self._serial[client] = self._serial.get(client, 0) + 1
        return self.submit(
            {
                "rid": f"{client}.{serial}.0",
                "idem": f"{client}.{serial}",
                "verb": verb,
                **fields,
            }
        )

    def tick(self) -> None:
        self.submit({"rid": f"__tick.{len(self.requests)}", "verb": "tick"})

    def transaction(self, client: str, private: str) -> str:
        """The benchmark's transaction (``_tcp_session``), one client."""
        txn = self.send(client, "begin")["txn"]
        self.send(client, "lock", txn=txn, entity="e000", mode="S")
        self.send(client, "lock", txn=txn, entity=private, mode="X")
        self.increment(client, txn, private)
        return txn

    def increment(self, client: str, txn: str, entity: str) -> None:
        value = self.send(client, "read", txn=txn, entity=entity)["value"]
        self.send(client, "write", txn=txn, entity=entity, value=value + 1)
        assert self.send(client, "commit", txn=txn)["committed"]

    def counter(self) -> int:
        """Every committing transaction adds one to some entity."""
        return sum(self.core.database.snapshot().values())

    def close(self) -> None:
        self.sink.close()


def scenario(harness: Harness) -> None:
    """Two interleaved benchmark transactions, one deadlock, one abort."""
    a = harness.send("a", "begin")["txn"]
    b = harness.send("b", "begin")["txn"]
    for client, txn, private in (("a", a, "e001"), ("b", b, "e002")):
        harness.send(client, "lock", txn=txn, entity="e000", mode="S")
        harness.send(client, "lock", txn=txn, entity=private, mode="X")
    for client, txn, private in (("a", a, "e001"), ("b", b, "e002")):
        harness.increment(client, txn, private)

    # c and d take e001/e002 in opposite orders: a two-cycle, one partial
    # rollback, the survivor first and the victim after it both commit.
    c = harness.send("c", "begin")["txn"]
    d = harness.send("d", "begin")["txn"]
    harness.send("c", "lock", txn=c, entity="e001")
    harness.send("d", "lock", txn=d, entity="e002")
    assert harness.send("c", "lock", txn=c, entity="e002") is None  # parks
    harness.tick()
    harness.send("d", "lock", txn=d, entity="e001")  # closes the cycle
    replies = harness.replies()
    order = [("c", c, "e001"), ("d", d, "e002")]
    if "d.3.0" in replies:  # d survived: it goes first
        order.reverse()
    for client, txn, entity in order:
        harness.increment(client, txn, entity)
    assert harness.core.scheduler.metrics.deadlocks == 1
    assert harness.core.scheduler.metrics.rollbacks == 1

    e = harness.send("e", "begin")["txn"]
    harness.send("e", "lock", txn=e, entity="e003")
    harness.send("e", "write", txn=e, entity="e003", value=99)
    assert harness.send("e", "abort", txn=e)["aborted"]
    harness.tick()
    assert harness.counter() == 4


@dataclass(frozen=True)
class CrashState:
    """What a crash at one instant leaves behind, and what the outside
    world had seen by then."""

    journal: int  # bytes of the journal that survive
    delivered: int  # replies that had left the server
    forced: int  # fsyncs that had returned
    submitted: int  # requests that had reached the server


class RecordingHandle:
    """A file handle that reports after every ``write`` and ``flush``."""

    def __init__(self, handle, note) -> None:
        self.inner = handle
        self._note = note

    def write(self, text: str) -> int:
        count = self.inner.write(text)
        self._note()
        return count

    def flush(self) -> None:
        self.inner.flush()
        self._note()

    def __getattr__(self, name):
        return getattr(self.inner, name)


@dataclass
class Recording:
    """One uncut run of :func:`scenario` and every state it passed."""

    journal_bytes: bytes
    requests: list
    delivered: list
    states: list
    fsync_fds: list
    #: ``synced[k]``: the journal's size once the k-th fsync returned
    #: (``synced[0] == 0``: before the first, nothing is durable).
    synced: list
    journal_fd: int
    journal_flushes: int


def record(tmp_path: Path, buffering: int) -> Recording:
    """Run the scenario with the journal's handle instrumented.

    A buffer size of ``-1`` keeps the handle ``build_core`` opened; a
    small one reopens it so that it writes through mid-request (``1``:
    at every line), which is where an order that only holds at the
    explicit flushes would show.
    """
    journal_path = tmp_path / "j.jsonl"
    harness = Harness(journal_path)
    sink = harness.sink
    states: list[CrashState] = []
    fsync_fds: list[int] = []
    synced: list[int] = [0]

    def note() -> None:
        state = CrashState(
            os.fstat(sink.fileno()).st_size,
            len(harness.delivered),
            len(fsync_fds),
            len(harness.requests),
        )
        if not states or states[-1] != state:
            states.append(state)

    handle = sink._handle
    if buffering > 0:
        handle.close()
        handle = journal_path.open("a", buffering=buffering)
        handle.reconfigure(write_through=True)
    sink._handle = RecordingHandle(handle, note)

    real_fsync = os.fsync

    def fsync(fd: int) -> None:
        note()  # flushed, not yet forced
        real_fsync(fd)
        fsync_fds.append(fd)
        synced.append(os.fstat(fd).st_size)
        note()

    real_handle = harness.server._handle

    def handle_then_probe(request, writer) -> None:
        real_handle(request, writer)
        # Nothing stays buffered across a reply: flushing the file
        # behind the proxy's back finds nothing left to write.
        size = journal_path.stat().st_size
        sink._handle.inner.flush()
        assert size == journal_path.stat().st_size

    harness.server._handle = handle_then_probe
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(os, "fsync", fsync)
        scenario(harness)
    note()
    recording = Recording(
        journal_bytes=journal_path.read_bytes(),
        requests=harness.requests,
        delivered=harness.delivered,
        states=states,
        fsync_fds=fsync_fds,
        synced=synced,
        journal_fd=sink.fileno(),
        journal_flushes=sink.flushes,
    )
    harness.close()
    return recording


@pytest.fixture(
    scope="module",
    params=[-1, 128, 1],
    ids=["default", "buf128", "line-buffered"],
)
def recording(request, tmp_path_factory):
    return record(tmp_path_factory.mktemp("uncut"), request.param)


def check_crash_state(recording: Recording, state: CrashState) -> None:
    """Recover from *state* and hold the contract's five clauses:
    (i) no acknowledged commit lost, (ii) every commit's request ahead
    of it, (iii) retries answered without a double apply, (iv) a clean
    replay, (v) a second crash on the repaired file still boots."""
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(tmp, "j.jsonl")
        journal_path.write_bytes(recording.journal_bytes[: state.journal])

        # (ii) a COMMIT record follows its commit request, in one file.
        requested: set[str] = set()
        committed: set[str] = set()
        for obj in read_jsonl_objects(journal_path):
            if (
                obj["kind"] == "service.request"
                and obj["data"]["verb"] == "commit"
            ):
                requested.add(obj["txn"])
            elif (
                obj["kind"] == "wal.append"
                and obj["data"]["record"] == "commit"
            ):
                assert obj["txn"] in requested, obj
                committed.add(obj["txn"])

        # (i) nothing acknowledged is lost; nothing unforced is needed.
        harness = Harness(journal_path)
        seen = recording.delivered[: state.delivered]
        acknowledged = {
            reply["txn"]
            for _, reply in seen
            if reply["verb"] == "commit" and reply["ok"]
        }
        assert acknowledged <= committed
        assert harness.counter() == len(committed)
        assert len(acknowledged) <= state.forced <= len(committed)
        assert len(committed) <= state.forced + 1  # written, fsync pending

        # (iii) every client retries what it never heard back about.
        answered = {rid for rid, _ in seen}
        for request in recording.requests[: state.submitted]:
            if request["rid"] in answered or request["verb"] == "tick":
                continue
            reply = harness.submit(dict(request))
            if request["verb"] == "begin":
                assert reply["ok"]
            elif request["verb"] == "commit" and request["txn"] in committed:
                assert reply["committed"] and reply["txn"] == request["txn"]
            else:
                assert reply["code"] == 410, (request, reply)
        assert harness.counter() == len(committed)  # no double apply

        # (v) a second crash, after the repaired tail was appended to,
        # tearing z's COMMIT record.
        harness.transaction("z", "e003")
        harness.close()
        text = journal_path.read_bytes()
        line = text.rindex(b"\n", 0, text.rindex(b'"record": "commit"')) + 1
        journal_path.write_bytes(text[: line + 9])
        harness = Harness(journal_path)
        assert harness.counter() == len(committed)  # z's COMMIT was torn
        harness.transaction("z2", "e003")
        assert harness.counter() == len(committed) + 1
        harness.close()
        # (iv) the journal as cut is the first segment of this one.
        assert verify_journal(journal_path) == []


class TestCrashStates:
    def test_uncut_run_forces_once_per_commit(self, recording):
        commits = sum(
            1
            for _, reply in recording.delivered
            if reply["verb"] == "commit" and reply["ok"]
        )
        assert commits == 4
        assert recording.fsync_fds == [recording.journal_fd] * commits
        assert recording.journal_flushes == len(recording.requests)

    def test_every_recorded_state_recovers(self, recording):
        assert len(recording.states) > 2 * len(recording.requests)
        for state in recording.states:
            check_crash_state(recording, state)

    def test_power_loss_keeps_every_acknowledged_commit(self, recording):
        """An operating-system crash or power loss: the journal keeps
        what its last returned fsync made durable, and loses the rest."""
        lost = dict.fromkeys(
            replace(state, journal=recording.synced[state.forced])
            for state in recording.states
        )
        assert len(lost) > len(recording.synced)
        for state in lost:
            check_crash_state(recording, state)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_any_offset_inside_a_write_recovers(self, recording, data):
        """A ``write(2)`` cut short: between two recorded states the file
        grew, and any prefix of that growth can be what survives."""
        index = data.draw(st.integers(1, len(recording.states) - 1))
        before, after = recording.states[index - 1 : index + 1]
        journal = data.draw(st.integers(before.journal, after.journal))
        check_crash_state(
            recording,
            replace(before, journal=journal),
        )


class TestProcessCrashes:
    def test_three_kills_inside_one_storm(self, tmp_path):
        """Real processes, real ``SIGKILL``s: the later boots recover
        from files an earlier recovery repaired and appended to."""
        report = run_smoke(
            tmp_path, clients=4, commits_per_client=120,
            kill_after=(0.3, 0.3, 0.3),
        )
        assert report["ok"], report["problems"]
        assert report["acknowledged_commits"] == 480
        assert [p.name for p in tmp_path.iterdir()] == ["smoke.journal.jsonl"]
        boots = [
            event.data["recovered"]
            for event in read_events_jsonl(tmp_path / "smoke.journal.jsonl")
            if event.kind is EventKind.SERVICE_RECOVER
        ]
        # A boot killed before its first reply leaves no marker, so how
        # many there are depends on the host's speed; what each says
        # does not.
        assert boots[0] is False and len(boots) >= 2 and all(boots[1:])


def test_served_wal_retains_a_bounded_tail_and_counts_every_record(
    tmp_path,
):
    """The journal is the WAL's durable copy, so a long served run keeps
    no record past the reply of the request that logged it, while
    ``len(wal)`` and the journaled LSNs still count every record."""
    journal = tmp_path / "journal.jsonl"
    harness = Harness(journal)
    retained = []
    for _ in range(150):
        harness.transaction("a", "e001")
        retained.append(len(harness.core.wal.records))
    harness.close()
    lsns = [
        event.data["lsn"]
        for event in read_events_jsonl(journal)
        if event.kind is EventKind.WAL_APPEND
    ]
    assert max(retained) == 0
    # Per transaction: two grants, one install, one commit.
    assert len(harness.core.wal) == len(lsns) == 150 * 4
    assert lsns == list(range(len(lsns)))
