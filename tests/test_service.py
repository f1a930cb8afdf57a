"""Unit tests for the lock-service core: protocol, sessions, dispatch,
idempotency, overload surfaces, recovery seeds, and the replay oracle.

Everything here drives :class:`~repro.service.core.ServiceCore`
directly — no sockets — which is exactly the point: the core *is* the
service, and the asyncio shell (tested in
``tests/test_service_network.py``) adds only transport.
"""

import json

import pytest

from repro.core import ops
from repro.core.transaction import Transaction
from repro.locking.modes import LockMode
from repro.observability.events import Event, EventBus, EventKind
from repro.observability.export import read_events_jsonl
from repro.service import core as service_core
from repro.service import protocol
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.replay import verify_events
from repro.service.server import build_core, recovery_seeds
from repro.service.session import SessionProgram
from repro.storage.database import Database

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def make_core(
    entities=4,
    bus=None,
    wal=None,
    **config,
):
    db = Database({f"e{i:03d}": 0 for i in range(entities)})
    cfg = ServiceConfig(**{"max_sessions": 4, "deadline_steps": 30, **config})
    return ServiceCore(db, cfg, wal=wal, bus=bus), db


class Driver:
    """Request sugar: auto-rids, auto-idem, collects every reply."""

    def __init__(self, core):
        self.core = core
        self.n = 0
        self.replies = {}

    def send(self, verb, idem=True, rid=None, **fields):
        self.n += 1
        rid = rid or f"r{self.n}"
        req = {"rid": rid, "verb": verb}
        req.update({k: v for k, v in fields.items() if v is not None})
        if idem and "idem" not in req:
            req["idem"] = rid
        reply, completions = self.core.handle(req)
        if reply is not None:
            self.replies[rid] = reply
        for crid, creply in completions:
            self.replies[crid] = creply
        return reply, completions, rid

    def ok(self, verb, **fields):
        """Send and require the request to settle OK within the call."""
        reply, completions, rid = self.send(verb, **fields)
        settled = reply if reply is not None else self.replies.get(rid)
        assert settled is not None, f"{verb} did not settle"
        assert settled["code"] == protocol.OK, settled
        return settled

    def tick(self, times=1):
        for _ in range(times):
            self.send("tick", idem=False)

    def tick_until_idle(self, limit=200):
        for _ in range(limit):
            if self.core.idle:
                return
            self.send("tick", idem=False)
        raise AssertionError("core never became idle")


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        obj = {"rid": "a.1", "verb": "lock", "entity": "e000"}
        assert protocol.decode(protocol.encode(obj)) == obj

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError):
            protocol.decode(b"[1, 2]\n")

    def test_reply_shapes(self):
        ok = protocol.ok_reply("r", "lock", txn="T1")
        assert ok == {
            "rid": "r", "ok": True, "code": 200, "verb": "lock",
            "txn": "T1",
        }
        err = protocol.error_reply("r", "lock", 409, "nope")
        assert err["ok"] is False and err["code"] == 409


class TestMalformedRequests:
    """A malformed request is answered 4xx and changes nothing."""

    @pytest.mark.parametrize("deadline", ["abc", 0, -3, True, 1.5, [5]])
    def test_bad_begin_deadline_is_400_and_admits_nothing(self, deadline):
        core, _ = make_core(max_sessions=2)
        d = Driver(core)
        for _ in range(2):
            reply, _, _ = d.send("begin", deadline=deadline)
            assert reply["code"] == protocol.BAD_REQUEST
            assert "deadline" in reply["error"]
        assert core.idle and core.txn_counter == 0
        # Two bad begins used to leave two unwatched sessions behind and
        # every later begin answered 429.
        d.ok("begin")
        d.ok("begin")

    def test_lock_mode_must_be_s_or_x(self):
        core, _ = make_core()
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        for mode in ("Q", "shared", 5, ["S"]):
            reply, _, _ = d.send("lock", txn=txn, entity="e000", mode=mode)
            assert reply["code"] == protocol.BAD_REQUEST
            assert "mode" in reply["error"]
        assert core.scheduler.transactions[txn].program.operations == []
        d.ok("lock", txn=txn, entity="e000", mode="s")
        assert core.scheduler.lock_manager.locks_held(txn) == {
            "e000": LockMode.SHARED
        }

    @pytest.mark.parametrize(
        "request_",
        [
            ["begin"],
            {"rid": {"a": 1}, "verb": "begin"},
            {"rid": True, "verb": "begin"},
            {"rid": "r", "verb": ["begin"]},
            {"rid": "r", "verb": 7},
            {"rid": "r", "verb": "lock", "txn": ["T1"], "entity": "e000"},
            {"rid": "r", "verb": "lock", "txn": {"id": 1}},
            {"rid": "r", "verb": "begin", "idem": {"k": 1}},
            {"rid": "r", "verb": "lock", "entity": "e000"},
            {"rid": "r", "verb": "lock", "txn": "T1", "entity": {"e": 0}},
            {"rid": "r", "verb": "lock", "txn": "T1", "entity": "e000",
             "mode": {"m": "X"}},
            {"rid": "r", "verb": "begin", "deadline": "soon"},
            {"rid": "r", "verb": "begin", "deadline": {"steps": 4}},
        ],
    )
    def test_malformed_frame_never_raises(self, request_):
        core, _ = make_core()
        Driver(core).ok("begin")  # T1 exists, so only the shape is wrong
        reply, completions = core.handle(request_)
        assert 400 <= reply["code"] < 500, reply
        assert completions == []
        assert core.txn_counter == 1


class TestSessionProgram:
    def test_two_phase_rule_enforced_at_append(self):
        s = SessionProgram("T1")
        assert s.append(ops.lock_exclusive("a")) is None
        assert s.append(ops.unlock("a")) is None
        assert "two-phase" in s.append(ops.lock_exclusive("b"))
        assert len(s.operations) == 2  # the refused op was not appended

    def test_write_requires_exclusive(self):
        s = SessionProgram("T1")
        s.append(ops.lock_shared("a"))
        assert "exclusive" in s.append(ops.write("a", ops.const(1)))
        assert s.append(ops.read("a", into="__r1")) is None

    def test_current_operation_at_frontier_is_none(self):
        s = SessionProgram("T1")
        txn = Transaction(program=s)
        assert txn.current_operation() is None
        s.append(ops.lock_exclusive("a"))
        assert txn.current_operation() is s.operations[0]
        txn.pc = 1
        assert txn.current_operation() is None
        s.committing = True
        assert s.append(ops.unlock("a")) == "transaction is committing"


class TestCoreBasics:
    def test_increment_roundtrip(self):
        core, db = make_core()
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        d.ok("lock", txn=txn, entity="e000", mode="X")
        assert d.ok("read", txn=txn, entity="e000")["value"] == 0
        d.ok("write", txn=txn, entity="e000", value=7)
        assert d.ok("commit", txn=txn)["committed"] is True
        assert db.snapshot()["e000"] == 7
        assert core.idle  # reaped

    def test_blocked_lock_completes_on_commit(self):
        core, _ = make_core()
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        t2 = d.ok("begin")["txn"]
        d.ok("lock", txn=t1, entity="e000")
        _, completions, blocked_rid = d.send(
            "lock", txn=t2, entity="e000"
        )
        assert not completions and blocked_rid not in d.replies
        _, completions, _ = d.send("commit", txn=t1)
        granted = dict(completions)
        assert granted[blocked_rid]["code"] == protocol.OK
        d.ok("commit", txn=t2)

    def test_deadlock_resolved_by_partial_rollback(self):
        core, _ = make_core()
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        t2 = d.ok("begin")["txn"]
        d.ok("lock", txn=t1, entity="e000")
        d.ok("lock", txn=t2, entity="e001")
        d.send("lock", txn=t1, entity="e001")  # blocks
        d.send("lock", txn=t2, entity="e000")  # deadlock
        d.send("commit", txn=t1)
        d.send("commit", txn=t2)
        d.tick_until_idle()
        status = d.ok("status")
        assert status["commits"] == 2
        assert status["deadlocks"] >= 1
        assert status["rollbacks"] >= 1

    def test_rollback_below_answered_read_sheds_the_session(self):
        """A client computes its writes from the reads it was answered;
        re-executing an answered read after a rollback could return a
        different value, so the session is shed rather than replayed
        (replaying its constant write would lose T1's update)."""
        core, db = make_core(entities=2)
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        t2 = d.ok("begin")["txn"]
        d.ok("lock", txn=t1, entity="e001")
        d.ok("lock", txn=t2, entity="e000")
        assert d.ok("read", txn=t2, entity="e000")["value"] == 0
        d.ok("write", txn=t2, entity="e000", value=1)
        _, _, parked = d.send("lock", txn=t2, entity="e001")
        d.send("lock", txn=t1, entity="e000")  # deadlock: T2 rolled back
        d.ok("write", txn=t1, entity="e000", value=10)
        d.ok("commit", txn=t1)
        _, _, commit = d.send("commit", txn=t2)
        d.tick_until_idle()
        assert db.snapshot()["e000"] == 10  # T1's committed write stands
        shed = d.replies[parked]
        assert shed["code"] == protocol.UNAVAILABLE, shed
        assert "stale-read" in shed["error"]
        assert d.replies[commit]["code"] == protocol.GONE

    def test_rollback_above_answered_read_replays(self):
        core, db = make_core(entities=3)
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        t2 = d.ok("begin")["txn"]
        d.ok("lock", txn=t1, entity="e001")
        d.ok("lock", txn=t2, entity="e002")
        assert d.ok("read", txn=t2, entity="e002")["value"] == 0
        d.ok("lock", txn=t2, entity="e000")
        d.ok("write", txn=t2, entity="e000", value=1)
        _, _, parked = d.send("lock", txn=t2, entity="e001")
        d.send("lock", txn=t1, entity="e000")  # deadlock: T2 rolled back
        assert core.scheduler.transactions[t2].pc == 2  # past its read
        d.ok("write", txn=t1, entity="e000", value=10)
        d.ok("commit", txn=t1)
        assert d.replies[parked]["code"] == protocol.OK
        assert d.ok("commit", txn=t2)["committed"] is True
        assert db.snapshot()["e000"] == 1
        assert core.scheduler.metrics.rollbacks == 1

    def test_unknown_entity_404_unknown_txn_410_bad_verb_400(self):
        core, _ = make_core()
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        reply, _, _ = d.send("lock", txn=txn, entity="nope")
        assert reply["code"] == protocol.NOT_FOUND
        reply, _, _ = d.send("lock", txn="T99", entity="e000")
        assert reply["code"] == protocol.GONE
        reply, _ = core.handle({"rid": "x", "verb": "explode"})
        assert reply["code"] == protocol.BAD_REQUEST
        reply, _ = core.handle({"verb": "lock"})
        assert reply["code"] == protocol.BAD_REQUEST

    def test_two_phase_violation_is_409(self):
        core, _ = make_core()
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        d.ok("lock", txn=txn, entity="e000")
        d.ok("unlock", txn=txn, entity="e000")
        reply, _, _ = d.send("lock", txn=txn, entity="e001")
        assert reply["code"] == protocol.CONFLICT

    def test_trace_field_is_ignored_not_journaled_not_echoed(self):
        """An earlier client sent a ``trace`` dict on every request; the
        core accepts the request, journals it without the field, and
        echoes none back."""
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        core, db = make_core(bus=bus)
        d = Driver(core)
        trace = {"id": "c.1", "span": "c.1.0", "parent": "", "site": -1,
                 "clock": 1}
        txn = d.ok("begin", trace=trace)["txn"]
        d.ok("lock", txn=txn, entity="e000", trace=trace)
        d.ok("write", txn=txn, entity="e000", value=3, trace=trace)
        d.ok("commit", txn=txn, trace=trace)
        assert db.snapshot()["e000"] == 3
        assert all("trace" not in reply for reply in d.replies.values())
        journaled = [
            e for e in events
            if e.kind in (EventKind.SERVICE_REQUEST, EventKind.SERVICE_REPLY)
        ]
        assert len(journaled) == 8
        assert all("trace" not in e.data for e in journaled)

    def test_abort_then_410(self):
        core, _ = make_core()
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        d.ok("lock", txn=txn, entity="e000")
        assert d.ok("abort", txn=txn)["aborted"] is True
        reply, _, _ = d.send("lock", txn=txn, entity="e001")
        assert reply["code"] == protocol.GONE

    def test_abort_after_unlock_is_409_and_commit_still_succeeds(self):
        """Past its first unlock a transaction cannot be rolled back: the
        abort is refused as a conflict, changes nothing, and the
        transaction can still commit."""
        core, db = make_core()
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        d.ok("lock", txn=txn, entity="e000", mode="X")
        d.ok("lock", txn=txn, entity="e001", mode="X")
        d.ok("write", txn=txn, entity="e001", value=5)
        d.ok("unlock", txn=txn, entity="e000")
        def state():
            status = d.ok("status")
            del status["rid"], status["now"]  # every request ticks the clock
            held = core.scheduler.lock_manager.locks_held(txn)
            return status, held, core.scheduler.transactions[txn].status

        before = state()
        reply, _, _ = d.send("abort", txn=txn)
        assert reply["code"] == protocol.CONFLICT, reply
        assert "unlock" in reply["error"]
        assert state() == before
        assert d.ok("commit", txn=txn)["committed"] is True
        assert db.snapshot()["e001"] == 5
        assert core.idle


class TestOverloadSurfaces:
    def test_admission_rejects_with_429(self):
        core, _ = make_core(max_sessions=1)
        d = Driver(core)
        d.ok("begin")
        reply, _, _ = d.send("begin")
        assert reply["code"] == protocol.TOO_MANY
        assert "admission" in reply["error"]

    def test_429_not_cached_in_dedup_window(self):
        core, _ = make_core(max_sessions=1)
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        reply, _, rid = d.send("begin", idem=True)
        assert reply["code"] == protocol.TOO_MANY
        d.ok("commit", txn=t1)
        # Same idempotency key retried after capacity freed: must be
        # re-evaluated, not answered from the dedup cache.
        retry = {"rid": "retry", "verb": "begin", "idem": rid}
        reply, _ = core.handle(retry)
        assert reply["code"] == protocol.OK

    def test_draining_rejects_begin_with_503(self):
        core, _ = make_core()
        d = Driver(core)
        core.start_drain()
        reply, _, _ = d.send("begin")
        assert reply["code"] == protocol.UNAVAILABLE
        assert "draining" in reply["error"]

    def test_deadline_shed_surfaces_as_503(self):
        core, _ = make_core(deadline_steps=5)
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        t2 = d.ok("begin")["txn"]
        d.ok("lock", txn=t1, entity="e000")
        _, _, blocked = d.send("lock", txn=t2, entity="e000", deadline=3)
        # t2 can make no progress; the ladder must escalate to shed.
        for _ in range(60):
            if blocked in d.replies:
                break
            d.tick()
        reply = d.replies[blocked]
        assert reply["code"] == protocol.UNAVAILABLE
        assert "shed" in reply["error"]

    def test_breaker_opens_after_repeated_sheds(self, monkeypatch):
        monkeypatch.setattr(service_core, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(service_core, "BREAKER_WINDOW", 500)
        monkeypatch.setattr(service_core, "BREAKER_COOLDOWN", 500)
        core, _ = make_core(deadline_steps=3)
        d = Driver(core)
        holder = d.ok("begin")["txn"]
        d.ok("lock", txn=holder, entity="e000")
        rejected = None
        for _ in range(6):
            reply, _, _ = d.send("begin")
            if reply["code"] == protocol.UNAVAILABLE:
                rejected = reply
                break
            victim = reply["txn"]
            d.send("lock", txn=victim, entity="e000")
            d.tick(20)  # let the deadline ladder shed the victim
        assert rejected is not None
        assert "breaker" in rejected["error"]


class TestIdempotency:
    def test_completed_request_replayed_from_cache(self):
        core, db = make_core()
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        d.ok("lock", txn=txn, entity="e000")
        d.ok("write", txn=txn, entity="e000", value=5)
        _, _, rid = d.send("commit", txn=txn)
        first = d.replies[rid]
        assert first["committed"] is True
        # The duplicate arrives with a fresh rid but the same idem key.
        reply, _ = core.handle(
            {"rid": "dup", "verb": "commit", "txn": txn, "idem": rid}
        )
        assert reply["committed"] is True and reply["rid"] == "dup"
        assert db.snapshot()["e000"] == 5

    def test_in_flight_duplicate_attaches_as_alias(self):
        core, _ = make_core()
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        t2 = d.ok("begin")["txn"]
        d.ok("lock", txn=t1, entity="e000")
        _, _, rid = d.send("lock", txn=t2, entity="e000")  # parks
        reply, completions = core.handle(
            {"rid": "dup", "verb": "lock", "txn": t2,
             "entity": "e000", "idem": rid}
        )
        assert reply is None and not completions
        _, completions, _ = d.send("commit", txn=t1)
        rids = [r for r, _ in completions]
        assert rid in rids and "dup" in rids
        granted = dict(completions)
        assert granted[rid]["code"] == granted["dup"]["code"] == 200

    def test_dedup_window_is_bounded(self, monkeypatch):
        monkeypatch.setattr(service_core, "DEDUP_WINDOW", 3)
        core, _ = make_core()
        d = Driver(core)
        for _ in range(6):
            txn = d.ok("begin")["txn"]
            d.ok("commit", txn=txn)
        assert len(core.dedup_snapshot()) <= 3


class TestLifetimeBoundedness:
    def ten_sessions(self):
        """Five deadlocking pairs, run to idle: every session waits at
        least once, so the waits-for graph is really exercised."""
        core, _ = make_core()
        d = Driver(core)
        for _ in range(5):
            t1 = d.ok("begin")["txn"]
            t2 = d.ok("begin")["txn"]
            d.ok("lock", txn=t1, entity="e000")
            d.ok("lock", txn=t2, entity="e001")
            d.send("lock", txn=t1, entity="e001")  # blocks
            d.send("lock", txn=t2, entity="e000")  # deadlock
            d.send("commit", txn=t1)
            d.send("commit", txn=t2)
            d.tick_until_idle()
        return core, d

    def test_terminated_sessions_are_reaped_everywhere(self):
        core, _ = self.ten_sessions()
        assert core.idle
        assert not core.scheduler.transactions
        assert not core.admission.admitted_at
        assert core.admission.in_flight(core.scheduler) == 0
        enforcer = core.enforcer
        assert not (enforcer._deadline or enforcer._rung or enforcer._period)
        # The graph is keyed by live arcs: idle means empty, with no
        # recycling or compaction behind it.
        live = core.scheduler.lock_manager.table.waits_for
        assert live.counters_snapshot()["edges_added"] >= 10
        assert len(live) == 0
        assert live.adjacency() == {}
        assert live.transactions == set()
        assert not (live._entity_edges or live._pair_labels or live._succ)

    def test_telemetry_does_not_grow_with_transactions_served(self):
        core, _ = make_core()
        d = Driver(core)
        sizes = {}
        for served in range(1, 4001):
            txn = d.ok("begin", idem=False)["txn"]
            d.ok("lock", txn=txn, entity="e000", idem=False)
            d.ok("commit", txn=txn, idem=False)
            if served in (100, 4000):
                sizes[served] = core.telemetry.tracked_state_size()
        assert sizes[4000] == sizes[100]
        assert core.telemetry.metrics_obj()["done"] == 4000

    def test_status_reply_carries_graph_counters(self):
        core, d = self.ten_sessions()
        status = d.ok("status")
        assert status["commits"] == 10
        live = core.scheduler.lock_manager.table.waits_for
        assert status["graph_counters"] == live.counters_snapshot()
        assert status["graph_counters"]["edges_removed"] >= 10


class TestRecoverySeeds:
    """Recovery reads one file: the journal's ``wal.append`` records
    rebuild the database, its requests seed the counter and dedup."""

    config = ServiceConfig(max_sessions=4, deadline_steps=30)

    def test_wal_recovery_and_dedup_seeding(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        core, sink = build_core(2, 0, self.config, None, path)
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        d.ok("lock", txn=t1, entity="e000")
        d.ok("write", txn=t1, entity="e000", value=9)
        _, _, commit_rid = d.send("commit", txn=t1)
        # An uncommitted transaction in flight at the "crash".
        t2 = d.ok("begin")["txn"]
        d.ok("lock", txn=t2, entity="e001")
        d.ok("write", txn=t2, entity="e001", value=5)
        sink.close()

        counter, dedup = recovery_seeds(read_events_jsonl(path), {t1})
        assert counter == 2
        assert dedup[commit_rid]["committed"] is True
        assert list(dedup) == [commit_rid]  # t2 never committed
        recovered, sink = build_core(2, 0, self.config, None, path)
        assert recovered.database.snapshot() == {"e000": 9, "e001": 0}
        assert recovered.txn_counter == 2
        assert recovered.dedup_snapshot() == dedup
        sink.close()

    def test_torn_wal_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        core, sink = build_core(1, 0, self.config, None, path)
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        d.ok("lock", txn=txn, entity="e000")
        d.ok("write", txn=txn, entity="e000", value=3)
        d.ok("commit", txn=txn)
        sink.close()
        intact = path.read_text()
        torn = '{"data": {"entity": "e000", "record": "install", "val'
        path.write_text(intact + torn)  # a write the crash cut short
        recovered, sink = build_core(1, 0, self.config, None, path)
        sink.close()
        assert recovered.database.snapshot() == {"e000": 3}
        assert path.read_text().startswith(intact)
        assert torn not in path.read_text()

    def test_reboot_before_any_wal_record_never_reissues_a_txn_id(
        self, tmp_path
    ):
        """A ``begin`` answered before the first WAL record: the
        journal alone must keep the restarted server from handing the
        same id to a new client."""
        path = tmp_path / "journal.jsonl"
        first, sink = build_core(2, 0, self.config, None, path)
        assert Driver(first).ok("begin")["txn"] == "T1"
        sink.flush()  # the reply boundary, then kill -9
        assert len(first.wal) == 0
        second, sink2 = build_core(2, 0, self.config, None, path)
        d = Driver(second)
        assert d.ok("begin")["txn"] == "T2"
        reply, _, _ = d.send("lock", txn="T1", entity="e000")
        assert reply["code"] == protocol.GONE
        sink.close()
        sink2.close()


class TestReplayOracle:
    def record(self, scenario):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        core, db = make_core(bus=bus)
        scenario(Driver(core))
        return events, db

    def test_contended_run_replays_identically(self):
        def scenario(d):
            t1 = d.ok("begin")["txn"]
            t2 = d.ok("begin")["txn"]
            d.ok("lock", txn=t1, entity="e000")
            d.ok("lock", txn=t2, entity="e001")
            d.send("lock", txn=t1, entity="e001")
            d.send("lock", txn=t2, entity="e000")
            d.send("commit", txn=t1)
            d.send("commit", txn=t2)
            d.tick_until_idle()

        events, _ = self.record(scenario)
        assert verify_events(events) == []

    def test_boot_marker_with_removed_config_field_replays(self):
        """A journal written before ``compact_every`` was removed still
        carries it in every boot marker; replay must not choke on it."""
        def scenario(d):
            t1 = d.ok("begin")["txn"]
            t2 = d.ok("begin")["txn"]
            d.ok("lock", txn=t1, entity="e000")
            d.send("lock", txn=t2, entity="e000")
            d.send("commit", txn=t1)
            d.send("commit", txn=t2)
            d.tick_until_idle()

        events, _ = self.record(scenario)
        marker = events[0]
        assert marker.kind is EventKind.SERVICE_RECOVER
        marker.data["config"]["compact_every"] = 256
        assert verify_events(events) == []

    def test_journal_of_a_traced_release_replays(self):
        """A hand-built journal as an earlier release wrote it: the boot
        marker carries config fields since made constants, requests carry
        the client's ``trace`` dict and replies the server's echo.  It
        replays with zero divergences."""
        def trace(span, clock, trace_id=None):
            return {"id": trace_id or span.rsplit(".", 1)[0], "span": span,
                    "parent": "", "site": -1, "clock": clock}

        def echo(trace_id, span, clock):
            return {"id": trace_id, "span": span, "site": 0, "clock": clock}

        def event(seq, step, kind, txn="", **data):
            return Event(seq=seq, step=step, kind=kind, txn=txn, data=data)

        recover, request, reply, commit = (
            EventKind.SERVICE_RECOVER, EventKind.SERVICE_REQUEST,
            EventKind.SERVICE_REPLY, EventKind.TXN_COMMIT,
        )
        config = {
            "max_sessions": 8, "deadline_steps": 60, "dedup_window": 1024,
            "pump_budget": 100000, "breaker_threshold": 5,
            "breaker_window": 200, "breaker_cooldown": 50,
            "strategy": "mcs", "policy": "ordered-min-cost",
        }
        ok = {"ok": True, "code": 200}
        journal = [
            event(0, 0, recover, recovered=False, committed=[],
                  txn_counter=0, state={"e000": 0, "e001": 0},
                  config=config, dedup={}),
            event(1, 1, request, rid="c.1.0", verb="begin", idem="c.1",
                  trace=trace("c.1.0", 1)),
            event(4, 1, reply, "T1", rid="c.1.0", verb="begin", **ok,
                  trace=echo("c.1", "c.1.0", 2)),
            event(5, 2, request, rid="c.2.0", verb="begin", idem="c.2",
                  trace=trace("c.2.0", 3)),
            event(8, 2, reply, "T2", rid="c.2.0", verb="begin", **ok,
                  trace=echo("c.2", "c.2.0", 4)),
            event(9, 3, request, "T1", rid="c.3.0", verb="lock",
                  entity="e000", idem="c.3", trace=trace("c.3.0", 5, "c.1")),
            event(11, 3, reply, "T1", rid="c.3.0", verb="lock", **ok,
                  trace=echo("c.1", "c.3.0", 6)),
            event(12, 4, request, "T2", rid="c.4.0", verb="lock",
                  entity="e000", idem="c.4", trace=trace("c.4.0", 7, "c.2")),
            event(14, 5, request, "T1", rid="c.5.0", verb="write",
                  entity="e000", value=7, idem="c.5",
                  trace=trace("c.5.0", 9, "c.1")),
            event(15, 5, reply, "T1", rid="c.5.0", verb="write", **ok,
                  trace=echo("c.1", "c.5.0", 10)),
            event(16, 6, request, "T1", rid="c.6.0", verb="commit",
                  idem="c.6", trace=trace("c.6.0", 11, "c.1")),
            event(17, 6, commit, "T1", ops=2),
            event(19, 6, reply, "T2", rid="c.4.0", verb="lock", **ok,
                  trace=echo("c.2", "c.4.0", 12)),
            event(20, 6, reply, "T1", rid="c.6.0", verb="commit", **ok,
                  committed=True, trace=echo("c.1", "c.6.0", 12)),
            event(21, 7, request, "T2", rid="c.7.0", verb="commit",
                  idem="c.7", trace=trace("c.7.0", 13, "c.2")),
            event(22, 7, commit, "T2", ops=1),
            event(23, 7, reply, "T2", rid="c.7.0", verb="commit", **ok,
                  committed=True, trace=echo("c.2", "c.7.0", 14)),
        ]
        assert verify_events(journal) == []

    def test_tampered_journal_diverges(self):
        def scenario(d):
            txn = d.ok("begin")["txn"]
            d.ok("lock", txn=txn, entity="e000")
            d.ok("write", txn=txn, entity="e000", value=1)
            assert d.ok("read", txn=txn, entity="e000")["value"] == 1
            d.ok("commit", txn=txn)

        events, _ = self.record(scenario)
        # Flip the recorded write's value: the replayed read then
        # answers 999 where the live run recorded 1 — a reply
        # divergence the oracle must flag.
        for event in events:
            if (
                event.kind is EventKind.SERVICE_REQUEST
                and event.data.get("verb") == "write"
            ):
                event.data["value"] = 999
        divergences = verify_events(events)
        assert divergences
        assert "replies" in divergences[0]

    def test_dropped_commit_event_diverges(self):
        def scenario(d):
            txn = d.ok("begin")["txn"]
            d.ok("lock", txn=txn, entity="e000")
            d.ok("commit", txn=txn)

        events, _ = self.record(scenario)
        with_extra = list(events)
        # Forge a commit the live run never performed: replay cannot
        # reproduce it, and the prefix rule must flag it.
        forged = [e for e in events if e.kind is EventKind.TXN_COMMIT]
        with_extra.append(forged[0])
        divergences = verify_events(with_extra)
        assert divergences
        assert "commit-set" in divergences[0]

    def test_torn_tail_is_legal(self):
        def scenario(d):
            t1 = d.ok("begin")["txn"]
            d.ok("lock", txn=t1, entity="e000")
            d.send("commit", txn=t1)

        events, _ = self.record(scenario)
        # Simulate kill -9 tearing the reply/commit tail after the last
        # journaled request: replay completes it; that is not a
        # divergence.
        torn = events[:-2]
        assert verify_events(torn) == []


@st.composite
def duplication_plans(draw):
    """Per-request duplication counts for a three-transaction run."""
    return draw(
        st.lists(
            st.integers(min_value=1, max_value=3),
            min_size=12,
            max_size=12,
        )
    )


class TestDedupProperty:
    @given(plan=duplication_plans())
    @settings(max_examples=30)
    def test_duplicates_never_double_apply(self, plan):
        """At-least-once delivery has exactly-once effect.

        Every request frame is delivered 1–3 times (the dedup window's
        adversary); the increments must land exactly once each and the
        replay oracle must still hold.
        """
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        core, db = make_core(bus=bus, entities=2)
        dup = iter(plan)
        counter = [0]

        def send(verb, **fields):
            counter[0] += 1
            idem = f"k{counter[0]}"
            copies = next(dup, 1)
            final = None
            for attempt in range(copies):
                req = {
                    "rid": f"{idem}.{attempt}", "verb": verb,
                    "idem": idem,
                }
                req.update(fields)
                reply, completions = core.handle(req)
                for rid, creply in list(completions):
                    if rid.startswith(idem):
                        final = creply
                if reply is not None:
                    final = reply
            return final

        commits = 0
        for _ in range(3):
            reply = send("begin")
            txn = reply["txn"]
            send("lock", txn=txn, entity="e000", mode="X")
            read = send("read", txn=txn, entity="e000")
            send(
                "write", txn=txn, entity="e000",
                value=int(read["value"]) + 1,
            )
            done = send("commit", txn=txn)
            if done is not None and done.get("committed"):
                commits += 1
        assert commits == 3
        assert db.snapshot()["e000"] == 3
        assert verify_events(events) == []


class TestJournalRoundtrip:
    def test_journal_file_verifies_end_to_end(self, tmp_path):
        from repro.observability.export import JsonlStreamSink
        from repro.service.replay import verify_journal

        bus = EventBus()
        sink = JsonlStreamSink(tmp_path / "j.jsonl")
        bus.subscribe(sink)
        core, _ = make_core(bus=bus)
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        d.ok("lock", txn=txn, entity="e000")
        d.ok("write", txn=txn, entity="e000", value=2)
        d.ok("commit", txn=txn)
        sink.close()
        assert verify_journal(tmp_path / "j.jsonl") == []

    def test_boot_marker_carries_reconstruction_state(self, tmp_path):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        make_core(bus=bus, entities=2)
        marker = events[0]
        assert marker.kind is EventKind.SERVICE_RECOVER
        assert marker.data["state"] == {"e000": 0, "e001": 0}
        assert marker.data["recovered"] is False
        assert json.dumps(marker.data["config"])  # JSON-serialisable
