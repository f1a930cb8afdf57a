"""Unit tests for the lock-service core: protocol, sessions, dispatch,
idempotency, overload surfaces, recovery seeds, and the replay oracle.

Everything here drives :class:`~repro.service.core.ServiceCore`
directly — no sockets — which is exactly the point: the core *is* the
service, and the asyncio shell (tested in
``tests/test_service_network.py``) adds only transport.
"""

import json

import pytest

from repro.observability.events import EventBus, EventKind
from repro.service import protocol
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.journal import DurableWriteAheadLog
from repro.service.replay import verify_events
from repro.service.server import recovery_seeds
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


class TestSessionProgram:
    def test_two_phase_rule_enforced_at_append(self):
        s = SessionProgram("T1")
        from repro.locking.modes import LockMode

        assert s.validate_lock("a", LockMode.EXCLUSIVE) is None
        s.append_lock("a", LockMode.EXCLUSIVE)
        s.append_unlock("a")
        assert s.validate_lock("b", LockMode.EXCLUSIVE) is not None

    def test_write_requires_exclusive(self):
        s = SessionProgram("T1")
        from repro.locking.modes import LockMode

        s.append_lock("a", LockMode.SHARED)
        assert s.validate_write("a") is not None
        assert s.validate_read("a") is None

    def test_op_at_frontier_is_none(self):
        s = SessionProgram("T1")
        assert s.op_at(0) is None
        from repro.locking.modes import LockMode

        index = s.append_lock("a", LockMode.EXCLUSIVE)
        assert s.op_at(index) is not None
        assert s.op_at(index + 1) is None


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

    def test_breaker_opens_after_repeated_sheds(self):
        core, _ = make_core(
            deadline_steps=3, breaker_threshold=2, breaker_window=500,
            breaker_cooldown=500,
        )
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

    def test_dedup_window_is_bounded(self):
        core, _ = make_core(dedup_window=3)
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
    def test_wal_recovery_and_dedup_seeding(self, tmp_path):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        wal = DurableWriteAheadLog(
            tmp_path / "wal.jsonl", {"e000": 0, "e001": 0}
        )
        core, _ = make_core(entities=2, bus=bus, wal=wal)
        d = Driver(core)
        t1 = d.ok("begin")["txn"]
        d.ok("lock", txn=t1, entity="e000")
        d.ok("write", txn=t1, entity="e000", value=9)
        _, _, commit_rid = d.send("commit", txn=t1)
        # An uncommitted transaction in flight at the "crash".
        t2 = d.ok("begin")["txn"]
        d.ok("lock", txn=t2, entity="e001")
        d.ok("write", txn=t2, entity="e001", value=5)
        wal.close()

        reopened = DurableWriteAheadLog.open_existing(
            tmp_path / "wal.jsonl", {"e000": 0, "e001": 0}
        )
        state, committed = reopened.recover_state()
        assert state == {"e000": 9, "e001": 0}
        assert committed == {t1}
        counter, dedup = recovery_seeds(events, committed)
        assert counter == 2
        assert dedup[commit_rid]["committed"] is True
        assert list(dedup) == [commit_rid]  # t2 never committed

    def test_torn_wal_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = DurableWriteAheadLog(path, {"e000": 0})
        core, _ = make_core(entities=1, wal=wal)
        d = Driver(core)
        txn = d.ok("begin")["txn"]
        d.ok("lock", txn=txn, entity="e000")
        d.ok("write", txn=txn, entity="e000", value=3)
        d.ok("commit", txn=txn)
        wal.close()
        with path.open("a") as handle:
            handle.write('{"kind": "commit", "txn')  # torn write
        reopened = DurableWriteAheadLog.open_existing(path, {"e000": 0})
        state, committed = reopened.recover_state()
        assert state == {"e000": 3} and committed == {txn}

    def test_reboot_before_any_wal_record_never_reissues_a_txn_id(
        self, tmp_path
    ):
        """A ``begin`` answered before the first WAL record: the
        journal alone must keep the restarted server from handing the
        same id to a new client."""
        from repro.service.server import build_core

        paths = (tmp_path / "wal.jsonl", tmp_path / "journal.jsonl")
        config = ServiceConfig(max_sessions=4, deadline_steps=30)
        first, sink = build_core(2, 0, config, *paths)
        assert Driver(first).ok("begin")["txn"] == "T1"
        sink.flush()  # the reply boundary, then kill -9
        assert len(first.wal) == 0
        second, sink2 = build_core(2, 0, config, *paths)
        d = Driver(second)
        assert d.ok("begin")["txn"] == "T2"
        reply, _, _ = d.send("lock", txn="T1", entity="e000")
        assert reply["code"] == protocol.GONE
        for core, journal in ((first, sink), (second, sink2)):
            journal.close()
            core.wal.close()


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
