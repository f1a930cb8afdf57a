"""The service core's gated pump, held to the sweep it replaces.

``_sweep_advance``, ``_sweep_pump`` and ``_sweep_settle`` below are the
core as it was when every request swept every session to a fixpoint
twice (before and after the deadline tick) and then tried to resolve
every parked request.  A seeded S/X script over a few hot entities —
deadlocks, partial rollbacks, stale-read sheds, deadline rungs, client
aborts, idempotent retries of in-flight and completed requests, 429s
and ticks — runs once with them patched in and once with the core's own
gated pump and in-place completion, and both bus streams must be
byte-identical: the gate changes what a request costs, not what the
service decides.

The references also stand in for the deadline enforcer's full sorted
scan on every tick (``_scan_tick``), the admission controller's scan of
every transaction (``_scan_in_flight``) and the reap's scan of every
session (``_scan_reap``).  The seed-0 stream is also pinned
(:data:`PIN`): it was computed before the gate existed, so a change
that moves both executions alike still turns it red.  Run this file as
a script to print that stream::

    PYTHONPATH=src python tests/test_service_pump.py | sha256sum
"""

import hashlib
import json
import random
import sys
from collections import Counter

import pytest

from repro.admission.controller import AdmissionController
from repro.admission.deadlines import DeadlineEnforcer
from repro.core.operations import Read
from repro.core.transaction import TxnStatus
from repro.errors import SimulationError
from repro.observability.events import EventBus, EventKind
from repro.observability.export import to_jsonl
from repro.service.core import (
    PUMP_BUDGET,
    STALE_READ,
    ServiceConfig,
    ServiceCore,
)
from repro.storage.database import Database

#: sha256 of ``script_jsonl(0)``, computed on the core before the gate
#: and re-derived when ``victim.select`` lost its always-empty ``immune``
#: key (the old pin's lines with that key popped hash to this one).
PIN = "239e254dbbb328ad71db2c8e1fa621806828dcc9b48a39ac9760f66d4bc04b1c"

ENTITIES = 4
CLIENTS = 4
CONFIG = ServiceConfig(max_sessions=3, deadline_steps=20)


def script_jsonl(seed: int, requests: int = 700) -> str:
    """Drive a fresh core through the seeded script; its bus as JSONL."""
    return run_script(seed, requests)[0]


def run_script(
    seed: int, requests: int = 700
) -> tuple[str, list, ServiceCore]:
    """Drive a fresh core through the seeded script.

    Returns the bus as JSONL, every ``handle`` return value in order,
    and the core.

    Four clients share three sessions (so ``begin`` meets 429s), each
    pipelining requests on the transaction it holds; a client forgets
    its transaction when a reply says it committed, aborted or was
    shed.  Only non-``begin`` requests are retried: with their original
    ``idem`` and a fresh ``rid``, or with the same ``rid`` and no
    ``idem``.
    """
    bus = EventBus()
    events: list = []
    bus.subscribe(events.append)
    database = Database({f"e{i:03d}": 0 for i in range(ENTITIES)})
    core = ServiceCore(database, CONFIG, bus=bus)
    rng = random.Random(seed)
    txns: list = [None] * CLIENTS
    last: list = [None] * CLIENTS
    locked: list = [[] for _ in range(CLIENTS)]
    sent = 0
    transcript: list = []

    def answered(reply: dict) -> None:
        client = int(str(reply["rid"])[1:].split(".")[0])
        txn = reply.get("txn")
        if reply["verb"] == "begin":
            if reply["code"] == 200:
                txns[client] = txn
                locked[client] = []
            return
        ended = (
            reply["code"] in (410, 503)
            or (reply["verb"] == "commit" and reply["code"] == 200)
            or (reply["verb"] == "abort" and reply["code"] == 200)
        )
        if ended and txn in (None, txns[client]):
            txns[client] = None
            last[client] = None

    def send(
        client: int,
        request: dict,
        idem: str | None = "own",
        rid: str | None = None,
    ) -> None:
        nonlocal sent
        sent += 1
        rid = rid or f"c{client}.{sent}"
        request = dict(request, rid=rid)
        if idem == "own":
            request["idem"] = rid
        elif idem is not None:
            request["idem"] = idem
        reply, completions = core.handle(request)
        transcript.append((reply, completions))
        for answer in ([reply] if reply is not None else []) + [
            done for _rid, done in completions
        ]:
            answered(answer)

    entities = [f"e{i:03d}" for i in range(ENTITIES)]
    for _ in range(requests):
        client = rng.randrange(CLIENTS)
        txn = txns[client]
        roll = rng.random()
        if roll < 0.10:
            send(client, {"verb": "tick"}, idem=None)
        elif roll < 0.12:
            send(client, {"verb": "status"}, idem=None)
        elif roll < 0.14:
            send(client, rng.choice([
                {"verb": "frobnicate"},
                {"verb": "lock", "txn": txn},
                {"verb": "lock", "txn": txn, "entity": "nowhere"},
                {"verb": "read", "txn": "T9999", "entity": "e000"},
            ]))
        elif roll < 0.22 and last[client] is not None:
            request = dict(last[client])
            idem = request.pop("idem")
            request.pop("rid")
            send(client, request, idem=idem)
        elif roll < 0.25 and last[client] is not None:
            # The same rid again, without an idem: it replaces a request
            # still parked under that rid.
            request = dict(last[client])
            request.pop("idem")
            send(client, request, idem=None, rid=request.pop("rid"))
        elif txn is None:
            request = {"verb": "begin"}
            deadline = rng.choice([None, None, None, 4, 30])
            if deadline is not None:
                request["deadline"] = deadline
            send(client, request)
        else:
            verb = rng.choices(
                ["lock", "read", "write", "commit", "abort"],
                weights=[36, 24, 16, 14, 2],
            )[0]
            request = {"verb": verb, "txn": txn}
            if verb == "lock":
                free = [e for e in entities if e not in locked[client]]
                request["entity"] = rng.choice(free or entities)
                request["mode"] = "X" if rng.random() < 0.6 else "s"
                locked[client].append(request["entity"])
            elif verb in ("read", "write"):
                # Mostly an entity this transaction asked to lock.
                request["entity"] = rng.choice(
                    locked[client] if rng.random() < 0.85 and locked[client]
                    else entities
                )
                if verb == "write":
                    request["value"] = rng.randrange(100)
            last[client] = dict(request, rid=f"c{client}.{sent + 1}",
                                idem=f"c{client}.{sent + 1}")
            send(client, request)
    for _ in range(40):
        send(0, {"verb": "tick"}, idem=None)
    return to_jsonl(events), transcript, core


# -- the core as it was: a sweep to a fixpoint, twice per request -----------


def _sweep_advance(self):
    _sweep_pump(self)
    self.enforcer.tick(self.scheduler, self.now)
    _sweep_pump(self)


def _sweep_pump(self):
    budget = PUMP_BUDGET
    scheduler = self.scheduler
    progressed = True
    while progressed:
        progressed = False
        for txn_id, session in list(self._sessions.items()):
            txn = scheduler.transactions.get(txn_id)
            if txn is None:
                continue
            answered = self._answered_read.get(txn_id, -1)
            while (
                not txn.done
                and txn.status is TxnStatus.READY
                and (
                    txn.pc < len(session.operations)
                    or session.committing
                )
            ):
                progressed = True
                if txn.pc <= answered:
                    scheduler.shed(txn_id, reason=STALE_READ)
                    break
                op = txn.current_operation()
                scheduler.step(txn_id)
                if isinstance(op, Read):
                    session.results[txn.pc - 1] = (
                        scheduler.strategy.read_local(txn, op.into)
                    )
                budget -= 1
                if budget <= 0:
                    raise SimulationError("suspected livelock")


def _sweep_settle(self):
    """Park the current request, then try every parked one."""
    if self._current is not None:
        self._park(self._current)
        self._current = None
    completions = []
    for rid, parked in list(self._parked.items()):
        reply = self._resolve(parked)
        if reply is None:
            continue
        del self._parked[rid]
        if parked.idem is not None:
            self._idem_in_flight.pop(parked.idem, None)
        self._finalize(reply, parked.idem)
        completions.append((rid, reply))
        for alias in parked.aliases:
            aliased = dict(reply)
            aliased["rid"] = alias
            completions.append((alias, aliased))
    return completions


def _scan_reap(self):
    parked_txns = {p.txn_id for p in self._parked.values()}
    reapable = [
        txn_id
        for txn_id in self._sessions
        if txn_id not in parked_txns
        and (txn := self.scheduler.transactions.get(txn_id)) is not None
        and txn.done
    ]
    for txn_id in reapable:
        del self._sessions[txn_id]
        self.scheduler.forget(txn_id)
        self.admission.admitted_at.pop(txn_id, None)
        self._shed_reason.pop(txn_id, None)
        self._answered_read.pop(txn_id, None)
        self.telemetry.forget(txn_id)


def _scan_tick(self, scheduler, step):
    for txn_id in sorted(self._deadline):
        txn = scheduler.transactions.get(txn_id)
        if txn is None or txn.done:
            self.forget(txn_id)
            continue
        if step < self._deadline[txn_id]:
            continue
        period = self._period.get(txn_id, self.deadline_steps)
        if txn.status is not TxnStatus.BLOCKED:
            self._deadline[txn_id] = step + period
            continue
        scheduler.metrics.deadline_expiries += 1
        rung = self._rung[txn_id] = self._rung[txn_id] + 1
        if scheduler.bus.wants(EventKind.DEADLINE_RUNG):
            scheduler.bus.publish(
                EventKind.DEADLINE_RUNG,
                txn_id,
                rung=rung,
                action={1: "partial", 2: "restart"}.get(rung, "shed"),
            )
        if rung == 1:
            ideal = max(0, txn.lock_count - 1)
            target = scheduler.strategy.choose_target(txn, ideal)
            scheduler.force_rollback(
                txn_id, target, requester=txn_id, ideal_ordinal=ideal
            )
            scheduler.metrics.deadline_partials += 1
            self._deadline[txn_id] = step + period
        elif rung == 2:
            scheduler.force_rollback(
                txn_id, 0, requester=txn_id, ideal_ordinal=0
            )
            scheduler.metrics.deadline_restarts += 1
            self._deadline[txn_id] = step + period
        else:
            scheduler.shed(txn_id)
            self.forget(txn_id)


def _scan_in_flight(self, scheduler):
    return sum(
        1
        for txn_id, txn in scheduler.transactions.items()
        if txn_id in self.admitted_at and not txn.done
    )


def _reference_run(monkeypatch, seed):
    with monkeypatch.context() as patch:
        patch.setattr(ServiceCore, "_advance", _sweep_advance)
        patch.setattr(ServiceCore, "_settle", _sweep_settle)
        patch.setattr(ServiceCore, "_reap", _scan_reap)
        patch.setattr(DeadlineEnforcer, "tick", _scan_tick)
        patch.setattr(AdmissionController, "in_flight", _scan_in_flight)
        return run_script(seed)


@pytest.mark.parametrize("seed", range(6))
def test_gated_pump_decides_as_the_sweep(monkeypatch, seed):
    reference_jsonl, reference_transcript, _ = _reference_run(
        monkeypatch, seed
    )
    jsonl, transcript, core = run_script(seed)
    assert jsonl == reference_jsonl
    assert transcript == reference_transcript
    if seed == 0:
        assert hashlib.sha256(jsonl.encode()).hexdigest() == PIN
    # The core is idle-bounded: nothing outlives its session.
    live = set(core._sessions)
    assert set(core.enforcer._deadline) <= live
    assert core.admission.in_flight(core.scheduler) == len(live)


def test_script_reaches_every_path(monkeypatch):
    """The pinned script exercises what the gate must not change."""
    jsonl, transcript, _ = _reference_run(monkeypatch, 0)
    kinds = Counter()
    sheds = Counter()
    codes = Counter()
    for line in jsonl.splitlines():
        event = json.loads(line)
        kinds[event["kind"]] += 1
        if event["kind"] == "txn.shed":
            sheds[event["data"]["reason"]] += 1
        if event["kind"] == "service.reply":
            codes[event["data"]["code"]] += 1
    assert kinds["deadlock.detect"] >= 3 and kinds["rollback"] >= 10
    assert kinds["deadline.rung"] >= 10
    assert set(sheds) == {"stale-read", "deadline-exceeded", "client-abort"}
    assert {400, 409, 410, 429, 503} <= set(codes)
    # In-flight retries attach as aliases: a completion the request's
    # own reply does not account for.
    aliased = sum(
        1
        for reply, completions in transcript
        for rid, _done in completions
        if reply is None and rid != completions[0][0]
    )
    assert aliased > 0


def _three_sessions():
    core = ServiceCore(
        Database({f"e{i:03d}": 0 for i in range(4)}),
        ServiceConfig(max_sessions=3),
    )
    txns = [
        core.handle({"rid": f"b{i}", "verb": "begin"})[0]["txn"]
        for i in range(3)
    ]
    return core, txns


def test_parked_requests_complete_before_the_current_one():
    """A commit answered in place comes after the parked lock its
    release granted: older parked requests are answered first."""
    core, (_t1, t2, t3) = _three_sessions()
    reply, _ = core.handle(
        {"rid": "l1", "verb": "lock", "txn": t2, "entity": "e000"}
    )
    assert reply is None  # answered in place, as a completion
    reply, completions = core.handle(
        {"rid": "l2", "verb": "lock", "txn": t3, "entity": "e000"}
    )
    assert reply is None and completions == []  # T3 waits for T2
    _reply, completions = core.handle(
        {"rid": "c1", "verb": "commit", "txn": t2}
    )
    assert [rid for rid, _ in completions] == ["l2", "c1"]


def test_reused_rid_replaces_the_request_parked_under_it():
    """A request reusing the rid of a parked one takes its place in the
    queue, so only the newer request is answered under that rid, even
    when the older one becomes answerable in the same ``handle``."""
    core, (t1, t2, _t3) = _three_sessions()
    core.handle({"rid": "a", "verb": "lock", "txn": t1, "entity": "e000"})
    reply, _ = core.handle(
        {"rid": "dup", "verb": "lock", "txn": t2, "entity": "e000"}
    )
    assert reply is None  # T2 waits for T1
    # T1's commit under the same rid grants T2's lock in the same step.
    _reply, completions = core.handle(
        {"rid": "dup", "verb": "commit", "txn": t1}
    )
    assert [(rid, done["verb"]) for rid, done in completions] == [
        ("dup", "commit")
    ]
    assert core.scheduler.lock_manager.locks_held(t2)


if __name__ == "__main__":  # pragma: no cover
    sys.stdout.write(script_jsonl(0))
