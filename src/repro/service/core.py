"""The deterministic service core.

:class:`ServiceCore` is the whole lock service minus the network: a
synchronous request processor over one
:class:`~repro.core.scheduler.Scheduler`.  The asyncio server feeds it
wire requests in arrival order; replay verification feeds it the same
requests read back from the journal.  Because the core touches no
socket, clock, or randomness — logical time is "requests processed",
and the server journals even its idle ticks — the two executions are
the *same computation*, which is what makes live-vs-replay a meaningful
differential oracle (see ``docs/SERVICE.md``).

Robustness wiring, all through existing subsystems:

* admission — a real :class:`~repro.admission.controller.AdmissionController`
  gates ``begin``; over capacity answers **429** immediately instead of
  queueing the client into a timeout.
* deadlines — every admitted session is watched by a
  :class:`~repro.admission.deadlines.DeadlineEnforcer` (per-request
  override supported); the ladder escalates partial rollback → total
  restart → shed, and a shed session's outstanding requests complete
  with **503**.
* stale reads — a session rolled back to or below a read it has
  already answered is shed (:data:`STALE_READ`, **503**): the client
  computed its later requests from that value.
* breaker — a :class:`~repro.admission.breaker.CircuitBreaker` fed by
  commit/shed outcomes (:data:`BREAKER_THRESHOLD` sheds within
  :data:`BREAKER_WINDOW` steps open it for :data:`BREAKER_COOLDOWN`);
  while open, ``begin`` answers **503**.
* idempotency — requests carrying an ``idem`` key are deduplicated
  through a window of :data:`DEDUP_WINDOW` replies: retries of a
  completed request return the recorded reply without touching the
  lock table; retries of one still in flight attach to it.
* reaping — terminated sessions are dropped from every per-transaction
  map after the request that ended them, and the waits-for graph holds
  entries only for live arcs, keeping a forever-running service bounded
  by *concurrent* load.

A request pays only for what it changed.  Between requests every
session is at its fixpoint (nothing is left to step), so the pump runs
only while some READY session can move; deadlines fire only when one
is due; a request whose operation runs during its own ``handle`` is
answered in place; and the reap runs only after a session ended.

The journal is the service's one causal record: every request and reply
is on it in bus order, named by its ``rid``.  A request field outside
:data:`_JOURNALED_FIELDS` (such as the ``trace`` dict earlier clients
sent) is ignored, not journaled and not echoed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any

from ..admission.breaker import CircuitBreaker
from ..admission.controller import AdmissionController
from ..admission.deadlines import DeadlineEnforcer
from ..admission.policies import FixedMplPolicy
from ..core import operations as ops
from ..core.metrics import DEADLINE_EXCEEDED
from ..core.operations import Read
from ..core.scheduler import Scheduler
from ..core.transaction import TxnStatus
from ..errors import ReproError, SimulationError
from ..observability.events import Event, EventBus, EventKind
from ..observability.streaming import StreamingAggregator
from ..resilience.wal import WriteAheadLog
from ..storage.database import Database
from . import protocol
from .protocol import error_reply, ok_reply
from .session import SessionProgram

#: Shed reason recorded for client-initiated aborts.
CLIENT_ABORT = "client-abort"
#: Shed reason for a session rolled back below a read it already
#: answered: the client computed its later writes from that value, and
#: re-executing the read could hand the server a different one.
STALE_READ = "stale-read"


#: Completed idempotent replies the dedup window remembers.
DEDUP_WINDOW = 1024
#: Scheduler steps one request may drive before the pump calls it a
#: livelock.
PUMP_BUDGET = 100_000
#: Circuit breaker: sheds within the window that open it, and the
#: logical steps it then stays open.
BREAKER_THRESHOLD = 5
BREAKER_WINDOW = 200
BREAKER_COOLDOWN = 50


@dataclass
class ServiceConfig:
    """Tunables of one service instance (all logical-time units)."""

    max_sessions: int = 8
    deadline_steps: int = 60
    strategy: str = "mcs"
    policy: str = "ordered-min-cost"


@dataclass
class _Parked:
    """One deferred reply: a wire request waiting on the scheduler."""

    rid: Any
    txn_id: str
    verb: str
    op_index: int | None = None
    idem: str | None = None
    #: Aliases: rids of idempotent retries that attached while this
    #: request was still in flight — they complete with the same reply.
    aliases: list[Any] = field(default_factory=list)


#: Request fields the journal preserves (the replay input contract).
_JOURNALED_FIELDS = (
    "rid",
    "verb",
    "txn",
    "entity",
    "mode",
    "value",
    "deadline",
    "idem",
)


def _frame_problem(rid: Any, verb: Any, request: dict) -> str | None:
    """Why a request is malformed as a frame, or ``None``."""
    if rid is None or not isinstance(verb, str):
        return "request needs 'rid' and 'verb'"
    if verb not in protocol.VERBS:
        return f"unknown verb {verb!r}"
    if isinstance(rid, bool) or not isinstance(rid, (str, int)):
        return "'rid' must be a string or an integer"
    for key in ("txn", "idem"):
        value = request.get(key)
        if value is not None and not isinstance(value, str):
            return f"{key!r} must be a string"
    return None


class ServiceCore:
    """The synchronous, deterministic lock service.

    :meth:`handle` processes one wire request and returns
    ``(reply, completions)``: *reply* is the immediate answer (``None``
    when the request parked), *completions* the deferred replies this
    request's side effects released — granted locks, finished commits,
    sheds.  The caller owns delivery; the core owns everything else.
    """

    def __init__(
        self,
        database: Database,
        config: ServiceConfig | None = None,
        wal: WriteAheadLog | None = None,
        bus: EventBus | None = None,
        recovered_committed: set[str] | None = None,
        txn_counter_start: int = 0,
        dedup_seed: dict[str, dict] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.database = database
        self.scheduler = Scheduler(
            database,
            strategy=self.config.strategy,
            policy=self.config.policy,
        )
        self.bus = bus if bus is not None else EventBus()
        self.scheduler.bus = self.bus
        self.wal = wal
        if wal is not None:
            self.scheduler.wal = wal
            wal.bus = self.bus
        self.admission = AdmissionController(
            FixedMplPolicy(mpl=self.config.max_sessions)
        )
        self.enforcer = DeadlineEnforcer(self.config.deadline_steps)
        self.breaker = CircuitBreaker(
            failure_threshold=BREAKER_THRESHOLD,
            window=BREAKER_WINDOW,
            cooldown=BREAKER_COOLDOWN,
        )
        self.now = 0
        self.draining = False
        self.requests_handled = 0
        self._txn_counter = txn_counter_start
        self._sessions: "OrderedDict[str, SessionProgram]" = OrderedDict()
        self._parked: "OrderedDict[Any, _Parked]" = OrderedDict()
        self._dedup: "OrderedDict[str, dict]" = OrderedDict(dedup_seed or {})
        self._idem_in_flight: dict[str, Any] = {}
        self._shed_reason: dict[str, str] = {}
        #: Index of the last read each session has answered.
        self._answered_read: dict[str, int] = {}
        #: The request being handled, when it carries an operation or a
        #: commit: answered in place, or parked, by :meth:`_settle`.
        self._current: _Parked | None = None
        self.bus.subscribe(self._observe)
        #: Bounded-memory telemetry folded from this core's own event
        #: stream — the ``metrics`` verb reads it live.  Subscribed
        #: before the boot marker so live and replay fold identical
        #: streams from the first event.
        self.telemetry = StreamingAggregator(bus=self.bus)
        # The boot marker: everything replay needs to reconstruct this
        # core — initial state, config, whether a WAL publishes into the
        # stream, and (after a crash) the recovery seeds.  Replay splits
        # the journal into segments at these.
        if self.bus.wants(EventKind.SERVICE_RECOVER):
            self.bus.publish(
                EventKind.SERVICE_RECOVER,
                recovered=recovered_committed is not None,
                committed=sorted(recovered_committed or ()),
                txn_counter=txn_counter_start,
                state=self.database.snapshot(),
                config=asdict(self.config),
                dedup=dict(self._dedup),
                **({"wal": True} if wal is not None else {}),
            )

    # -- bus observation -----------------------------------------------------

    def _observe(self, event: Event) -> None:
        """Feed terminal outcomes into the breaker and shed-reason map."""
        if event.kind is EventKind.TXN_SHED:
            reason = str(event.data.get("reason", DEADLINE_EXCEEDED))
            self._shed_reason[event.txn] = reason
            if reason != CLIENT_ABORT:
                self.breaker.record_failure(self.now)
        elif event.kind is EventKind.TXN_COMMIT:
            self.breaker.record_success(self.now)

    # The only kinds routed to it (a bound method forwards the attribute).
    _observe.kinds = frozenset(  # type: ignore[attr-defined]
        {EventKind.TXN_SHED, EventKind.TXN_COMMIT}
    )

    # -- the request loop ----------------------------------------------------

    def handle(
        self, request: dict
    ) -> tuple[dict | None, list[tuple[Any, dict]]]:
        """Process one wire request (see class docstring).

        A malformed frame — no ``rid`` or ``verb``, an unknown verb, or
        a ``rid``, ``txn`` or ``idem`` of the wrong type — is answered
        400 before it is journaled or moves logical time.
        """
        if not isinstance(request, dict):
            return (
                error_reply(
                    None, "", protocol.BAD_REQUEST,
                    "request is not an object",
                ),
                [],
            )
        rid = request.get("rid")
        verb = request.get("verb")
        problem = _frame_problem(rid, verb, request)
        if problem is not None:
            return (
                error_reply(
                    rid, verb if isinstance(verb, str) else "",
                    protocol.BAD_REQUEST, problem,
                ),
                [],
            )
        self.now += 1
        self.requests_handled += 1
        self.bus.advance(self.now)
        if self.bus.wants(EventKind.SERVICE_REQUEST):
            self.bus.publish(
                EventKind.SERVICE_REQUEST,
                str(request.get("txn", "")),
                **{
                    key: request[key]
                    for key in _JOURNALED_FIELDS
                    if key != "txn" and request.get(key) is not None
                },
            )
        idem = request.get("idem")
        reply: dict | None
        if idem is not None and idem in self._dedup:
            cached = dict(self._dedup[idem])
            cached["rid"] = rid
            reply = cached
        elif idem is not None and idem in self._idem_in_flight:
            original = self._parked.get(self._idem_in_flight[idem])
            if original is not None:
                original.aliases.append(rid)
                reply = None
            else:  # pragma: no cover - window invariant
                reply = error_reply(
                    rid, verb, protocol.INTERNAL, "idempotency state lost"
                )
        else:
            try:
                reply = self._dispatch(rid, verb, request)
            except ReproError as exc:
                reply = error_reply(rid, verb, protocol.INTERNAL, str(exc))
        completions = self._settle()
        if reply is not None:
            self._finalize(reply, idem)
        self._reap()
        return reply, completions

    # -- verb dispatch -------------------------------------------------------

    def _dispatch(self, rid: Any, verb: str, request: dict) -> dict | None:
        if verb == "tick":
            self._advance()
            return ok_reply(rid, verb, now=self.now)
        if verb == "begin":
            return self._begin(rid, request)
        if verb == "status":
            return self._status(rid, request)
        if verb == "metrics":
            self._advance()
            return ok_reply(rid, verb, **self.telemetry.metrics_obj())
        txn_id = request.get("txn")
        session = self._sessions.get(txn_id) if txn_id else None
        if session is None:
            self._advance()
            return error_reply(
                rid, verb, protocol.GONE,
                f"unknown or terminated transaction {txn_id!r}",
            )
        if verb == "abort":
            return self._abort(rid, txn_id)
        if verb == "commit":
            txn = self.scheduler.transactions[txn_id]
            if txn.status is TxnStatus.COMMITTED:  # pragma: no cover
                return ok_reply(rid, verb, txn=txn_id, committed=True)
            session.committing = True
            self._hold(rid, txn_id, verb, None, request.get("idem"))
            self._advance()
            return None
        return self._append_op(rid, verb, session, request)

    def _begin(self, rid: Any, request: dict) -> dict | None:
        deadline = request.get("deadline")
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, int)
            or deadline < 1
        ):
            return error_reply(
                rid, "begin", protocol.BAD_REQUEST,
                "'deadline' must be a positive integer (logical steps)",
            )
        if self.draining:
            self._advance()
            return error_reply(
                rid, "begin", protocol.UNAVAILABLE,
                "draining: not admitting new transactions",
            )
        if not self.breaker.allow(self.now):
            self._advance()
            self.bus.publish(
                EventKind.SERVICE_REJECT,
                code=protocol.UNAVAILABLE,
                reason="breaker-open",
            )
            return error_reply(
                rid, "begin", protocol.UNAVAILABLE,
                f"circuit breaker open (reopens at {self.breaker.reopen_at()})",
            )
        self._txn_counter += 1
        txn_id = f"T{self._txn_counter}"
        program = SessionProgram(txn_id)
        self.admission.submit(program)
        admitted = self.admission.tick(self.scheduler, self.now)
        if txn_id not in admitted:
            # The FIFO queue is always drained on the spot: a service
            # rejects over-capacity arrivals instead of parking clients.
            self.admission._queue.clear()
            self.bus.publish(
                EventKind.SERVICE_REJECT,
                txn_id,
                code=protocol.TOO_MANY,
                reason="over-capacity",
            )
            self._advance()
            return error_reply(
                rid, "begin", protocol.TOO_MANY,
                f"admission rejected: {self.config.max_sessions} "
                f"transactions already in flight",
            )
        self._sessions[txn_id] = program
        self.enforcer.watch(txn_id, self.now, deadline_steps=deadline)
        self._advance()
        return ok_reply(rid, "begin", txn=txn_id)

    def _abort(self, rid: Any, txn_id: str) -> dict:
        txn = self.scheduler.transactions[txn_id]
        if txn.status is TxnStatus.COMMITTED:
            return error_reply(
                rid, "abort", protocol.CONFLICT,
                f"{txn_id} already committed",
            )
        if self.scheduler.lock_manager.in_shrinking_phase(txn_id):
            reason = f"{txn_id} already unlocked an entity; it can only commit"
            return error_reply(rid, "abort", protocol.CONFLICT, reason)
        if not txn.done:
            self.scheduler.shed(txn_id, reason=CLIENT_ABORT)
        self._advance()
        return ok_reply(rid, "abort", txn=txn_id, aborted=True)

    def _append_op(
        self, rid: Any, verb: str, session: SessionProgram, request: dict
    ) -> dict | None:
        txn_id = session.txn_id
        entity = request.get("entity")
        if verb in ("lock", "unlock", "read", "write"):
            if not isinstance(entity, str):
                return error_reply(
                    rid, verb, protocol.BAD_REQUEST, "missing 'entity'"
                )
            if entity not in self.database:
                return error_reply(
                    rid, verb, protocol.NOT_FOUND,
                    f"unknown entity {entity!r}",
                )
        if verb == "lock":
            mode = request.get("mode")
            mode = "X" if mode is None else mode
            if not isinstance(mode, str) or mode.upper() not in ("S", "X"):
                return error_reply(
                    rid, verb, protocol.BAD_REQUEST,
                    f"'mode' must be S or X, not {mode!r}",
                )
            op = (
                ops.lock_shared(entity)
                if mode.upper() == "S"
                else ops.lock_exclusive(entity)
            )
        elif verb == "unlock":
            op = ops.unlock(entity)
        elif verb == "read":
            op = ops.read(entity, into=f"__r{len(session.operations)}")
        else:  # write
            op = ops.write(entity, ops.const(request.get("value")))
        reason = session.append(op)
        if reason is not None:
            return error_reply(rid, verb, protocol.CONFLICT, reason)
        index = len(session.operations) - 1
        self._hold(rid, txn_id, verb, index, request.get("idem"))
        self._advance()
        return None

    def _status(self, rid: Any, request: dict) -> dict:
        self._advance()
        txn_id = request.get("txn")
        if txn_id:
            txn = self.scheduler.transactions.get(txn_id)
            if txn is None:
                return error_reply(
                    rid, "status", protocol.GONE,
                    f"unknown or terminated transaction {txn_id!r}",
                )
            return ok_reply(
                rid, "status",
                txn=txn_id,
                state=str(txn.status),
                pc=txn.pc,
                operations=len(txn.program.operations),
                locks=sorted(
                    self.scheduler.lock_manager.locks_held(txn_id)
                ),
                rollbacks=txn.rollback_count,
            )
        metrics = self.scheduler.metrics
        waits_for = self.scheduler.lock_manager.table.waits_for
        return ok_reply(
            rid, "status",
            now=self.now,
            sessions=len(self._sessions),
            draining=self.draining,
            commits=metrics.commits,
            rollbacks=metrics.rollbacks,
            shed=metrics.shed,
            deadlocks=metrics.deadlocks,
            breaker=str(self.breaker.state),
            graph_counters=waits_for.counters_snapshot(),
        )

    # -- progress ------------------------------------------------------------

    def _advance(self) -> None:
        """One logical instant: pump, fire due deadlines, and pump again
        if a rung rolled back or shed a transaction (otherwise every
        session is still at its fixpoint)."""
        self._pump()
        if self.enforcer.tick(self.scheduler, self.now):
            self._pump()

    def _can_move(self) -> bool:
        """Whether some session is steppable: READY with unexecuted
        operations (including re-execution after a rollback) or
        committing."""
        sessions = self._sessions
        transactions = self.scheduler.transactions
        for txn_id in self.scheduler.ready_index:
            session = sessions[txn_id]
            if (
                session.committing
                or transactions[txn_id].pc < len(session.operations)
            ):
                return True
        return False

    def _pump(self) -> None:
        """Step every session to its fixpoint, in admission order.

        Every request leaves every session at its fixpoint, so the
        pump sweeps only while some session can move.  Deadlock
        resolutions inside a step may rewind other sessions, so sweeps
        follow until nothing can move.  A session rewound to or below a
        read it has answered is shed instead (see :data:`STALE_READ`).
        A read's value is recorded right after its step: a read never
        blocks, and a later step may commit the transaction and tear
        down its storage.
        """
        budget = PUMP_BUDGET
        while self._can_move():
            budget = self._sweep(budget)

    def _sweep(self, budget: int) -> int:
        """Step each session, in admission order, as far as it can go;
        return what is left of the step *budget*."""
        scheduler = self.scheduler
        transactions = scheduler.transactions
        sessions = self._sessions
        for txn_id, session in list(sessions.items()):
            txn = transactions[txn_id]
            answered = self._answered_read.get(txn_id, -1)
            while txn.status is TxnStatus.READY and (
                txn.pc < len(session.operations) or session.committing
            ):
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
                    raise SimulationError(
                        "service pump exceeded its step budget: "
                        "suspected livelock"
                    )
        return budget

    def _hold(
        self,
        rid: Any,
        txn_id: str,
        verb: str,
        op_index: int | None,
        idem: Any,
    ) -> None:
        """Hold the request being handled for :meth:`_settle`.

        A request that reuses the ``rid`` of one still parked takes that
        one's place in the queue at once, and the older request is never
        answered.
        """
        current = _Parked(
            rid=rid,
            txn_id=txn_id,
            verb=verb,
            op_index=op_index,
            idem=str(idem) if idem is not None else None,
        )
        if rid in self._parked:
            self._park(current)
        else:
            self._current = current

    def _park(self, parked: _Parked) -> None:
        self._parked[parked.rid] = parked
        if parked.idem is not None:
            self._idem_in_flight[parked.idem] = parked.rid

    def _settle(self) -> list[tuple[Any, dict]]:
        """Answer what this request made answerable, oldest first.

        Every parked request the current state satisfies comes first, in
        arrival order; then the current request, answered in place when
        its operation ran (or its session ended) and parked otherwise.
        """
        completions: list[tuple[Any, dict]] = []
        for rid, parked in list(self._parked.items()):
            reply = self._resolve(parked)
            if reply is not None:
                del self._parked[rid]
                if parked.idem is not None:
                    self._idem_in_flight.pop(parked.idem, None)
                self._complete(parked, reply, completions)
        current = self._current
        if current is not None:
            self._current = None
            reply = self._resolve(current)
            if reply is None:
                self._park(current)
            else:
                self._complete(current, reply, completions)
        return completions

    def _complete(
        self,
        parked: _Parked,
        reply: dict,
        completions: list[tuple[Any, dict]],
    ) -> None:
        self._finalize(reply, parked.idem)
        completions.append((parked.rid, reply))
        for alias in parked.aliases:
            aliased = dict(reply)
            aliased["rid"] = alias
            completions.append((alias, aliased))

    def _resolve(self, parked: _Parked) -> dict | None:
        txn = self.scheduler.transactions.get(parked.txn_id)
        session = self._sessions.get(parked.txn_id)
        if txn is None or session is None:  # pragma: no cover - reap order
            return error_reply(
                parked.rid, parked.verb, protocol.GONE, "transaction gone"
            )
        if parked.verb == "commit":
            if txn.status is TxnStatus.COMMITTED:
                return ok_reply(
                    parked.rid, "commit", txn=parked.txn_id, committed=True
                )
            if txn.status is TxnStatus.SHED:
                return self._shed_reply(parked)
            return None
        # Operation-carrying verbs complete when execution passes them.
        assert parked.op_index is not None
        if txn.status is TxnStatus.SHED:
            return self._shed_reply(parked)
        if txn.pc > parked.op_index:
            extra: dict[str, Any] = {"txn": parked.txn_id}
            if parked.verb == "read":
                extra["value"] = session.results.get(parked.op_index)
                self._answered_read[parked.txn_id] = parked.op_index
            return ok_reply(parked.rid, parked.verb, **extra)
        return None

    def _shed_reply(self, parked: _Parked) -> dict:
        reason = self._shed_reason.get(parked.txn_id, DEADLINE_EXCEEDED)
        if reason == CLIENT_ABORT:
            return error_reply(
                parked.rid, parked.verb, protocol.GONE,
                f"{parked.txn_id} aborted",
            )
        return error_reply(
            parked.rid, parked.verb, protocol.UNAVAILABLE,
            f"{parked.txn_id} shed ({reason}): retry with a new transaction",
        )

    def _finalize(self, reply: dict, idem: Any) -> None:
        """Journal a reply and (for definitive outcomes) cache it."""
        if self.bus.wants(EventKind.SERVICE_REPLY):
            self.bus.publish(
                EventKind.SERVICE_REPLY,
                str(reply.get("txn", "")),
                **{
                    k: v
                    for k, v in reply.items()
                    if k != "txn" and v is not None
                },
            )
        if idem is None or reply.get("code") in protocol.RETRYABLE:
            # Retryable rejections are never deduplicated: the whole
            # point of the retry is that the next attempt may succeed.
            return
        cached = dict(reply)
        cached.pop("rid", None)
        self._dedup[str(idem)] = cached
        while len(self._dedup) > DEDUP_WINDOW:
            self._dedup.popitem(last=False)

    def _reap(self) -> None:
        """Drop every per-transaction record of settled, terminal sessions.

        The service-lifetime boundedness contract: with the waits-for
        graph keyed by live arcs only (see ``graphs/concurrency.py``)
        and this reap, memory tracks concurrent load, not
        requests-ever-served.
        """
        if self.scheduler.live_count == len(self._sessions):
            return  # no session has terminated
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
            self.enforcer.forget(txn_id)
            self._shed_reason.pop(txn_id, None)
            self._answered_read.pop(txn_id, None)
            self.telemetry.forget(txn_id)

    # -- drain ---------------------------------------------------------------

    def start_drain(self) -> None:
        """Stop admitting; in-flight sessions run to their own end."""
        if not self.draining:
            self.draining = True
            self.bus.publish(
                EventKind.SERVICE_DRAIN, sessions=len(self._sessions)
            )

    @property
    def idle(self) -> bool:
        """No live sessions and no parked replies."""
        return not self._sessions and not self._parked

    # -- introspection -------------------------------------------------------

    @property
    def txn_counter(self) -> int:
        return self._txn_counter

    def dedup_snapshot(self) -> dict[str, dict]:
        """The current dedup window (tests and recovery seeding)."""
        return dict(self._dedup)
