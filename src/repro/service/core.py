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
* breaker — a :class:`~repro.admission.breaker.CircuitBreaker` fed by
  commit/shed outcomes; while open, ``begin`` answers **503**.
* idempotency — requests carrying an ``idem`` key are deduplicated
  through a bounded window: retries of a completed request return the
  recorded reply without touching the lock table; retries of one still
  in flight attach to it.
* reaping — terminated sessions are dropped from every per-transaction
  map after each request, and the waits-for graph holds entries only
  for live arcs, keeping a forever-running service bounded by
  *concurrent* load.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any

from ..admission.breaker import CircuitBreaker
from ..admission.controller import AdmissionController
from ..admission.deadlines import DeadlineEnforcer
from ..admission.policies import FixedMplPolicy
from ..core.metrics import DEADLINE_EXCEEDED
from ..core.scheduler import Scheduler
from ..core.transaction import TxnStatus
from ..errors import ReproError, SimulationError
from ..locking.modes import LockMode
from ..observability.events import Event, EventBus, EventKind
from ..observability.streaming import StreamingAggregator
from ..observability.tracing import TraceContext, Tracer
from ..resilience.wal import WriteAheadLog
from ..storage.database import Database
from . import protocol
from .protocol import error_reply, ok_reply
from .session import SessionProgram

#: Shed reason recorded for client-initiated aborts.
CLIENT_ABORT = "client-abort"


@dataclass
class ServiceConfig:
    """Tunables of one service instance (all logical-time units)."""

    max_sessions: int = 8
    deadline_steps: int = 60
    dedup_window: int = 1024
    pump_budget: int = 100_000
    breaker_threshold: int = 5
    breaker_window: int = 200
    breaker_cooldown: int = 50
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
    "trace",
)


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
            failure_threshold=self.config.breaker_threshold,
            window=self.config.breaker_window,
            cooldown=self.config.breaker_cooldown,
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
        #: Causal tracing: merges client-carried trace contexts into a
        #: process Lamport clock and stamps reply echoes.
        self.tracer = Tracer(site=0)
        self._pending_trace: TraceContext | None = None
        self.bus.subscribe(self._observe)
        #: Bounded-memory telemetry folded from this core's own event
        #: stream — the ``metrics`` verb reads it live.  Subscribed
        #: before the boot marker so live and replay fold identical
        #: streams from the first event.
        self.telemetry = StreamingAggregator(bus=self.bus)
        # The boot marker: everything replay needs to reconstruct this
        # core — initial state, config, and (after a crash) the recovery
        # seeds.  Replay splits the journal into segments at these.
        if self.bus.wants(EventKind.SERVICE_RECOVER):
            self.bus.publish(
                EventKind.SERVICE_RECOVER,
                recovered=recovered_committed is not None,
                committed=sorted(recovered_committed or ()),
                txn_counter=txn_counter_start,
                state=self.database.snapshot(),
                config=asdict(self.config),
                dedup=dict(self._dedup),
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
        """Process one wire request (see class docstring)."""
        rid = request.get("rid")
        verb = request.get("verb")
        if rid is None or not isinstance(verb, str):
            return (
                error_reply(
                    rid, verb or "", protocol.BAD_REQUEST,
                    "request needs 'rid' and 'verb'",
                ),
                [],
            )
        if verb not in protocol.VERBS:
            return (
                error_reply(
                    rid, verb, protocol.BAD_REQUEST, f"unknown verb {verb!r}"
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
        # Merge the client's causal context; ``begin`` has no txn yet,
        # so the context is parked for `_begin` to bind to the fresh id.
        # Only live sessions are registered — anything else would let
        # requests naming terminated transactions regrow a map `_reap`
        # never revisits.
        txn_field = str(request.get("txn", ""))
        self._pending_trace = self.tracer.observe(
            request.get("trace"),
            txn_field if txn_field in self._sessions else "",
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
        if verb == "trace_status":
            self._advance()
            return ok_reply(
                rid, verb,
                **self.tracer.status(str(request.get("txn") or "")),
            )
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
            self._park(rid, txn_id, verb, None, request.get("idem"))
            self._advance()
            return None
        return self._append_op(rid, verb, session, request)

    def _begin(self, rid: Any, request: dict) -> dict | None:
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
        if self._pending_trace is not None:
            self.tracer.by_txn[txn_id] = self._pending_trace
        deadline = request.get("deadline")
        self.enforcer.watch(
            txn_id, self.now,
            deadline_steps=int(deadline) if deadline is not None else None,
        )
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
            mode = (
                LockMode.SHARED
                if str(request.get("mode", "X")).upper() == "S"
                else LockMode.EXCLUSIVE
            )
            reason = session.validate_lock(entity, mode)
            if reason is not None:
                return error_reply(rid, verb, protocol.CONFLICT, reason)
            index = session.append_lock(entity, mode)
        elif verb == "unlock":
            reason = session.validate_unlock(entity)
            if reason is not None:
                return error_reply(rid, verb, protocol.CONFLICT, reason)
            index = session.append_unlock(entity)
        elif verb == "read":
            reason = session.validate_read(entity)
            if reason is not None:
                return error_reply(rid, verb, protocol.CONFLICT, reason)
            index = session.append_read(entity)
        else:  # write
            reason = session.validate_write(entity)
            if reason is not None:
                return error_reply(rid, verb, protocol.CONFLICT, reason)
            index = session.append_write(entity, request.get("value"))
        self._park(rid, txn_id, verb, index, request.get("idem"))
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
        """One logical instant: pump, fire deadlines, pump again."""
        self._pump()
        self.enforcer.tick(self.scheduler, self.now)
        self._pump()

    def _pump(self) -> None:
        """Step every session to its fixpoint, in admission order.

        A session is steppable while READY with unexecuted operations
        (including re-execution after a rollback) or while committing.
        Deadlock resolutions inside a step may rewind other sessions,
        so the sweep repeats until nothing moved.
        """
        budget = self.config.pump_budget
        scheduler = self.scheduler
        progressed = True
        while progressed:
            progressed = False
            for txn_id, session in list(self._sessions.items()):
                txn = scheduler.transactions.get(txn_id)
                if txn is None:
                    continue
                while (
                    not txn.done
                    and txn.status is TxnStatus.READY
                    and (
                        txn.pc < len(session.operations)
                        or session.committing
                    )
                ):
                    scheduler.step(txn_id)
                    progressed = True
                    budget -= 1
                    if budget <= 0:
                        raise SimulationError(
                            "service pump exceeded its step budget: "
                            "suspected livelock"
                        )

    def _park(
        self,
        rid: Any,
        txn_id: str,
        verb: str,
        op_index: int | None,
        idem: Any,
    ) -> None:
        parked = _Parked(
            rid=rid,
            txn_id=txn_id,
            verb=verb,
            op_index=op_index,
            idem=str(idem) if idem is not None else None,
        )
        self._parked[rid] = parked
        if parked.idem is not None:
            self._idem_in_flight[parked.idem] = rid

    def _settle(self) -> list[tuple[Any, dict]]:
        """Resolve every parked request the current state satisfies."""
        completions: list[tuple[Any, dict]] = []
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
        reply_txn = str(reply.get("txn", ""))
        if reply_txn in self.tracer.by_txn and "trace" not in reply:
            # Echo the transaction's causal context so the client can
            # merge the server's Lamport clock into its own.
            reply["trace"] = self.tracer.stamp(reply_txn)
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
        while len(self._dedup) > self.config.dedup_window:
            self._dedup.popitem(last=False)

    def _reap(self) -> None:
        """Drop every per-transaction record of settled, terminal sessions.

        The service-lifetime boundedness contract: with the waits-for
        graph keyed by live arcs only (see ``graphs/concurrency.py``)
        and this reap, memory tracks concurrent load, not
        requests-ever-served.
        """
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
            self.tracer.forget(txn_id)
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
