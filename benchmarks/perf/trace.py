"""Span recorder for the traced benchmark run.

Nothing under ``src/`` is instrumented.  A :class:`Tracer` replaces
public callables of objects the benchmark has already constructed (or
public module attributes) with timing wrappers, keeps a per-thread span
stack, and aggregates per span name in memory:

* ``calls``  — how often the entry point ran,
* ``total_s`` — wall time inside it,
* ``self_s`` — ``total_s`` minus the time covered by child spans, so the
  ``self_s`` of every span under one root add up to that root's
  ``total_s`` exactly.

The first :data:`RAW_LIMIT` raw spans (name, start, end, span id, parent
id, thread) are kept as well and written with the aggregate when the
benchmark ends.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: Raw spans kept per tracer; the aggregate always covers every span.
RAW_LIMIT = 2000

#: Every span name the benchmark can record, in report order.  A traced
#: run reports ``<name>.calls`` and ``<name>.self_s`` for each, zero
#: where the workload never reaches that layer.
SPAN_NAMES = (
    "engine.run",
    "interleaving.choose",
    "scheduler.runnable",
    "scheduler.step",
    "trace.record",
    "detection.check",
    "victim.select",
    "graphs.vertex_cut",
    "metrics.record",
    "strategy.rollback",
    "strategy.track",
    "locking.lock",
    "locking.release",
    "core.handle",
    "admission.tick",
    "deadlines.tick",
    "bus.publish",
    "telemetry.fold",
    "protocol.decode",
    "protocol.encode",
    "wal.append",
    "journal.write",
    "client.request",
    "dist.on_engine_step",
    "msglog.send",
    "view.replica_sites",
)


class _ThreadState:
    """One thread's open-span stack and per-name totals."""

    def __init__(self, label: str) -> None:
        self.label = label
        #: Open spans, innermost last: ``[span_id, child_seconds]``.
        self.stack: list[list[Any]] = []
        #: ``name -> [calls, total_s, self_s]``.
        self.totals: dict[str, list[float]] = {}
        #: Seconds inside this thread's outermost spans.
        self.root_s = 0.0
        self.next_id = 0


class Tracer:
    """Wraps callables with span recording; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._register = threading.Lock()
        self._undo: list[Callable[[], None]] = []
        self.raw: list[dict[str, Any]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._register:
                state = _ThreadState(f"t{len(self._threads)}")
                self._threads.append(state)
            self._local.state = state
        return state

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* wrapped so every call is recorded as a span *name*."""
        get_state = self._state
        raw = self.raw

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            stack = state.stack
            span_id = state.next_id
            state.next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                duration = ended - started
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    state.root_s += duration
                if len(raw) < RAW_LIMIT:
                    raw.append({
                        "name": name,
                        "start": started,
                        "end": ended,
                        "id": f"{state.label}.{span_id}",
                        "parent": (
                            f"{state.label}.{parent[0]}"
                            if parent is not None else None
                        ),
                    })

        return traced

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with its traced form until
        :meth:`restore` (instances are shadowed, modules patched)."""
        original = getattr(owner, attribute)
        had_own = attribute in vars(owner)
        setattr(owner, attribute, self.span(name, original))

        def undo() -> None:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

        self._undo.append(undo)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, most recent first."""
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls``/``total_s``/``self_s`` over all threads."""
        merged: dict[str, list[float]] = {}
        for state in self._threads:
            for name, (calls, total_s, self_s) in state.totals.items():
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += total_s
                into[2] += self_s
        return {
            name: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
            for name, v in merged.items()
        }

    def root_seconds(self, without: str) -> float:
        """Seconds inside outermost spans on the threads that never ran a
        span named *without* (for ``net.wait_s``: the server side of a
        run whose client threads are rooted at ``client.request``)."""
        return sum(
            state.root_s
            for state in self._threads
            if without not in state.totals
        )

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {**extra, "spans": self.totals(), "raw": self.raw}, indent=1
        ))


# -- attachment points --------------------------------------------------------
#
# One function per object graph.  Each wraps entry points of the layer
# boundaries ISSUE 12 maps to end-to-end metrics; the README table says
# which metric on which workload each span should move.


def attach_scheduler(tracer: Tracer, scheduler: Any) -> None:
    """Core layers every workload shares: step, detection, victim
    selection, the exact vertex cut, metrics, strategy, lock manager."""
    from repro.graphs import algorithms

    tracer.wrap(scheduler, "runnable", "scheduler.runnable")
    tracer.wrap(scheduler, "step", "scheduler.step")
    tracer.wrap(scheduler.detector, "check", "detection.check")
    tracer.wrap(scheduler.policy, "select", "victim.select")
    tracer.wrap(algorithms, "min_cost_vertex_cut", "graphs.vertex_cut")
    for method in ("record_rollback", "record_block", "record_deadlock_arcs"):
        tracer.wrap(scheduler.metrics, method, "metrics.record")
    tracer.wrap(scheduler.strategy, "rollback", "strategy.rollback")
    for method in ("on_lock_granted", "write_entity", "read_entity"):
        tracer.wrap(scheduler.strategy, method, "strategy.track")
    manager = scheduler.lock_manager
    tracer.wrap(manager, "lock", "locking.lock")
    for method in ("unlock", "release_for_rollback", "finish", "cancel_wait"):
        tracer.wrap(manager, method, "locking.release")


def attach_engine(tracer: Tracer, engine: Any, interleaving: Any) -> None:
    """The simulator loop around a scheduler (root span ``engine.run``)."""
    tracer.wrap(engine, "run", "engine.run")
    tracer.wrap(interleaving, "choose", "interleaving.choose")
    tracer.wrap(engine.trace, "record", "trace.record")
    attach_scheduler(tracer, engine.scheduler)


def attach_distributed(tracer: Tracer, scheduler: Any) -> None:
    """Replication/message accounting on top of :func:`attach_engine`."""
    tracer.wrap(scheduler, "on_engine_step", "dist.on_engine_step")
    tracer.wrap(scheduler.message_log, "send", "msglog.send")
    tracer.wrap(scheduler.view, "replica_sites", "view.replica_sites")


def attach_core(tracer: Tracer, core: Any, journal_sink: Any = None) -> None:
    """The service core: request handling, admission, deadlines, the
    live bus and its sinks, and the WAL when one is installed.

    Bus sinks are invoked through ``__call__``, which an instance
    attribute cannot shadow, so they are re-subscribed wrapped (after
    the core's own breaker observer; the sinks do not read each other).
    """
    tracer.wrap(core, "handle", "core.handle")
    tracer.wrap(core.admission, "tick", "admission.tick")
    tracer.wrap(core.enforcer, "tick", "deadlines.tick")
    tracer.wrap(core.bus, "publish", "bus.publish")
    sinks = [(core.telemetry, "telemetry.fold")]
    if journal_sink is not None:
        sinks.insert(0, (journal_sink, "journal.write"))
    for sink, name in sinks:
        core.bus.unsubscribe(sink)
        core.bus.subscribe(tracer.span(name, sink))
    if core.wal is not None:
        for method in ("log_grant", "log_install", "log_commit",
                       "log_rollback"):
            tracer.wrap(core.wal, method, "wal.append")
    attach_scheduler(tracer, core.scheduler)


def attach_wire(tracer: Tracer, clients: list[Any]) -> None:
    """The TCP path: codec (shared by server and clients through the
    ``protocol`` module) and each client's request (root span)."""
    from repro.service import protocol

    tracer.wrap(protocol, "decode", "protocol.decode")
    tracer.wrap(protocol, "encode", "protocol.encode")
    for client in clients:
        tracer.wrap(client, "request", "client.request")
