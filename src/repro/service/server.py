"""The asyncio shell around :class:`~repro.service.core.ServiceCore`.

Everything stateful and decision-making lives in the core; this module
owns only what a network process must: TCP framing, routing deferred
replies back to the right connection, an idle ticker that advances
logical time while clients wait (journaled as ``tick`` requests so
replay sees the same instants), the reply boundary that makes replies
durable, graceful drain on SIGTERM, and crash recovery on startup.

The request journal is the service's one durable log.  Every event the
core publishes is a journal line, the write-ahead records included
(``wal.append``, carrying everything redo needs), so recovery reads one
file once:

* its committed ``install`` records rebuild the database — in-flight
  transactions discarded;
* its requests seed the idempotency window for *committed* transactions
  and restore the transaction-id counter, so a client retrying a
  ``commit`` whose ack was lost in the crash still gets its
  exactly-once success instead of a 410.

All request handling runs on the event loop's single thread, so the
synchronous core needs no locking: each connection's protocol splits the
bytes it receives into newline frames and answers them in arrival order.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
from pathlib import Path
from typing import Any, cast

from ..observability.events import Event, EventBus, EventKind
from ..observability.export import JsonlStreamSink, read_events_jsonl
from ..observability.streaming import render_prometheus
from ..resilience.wal import WriteAheadLog, record_from_event
from ..storage.database import Database
from . import protocol
from .core import ServiceConfig, ServiceCore

_TXN_ID = re.compile(r"^T(\d+)$")

#: The longest frame a connection may send (asyncio's stream limit); a
#: longer one is answered 400 and its connection closed.
MAX_FRAME = 2**16


def recovery_seeds(
    events: list[Event], committed: set[str]
) -> tuple[int, dict[str, dict]]:
    """Derive restart seeds from a journal: txn counter and commit dedup.

    The counter resumes above every id ever issued (ids are never
    reused across restarts).  The dedup window is re-seeded only with
    *committed* transactions' commit requests: a retried commit finds
    its ack; a retried ``begin`` gets a fresh transaction, because the
    in-flight one it named died with the crash.
    """
    highest = 0
    dedup: dict[str, dict] = {}
    for event in events:
        match = _TXN_ID.match(event.txn or "")
        if match:
            highest = max(highest, int(match.group(1)))
        if (
            event.kind is EventKind.SERVICE_REQUEST
            and event.data.get("verb") == "commit"
            and event.data.get("idem") is not None
            and event.txn in committed
        ):
            dedup[str(event.data["idem"])] = {
                "ok": True,
                "code": protocol.OK,
                "verb": "commit",
                "txn": event.txn,
                "committed": True,
                "recovered": True,
            }
    return highest, dedup


def build_core(
    entities: int,
    initial: int,
    config: ServiceConfig,
    ignored_wal_path: str | Path | None,
    journal_path: str | Path | None,
) -> tuple[ServiceCore, JsonlStreamSink | None]:
    """Construct a (possibly recovered) core plus its journal sink.

    Entity names follow the workload generator's ``e000`` convention.
    A core with a journal logs its write-ahead records in memory and
    publishes them into the journal; a core without one has no WAL.
    When the journal already holds records, this boot is a recovery:
    the database is rebuilt by redo of its ``wal.append`` events.
    Whenever the journal exists it seeds the transaction counter — a
    ``begin`` may have been answered before any record was logged — and
    the dedup window, with the commits those records show.

    *ignored_wal_path* is accepted and ignored: it was the path of a
    second, separate WAL file, and callers written for that signature
    still pass one.
    """
    initial_state = {f"e{i:03d}": initial for i in range(entities)}
    bus = EventBus()
    sink: JsonlStreamSink | None = None
    wal: WriteAheadLog | None = None
    recovered_committed: set[str] | None = None
    txn_counter = 0
    dedup_seed: dict[str, dict] = {}
    if journal_path is not None:
        events = (
            read_events_jsonl(journal_path)
            if Path(journal_path).exists()
            else []
        )
        history = WriteAheadLog(initial_state)
        history.records = [
            record_from_event(event)
            for event in events
            if event.kind is EventKind.WAL_APPEND
        ]
        if history.records:
            initial_state, recovered_committed = history.recover_state()
        txn_counter, dedup_seed = recovery_seeds(
            events, recovered_committed or set()
        )
        sink = JsonlStreamSink(journal_path, append=True, buffered=True)
        bus.subscribe(sink)
        wal = WriteAheadLog(initial_state)
    core = ServiceCore(
        Database(initial_state),
        config=config,
        wal=wal,
        bus=bus,
        recovered_committed=recovered_committed,
        txn_counter_start=txn_counter,
        dedup_seed=dedup_seed,
    )
    return core, sink


class LockServer:
    """One TCP lock service process.

    Parameters
    ----------
    core:
        The deterministic core (freshly built or recovered).
    sink:
        The journal sink, flushed at each reply and forced at each
        commit (may be ``None``).
    tick_interval:
        Wall-clock seconds between idle ticks while requests are
        parked; logical time must advance for deadlines to fire even
        when no client traffic arrives.
    drain_timeout:
        Seconds to wait for in-flight sessions after SIGTERM before
        shutting down anyway.
    """

    def __init__(
        self,
        core: ServiceCore,
        sink: JsonlStreamSink | None = None,
        tick_interval: float = 0.05,
        drain_timeout: float = 10.0,
    ) -> None:
        self.core = core
        self.sink = sink
        self.tick_interval = tick_interval
        self.drain_timeout = drain_timeout
        self.port: int | None = None
        self.metrics_port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._metrics_server: asyncio.base_events.Server | None = None
        self._waiters: dict[Any, asyncio.Transport] = {}
        self._stopping = asyncio.Event()
        self._tick_counter = 0
        self._ticker_task: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        """Bind and serve; returns the actual port (``0`` = ephemeral)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ticker_task = asyncio.get_running_loop().create_task(
            self._ticker()
        )
        return self.port

    async def start_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        """Bind the Prometheus exposition listener; returns its port.

        A second, read-only HTTP endpoint serving the core's streaming
        telemetry in Prometheus text format — scraping never touches
        the lock protocol, the journal, or logical time.
        """
        self._metrics_server = await asyncio.start_server(
            self._serve_metrics, host, port
        )
        self.metrics_port = (
            self._metrics_server.sockets[0].getsockname()[1]
        )
        return self.metrics_port

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT start a graceful drain."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.begin_drain)

    def begin_drain(self) -> None:
        """Stop admitting; finish or shed in-flight work, then stop."""
        self.core.start_drain()
        asyncio.get_running_loop().create_task(self._drain_then_stop())

    async def _drain_then_stop(self) -> None:
        deadline = (
            asyncio.get_running_loop().time() + self.drain_timeout
        )
        while (
            not self.core.idle
            and asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(self.tick_interval)
        self._stopping.set()

    async def wait_closed(self) -> None:
        """Block until drain (or a fatal error) stops the server."""
        await self._stopping.wait()
        if self._ticker_task is not None:
            self._ticker_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if self.sink is not None:
            self.sink.close()

    # -- the request path ------------------------------------------------------

    def _deliver(self, rid: Any, reply: dict) -> None:
        transport = self._waiters.pop(rid, None)
        if transport is None or transport.is_closing():
            return  # client gone; the decision is journaled regardless
        transport.write(protocol.encode(reply))

    def _handle(
        self, request: dict, transport: asyncio.Transport | None
    ) -> None:
        """Feed one request to the core and route every reply."""
        rid = request.get("rid")
        # Only a rid the core accepts (a string or an integer) can key a
        # waiter; the core answers any other rid 400 at once, and that
        # reply goes straight back on the connection that sent it.
        keyed = isinstance(rid, (str, int)) and not isinstance(rid, bool)
        if transport is not None and keyed:
            self._waiters[rid] = transport
        commits = self.core.scheduler.metrics.commits
        reply, completions = self.core.handle(request)
        # The reply boundary: the journal reaches the operating system
        # before anything leaves, and the disk when this request
        # committed something (force at COMMIT: one fsync per commit).
        # The journal then holds every WAL record, so the core's
        # in-memory copies can go.
        if self.sink is not None:
            self.sink.flush()
            if self.core.scheduler.metrics.commits != commits:
                os.fsync(self.sink.fileno())
            if self.core.wal is not None:
                self.core.wal.truncate()
        if reply is not None and keyed:
            self._deliver(rid, reply)
        elif reply is not None and transport is not None:
            transport.write(protocol.encode(reply))
        for done_rid, done_reply in completions:
            self._deliver(done_rid, done_reply)

    async def _serve_metrics(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One-shot HTTP/1.0-style exchange: request in, exposition out."""
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else "/"
            if path.split("?", 1)[0] in ("/metrics", "/"):
                body = render_prometheus(
                    self.core.telemetry.metrics_obj()
                ).encode("utf-8")
                status = "200 OK"
            else:
                body = b"not found\n"
                status = "404 Not Found"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    "Content-Type: text/plain; version=0.0.4; "
                    "charset=utf-8\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # scraper vanished mid-exchange
        finally:
            writer.close()

    async def _ticker(self) -> None:
        """Advance logical time while replies are parked.

        Each tick is journaled as an internal ``tick`` request, so the
        deadline ladder fires at replay-visible instants.
        """
        while not self._stopping.is_set():
            await asyncio.sleep(self.tick_interval)
            if not self.core._parked and not self.core.draining:
                continue
            self._tick_counter += 1
            self._handle(
                {"rid": f"__tick.{self._tick_counter}", "verb": "tick"},
                None,
            )


class _Connection(asyncio.Protocol):
    """One client connection: each newline frame is answered in the
    callback that completes it, and while the client leaves its replies
    unread (over the transport's high-water mark) its reads pause."""

    def __init__(self, server: LockServer) -> None:
        self._server = server
        self._partial = b""  # an incomplete frame's bytes so far

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        *frames, self._partial = (self._partial + data).split(b"\n")
        for frame in frames:
            if len(frame) > MAX_FRAME:
                break
            self._answer(frame)
        else:  # every frame answered: refuse only an over-long partial
            if len(self._partial) <= MAX_FRAME:
                return
        self._refuse(f"frame longer than {MAX_FRAME} bytes")
        self._transport.close()

    def eof_received(self) -> None:
        # A last frame without its newline is still a frame.
        if self._partial:
            self._answer(self._partial)
            self._partial = b""

    def _answer(self, frame: bytes) -> None:
        try:
            request = protocol.decode(frame)
        except ValueError:
            self._refuse("malformed frame")
        else:
            self._server._handle(request, self._transport)

    def _refuse(self, error: str) -> None:
        reply = protocol.error_reply(None, "", protocol.BAD_REQUEST, error)
        self._transport.write(protocol.encode(reply))

    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def connection_lost(self, exc: Exception | None) -> None:
        # Parked work continues server-side; only its replies are dropped.
        waiters = self._server._waiters
        for rid in [r for r, t in waiters.items() if t is self._transport]:
            del waiters[rid]


async def serve(
    host: str,
    port: int,
    entities: int,
    initial: int,
    config: ServiceConfig,
    journal_path: str | None,
    port_file: str | None = None,
    tick_interval: float = 0.05,
    drain_timeout: float = 10.0,
    metrics_port: int | None = None,
    metrics_port_file: str | None = None,
) -> int:
    """Run a lock server until drained (the ``repro serve`` body)."""
    core, sink = build_core(entities, initial, config, None, journal_path)
    server = LockServer(
        core,
        sink,
        tick_interval=tick_interval,
        drain_timeout=drain_timeout,
    )
    bound = await server.start(host, port)
    server.install_signal_handlers()
    if port_file:
        Path(port_file).write_text(f"{bound}\n")
    print(f"repro-serve listening on {host}:{bound}", flush=True)
    if metrics_port is not None:
        bound_metrics = await server.start_metrics(host, metrics_port)
        if metrics_port_file:
            Path(metrics_port_file).write_text(f"{bound_metrics}\n")
        print(
            f"repro-serve metrics on http://{host}:{bound_metrics}/metrics",
            flush=True,
        )
    await server.wait_closed()
    print("repro-serve drained and stopped", flush=True)
    return 0
