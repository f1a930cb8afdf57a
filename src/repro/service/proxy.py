"""A fault-injecting TCP proxy for the lock service.

The proxy sits between clients and the server and perturbs the
*request* stream — the direction whose loss the retry ladder must
survive — using the existing chaos vocabulary
(:class:`~repro.resilience.faults.FaultPlan`): the whole schedule
derives from one seed, so a storm test names its weather as
``(workload, proxy seed)`` and is exactly re-runnable.

The counting domain is the global request-line index across every
connection the proxy has carried (mirroring the injector's run-global
send index):

* ``MESSAGE_DROP`` — the request line is swallowed; the client times
  out and retries (its idempotency key makes the retry safe);
* ``MESSAGE_DUPLICATE`` — the line is forwarded twice; the server's
  dedup window must make the second copy a no-op;
* ``MESSAGE_DELAY`` — the line is held for a beat before forwarding,
  long enough to race the client's timeout;
* ``CRASH`` — the *connection* is severed at that index; the client
  must reconnect and re-drive its in-flight request.

Replies stream back untouched: a lost reply is indistinguishable from a
lost request to the client, so request-side faults already cover the
whole at-least-once surface.
"""

from __future__ import annotations

import asyncio

from ..distributed.network import DeliveryAction
from ..resilience.faults import FaultKind, FaultPlan


class FaultProxy:
    """One listening proxy applying a :class:`FaultPlan` to request lines."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: FaultPlan,
        delay: float = 0.2,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan
        self.delay = delay
        self.port: int | None = None
        self.lines_seen = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.severed = 0
        self._server: asyncio.base_events.Server | None = None
        self._actions: dict[int, DeliveryAction] = {}
        for event in plan.of_kind(FaultKind.MESSAGE_DROP):
            self._actions[event.at] = DeliveryAction.DROP
        for event in plan.of_kind(FaultKind.MESSAGE_DUPLICATE):
            self._actions[event.at] = DeliveryAction.DUPLICATE
        for event in plan.of_kind(FaultKind.MESSAGE_DELAY):
            self._actions[event.at] = DeliveryAction.DELAY
        self._sever_at = {e.at for e in plan.of_kind(FaultKind.CRASH)}

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> int:
        self._server = await asyncio.start_server(
            self._serve_connection, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _serve_connection(
        self,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
    ) -> None:
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            client_writer.close()
            return
        done = asyncio.Event()

        async def pump_requests() -> None:
            try:
                while True:
                    line = await client_reader.readline()
                    if not line:
                        break
                    index = self.lines_seen
                    self.lines_seen += 1
                    if index in self._sever_at:
                        self.severed += 1
                        break  # sever: both directions die below
                    action = self._actions.get(
                        index, DeliveryAction.DELIVER
                    )
                    if action is DeliveryAction.DROP:
                        self.dropped += 1
                        continue
                    if action is DeliveryAction.DELAY:
                        self.delayed += 1
                        await asyncio.sleep(self.delay)
                    upstream_writer.write(line)
                    if action is DeliveryAction.DUPLICATE:
                        self.duplicated += 1
                        upstream_writer.write(line)
                    await upstream_writer.drain()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                done.set()

        async def pump_replies() -> None:
            try:
                while True:
                    line = await upstream_reader.readline()
                    if not line:
                        break
                    client_writer.write(line)
                    await client_writer.drain()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
            finally:
                done.set()

        requests = asyncio.get_running_loop().create_task(pump_requests())
        replies = asyncio.get_running_loop().create_task(pump_replies())
        await done.wait()
        for task in (requests, replies):
            task.cancel()
        for writer in (client_writer, upstream_writer):
            writer.close()

    def counters(self) -> dict[str, int]:
        return {
            "lines": self.lines_seen,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "severed": self.severed,
        }
