"""The bundled client: timeouts, backoff with jitter, idempotent retries.

A :class:`ServiceClient` wraps one TCP connection with the retry
discipline a lock service demands:

* **per-request timeouts** — a reply that does not arrive in time is
  treated as lost; the connection is torn down (replies on a shared
  stream cannot be re-associated after a desync) and the request
  retried on a fresh one;
* **exponential backoff with decorrelated jitter** — sleep is drawn
  from ``uniform(base, prev * 3)`` capped at ``cap``, the classic
  decorrelated-jitter rule that decorrelates retry storms;
* **a bounded retry budget** — mirroring the server's own escalation
  ladder (partial rollback → restart → shed), the client escalates
  timeout → reconnect-and-retry → give up; when the budget is spent,
  :class:`RetryBudgetExhausted` carries the attempt history;
* **automatic idempotency keys** — every mutating request carries a
  unique ``idem`` key, so at-least-once delivery (retries, duplicating
  proxies) has exactly-once effect on the lock table.

Structured rejections (429, 503) are retried with backoff — that is
their contract: the server said "back off", not "fail".  Definitive
errors (400/404/409/410) raise :class:`~repro.service.protocol.ServiceError`
immediately.

The client is deliberately synchronous (blocking sockets): test
harnesses drive many of them from threads, which is exactly the
uncoordinated concurrency the service must survive.
"""

from __future__ import annotations

import json
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any

from . import protocol
from .protocol import ServiceError


class RetryBudgetExhausted(ServiceError):
    """The bounded retry ladder ran out before a definitive reply."""

    def __init__(self, message: str, attempts: list[str]) -> None:
        super().__init__(protocol.UNAVAILABLE, message)
        self.attempts = attempts


@dataclass
class RetryPolicy:
    """Knobs of the retry ladder (seconds of wall clock)."""

    request_timeout: float = 2.0
    max_attempts: int = 8
    backoff_base: float = 0.02
    backoff_cap: float = 1.0
    #: Total sleep budget across one request's retries.
    sleep_budget: float = 10.0

    def next_backoff(self, rng: random.Random, previous: float) -> float:
        """Decorrelated jitter: ``min(cap, uniform(base, prev * 3))``."""
        return min(
            self.backoff_cap,
            rng.uniform(self.backoff_base, max(previous, self.backoff_base) * 3),
        )


@dataclass
class ClientStats:
    """What the retry machinery actually did (oracle input for tests)."""

    requests: int = 0
    retries: int = 0
    reconnects: int = 0
    backoff_slept: float = 0.0
    rejected_429: int = 0
    rejected_503: int = 0
    replies: int = 0
    latencies: list[float] = field(default_factory=list)


class ServiceClient:
    """A blocking client for the newline-JSON lock protocol.

    Parameters
    ----------
    host, port:
        The server (or fault proxy) endpoint.
    name:
        Client name, the idempotency-key namespace — unique per client.
    policy:
        The :class:`RetryPolicy`; defaults are test-friendly.
    seed:
        Seeds the jitter RNG so a test's retry schedule is reproducible.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: str = "client",
        policy: RetryPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        self.policy = policy or RetryPolicy()
        self.stats = ClientStats()
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        self._reader = None
        self._rid_counter = 0

    # -- connection management ----------------------------------------------

    def _connect(self) -> None:
        self.close()
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.policy.request_timeout
        )
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - teardown race
                pass
            self._sock = None
            self._reader = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the retry ladder ----------------------------------------------------

    def request(self, verb: str, idem: bool = True, **fields: Any) -> dict:
        """Send one request, retrying until a definitive reply or the
        budget runs out.  Mutating verbs carry an idempotency key so the
        retries are exactly-once."""
        self._rid_counter += 1
        base_rid = f"{self.name}.{self._rid_counter}"
        obj: dict[str, Any] = {"verb": verb}
        obj.update({k: v for k, v in fields.items() if v is not None})
        if idem:
            obj["idem"] = base_rid
        attempts: list[str] = []
        slept = 0.0
        backoff = 0.0
        self.stats.requests += 1
        for attempt in range(self.policy.max_attempts):
            obj["rid"] = f"{base_rid}.{attempt}"
            started = time.monotonic()
            try:
                reply = self._exchange(obj)
            except (OSError, ValueError, EOFError) as exc:
                attempts.append(f"{type(exc).__name__}: {exc}")
                self.stats.retries += 1
                self.close()
            else:
                self.stats.replies += 1
                self.stats.latencies.append(time.monotonic() - started)
                code = reply.get("code")
                if code not in protocol.RETRYABLE:
                    if not reply.get("ok"):
                        raise ServiceError(
                            code if isinstance(code, int) else 500,
                            str(reply.get("error", "request failed")),
                        )
                    return reply
                if code == protocol.TOO_MANY:
                    self.stats.rejected_429 += 1
                else:
                    self.stats.rejected_503 += 1
                attempts.append(f"rejected {code}: {reply.get('error')}")
                self.stats.retries += 1
            backoff = self.policy.next_backoff(self._rng, backoff)
            if slept + backoff > self.policy.sleep_budget:
                break
            slept += backoff
            self.stats.backoff_slept += backoff
            time.sleep(backoff)
        raise RetryBudgetExhausted(
            f"{verb} gave up after {len(attempts)} attempts "
            f"({slept:.2f}s backoff)",
            attempts,
        )

    def _exchange(self, obj: dict) -> dict:
        """One attempt: send the frame, read the matching reply line.

        Replies to *other* rids on the same stream (late answers to a
        timed-out earlier attempt) are discarded — the rid match is what
        keeps a retried stream coherent.
        """
        if self._sock is None:
            self._connect()
            self.stats.reconnects += 1
        assert self._sock is not None and self._reader is not None
        # The timeout set at connect bounds each read; it is cut to what
        # is left of this attempt only while stale replies are skipped.
        if self._sock.gettimeout() != self.policy.request_timeout:
            self._sock.settimeout(self.policy.request_timeout)
        self._sock.sendall(protocol.encode(obj))
        deadline = time.monotonic() + self.policy.request_timeout
        while True:
            line = self._reader.readline()
            if not line:
                raise EOFError("server closed the connection")
            reply = json.loads(line)
            if reply.get("rid") == obj["rid"]:
                return reply
            # Stale reply from a previous attempt: drop and keep reading.
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("request timed out")
            self._sock.settimeout(remaining)

    # -- protocol sugar -------------------------------------------------------

    def begin(self, deadline: int | None = None) -> str:
        reply = self.request("begin", deadline=deadline)
        return str(reply["txn"])

    def lock(self, txn: str, entity: str, mode: str = "X") -> dict:
        return self.request("lock", txn=txn, entity=entity, mode=mode)

    def unlock(self, txn: str, entity: str) -> dict:
        return self.request("unlock", txn=txn, entity=entity)

    def read(self, txn: str, entity: str) -> Any:
        return self.request("read", txn=txn, entity=entity).get("value")

    def write(self, txn: str, entity: str, value: Any) -> dict:
        return self.request("write", txn=txn, entity=entity, value=value)

    def commit(self, txn: str) -> dict:
        return self.request("commit", txn=txn)

    def abort(self, txn: str) -> dict:
        return self.request("abort", txn=txn)

    def status(self, txn: str | None = None) -> dict:
        return self.request("status", idem=False, txn=txn)

    def metrics(self) -> dict:
        """The server's live streaming-telemetry snapshot."""
        return self.request("metrics", idem=False)
