"""The wire protocol: newline-delimited JSON requests and replies.

One request per line, one reply per request (possibly deferred — a lock
that must wait replies when it is granted).  Requests carry a client
chosen ``rid`` echoed verbatim in the reply so a pipelined client can
match replies to requests; an optional ``idem`` key makes the request
idempotent (see ``docs/SERVICE.md``).

Status codes follow HTTP where a familiar code exists:

====  =========================================================
 200  success
 400  malformed request (unknown verb, missing field, bad JSON)
 404  unknown entity
 409  protocol violation (two-phase rule, lock not held, ...)
 410  transaction gone (committed, shed, or lost in a crash)
 429  admission rejected — over capacity, retry with backoff
 500  internal error
 503  unavailable — breaker open, draining, or deadline shed
====  =========================================================

429 and 503 are the *structured* overload surface the issue demands:
an overloaded server says so immediately instead of letting clients
time out.
"""

from __future__ import annotations

import json
from typing import Any

from ..observability.export import canonical_json

#: Verbs a client may send (a set: every request tests membership).
#: ``tick`` is internal: the server's idle ticker journals logical-time
#: advancement so replay sees it too.
VERBS = frozenset({
    "begin",
    "lock",
    "unlock",
    "read",
    "write",
    "commit",
    "abort",
    "status",
    "metrics",
    "tick",
})

OK = 200
BAD_REQUEST = 400
NOT_FOUND = 404
CONFLICT = 409
GONE = 410
TOO_MANY = 429
INTERNAL = 500
UNAVAILABLE = 503

#: Codes a client may retry (with backoff) without changing the request.
RETRYABLE = (TOO_MANY, UNAVAILABLE)


class ServiceError(Exception):
    """A structured, non-retryable-by-default service failure.

    Raised by the client library when the server answers with an error
    code the retry policy does not cover.
    """

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


def ok_reply(rid: Any, verb: str, **data: Any) -> dict:
    """A success reply (``data`` lands flat in the reply object)."""
    reply = {"rid": rid, "ok": True, "code": OK, "verb": verb}
    reply.update(data)
    return reply


def error_reply(rid: Any, verb: str, code: int, error: str) -> dict:
    """A failure reply carrying a structured code and a message."""
    return {
        "rid": rid,
        "ok": False,
        "code": code,
        "verb": verb,
        "error": error,
    }


def encode(obj: dict) -> bytes:
    """One wire frame: compact JSON, sorted keys, newline terminated."""
    return (canonical_json(obj) + "\n").encode()


def decode(line: bytes | str) -> dict:
    """Parse one frame; raises ``ValueError`` on garbage."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("frame is not a JSON object")
    return obj
