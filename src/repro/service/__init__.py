"""The network-facing lock service.

Lifts the paper's partial-rollback :class:`~repro.core.scheduler.Scheduler`
behind a newline-JSON-over-TCP server so *concurrent clients* — not the
simulator's scripted interleavings — drive deadlock removal.  The package
splits along a strict determinism boundary:

* :mod:`~repro.service.core` — :class:`ServiceCore`, the synchronous,
  deterministic heart: every wire request is journaled through the event
  bus and applied to the scheduler in arrival order.  No sockets, no
  clocks, no randomness; the live server and replay verification share
  this exact code.
* :mod:`~repro.service.server` — the asyncio shell: TCP framing, parked
  futures for blocked lock requests, graceful drain on SIGTERM, crash
  recovery from the journal on restart.
* :mod:`~repro.service.client` — the bundled client with per-request
  timeouts, exponential backoff with decorrelated jitter, a bounded
  retry budget, and automatic idempotency keys.
* :mod:`~repro.service.proxy` — a fault-injection TCP proxy driven by a
  :class:`~repro.resilience.faults.FaultPlan` (drop / duplicate / delay /
  sever, all from one seed).
* :mod:`~repro.service.replay` — the differential oracle: re-simulate a
  recorded journal through a fresh :class:`ServiceCore` and assert
  identical replies, victims, rollback depths, and commit sets.

See ``docs/SERVICE.md`` for the protocol and the robustness contracts.
"""

from .client import RetryBudgetExhausted, RetryPolicy, ServiceClient
from .core import ServiceConfig, ServiceCore
from .protocol import ServiceError, error_reply, ok_reply
from .proxy import FaultProxy
from .replay import ReplayDivergence, verify_journal
from .server import LockServer, build_core, serve
from .session import SessionProgram

__all__ = [
    "FaultProxy",
    "LockServer",
    "ReplayDivergence",
    "RetryBudgetExhausted",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceCore",
    "ServiceError",
    "SessionProgram",
    "build_core",
    "error_reply",
    "ok_reply",
    "serve",
    "verify_journal",
]
