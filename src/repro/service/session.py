"""Interactive sessions as append-only transaction programs.

The scheduler executes :class:`~repro.core.transaction.TransactionProgram`
objects, whose re-executability is what makes the paper's partial
rollback sound: after a rollback the retained prefix is simply run
again.  A network session builds its program *one request at a time* —
:class:`SessionProgram` is the bridge: an operation list that only ever
grows at the tail, with every append judged by the same
:class:`~repro.core.transaction.ProgramRules` a declarative program is
checked against at construction.

Append-time validation is the crash-consistency trick: because each
appended operation is legal *as a static program*, re-execution after a
rollback can never raise mid-:meth:`~repro.core.scheduler.Scheduler.step`
— an invalid request is rejected at the protocol layer (409) before it
ever reaches the scheduler.

A session commits by setting :attr:`committing`; the pump then steps the
transaction past its final operation, which is exactly the scheduler's
commit condition (``current_operation() is None``).  Until then the pump
must *not* step a transaction sitting at its frontier.
"""

from __future__ import annotations

from typing import Any

from ..core.operations import Operation
from ..core.transaction import ProgramRules, TransactionProgram


class SessionProgram(TransactionProgram):
    """A transaction program grown request by request.

    The operation list is append-only: rollback re-execution replays the
    same prefix (the paper's model), and new requests extend the tail.
    ``results[pc]`` records the value each read delivered, so the service
    can answer the client.
    """

    def __init__(self, txn_id: str) -> None:
        super().__init__(txn_id, [])
        self.committing = False
        self.results: dict[int, Any] = {}
        self._rules = ProgramRules()

    def append(self, op: Operation) -> str | None:
        """Append *op*, or return why the session may not issue it."""
        if self.committing:
            return "transaction is committing"
        reason = self._rules.admit(op)
        if reason is None:
            self.operations.append(op)
        return reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SessionProgram({self.txn_id!r}, {len(self.operations)} ops, "
            f"committing={self.committing})"
        )
