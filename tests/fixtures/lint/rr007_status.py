"""Fixture: RR007 direct-status-assignment violations (parsed, never imported)."""

import enum

from repro.core import transaction


class TxnStatus(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    SHED = "shed"


class Reply:
    status = 200


def sleep(txn) -> None:
    txn.status = TxnStatus.BLOCKED  # violation: bypasses the scheduler


def silent_shed(scheduler) -> None:
    scheduler.transactions["T1"].status = transaction.TxnStatus.SHED  # violation: module path


def wake(txn, ready: bool) -> None:
    txn.status = TxnStatus.READY if ready else txn.status  # violation: inside an expression


def sanctioned(scheduler, txn) -> None:
    scheduler._set_status(txn, TxnStatus.READY)  # ok: the single writer


def comparing(txn) -> bool:
    return txn.status is TxnStatus.BLOCKED  # ok: reads are unrestricted


def other_status(reply: Reply) -> None:
    reply.status = 503  # ok: not a transaction status


def local_name() -> TxnStatus:
    status = TxnStatus.READY  # ok: a local variable, not an attribute
    return status
