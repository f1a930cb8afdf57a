"""Deadlock *avoidance* by static lock ordering.

The paper's introduction cites protocols in which "all transactions access
entities in a common hierarchical order" (Silberschatz/Kedem [6, 9]) as a
way to get deadlock freedom *when a priori information is available*.  The
simplest common order is a global total order on entity names: if every
transaction acquires its locks in that order, the waits-for graph can
contain no cycle, so no deadlock — and no rollback machinery — is ever
needed.

:func:`static_order_variant` rewrites a program into this form: all lock
requests are hoisted to the front in global order (acquiring earlier is
always safe — every data access stays covered), data operations follow in
their original order, explicit unlocks run at the end.  The cost is
concurrency: locks are held for the whole transaction even when the
original program acquired them late.
"""

from __future__ import annotations

from ..core.operations import DeclareLastLock, Lock, Operation, Unlock
from ..core.transaction import TransactionProgram


def static_order_variant(
    program: TransactionProgram,
    order_key=None,
) -> TransactionProgram:
    """Rewrite *program* to acquire all locks first, in a global order.

    Parameters
    ----------
    program:
        Any validated transaction program.
    order_key:
        Key function defining the global entity order (default:
        lexicographic on entity name).  All transactions in a system must
        use the same key for the deadlock-freedom guarantee to hold.
    """
    order_key = order_key or (lambda name: name)
    locks = sorted(
        (op for op in program.operations if isinstance(op, Lock)),
        key=lambda op: order_key(op.entity_name),
    )
    unlocks = [op for op in program.operations if isinstance(op, Unlock)]
    data = [
        op
        for op in program.operations
        if not isinstance(op, (Lock, Unlock, DeclareLastLock))
    ]
    operations: list[Operation] = [*locks]
    if locks:
        operations.append(DeclareLastLock())
    operations.extend(data)
    operations.extend(unlocks)
    return TransactionProgram(
        program.txn_id, operations, program.initial_locals
    )


def follows_static_order(program: TransactionProgram, order_key=None) -> bool:
    """True iff the program's lock requests respect the global order."""
    order_key = order_key or (lambda name: name)
    keys = [
        order_key(op.entity_name)
        for _pos, op in program.lock_operations
    ]
    return keys == sorted(keys)
