"""Transaction-structure analysis (§5 of the paper).

The efficiency of single-copy partial rollback depends on the *structure*
of the transactions: clustering the writes to each entity (few lock states
between successive writes) maximises well-defined states, and the
three-phase acquire/update/release discipline removes monitoring entirely.
This module provides:

* :func:`run_alone` — a program stepped alone through a rollback
  strategy's own hooks, the one run every static answer is read off;
* :func:`static_sdg` — the state-dependency graph a program would have at
  its final lock state;
* :func:`well_defined_count` / :func:`well_defined_states` — how many
  rollback targets the single-copy strategy would have;
* :func:`clustering_score` — a [0, 1] measure of write clustering;
* :func:`cluster_writes` — restructure a program by hoisting each write as
  early as its data dependencies allow (the §5 optimisation, "perhaps at
  the time of their compilation");
* :func:`three_phase_variant` — restructure into the
  acquisition/update/release form with a last-lock declaration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.operations import (
    Assign,
    BinOp,
    Const,
    DeclareLastLock,
    EntityRef,
    Expr,
    Lock,
    Operation,
    Read,
    Unlock,
    Var,
    Write,
)
from ..core.k_copy import KCopyStrategy
from ..core.single_copy import SingleCopyStrategy
from ..core.transaction import Transaction, TransactionProgram
from ..graphs.state_dependency import StateDependencyGraph


def _entity_key(name: str) -> str:
    return f"e:{name}"


def _local_key(name: str) -> str:
    return f"l:{name}"


def run_alone(
    program: TransactionProgram, strategy: KCopyStrategy | None = None
) -> tuple[KCopyStrategy, Transaction]:
    """Step *program* alone to its last lock state through *strategy*'s
    own hooks (single-copy by default), values erased.

    Every lock request is granted at once and every data operation is
    the write the scheduler would issue.  A last-lock declaration ends the
    run (monitoring stops; later writes leave no history) and unlocks are
    skipped, so every cell is still there to be asked.  What counts as a
    write is thereby the strategy's decision, not a second copy of it:
    the static analyses read their answers off the returned pair.
    """
    strategy = strategy or SingleCopyStrategy()
    txn = Transaction(program=program)
    strategy.begin(txn)
    for op in program.operations:
        if isinstance(op, Lock):
            record = txn.record_lock_request(op.entity_name, op.mode)
            record.granted = True
            strategy.on_lock_granted(
                txn, op.entity_name, op.mode, None, record.ordinal
            )
        elif isinstance(op, Write):
            strategy.write_entity(txn, op.entity_name, None)
        elif isinstance(op, Read):
            strategy.write_local(txn, op.into, None)
        elif isinstance(op, Assign):
            strategy.write_local(txn, op.var_name, None)
        elif isinstance(op, DeclareLastLock):
            break
    return strategy, txn


def static_sdg(program: TransactionProgram) -> StateDependencyGraph:
    """The state-dependency graph of *program* at its last lock state:
    the graph :class:`~repro.core.single_copy.SingleCopyStrategy` derives
    when the program runs alone."""
    strategy, txn = run_alone(program)
    return strategy.graph_of(txn)


def well_defined_states(program: TransactionProgram) -> list[int]:
    """Well-defined lock indices of the program at its final lock state."""
    strategy, txn = run_alone(program)
    return strategy.well_defined_states(txn)


def well_defined_count(program: TransactionProgram) -> int:
    """Number of well-defined lock states (higher = cheaper rollbacks)."""
    return len(well_defined_states(program))


@dataclass
class StructureReport:
    """Summary of a program's rollback-friendliness (§5 metrics)."""

    txn_id: str
    lock_count: int
    operation_count: int
    well_defined: int
    well_defined_fraction: float
    clustering: float
    three_phase: bool

    def __str__(self) -> str:
        return (
            f"{self.txn_id}: locks={self.lock_count} "
            f"ops={self.operation_count} "
            f"well-defined={self.well_defined}/{self.lock_count + 1} "
            f"clustering={self.clustering:.2f} "
            f"three-phase={'yes' if self.three_phase else 'no'}"
        )


def clustering_score(program: TransactionProgram) -> float:
    """How clustered the writes are, in [0, 1].

    For each written entity, the *spread* is the number of lock states
    between its first and last write (0 when all writes share a lock
    index).  The score is ``1 - mean(spread / max_possible_spread)``; a
    program whose writes all land immediately after their locks scores 1.
    Programs without writes or with a single lock score 1 (nothing to
    cluster).
    """
    lock_index = 0
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    total_locks = len(program.lock_operations)
    for op in program.operations:
        if isinstance(op, Lock):
            lock_index += 1
        elif isinstance(op, Write):
            first.setdefault(op.entity_name, lock_index)
            last[op.entity_name] = lock_index
    if not first or total_locks <= 1:
        return 1.0
    spreads = [
        (last[name] - first[name]) / (total_locks - 1) for name in first
    ]
    return 1.0 - sum(spreads) / len(spreads)


def is_three_phase(program: TransactionProgram) -> bool:
    """True iff the program is acquire-then-update-then-release with all
    writes after the last lock request."""
    seen_nonlock_after_lock = False
    seen_unlock = False
    for op in program.operations:
        if isinstance(op, Lock):
            if seen_nonlock_after_lock or seen_unlock:
                return False
        elif isinstance(op, (Write, Read, Assign, DeclareLastLock)):
            seen_nonlock_after_lock = True
            if seen_unlock and not isinstance(op, DeclareLastLock):
                return False
        elif isinstance(op, Unlock):
            seen_unlock = True
    return True


def structure_report(program: TransactionProgram) -> StructureReport:
    """Compute the full §5 report for one program."""
    lock_count = len(program.lock_operations)
    count = well_defined_count(program)
    return StructureReport(
        txn_id=program.txn_id,
        lock_count=lock_count,
        operation_count=len(program.operations),
        well_defined=count,
        well_defined_fraction=count / (lock_count + 1) if lock_count else 1.0,
        clustering=clustering_score(program),
        three_phase=is_three_phase(program),
    )


# ---------------------------------------------------------------------------
# Restructuring transforms
# ---------------------------------------------------------------------------


def _expr_dependencies(expr) -> tuple[set[str], set[str], bool]:
    """(locals read, entities read, analysable) for an expression tree.

    Bare callables are opaque: they may read anything, so they pin the
    operation in place (``analysable=False``).
    """
    if isinstance(expr, Const):
        return set(), set(), True
    if isinstance(expr, Var):
        return {expr.name}, set(), True
    if isinstance(expr, EntityRef):
        return set(), {expr.name}, True
    if isinstance(expr, BinOp):
        l_locals, l_entities, l_ok = _expr_dependencies(expr.left)
        r_locals, r_entities, r_ok = _expr_dependencies(expr.right)
        return l_locals | r_locals, l_entities | r_entities, l_ok and r_ok
    if isinstance(expr, Expr):
        return set(), set(), False
    if callable(expr):
        return set(), set(), False
    return set(), set(), True  # plain constant


def _op_reads_writes(op: Operation) -> tuple[set[str], set[str], bool]:
    """(names read, names written, analysable) with ``e:``/``l:`` keys."""
    if isinstance(op, Read):
        return {_entity_key(op.entity_name)}, {_local_key(op.into)}, True
    if isinstance(op, Write):
        locals_read, entities_read, ok = _expr_dependencies(op.expr)
        reads = {_local_key(v) for v in locals_read}
        reads |= {_entity_key(e) for e in entities_read}
        return reads, {_entity_key(op.entity_name)}, ok
    if isinstance(op, Assign):
        locals_read, entities_read, ok = _expr_dependencies(op.expr)
        reads = {_local_key(v) for v in locals_read}
        reads |= {_entity_key(e) for e in entities_read}
        return reads, {_local_key(op.var_name)}, ok
    return set(), set(), True


def cluster_writes(program: TransactionProgram) -> TransactionProgram:
    """Hoist data operations as early as their dependencies allow.

    Walks the program front to back, moving each read/write/assign to the
    earliest position after (a) the lock of every entity it touches and
    (b) the most recent operation that writes something it reads or reads
    something it writes.  Lock, unlock, and declaration operations keep
    their relative order, so the locking behaviour — and therefore the
    concurrency — is unchanged; only write *placement* improves, which is
    precisely the §5 optimisation.

    Operations with opaque (callable) expressions are never moved.
    """
    result: list[Operation] = []
    for op in program.operations:
        if isinstance(op, (Lock, Unlock, DeclareLastLock)):
            result.append(op)
            continue
        reads, writes, analysable = _op_reads_writes(op)
        if not analysable:
            result.append(op)
            continue
        touched = {
            name[2:] for name in reads | writes if name.startswith("e:")
        }
        # Find the earliest insertion point: scan backwards over the
        # current suffix while the operation commutes with what precedes.
        position = len(result)
        while position > 0:
            prev = result[position - 1]
            if isinstance(prev, (Unlock, DeclareLastLock)):
                break
            if isinstance(prev, Lock):
                if prev.entity_name in touched:
                    break
                position -= 1
                continue
            prev_reads, prev_writes, prev_ok = _op_reads_writes(prev)
            if not prev_ok:
                break
            if (
                writes & (prev_reads | prev_writes)
                or reads & prev_writes
            ):
                break
            position -= 1
        result.insert(position, op)
    return TransactionProgram(
        program.txn_id, result, program.initial_locals
    )


def three_phase_variant(program: TransactionProgram) -> TransactionProgram:
    """Restructure into acquire / declare / update / release.

    All lock requests are hoisted to the front (in original order — this
    only ever acquires locks *earlier*, so every data access remains
    covered), a last-lock declaration is inserted, data operations follow
    in original order, and explicit unlocks (if any) run at the end.
    """
    locks = [op for op in program.operations if isinstance(op, Lock)]
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
