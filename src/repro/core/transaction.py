"""Transaction programs and their runtime state.

:class:`TransactionProgram` is the static artefact — an identifier, an
operation sequence, and initial local-variable values — validated at
construction against the paper's model by :class:`ProgramRules`: two-phase
(no lock after an unlock or the last-lock declaration), each entity locked
at most once, reads covered by any lock and writes by an exclusive lock.

:class:`Transaction` is the runtime instance managed by the scheduler: a
program counter, state index, lock-request records (the lock states), and
status.  Values of locals and entity copies are owned by the active
rollback strategy, not by this class, since how values are stored *is* the
strategy (§4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import ProtocolViolation
from ..locking.modes import LockMode
from .operations import (
    Assign,
    DeclareLastLock,
    Lock,
    Operation,
    Read,
    Unlock,
    Write,
)

Value = object


class ProgramRules:
    """The well-formedness rules of a 2PL program, checked one op at a time.

    :meth:`admit` judges each operation against those admitted before it:

    * two-phase — no lock request after an unlock or after
      ``declare_last_lock``;
    * each entity is locked at most once;
    * a read needs a held lock, a write a held exclusive lock, and an
      unlock a held lock;
    * ``declare_last_lock`` is issued at most once.

    A declarative :class:`TransactionProgram` runs it over its whole list
    at construction; a lock-service session runs it on every append.
    """

    def __init__(self) -> None:
        self.held: dict[str, LockMode] = {}
        self.locked: set[str] = set()
        self.unlocked = False
        self.declared_last = False

    def admit(self, op: Operation) -> str | None:
        """Why *op* may not come next, or ``None`` after recording it."""
        if isinstance(op, Lock):
            if self.unlocked:
                return "lock request after an unlock (two-phase rule)"
            if self.declared_last:
                return "lock request after declare_last_lock"
            if op.entity_name in self.locked:
                return (
                    f"entity {op.entity_name!r} locked twice "
                    f"(the model locks each entity at most once)"
                )
            self.held[op.entity_name] = op.mode
            self.locked.add(op.entity_name)
        elif isinstance(op, Unlock):
            if op.entity_name not in self.held:
                return f"unlock of {op.entity_name!r} which is not held"
            del self.held[op.entity_name]
            self.unlocked = True
        elif isinstance(op, Read):
            if op.entity_name not in self.held:
                return f"read of {op.entity_name!r} without a lock"
        elif isinstance(op, Write):
            mode = self.held.get(op.entity_name)
            if mode is None or not mode.is_exclusive:
                return (
                    f"write to {op.entity_name!r} without an exclusive lock"
                )
        elif isinstance(op, DeclareLastLock):
            if self.declared_last:
                return "declare_last_lock issued twice"
            self.declared_last = True
        elif not isinstance(op, Assign):
            return f"unknown operation {op!r}"
        return None


class TransactionProgram:
    """A validated, re-executable transaction program.

    Parameters
    ----------
    txn_id:
        Unique identifier (the paper's :math:`T_i`).
    operations:
        The atomic operation sequence.
    initial_locals:
        Initial values of the transaction's local variables
        (the paper's set :math:`L_i`).  Variables first assigned by an
        ``assign`` op need not be pre-declared.

    Raises
    ------
    ProtocolViolation
        If the sequence breaks one of the :class:`ProgramRules`.
    """

    def __init__(
        self,
        txn_id: str,
        operations: Sequence[Operation],
        initial_locals: dict[str, Value] | None = None,
    ) -> None:
        self.txn_id = txn_id
        self.operations: list[Operation] = list(operations)
        self.initial_locals: dict[str, Value] = dict(initial_locals or {})
        rules = ProgramRules()
        for position, op in enumerate(self.operations):
            reason = rules.admit(op)
            if reason is not None:
                raise ProtocolViolation(f"{txn_id}[{position}]: {reason}")

    # -- static structure queries ------------------------------------------

    @property
    def lock_operations(self) -> list[tuple[int, Lock]]:
        """(position, op) for every lock request, in program order."""
        return [
            (i, op)
            for i, op in enumerate(self.operations)
            if isinstance(op, Lock)
        ]

    @property
    def entities_accessed(self) -> set[str]:
        """Every entity the program ever locks."""
        return {op.entity_name for _i, op in self.lock_operations}

    def __len__(self) -> int:
        return len(self.operations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionProgram({self.txn_id!r}, {len(self.operations)} ops)"
        )


class TxnStatus(enum.Enum):
    """Lifecycle of a running transaction."""

    READY = "ready"
    BLOCKED = "blocked"
    COMMITTED = "committed"
    SHED = "shed"

    def __str__(self) -> str:
        return self.value


@dataclass
class LockRecord:
    """One lock state: the record of a lock request (granted or pending).

    Attributes
    ----------
    ordinal:
        1-based lock index: this request was the *ordinal*-th lock request;
        the state immediately before it is lock state *ordinal*.
    entity:
        Requested entity.
    mode:
        Requested mode.
    pc:
        Program counter of the lock operation.
    state_index:
        The transaction's state index when the request was issued; rollback
        cost is measured in these units (states lost).
    granted:
        Whether the request has been granted yet.
    """

    ordinal: int
    entity: str
    mode: LockMode
    pc: int
    state_index: int
    granted: bool = False


@dataclass
class Transaction:
    """Runtime state of one executing transaction."""

    program: TransactionProgram
    entry_order: int = 0
    pc: int = 0
    status: TxnStatus = TxnStatus.READY
    lock_records: list[LockRecord] = field(default_factory=list)
    rollback_count: int = 0
    ops_executed_total: int = 0
    ops_lost_to_rollback: int = 0

    @property
    def txn_id(self) -> str:
        return self.program.txn_id

    @property
    def state_index(self) -> int:
        """Index of the current state: the number of operations executed on
        the current execution path (= the program counter)."""
        return self.pc

    @property
    def lock_count(self) -> int:
        """Number of lock requests issued so far (granted or pending)."""
        return len(self.lock_records)

    @property
    def done(self) -> bool:
        """Terminal states: committed, or explicitly shed by admission."""
        return self.status in (TxnStatus.COMMITTED, TxnStatus.SHED)

    def current_operation(self) -> Operation | None:
        """The next operation to execute, or ``None`` at end of program."""
        operations = self.program.operations
        return operations[self.pc] if self.pc < len(operations) else None

    def record_lock_request(self, entity: str, mode: LockMode) -> LockRecord:
        """Create the lock record for a newly issued request."""
        record = LockRecord(
            ordinal=len(self.lock_records) + 1,
            entity=entity,
            mode=mode,
            pc=self.pc,
            state_index=self.state_index,
        )
        self.lock_records.append(record)
        return record

    def pending_request(self) -> LockRecord | None:
        """The not-yet-granted lock request, if any (at most one exists)."""
        if self.lock_records and not self.lock_records[-1].granted:
            return self.lock_records[-1]
        return None

    def record_for_entity(self, entity: str) -> LockRecord | None:
        """The (single) lock record for *entity*, or ``None``."""
        for record in self.lock_records:
            if record.entity == entity:
                return record
        return None

    def lock_state_state_index(self, ordinal: int) -> int:
        """State index of lock state *ordinal* (0 for the initial state)."""
        if ordinal == 0:
            return 0
        return self.lock_records[ordinal - 1].state_index

    def records_from(self, ordinal: int) -> list[LockRecord]:
        """Lock records with ordinal >= *ordinal* (undone by a rollback to
        lock state *ordinal*)."""
        return [r for r in self.lock_records if r.ordinal >= ordinal]

    def apply_rollback(self, ordinal: int) -> None:
        """Rewind bookkeeping to lock state *ordinal*.

        The caller (the scheduler) is responsible for lock releases and for
        value restoration via the strategy; this method only rewinds the
        program counter, the lock records, and the loss accounting.
        """
        if self.done:
            raise ProtocolViolation(
                f"{self.txn_id} cannot be rolled back after {self.status}"
            )
        target_state = self.lock_state_state_index(ordinal)
        self.ops_lost_to_rollback += self.state_index - target_state
        self.rollback_count += 1
        if ordinal == 0:
            self.pc = 0
        else:
            self.pc = self.lock_records[ordinal - 1].pc
        self.lock_records = [r for r in self.lock_records if r.ordinal < ordinal]
        self.status = TxnStatus.READY

    def describe(self) -> str:  # pragma: no cover - debugging aid
        held = ", ".join(
            f"{r.entity}:{r.mode}" for r in self.lock_records if r.granted
        )
        return (
            f"{self.txn_id}(pc={self.pc}, status={self.status}, holds=[{held}])"
        )


def entry_ordered(transactions: Iterable[Transaction]) -> list[Transaction]:
    """Sort transactions by their entry order (the paper's suggested
    time-invariant partial order for Theorem 2)."""
    return sorted(transactions, key=lambda t: t.entry_order)
