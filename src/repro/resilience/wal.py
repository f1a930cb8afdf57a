"""Write-ahead event log and checkpoints for crash recovery.

The simulated system's durable state is the global database; everything
else — the lock table, transaction program counters, the strategies' local
copies — is volatile and lost when the scheduler crashes.
:class:`WriteAheadLog` records, ahead of each state change, the events
needed to reconstruct the durable state at any crash point:

* ``GRANT`` — a lock was granted (diagnostic; not needed for redo),
* ``INSTALL`` — a value was installed into the global database,
* ``COMMIT`` — a transaction committed (its installs become durable),
* ``ROLLBACK`` — a transaction was rolled back (diagnostic).

Recovery follows the classic redo discipline: start from the latest
checkpoint snapshot, scan the log suffix for ``COMMIT`` records to learn
which transactions finished, then replay — in log order — every
``INSTALL`` belonging to a committed transaction.  Installs of
transactions still in flight at the crash are discarded; those
transactions restart from their programs (the degradation ladder's total
restart), which is always safe because an in-flight transaction's effects
live only in its local copies until commit-time installation.

With commit-time installation (the generated workloads' discipline — no
explicit unlocks) every checkpoint snapshot is action-consistent and
recovery is exact.  Workloads that unlock (and therefore install) before
commit can expose dirty pre-commit values to later readers; recovery then
discards the uncommitted install while a committed reader may have used
it — the classic cascading-abort anomaly strict schedulers exist to
prevent.  The recovery-equivalence oracle will report exactly such
divergences.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Any

from ..observability.events import NULL_BUS, Event, EventBus, EventKind

Value = Any


class WalKind(enum.Enum):
    """Vocabulary of logged events."""

    GRANT = "grant"
    INSTALL = "install"
    COMMIT = "commit"
    ROLLBACK = "rollback"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class WalRecord:
    """One logged event; the log sequence number is the list position."""

    kind: WalKind
    txn_id: str
    entity: str = ""
    value: Value = None
    target: int = -1

    def render(self) -> str:
        return (
            f"{self.kind}:{self.txn_id}:{self.entity}:{self.value!r}:"
            f"{self.target}"
        )


def record_from_event(event: Event) -> WalRecord:
    """The :class:`WalRecord` a ``wal.append`` event was published for.

    The event carries every field of the record, so a stream that holds
    these events (the service's journal) is itself a write-ahead log.
    """
    data = event.data
    return WalRecord(
        WalKind(data["record"]),
        event.txn,
        data["entity"],
        data["value"],
        data["target"],
    )


@dataclass(frozen=True)
class Checkpoint:
    """A snapshot of the durable state at one log position.

    ``lsn`` is the index of the first log record *not* reflected in the
    snapshot; recovery replays records from ``lsn`` onward.
    """

    step: int
    lsn: int
    state: dict
    committed: tuple[str, ...]


class WriteAheadLog:
    """Append-only event log plus periodic checkpoints.

    Parameters
    ----------
    initial_state:
        The database snapshot at the moment logging starts — the recovery
        base when no checkpoint has been taken yet.
    """

    def __init__(self, initial_state: dict) -> None:
        self.records: list[WalRecord] = []
        #: Records :meth:`truncate` dropped; their LSNs stay taken.
        self.truncated = 0
        self.checkpoints: list[Checkpoint] = []
        self._initial_state = dict(initial_state)
        #: Observability bus (the recovery manager installs the
        #: scheduler's live bus when one is attached).
        self.bus: EventBus = NULL_BUS

    # -- logging ------------------------------------------------------------

    def _append(self, record: WalRecord) -> None:
        """The single append path: every logged record lands here, so the
        WAL_APPEND stream is complete by construction."""
        self.records.append(record)
        if self.bus.wants(EventKind.WAL_APPEND):
            self.bus.publish(
                EventKind.WAL_APPEND,
                record.txn_id,
                lsn=len(self) - 1,
                record=str(record.kind),
                entity=record.entity,
                value=record.value,
                target=record.target,
            )

    def log_grant(self, txn_id: str, entity: str, mode: str) -> None:
        self._append(WalRecord(WalKind.GRANT, txn_id, entity, value=mode))

    def log_install(self, txn_id: str, entity: str, value: Value) -> None:
        self._append(WalRecord(WalKind.INSTALL, txn_id, entity, value=value))

    def log_commit(self, txn_id: str) -> None:
        self._append(WalRecord(WalKind.COMMIT, txn_id))

    def log_rollback(self, txn_id: str, target: int) -> None:
        self._append(WalRecord(WalKind.ROLLBACK, txn_id, target=target))

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self, step: int, state: dict, committed) -> Checkpoint:
        """Record a snapshot of the durable state taken after *step*."""
        point = Checkpoint(
            step=step,
            lsn=len(self),
            state=dict(state),
            committed=tuple(committed),
        )
        self.checkpoints.append(point)
        if self.bus.wants(EventKind.WAL_CHECKPOINT):
            self.bus.publish(
                EventKind.WAL_CHECKPOINT,
                lsn=point.lsn,
                at=step,
                committed=sorted(point.committed),
            )
        return point

    def truncate(self) -> None:
        """Drop the retained records, keeping their LSNs taken: for a
        log whose records are durable elsewhere (the service's journal
        holds each as a ``wal.append`` line), recovered from there."""
        self.truncated += len(self.records)
        self.records.clear()

    def latest_checkpoint(self) -> Checkpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None

    # -- recovery -------------------------------------------------------------

    def committed_ids(self) -> set[str]:
        """Every transaction the full log shows as committed."""
        committed = {
            record.txn_id
            for record in self.records
            if record.kind is WalKind.COMMIT
        }
        point = self.latest_checkpoint()
        if point is not None:
            committed.update(point.committed)
        return committed

    def recover_state(self) -> tuple[dict, set[str]]:
        """Rebuild ``(database_state, committed_txn_ids)`` at the log end.

        Starts from the latest checkpoint (or the initial snapshot) and
        redoes the installs of committed transactions in log order;
        installs of in-flight transactions are discarded.
        """
        if self.truncated:
            raise ValueError("truncated log: recover from its durable copy")
        point = self.latest_checkpoint()
        if point is None:
            state = dict(self._initial_state)
            suffix = self.records
        else:
            state = dict(point.state)
            suffix = self.records[point.lsn:]
        committed = self.committed_ids()
        redone = 0
        for record in suffix:
            if record.kind is WalKind.INSTALL and record.txn_id in committed:
                state[record.entity] = record.value
                redone += 1
        if self.bus.wants(EventKind.WAL_RECOVER):
            self.bus.publish(
                EventKind.WAL_RECOVER,
                from_lsn=0 if point is None else point.lsn,
                records_scanned=len(suffix),
                installs_redone=redone,
                committed=sorted(committed),
            )
        return state, committed

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        """Every record ever logged, truncated ones included."""
        return self.truncated + len(self.records)

    def fingerprint(self) -> str:
        """Content hash over the retained records (determinism checks)."""
        digest = hashlib.sha256()
        for record in self.records:
            digest.update(record.render().encode())
            digest.update(b"\n")
        return digest.hexdigest()
