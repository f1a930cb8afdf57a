"""Durable logs for the service: WAL-on-disk and the request journal.

Two append-only JSONL files back a running service:

* the **WAL** — :class:`DurableWriteAheadLog` extends the in-memory
  :class:`~repro.resilience.wal.WriteAheadLog` with a file that is
  forced (flushed and fsynced) at every ``COMMIT``, so a commit
  acknowledged to a client is durable before the reply leaves the
  process (the scheduler logs ``COMMIT`` ahead of the state change, and
  the reply is written strictly after the step).
  Restart recovery is the existing redo discipline:
  :meth:`~repro.resilience.wal.WriteAheadLog.recover_state` replays
  committed installs; in-flight transactions are lost and their clients
  told 410 — safe under commit-time installation.
* the **journal** — the event-bus stream (every accepted wire request,
  reply, and scheduler event) written through
  :class:`~repro.observability.export.JsonlStreamSink`.  The journal is
  the replay-verification input; the WAL is the crash-recovery input.

The reply is the durability boundary, because a reply is all a client
can observe.  Between replies both files are buffered; ``COMMIT`` — the
one record redo needs — is forced inline; the server flushes the rest
before it delivers (:meth:`~repro.service.server.LockServer._handle`).
Always journal first: restart re-seeds the commit dedup window from the
journal's ``service.request`` line of every transaction the WAL shows
committed, so a ``COMMIT`` on disk without that line would answer the
retried commit 410 and the client would apply its increment twice.  The
journal is never fsynced: exactly-once acks survive ``kill -9``, not an
OS crash.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

from ..observability.export import open_jsonl_append, read_jsonl_objects
from ..resilience.wal import WalKind, WalRecord, WriteAheadLog


class DurableWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` whose commits hit disk before they count.

    Every append is written as one JSONL line.  A ``COMMIT`` is forced:
    :attr:`before_force` runs (``build_core`` hands in the journal's
    flush), *then* the line is written, flushed and fsynced before the
    call returns, so ``kill -9`` never loses an acknowledged commit.
    Flushing the journal ahead of the fsync alone would not do: a full
    buffer writes through on its own, so the journal must be current
    before the ``COMMIT`` line exists at all.  Checkpoints stay in
    memory — recovery replays the full log from the initial state, which
    is exact and cheap at service scale.
    """

    def __init__(self, path: str | Path, initial_state: dict) -> None:
        super().__init__(initial_state)
        self.path = Path(path)
        self._handle = open_jsonl_append(self.path)
        self.before_force: Callable[[], None] = lambda: None
        self.forces = 0  # one fsync each, one per COMMIT

    def _append(self, record: WalRecord) -> None:
        if record.kind is WalKind.COMMIT:
            self.before_force()
        self._handle.write(_record_line(record))
        if record.kind is WalKind.COMMIT:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self.forces += 1
        super()._append(record)

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    @classmethod
    def open_existing(
        cls, path: str | Path, initial_state: dict
    ) -> "DurableWriteAheadLog":
        """Reopen *path*, loading every intact record already on disk.

        A torn final line (what a crash leaves of a cut-short write) is
        discarded and truncated away; its record never counted — the
        state change it would have preceded never happened.
        """
        path = Path(path)
        records: list[WalRecord] = []
        if path.exists():
            records = [
                _record_from(obj) for obj in read_jsonl_objects(path)
            ]
        wal = cls(path, initial_state)
        # Adopt the on-disk history without re-writing it.
        wal.records = records
        return wal


def _record_line(record: WalRecord) -> str:
    return (
        json.dumps(
            {
                "kind": str(record.kind),
                "txn": record.txn_id,
                "entity": record.entity,
                "value": record.value,
                "target": record.target,
            },
            sort_keys=True,
            default=str,
        )
        + "\n"
    )


def _record_from(obj: dict[str, Any]) -> WalRecord:
    return WalRecord(
        kind=WalKind(obj["kind"]),
        txn_id=obj["txn"],
        entity=obj.get("entity", ""),
        value=obj.get("value"),
        target=int(obj.get("target", -1)),
    )
