"""Durable logs for the service: WAL-on-disk and the request journal.

Two append-only JSONL files back a running service:

* the **WAL** — :class:`DurableWriteAheadLog` extends the in-memory
  :class:`~repro.resilience.wal.WriteAheadLog` with flush-and-fsync on
  every append, so a commit acknowledged to a client is durable before
  the reply leaves the process (the scheduler logs ``COMMIT`` ahead of
  the state change, and the reply is written strictly after the step).
  Restart recovery is the existing redo discipline:
  :meth:`~repro.resilience.wal.WriteAheadLog.recover_state` replays
  committed installs; in-flight transactions are lost and their clients
  told 410 — safe under commit-time installation.
* the **journal** — the event-bus stream (every accepted wire request,
  reply, and scheduler event) written through
  :class:`~repro.observability.export.JsonlStreamSink`.  The journal is
  the replay-verification input; the WAL is the crash-recovery input.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..observability.export import read_jsonl_objects
from ..resilience.wal import WalKind, WalRecord, WriteAheadLog


class DurableWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` whose records hit disk before they count.

    Every append is written as one JSONL line, flushed, and fsynced
    before the call returns: the write-ahead discipline extends to the
    OS crash boundary, so ``kill -9`` never loses an acknowledged
    commit.  Checkpoints stay in memory — recovery replays the full log
    from the initial state, which is exact and cheap at service scale.
    """

    def __init__(self, path: str | Path, initial_state: dict) -> None:
        super().__init__(initial_state)
        self.path = Path(path)
        self._handle = self.path.open("a")

    def _append(self, record: WalRecord) -> None:
        self._handle.write(_record_line(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        super()._append(record)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    @classmethod
    def open_existing(
        cls, path: str | Path, initial_state: dict
    ) -> "DurableWriteAheadLog":
        """Reopen *path*, loading every intact record already on disk.

        A torn final line (the most a crash can leave under
        flush-on-write) is discarded; its record never counted — the
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
