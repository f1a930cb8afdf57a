"""Chaos engineering for the partial-rollback reproduction.

Deterministic fault injection (:mod:`~repro.resilience.faults`),
write-ahead logging and checkpoints (:mod:`~repro.resilience.wal`),
crash recovery (:mod:`~repro.resilience.recovery`), and the chaos/crash
sweep harness (:mod:`~repro.resilience.chaos`).  See
``docs/RESILIENCE.md`` for the fault vocabulary, the WAL format, and the
degradation ladder.
"""

from .chaos import (
    RECOVERY_EQUIVALENCE,
    ChaosReport,
    ChaosRunOutcome,
    chaos_run,
    crash_recovery_sweep,
)
from .faults import (
    CrashSignal,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from .recovery import RecoveredSystem, RecoveryManager
from .wal import Checkpoint, WalKind, WalRecord, WriteAheadLog

__all__ = [
    "RECOVERY_EQUIVALENCE",
    "ChaosReport",
    "ChaosRunOutcome",
    "Checkpoint",
    "CrashSignal",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "RecoveredSystem",
    "RecoveryManager",
    "WalKind",
    "WalRecord",
    "WriteAheadLog",
    "chaos_run",
    "crash_recovery_sweep",
]
