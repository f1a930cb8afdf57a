"""The paper's contribution: partial-rollback deadlock removal for 2PL.

Public surface: programs and operations, the five rollback strategies
(§4's total restart, MCS and single-copy/SDG; its undo-log sketch; §5's
k-copy), victim policies, deadlock detection, and the scheduler.
"""

from . import operations as ops
from .detection import Deadlock, DeadlockDetector
from .k_copy import KCopyStrategy, eager_allocator, threshold_allocator
from .mcs import MultiLockCopyStrategy
from .metrics import Metrics, RollbackEvent
from .periodic import PeriodicDetectionScheduler
from .rollback import (
    RollbackStrategy,
    available_strategies,
    make_strategy,
)
from .scheduler import Scheduler, StepOutcome, StepResult
from .single_copy import SingleCopyStrategy
from .total import TotalRestartStrategy
from .undo_log import UndoLogStrategy
from .transaction import (
    LockRecord,
    Transaction,
    TransactionProgram,
    TxnStatus,
)
from .victim import (
    MinCostPolicy,
    OldestPolicy,
    OrderedMinCostPolicy,
    RequesterPolicy,
    RollbackAction,
    VictimContext,
    VictimPolicy,
    YoungestPolicy,
    available_policies,
    make_policy,
)

__all__ = [
    "Deadlock",
    "KCopyStrategy",
    "DeadlockDetector",
    "LockRecord",
    "Metrics",
    "MinCostPolicy",
    "MultiLockCopyStrategy",
    "OldestPolicy",
    "OrderedMinCostPolicy",
    "PeriodicDetectionScheduler",
    "RequesterPolicy",
    "RollbackAction",
    "RollbackEvent",
    "RollbackStrategy",
    "Scheduler",
    "SingleCopyStrategy",
    "StepOutcome",
    "StepResult",
    "TotalRestartStrategy",
    "UndoLogStrategy",
    "Transaction",
    "TransactionProgram",
    "TxnStatus",
    "VictimContext",
    "VictimPolicy",
    "YoungestPolicy",
    "available_policies",
    "available_strategies",
    "eager_allocator",
    "make_policy",
    "make_strategy",
    "threshold_allocator",
    "ops",
]
