"""Static analysis for the reproduction's own guarantees.

The paper's theorems are only as good as the code discipline they rest
on: Theorem 1's forest structure assumes every lock acquisition goes
through the two-phase :class:`~repro.locking.manager.LockManager`, and
Theorem 2's livelock-freedom — together with the verification and chaos
subsystems — assumes runs are bit-for-bit reproducible from a seed.
Neither assumption used to be checked; this package checks both.

Three pillars:

* :mod:`~repro.staticcheck.framework` plus
  :mod:`~repro.staticcheck.checkers` — a small AST lint framework with
  project-specific rules (RR001 nondeterminism hazards, RR002 lock-API
  discipline, RR004 seeded-Random plumbing, RR006 await discipline),
  exposed as ``repro lint``;
* :mod:`~repro.staticcheck.predict` (with
  :mod:`~repro.staticcheck.events`) — sound partial-order deadlock
  prediction: abstract lock events, ordered by program order and boot
  segment, folded from the bus events of regression-case replays and
  service journals; a lock-order graph whose feasible cycles are each
  cross-validated by replaying a synthesized witness schedule through
  the real engine (``repro lint --predict``);
* :mod:`~repro.staticcheck.workload` — static workload risk analysis:
  transaction templates scored for lock-order inversion structure
  without executing anything, read off the same lock-order graph,
  feeding ``repro advise`` and the ``predictive`` admission policy.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and rationale.
"""

from .checkers import all_rules, default_checkers
from .events import (
    AbstractLockEvent,
    JournalTrace,
    concurrent,
    harvest_case,
    harvest_journal,
)
from .framework import (
    Checker,
    Finding,
    LintReport,
    Module,
    load_module,
    run_lint,
)
from .predict import (
    LockEdge,
    LockOrderGraph,
    PredictedDeadlock,
    PredictionReport,
    predict_case,
    predict_corpus,
    predict_journal,
)
from .workload import (
    RiskReport,
    TransactionTemplate,
    WorkloadClass,
    analyze_classes,
    analyze_config,
    analyze_journal,
    analyze_programs,
    analyze_sequences,
)

__all__ = [
    "AbstractLockEvent",
    "Checker",
    "Finding",
    "JournalTrace",
    "LintReport",
    "LockEdge",
    "LockOrderGraph",
    "Module",
    "PredictedDeadlock",
    "PredictionReport",
    "RiskReport",
    "TransactionTemplate",
    "WorkloadClass",
    "all_rules",
    "analyze_classes",
    "analyze_config",
    "analyze_journal",
    "analyze_programs",
    "analyze_sequences",
    "concurrent",
    "default_checkers",
    "harvest_case",
    "harvest_journal",
    "load_module",
    "predict_case",
    "predict_corpus",
    "predict_journal",
    "run_lint",
]
