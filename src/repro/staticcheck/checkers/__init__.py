"""The project-specific lint rules.

===== =============================================================
Rule  Checks
===== =============================================================
RR001 Nondeterminism hazards: shared global ``random``, wall-clock
      reads, ``id()``-keyed ordering, unordered set/dict iteration
      feeding ordering-sensitive sinks, ``os.environ`` reads.
RR002 Lock-API discipline: no private lock-table internals and no
      mutating table calls outside :mod:`repro.locking`.
RR003 Registration completeness: every concrete strategy / victim
      policy / oracle class is reachable from its factory/registry.
RR004 Seeded-Random plumbing: every ``random.Random`` construction
      is fed an explicit seed or generator the caller controls.
RR005 Metrics discipline: counters mutate only through
      ``Metrics.bump`` so the aggregate counters and the event bus
      cannot diverge.
RR006 Await discipline: an ``async def`` must not ``await`` after
      opening a lock-table / service-core mutation — the event loop
      would interleave another handler into the half-applied state.
RR007 Status discipline: ``Transaction.status`` changes only through
      the scheduler's single writer, so the status index behind
      ``runnable()`` / ``blocked_count`` / ``all_done`` cannot drift.
===== =============================================================

``default_checkers()`` is the suite ``repro lint`` runs; the rules'
rationale lives in ``docs/STATIC_ANALYSIS.md``.
"""

from ..framework import Checker
from .rr001_determinism import NondeterminismChecker
from .rr002_locks import LockDisciplineChecker
from .rr003_registration import RegistrationChecker
from .rr004_seeding import SeededRandomChecker
from .rr005_metrics import MetricsDisciplineChecker
from .rr006_await import AwaitDisciplineChecker
from .rr007_status import StatusDisciplineChecker

__all__ = [
    "AwaitDisciplineChecker",
    "LockDisciplineChecker",
    "MetricsDisciplineChecker",
    "NondeterminismChecker",
    "RegistrationChecker",
    "SeededRandomChecker",
    "StatusDisciplineChecker",
    "all_rules",
    "default_checkers",
]


def default_checkers() -> list[Checker]:
    """One instance of every rule, in rule order."""
    return [
        NondeterminismChecker(),
        LockDisciplineChecker(),
        RegistrationChecker(),
        SeededRandomChecker(),
        MetricsDisciplineChecker(),
        AwaitDisciplineChecker(),
        StatusDisciplineChecker(),
    ]


def all_rules() -> list[tuple[str, str]]:
    """``(rule, title)`` pairs for the catalogue and ``--list-rules``."""
    return [(c.rule, c.title) for c in default_checkers()]
