"""The project-specific lint rules.

===== =============================================================
Rule  Checks
===== =============================================================
RR001 Nondeterminism hazards: shared global ``random``, wall-clock
      reads, ``id()``-keyed ordering, unordered set/dict iteration
      feeding ordering-sensitive sinks, ``os.environ`` reads.
RR002 Lock-API discipline: no private lock-table internals and no
      mutating table calls outside :mod:`repro.locking`.
RR004 Seeded-Random plumbing: every ``random.Random`` construction
      is fed an explicit seed or generator the caller controls.
RR006 Await discipline: an ``async def`` must not ``await`` after
      opening a lock-table / service-core mutation — the event loop
      would interleave another handler into the half-applied state.
===== =============================================================

``default_checkers()`` is the suite ``repro lint`` runs; the rules'
rationale, and the mutation each one catches that the tests miss,
live in ``docs/STATIC_ANALYSIS.md``.
"""

from ..framework import Checker
from .rr001_determinism import NondeterminismChecker
from .rr002_locks import LockDisciplineChecker
from .rr004_seeding import SeededRandomChecker
from .rr006_await import AwaitDisciplineChecker

__all__ = [
    "AwaitDisciplineChecker",
    "LockDisciplineChecker",
    "NondeterminismChecker",
    "SeededRandomChecker",
    "all_rules",
    "default_checkers",
]


def default_checkers() -> list[Checker]:
    """One instance of every rule, in rule order."""
    return [
        NondeterminismChecker(),
        LockDisciplineChecker(),
        SeededRandomChecker(),
        AwaitDisciplineChecker(),
    ]


def all_rules() -> list[tuple[str, str]]:
    """``(rule, title)`` pairs for the catalogue and ``--list-rules``."""
    return [(c.rule, c.title) for c in default_checkers()]
