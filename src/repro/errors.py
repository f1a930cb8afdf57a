"""Exception hierarchy for the partial-rollback reproduction.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause while
still distinguishing the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ProtocolViolation(ReproError):
    """A transaction violated the two-phase locking protocol.

    Raised, for example, when a transaction issues a lock request after it
    has already unlocked an entity (the shrinking phase has begun), or when
    it accesses an entity it does not hold an appropriate lock on.
    """


class LockError(ReproError):
    """An invalid operation was issued against the lock manager."""


class UnknownEntityError(ReproError):
    """An operation referenced an entity that does not exist in the database."""


class UnknownTransactionError(ReproError):
    """An operation referenced a transaction the system does not know about."""


class RollbackError(ReproError):
    """A rollback could not be carried out as requested.

    Raised when the requested target lock state is not reachable under the
    active rollback strategy (e.g. a non-restorable state under the
    single-copy strategy) or is out of range.
    """


class StorageFault(RollbackError):
    """A rollback strategy's storage failed mid-operation.

    Raised (only) by injected faults — a multi-copy stack whose pop fails,
    an undo log whose apply fails — to model damaged partial-rollback
    state.  The scheduler responds by degrading the victim to a total
    restart (its partial-rollback state is untrusted, its initial state is
    always reconstructible) rather than aborting the run; see
    ``docs/RESILIENCE.md``.
    """


class DeadlockUnresolvableError(ReproError):
    """No victim choice could break a detected deadlock.

    This indicates a bug in a victim-selection policy (a correct policy can
    always break a deadlock, at worst by totally rolling back the requester);
    it is surfaced as an explicit error rather than silently hanging.
    """


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent or impossible state."""


class QuiescenceTimeout(SimulationError):
    """A driver's step budget ran out before every transaction finished.

    Carries a :class:`repro.core.diagnosis.LivelockDiagnosis` snapshot —
    the runnable/blocked split, the waits-for graph, and the preemption
    history — so the caller can tell an undersized budget apart from a
    genuine starvation or livelock condition.
    """

    def __init__(self, message: str, diagnosis=None) -> None:
        super().__init__(message)
        #: :class:`repro.core.diagnosis.LivelockDiagnosis` | None
        self.diagnosis = diagnosis


class ConsistencyViolation(ReproError):
    """A database consistency constraint was violated.

    The paper assumes each transaction preserves consistency when run alone;
    the reproduction checks registered constraints after every completed
    transaction and at the end of every simulation so that serializability
    bugs in the scheduler surface as loud failures.
    """
