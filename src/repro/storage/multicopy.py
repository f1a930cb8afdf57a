"""Budgeted multi-copy storage: the paper's §5 extension.

The conclusions note that "the state-dependency graph implementation of
partial rollback can easily be extended to allow more than one local copy
to be kept for entities", leaving the allocation of a bounded amount of
extra storage as future work.  :class:`MultiCopy` is that extension's
storage primitive: a :class:`~repro.storage.copies.SingleCopy` that may
additionally *retain* values a re-write would otherwise destroy.

A retained copy taken just before a write at lock index ``hi`` preserves
the value that was current since the previous write at ``lo`` (or since
the base value), i.e. the value of every lock state in ``(lo, hi]`` —
exactly one kill interval of the state-dependency graph neutralised per
retained copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .copies import SingleCopy, Value


@dataclass(frozen=True)
class RetainedCopy:
    """A preserved old value, valid for lock states in ``(lo, hi]``."""

    value: Value
    lo: int
    hi: int

    def covers(self, lock_index: int) -> bool:
        return self.lo < lock_index <= self.hi


@dataclass
class MultiCopy(SingleCopy):
    """A local copy with an optional set of retained old values.

    A :class:`~repro.storage.copies.SingleCopy` (base value, current
    value, restorability bookkeeping) plus :attr:`retained`.  How many
    values get retained is the *caller's* budget decision — pass
    ``retain=True`` to :meth:`write` to spend one copy on preserving the
    value the write destroys.  With nothing retained it behaves exactly
    like its base class.
    """

    retained: list[RetainedCopy] = field(default_factory=list)

    @property
    def copies_stored(self) -> int:
        """Total stored values: the single copy plus retained ones."""
        return 1 + len(self.retained)

    def write(self, value: Value, lock_index: int, retain: bool = False) -> bool:
        """Record a write; optionally retain the value being destroyed.

        Returns True iff a retained copy was actually created (a first
        write destroys nothing — the base value remains available — and a
        re-write at the same lock index destroys no *lock state*, so
        neither consumes budget).
        """
        last = self.last_write_index
        retained_now = False
        if retain and last is not None and lock_index > last:
            self.retained.append(RetainedCopy(self.value, last, lock_index))
            retained_now = True
        super().write(value, lock_index)
        return retained_now

    def restorable_at(self, lock_index: int) -> bool:
        return super().restorable_at(lock_index) or any(
            copy.covers(lock_index) for copy in self.retained
        )

    def value_at(self, lock_index: int) -> Value:
        # A retained interval lies between the first and the latest write,
        # so it never overlaps the states the base class can serve.
        for copy in self.retained:
            if copy.covers(lock_index):
                return copy.value
        return super().value_at(lock_index)

    def rollback_to(self, lock_index: int) -> None:
        """Restore the copy to its state as of lock state *lock_index*.

        Retained copies whose interval lies entirely before the target
        survive (they still describe valid history); later ones are
        discarded together with the undone writes.
        """
        super().rollback_to(lock_index)
        self.retained = [
            copy for copy in self.retained if copy.hi < lock_index
        ]
