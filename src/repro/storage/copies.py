"""Local copies of updated values: the storage side of §4 of the paper.

Two families of structures live here.

:class:`ValueStack`
    The stack the *multi-lock copy strategy* (MCS) associates with each
    exclusive-locked entity (one stack per entity, created at the entity's
    lock state) and with each local variable (created at transaction start
    with stack index 0).  Each element has a ``value`` field and an ``index``
    field holding the *lock index* of the write that produced the value; a
    new element is pushed only when the current write's lock index exceeds
    the index of the top element, otherwise the top element's value is
    updated in place.  Rollback to lock state *k* pops every element whose
    index is ``>= k``; the surviving top element is exactly the value the
    variable had at lock state *k*.

:class:`CopyCell`
    The one-local-copy-per-variable structure of the paper's
    state-dependency-graph strategy.  It records the *index of
    restorability* — the lock index of the last lock state preceding the
    first write — and the lock index of the most recent write, which
    together determine which earlier lock states remain restorable for this
    variable.  §5 notes the implementation "can easily be extended to allow
    more than one local copy to be kept for entities": the same cell may
    *retain* values a re-write would otherwise destroy
    (:class:`RetainedCopy`), which is all the k-copy strategy adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import RollbackError

Value = Any


@dataclass
class StackElement:
    """One element of an MCS value stack: a value plus its lock index."""

    value: Value
    index: int


class ValueStack:
    """MCS per-variable value stack (paper §4, "multi-lock copy strategy").

    Parameters
    ----------
    name:
        The entity or local-variable name the stack shadows.
    stack_index:
        The fixed index assigned to the stack at creation: the lock index of
        the lock state it is associated with for global entities, ``0`` for
        local variables.
    initial_value:
        The global value of the entity at lock time (or the initial value of
        the local variable).  It is pushed as the bottom element with the
        stack's own index, so popping back to the bottom restores the
        pre-lock value.
    """

    def __init__(self, name: str, stack_index: int, initial_value: Value) -> None:
        self.name = name
        self.stack_index = stack_index
        self._elements: list[StackElement] = [
            StackElement(initial_value, stack_index)
        ]

    # -- reads ---------------------------------------------------------------

    @property
    def current_value(self) -> Value:
        """The most recent value (top of stack)."""
        return self._elements[-1].value

    @property
    def bottom_value(self) -> Value:
        """The value captured at stack creation (global/initial value)."""
        return self._elements[0].value

    @property
    def top_index(self) -> int:
        """Lock index of the top element."""
        return self._elements[-1].index

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[StackElement]:
        return iter(self._elements)

    def value_at(self, lock_index: int) -> Value:
        """Value the variable held at the lock state with *lock_index*.

        Concretely, the value of the last element with ``index <
        lock_index`` (a write with lock index *m* happens after lock state
        *m*, so it is not yet visible at lock state *m*).
        """
        candidates = [el for el in self._elements if el.index < lock_index]
        if not candidates:
            raise RollbackError(
                f"stack {self.name!r} (stack index {self.stack_index}) has no "
                f"value for lock state {lock_index}"
            )
        return candidates[-1].value

    # -- writes ----------------------------------------------------------------

    def write(self, value: Value, lock_index: int) -> None:
        """Record a write performed at *lock_index*.

        Implements the paper's push rule: push a new element iff the write's
        lock index exceeds the top element's index, otherwise overwrite the
        top element's value in place.
        """
        top = self._elements[-1]
        if lock_index > top.index:
            self._elements.append(StackElement(value, lock_index))
        elif lock_index == top.index:
            top.value = value
        else:
            raise RollbackError(
                f"write to {self.name!r} at lock index {lock_index} is older "
                f"than top element index {top.index}"
            )

    # -- rollback ----------------------------------------------------------------

    def pop_to(self, lock_index: int) -> None:
        """Pop every element whose index is ``>= lock_index``.

        After the call :attr:`current_value` is the variable's value at the
        lock state with index *lock_index*.  The bottom element is never
        popped for surviving stacks (callers delete stacks whose
        ``stack_index >= lock_index`` wholesale instead).
        """
        if self.stack_index >= lock_index:
            raise RollbackError(
                f"stack {self.name!r} with stack index {self.stack_index} "
                f"should be deleted, not popped, for rollback to {lock_index}"
            )
        while len(self._elements) > 1 and self._elements[-1].index >= lock_index:
            self._elements.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"({el.value!r}@{el.index})" for el in self._elements)
        return f"ValueStack({self.name!r}, idx={self.stack_index}, [{parts}])"


@dataclass(frozen=True)
class RetainedCopy:
    """A preserved old value, valid for lock states in ``(lo, hi]``.

    Taken just before a write at lock index ``hi``, it preserves the value
    that was current since the previous write at ``lo`` — exactly one kill
    interval of the state-dependency graph neutralised per retained copy.
    """

    value: Value
    lo: int
    hi: int

    def covers(self, lock_index: int) -> bool:
        return self.lo < lock_index <= self.hi


@dataclass
class CopyCell:
    """The local copy of one variable (single-copy strategy, §4) plus the
    old values a k-copy budget paid to keep (§5).

    Attributes
    ----------
    name:
        Variable (entity or local) name.
    base_value:
        For a global entity: its global value at lock time.  For a local
        variable: its initial value.  With nothing retained this is the
        only *old* value the cell can ever restore.
    value:
        Current local value.
    lock_index:
        For entities, the lock index of the lock state at which the entity
        was locked; ``0`` for locals.
    write_indices:
        Lock index of every write still on record, oldest first: all of
        Theorem 4's bookkeeping — its two ends here, the state-dependency
        graph and the planner's kill intervals elsewhere.
    retained:
        Old values kept at the *caller's* expense — pass ``retain=True`` to
        :meth:`write` to spend one copy on the value the write destroys.
        Empty under the single-copy strategy.
    """

    name: str
    base_value: Value
    lock_index: int = 0
    value: Value = None
    write_indices: list[int] = field(default_factory=list)
    retained: list[RetainedCopy] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.value is None:
            self.value = self.base_value

    @property
    def restorability_index(self) -> int | None:
        """The paper's *index of restorability*: the lock index of the
        first write — a write happens after the lock state with its own
        lock index, so that is the last state still restorable from
        ``base_value`` — or ``None`` while never written (every state is)."""
        return self.write_indices[0] if self.write_indices else None

    @property
    def last_write_index(self) -> int | None:
        """Lock index of the most recent write, or ``None`` if never
        written."""
        return self.write_indices[-1] if self.write_indices else None

    @property
    def written(self) -> bool:
        """Whether the variable has been written since lock/creation."""
        return bool(self.write_indices)

    @property
    def copies_stored(self) -> int:
        """Total stored values: the single copy plus retained ones."""
        return 1 + len(self.retained)

    def write(self, value: Value, lock_index: int, retain: bool = False) -> bool:
        """Record a write at *lock_index* (lock index of the write op),
        optionally retaining the value being destroyed.

        Returns True iff a retained copy was actually created (a first
        write destroys nothing — the base value remains available — and a
        re-write at the same lock index destroys no *lock state*, so
        neither consumes budget).
        """
        last = self.last_write_index
        retained_now = retain and last is not None and lock_index > last
        if retained_now:
            self.retained.append(RetainedCopy(self.value, last, lock_index))
        self.value = value
        self.write_indices.append(lock_index)
        return retained_now

    def restorable_at(self, lock_index: int) -> bool:
        """Can the value at lock state *lock_index* be reproduced?

        With a single copy, only two values are ever available: the base
        (global/initial) value — valid for every lock state up to and
        including the index of restorability — and the current value — valid
        for every lock state after the most recent write.  A write with lock
        index *m* occurs after lock state *m*, so lock states ``> m`` see its
        result.  Each retained copy adds the interval it covers.
        """
        if not self.write_indices or lock_index <= self.write_indices[0]:
            return True
        return lock_index > self.write_indices[-1] or any(
            copy.covers(lock_index) for copy in self.retained
        )

    def value_at(self, lock_index: int) -> Value:
        """Return the restorable value at lock state *lock_index*."""
        if not self.write_indices or lock_index <= self.write_indices[0]:
            return self.base_value
        if lock_index > self.write_indices[-1]:
            return self.value
        for copy in self.retained:
            if copy.covers(lock_index):
                return copy.value
        raise RollbackError(
            f"value of {self.name!r} at lock state {lock_index} is not "
            f"restorable from the stored copies"
        )

    def rollback_to(self, lock_index: int) -> None:
        """Restore the copy to its state as of lock state *lock_index*.

        Retained copies whose interval lies entirely before the target
        survive (they still describe valid history); later ones are
        discarded together with the undone writes.
        """
        self.value = self.value_at(lock_index)
        # Discard the history of writes that are being undone.
        self.write_indices = [m for m in self.write_indices if m < lock_index]
        self.retained = [
            copy for copy in self.retained if copy.hi < lock_index
        ]
