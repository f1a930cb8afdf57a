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

:class:`SingleCopy`
    The one-local-copy-per-entity structure of the paper's
    state-dependency-graph strategy (k-copy extends it).  It records
    the *index of restorability* — the lock index of the last lock state
    preceding the first write — and the lock index of the most recent write,
    which together determine which earlier lock states remain restorable for
    this variable.
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


@dataclass
class SingleCopy:
    """A one-copy-per-variable record (SDG strategy; k-copy extends it).

    Attributes
    ----------
    name:
        Variable (entity or local) name.
    base_value:
        For a global entity: its global value at lock time.  For a local
        variable: its initial value.  This is the only *old* value the
        single-copy strategy can ever restore.
    value:
        Current local value.
    lock_index:
        For entities, the lock index of the lock state at which the entity
        was locked; ``0`` for locals.
    restorability_index:
        The paper's *index of restorability*: the lock index of the last
        lock state preceding the first write, or ``None`` while the variable
        has never been written (every state is then restorable from
        ``base_value``).
    last_write_index:
        Lock index of the most recent write, or ``None`` if never written.
    """

    name: str
    base_value: Value
    lock_index: int = 0
    value: Value = None
    restorability_index: int | None = None
    last_write_index: int | None = None
    write_indices: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.value is None:
            self.value = self.base_value

    @property
    def written(self) -> bool:
        """Whether the variable has been written since lock/creation."""
        return self.last_write_index is not None

    def write(self, value: Value, lock_index: int) -> bool:
        """Record a write at *lock_index* (lock index of the write op); True
        iff the old value was kept as an extra copy (only ``MultiCopy`` can)."""
        if self.restorability_index is None:
            # The write destroys the base value for all later states; the
            # last lock state still restorable from base_value is the one
            # with the write's own lock index (the write happens after it).
            self.restorability_index = lock_index
        self.value = value
        self.last_write_index = lock_index
        self.write_indices.append(lock_index)
        return False

    def restorable_at(self, lock_index: int) -> bool:
        """Can the value at lock state *lock_index* be reproduced?

        With a single copy, only two values are ever available: the base
        (global/initial) value — valid for every lock state up to and
        including the index of restorability — and the current value — valid
        for every lock state after the most recent write.  A write with lock
        index *m* occurs after lock state *m*, so lock states ``> m`` see its
        result.
        """
        index = self.restorability_index
        if index is None or lock_index <= index:
            return True
        assert self.last_write_index is not None
        return lock_index > self.last_write_index

    def value_at(self, lock_index: int) -> Value:
        """Return the restorable value at lock state *lock_index*."""
        if not self.restorable_at(lock_index):
            raise RollbackError(
                f"value of {self.name!r} at lock state {lock_index} is not "
                f"restorable from the stored copies"
            )
        if self.restorability_index is None or lock_index <= self.restorability_index:
            return self.base_value
        return self.value

    def rollback_to(self, lock_index: int) -> None:
        """Restore the copy to its state as of lock state *lock_index*."""
        self.value = self.value_at(lock_index)
        # Discard the history of writes that are being undone.
        self.write_indices = [m for m in self.write_indices if m < lock_index]
        if self.write_indices:
            self.last_write_index = self.write_indices[-1]
        else:
            self.last_write_index = None
            self.restorability_index = None
