"""Unit and property tests for repro.storage.copies.

The MCS :class:`ValueStack` and the SDG/total :class:`SingleCopy` are the
storage bedrock of §4; both are checked against a straightforward
"remember every value" reference model.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RollbackError
from repro.storage.copies import CopyCell as SingleCopy, ValueStack


class TestValueStackBasics:
    def test_creation_pushes_initial(self):
        stack = ValueStack("a", 2, 100)
        assert stack.current_value == 100
        assert stack.bottom_value == 100
        assert len(stack) == 1
        assert stack.top_index == 2

    def test_write_higher_index_pushes(self):
        stack = ValueStack("a", 1, 10)
        stack.write(20, 2)
        assert len(stack) == 2
        assert stack.current_value == 20

    def test_write_equal_index_updates_in_place(self):
        stack = ValueStack("a", 1, 10)
        stack.write(20, 1)       # same index as bottom: overwrite
        assert len(stack) == 1
        assert stack.current_value == 20

    def test_write_equal_index_after_push(self):
        stack = ValueStack("a", 1, 10)
        stack.write(20, 3)
        stack.write(30, 3)
        assert len(stack) == 2
        assert stack.current_value == 30

    def test_write_lower_index_rejected(self):
        stack = ValueStack("a", 1, 10)
        stack.write(20, 3)
        with pytest.raises(RollbackError):
            stack.write(5, 2)

    def test_iteration_order_bottom_to_top(self):
        stack = ValueStack("a", 0, 1)
        stack.write(2, 1)
        stack.write(3, 2)
        assert [el.value for el in stack] == [1, 2, 3]


class TestValueStackRollback:
    def test_value_at_before_any_write(self):
        stack = ValueStack("a", 1, 10)
        assert stack.value_at(2) == 10

    def test_value_at_after_writes(self):
        stack = ValueStack("a", 1, 10)
        stack.write(20, 2)   # visible from lock state 3 onward
        stack.write(30, 4)   # visible from lock state 5 onward
        assert stack.value_at(2) == 10
        assert stack.value_at(3) == 20
        assert stack.value_at(4) == 20
        assert stack.value_at(5) == 30

    def test_value_at_below_stack_index_rejected(self):
        stack = ValueStack("a", 3, 10)
        with pytest.raises(RollbackError):
            stack.value_at(3)  # no element with index < 3

    def test_pop_to_restores(self):
        stack = ValueStack("a", 1, 10)
        stack.write(20, 2)
        stack.write(30, 3)
        stack.pop_to(3)
        assert stack.current_value == 20
        stack.pop_to(2)
        assert stack.current_value == 10

    def test_pop_to_never_removes_bottom(self):
        stack = ValueStack("a", 1, 10)
        stack.write(20, 2)
        stack.pop_to(2)
        assert len(stack) == 1
        assert stack.current_value == 10

    def test_pop_to_at_or_below_stack_index_rejected(self):
        stack = ValueStack("a", 2, 10)
        with pytest.raises(RollbackError):
            stack.pop_to(2)
        with pytest.raises(RollbackError):
            stack.pop_to(1)

    def test_pop_to_is_idempotent(self):
        stack = ValueStack("a", 1, 10)
        stack.write(20, 3)
        stack.pop_to(2)
        before = [el.value for el in stack]
        stack.pop_to(2)
        assert [el.value for el in stack] == before


@given(
    writes=st.lists(
        st.tuples(st.integers(1, 8), st.integers(-100, 100)),
        max_size=20,
    )
)
def test_value_stack_matches_reference_model(writes):
    """Property: at every lock state, the stack reproduces exactly the
    value a full-history reference model holds for that state."""
    stack = ValueStack("a", 0, 999)
    # Reference: value at lock state q = last write with lock index < q,
    # else initial.  Writes must be fed in non-decreasing lock order.
    ordered = sorted(writes, key=lambda w: w[0])
    for lock_index, value in ordered:
        stack.write(value, lock_index)
    for q in range(1, 10):
        expected = 999
        for lock_index, value in ordered:
            if lock_index < q:
                expected = value
        assert stack.value_at(q) == expected


class TestSingleCopyBasics:
    def test_unwritten_is_base(self):
        copy = SingleCopy("a", base_value=7, lock_index=2)
        assert copy.value == 7
        assert not copy.written
        assert copy.restorable_at(5)

    def test_write_sets_indices(self):
        copy = SingleCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        assert copy.value == 8
        assert copy.written
        assert copy.restorability_index == 3
        assert copy.last_write_index == 3

    def test_restorability_window(self):
        copy = SingleCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)    # first write after lock state 3
        copy.write(9, 5)    # destroys the value 8 held at states 4..5
        # States <= 3: base value; states 4, 5: destroyed; states > 5: 9.
        assert copy.restorable_at(2)
        assert copy.restorable_at(3)
        assert not copy.restorable_at(4)
        assert not copy.restorable_at(5)
        assert copy.restorable_at(6)

    def test_value_at(self):
        copy = SingleCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        copy.write(9, 5)
        assert copy.value_at(3) == 7
        assert copy.value_at(6) == 9
        with pytest.raises(RollbackError):
            copy.value_at(4)

    def test_single_write_leaves_everything_restorable(self):
        copy = SingleCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        for q in range(1, 8):
            assert copy.restorable_at(q)
        assert copy.value_at(3) == 7
        assert copy.value_at(4) == 8


class TestSingleCopyRollback:
    def test_rollback_to_base(self):
        copy = SingleCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        copy.write(9, 5)
        copy.rollback_to(2)
        assert copy.value == 7
        assert not copy.written
        assert copy.restorability_index is None

    def test_rollback_keeps_current_when_after_last_write(self):
        copy = SingleCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        copy.rollback_to(4)
        assert copy.value == 8
        assert copy.last_write_index == 3

    def test_rollback_to_unrestorable_rejected(self):
        copy = SingleCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        copy.write(9, 5)
        with pytest.raises(RollbackError):
            copy.rollback_to(4)

    def test_rollback_discards_undone_write_history(self):
        copy = SingleCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        copy.write(9, 5)
        copy.rollback_to(6)          # keeps everything (after last write)
        assert copy.write_indices == [3, 5]
        copy2 = SingleCopy("a", base_value=7, lock_index=1)
        copy2.write(8, 3)
        copy2.rollback_to(3)         # undoes the write at 3
        assert copy2.write_indices == []
        assert copy2.value == 7


@given(
    write_indices=st.lists(st.integers(1, 8), max_size=10),
)
def test_single_copy_restorability_matches_semantics(write_indices):
    """Property: restorable_at(q) iff the single-copy model can actually
    produce the correct value — q at-or-before the first write, or after
    the last write."""
    ordered = sorted(write_indices)
    copy = SingleCopy("a", base_value=0, lock_index=0)
    for i, m in enumerate(ordered):
        copy.write(i + 1, m)
    for q in range(1, 10):
        if not ordered:
            assert copy.restorable_at(q)
        else:
            expected = q <= ordered[0] or q > ordered[-1]
            assert copy.restorable_at(q) == expected
