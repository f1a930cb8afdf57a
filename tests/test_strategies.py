"""Unit tests for the three rollback strategies (§4).

The strategies are exercised through their hook API exactly as the
scheduler calls them: ``begin`` -> (``record_lock_request`` +
``on_lock_granted``) per lock -> reads/writes ->
``choose_target``/``rollback``.  A tiny harness keeps the transaction's
lock records and the strategy in lockstep.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import ops
from repro.core.k_copy import KCopyStrategy
from repro.core.mcs import MultiLockCopyStrategy
from repro.core.rollback import available_strategies, make_strategy
from repro.core.single_copy import SingleCopyStrategy
from repro.core.total import TotalRestartStrategy
from repro.core.transaction import Transaction, TransactionProgram
from repro.errors import LockError, RollbackError, StorageFault
from repro.locking import EXCLUSIVE, SHARED
from repro.graphs.state_dependency import StateDependencyGraph
from repro.storage.copies import CopyCell


class Harness:
    """Drives a strategy the way the scheduler does."""

    def __init__(self, strategy, initial_locals=None, txn_id="T1"):
        # The program contents are irrelevant for direct strategy tests;
        # only the initial locals matter (plus enough ops so that rollback
        # is legal, i.e. the transaction is not complete).
        program = TransactionProgram(
            txn_id,
            [ops.assign("__pad", ops.const(i)) for i in range(50)],
            initial_locals=initial_locals or {},
        )
        self.txn = Transaction(program=program)
        self.strategy = strategy
        strategy.begin(self.txn)

    def lock(self, entity, mode=EXCLUSIVE, global_value=0, advance=3):
        """Issue and immediately grant a lock request."""
        self.txn.pc += advance
        record = self.txn.record_lock_request(entity, mode)
        record.granted = True
        self.strategy.on_lock_granted(
            self.txn, entity, mode, global_value, record.ordinal
        )
        return record

    def rollback(self, ordinal):
        self.strategy.rollback(self.txn, ordinal)
        self.txn.apply_rollback(ordinal)


#: Every registered strategy, plus the k-copy budget that degenerates to
#: single-copy: a newly registered strategy is under contract automatically.
STRATEGY_NAMES = (*available_strategies(), "k-copy:0")


@pytest.fixture(params=STRATEGY_NAMES)
def any_strategy(request):
    return make_strategy(request.param)


#: Random lock/write/rollback scripts for the differential tests below.
SCRIPTS = st.lists(
    st.one_of(
        st.tuples(st.just("lock"), st.booleans()),            # exclusive?
        st.tuples(st.just("write-entity"), st.integers(0, 7)),
        st.tuples(st.just("write-local"), st.sampled_from("xyz")),
        st.tuples(st.just("rollback"), st.integers(0, 7)),
    ),
    max_size=24,
)


def observe(harness, entities):
    """Everything the scheduler could read through the strategy."""
    strategy, txn = harness.strategy, harness.txn
    seen = {}
    for entity in sorted(entities):
        try:
            seen[entity] = strategy.read_entity(txn, entity)
        except LockError:
            seen[entity] = "<not held>"
    for var in "xyz":
        try:
            seen[var] = strategy.read_local(txn, var)
        except KeyError:
            seen[var] = "<undefined>"
    return seen


class TestCommonBehaviour:
    """Contract tests all five strategies must satisfy: the paper's §4
    three (total restart, MCS, single-copy/SDG) and the two beyond it
    (undo-log, §4's backward-execution sketch; k-copy, §5's open problem)."""

    def test_initial_locals_visible(self, any_strategy):
        h = Harness(any_strategy, initial_locals={"x": 9})
        assert any_strategy.read_local(h.txn, "x") == 9

    def test_local_write_read(self, any_strategy):
        h = Harness(any_strategy, initial_locals={"x": 0})
        any_strategy.write_local(h.txn, "x", 42)
        assert any_strategy.read_local(h.txn, "x") == 42

    def test_undeclared_local_created_on_write(self, any_strategy):
        h = Harness(any_strategy)
        any_strategy.write_local(h.txn, "fresh", 7)
        assert any_strategy.read_local(h.txn, "fresh") == 7

    def test_unknown_local_read_rejected(self, any_strategy):
        h = Harness(any_strategy)
        with pytest.raises(KeyError):
            any_strategy.read_local(h.txn, "nope")

    def test_exclusive_entity_read_write(self, any_strategy):
        h = Harness(any_strategy)
        h.lock("a", EXCLUSIVE, global_value=10)
        assert any_strategy.read_entity(h.txn, "a") == 10
        any_strategy.write_entity(h.txn, "a", 11)
        assert any_strategy.read_entity(h.txn, "a") == 11
        assert any_strategy.final_value(h.txn, "a") == 11

    def test_shared_entity_read_only(self, any_strategy):
        h = Harness(any_strategy)
        h.lock("a", SHARED, global_value=5)
        assert any_strategy.read_entity(h.txn, "a") == 5
        with pytest.raises(LockError):
            any_strategy.write_entity(h.txn, "a", 6)

    def test_unlocked_entity_rejected(self, any_strategy):
        h = Harness(any_strategy)
        with pytest.raises(LockError):
            any_strategy.read_entity(h.txn, "a")
        with pytest.raises(LockError):
            any_strategy.write_entity(h.txn, "a", 1)

    def test_unlock_drops_copy(self, any_strategy):
        h = Harness(any_strategy)
        h.lock("a", EXCLUSIVE, global_value=10)
        any_strategy.on_unlock(h.txn, "a")
        with pytest.raises(LockError):
            any_strategy.read_entity(h.txn, "a")

    def test_total_rollback_restores_everything(self, any_strategy):
        h = Harness(any_strategy, initial_locals={"x": 1})
        h.lock("a", EXCLUSIVE, global_value=10)
        any_strategy.write_entity(h.txn, "a", 99)
        any_strategy.write_local(h.txn, "x", 99)
        h.rollback(0)
        assert any_strategy.read_local(h.txn, "x") == 1
        with pytest.raises(LockError):
            any_strategy.read_entity(h.txn, "a")

    def test_finish_discards_state(self, any_strategy):
        h = Harness(any_strategy, initial_locals={"x": 1})
        any_strategy.on_finish(h.txn)
        with pytest.raises(KeyError):
            any_strategy.read_local(h.txn, "x")

    def test_copies_count_nonnegative(self, any_strategy):
        h = Harness(any_strategy, initial_locals={"x": 1})
        h.lock("a", EXCLUSIVE, global_value=10)
        assert any_strategy.copies_count(h.txn) >= 1

    def test_rollback_after_declaration_only_total(self, any_strategy):
        """§5: a transaction past its last lock request cannot deadlock,
        so no partial strategy keeps history for it; a restart needs none."""
        h = Harness(any_strategy, initial_locals={"x": 1})
        h.lock("a", EXCLUSIVE, global_value=10)
        any_strategy.write_local(h.txn, "x", 2)
        any_strategy.on_declare_last_lock(h.txn)
        if any_strategy.name == "total":
            h.rollback(0)
            assert any_strategy.read_local(h.txn, "x") == 1
        else:
            with pytest.raises(RollbackError, match="declared its last lock"):
                any_strategy.rollback(h.txn, 0)
            assert any_strategy.read_local(h.txn, "x") == 2

    def test_fault_hook_consulted_except_by_total(self, any_strategy):
        """Total restart is what a StorageFault degrades to, so it must
        not be able to fault; everything else asks the hook first."""
        h = Harness(any_strategy)
        h.lock("a", EXCLUSIVE, global_value=10)
        calls = []

        def hook(strategy, txn, ordinal):
            calls.append((strategy, txn, ordinal))
            raise StorageFault("injected")

        any_strategy.fault_hook = hook
        if any_strategy.name == "total":
            h.rollback(0)
            assert calls == []
        else:
            with pytest.raises(StorageFault):
                any_strategy.rollback(h.txn, 0)
            assert calls == [(any_strategy, h.txn, 0)]
            # The hook fires before anything is touched.
            assert any_strategy.read_entity(h.txn, "a") == 10

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @given(script=SCRIPTS)
    def test_rollback_agrees_with_mcs(self, name, script):
        """Differential: rolled back to its own ``choose_target(k)``, each
        strategy reads back exactly what MCS — the any-state reference —
        reads at that target, and keeps doing so as execution resumes."""
        locals_ = {"x": 0, "y": 0}   # "z" is created by its first write
        subject = Harness(make_strategy(name), initial_locals=locals_)
        reference = Harness(MultiLockCopyStrategy(), initial_locals=locals_)
        both = (subject, reference)
        txn = subject.txn
        entities = set()
        for value, (step, arg) in enumerate(script, start=1):
            if step == "lock":
                entity = f"e{txn.lock_count + 1}"
                entities.add(entity)
                for h in both:
                    h.lock(entity, EXCLUSIVE if arg else SHARED, value)
            elif step == "write-entity":
                held = [
                    record.entity
                    for record in txn.lock_records
                    if record.mode.is_exclusive
                ]
                if held:
                    for h in both:
                        h.strategy.write_entity(
                            h.txn, held[arg % len(held)], value
                        )
            elif step == "write-local":
                for h in both:
                    h.strategy.write_local(h.txn, arg, value)
            else:
                ideal = arg % (txn.lock_count + 1)
                target = subject.strategy.choose_target(txn, ideal)
                assert 0 <= target <= ideal
                for h in both:
                    h.rollback(target)
            assert observe(subject, entities) == observe(reference, entities)

    @given(script=SCRIPTS)
    def test_multicopy_without_retention_is_single_copy(self, script):
        """The same scripts, read as the life of one local variable: a
        cell that never retains is the paper's single copy — one stored
        value, and exactly the lock states at or before its first write
        (base value) or after its last (current value) restorable."""
        cell = CopyCell("x", base_value=0)
        writes = []   # (lock index, value) still on record: the reference
        lock_count = 0
        for value, (step, arg) in enumerate(script, start=1):
            if step == "lock":
                lock_count += 1
            elif step.startswith("write"):
                assert not cell.write(value, lock_count, retain=False)
                writes.append((lock_count, value))
            elif lock_count:
                target = 1 + arg % lock_count
                if cell.restorable_at(target):
                    cell.rollback_to(target)
                    writes = [w for w in writes if w[0] < target]
                    lock_count = target - 1
            assert cell.retained == [] and cell.copies_stored == 1
            assert cell.write_indices == [m for m, _value in writes]
            for q in range(lock_count + 2):
                from_base = not writes or q <= writes[0][0]
                from_current = bool(writes) and q > writes[-1][0]
                assert cell.restorable_at(q) == (from_base or from_current)
                if from_base:
                    assert cell.value_at(q) == 0
                elif from_current:
                    assert cell.value_at(q) == writes[-1][1]


class TestTotalRestart:
    def test_choose_target_always_zero(self):
        strategy = TotalRestartStrategy()
        h = Harness(strategy)
        h.lock("a")
        h.lock("b")
        assert strategy.choose_target(h.txn, 2) == 0
        assert strategy.choose_target(h.txn, 0) == 0

    def test_partial_rollback_rejected(self):
        strategy = TotalRestartStrategy()
        h = Harness(strategy)
        h.lock("a")
        h.lock("b")
        with pytest.raises(RollbackError):
            strategy.rollback(h.txn, 1)

    def test_copies_linear(self):
        strategy = TotalRestartStrategy()
        h = Harness(strategy, initial_locals={"x": 0})
        for i, name in enumerate("abcde"):
            h.lock(name, EXCLUSIVE, global_value=i)
            strategy.write_entity(h.txn, name, i + 100)
            strategy.write_entity(h.txn, name, i + 200)
        # One copy per entity + one per local, regardless of write count.
        assert strategy.copies_count(h.txn) == 5 + 1


class TestMcs:
    def test_choose_target_is_identity(self):
        strategy = MultiLockCopyStrategy()
        h = Harness(strategy)
        h.lock("a")
        h.lock("b")
        assert strategy.choose_target(h.txn, 2) == 2
        assert strategy.choose_target(h.txn, 1) == 1

    def test_partial_rollback_restores_exact_values(self):
        strategy = MultiLockCopyStrategy()
        h = Harness(strategy, initial_locals={"x": 0})
        h.lock("a", EXCLUSIVE, global_value=10)     # ordinal 1
        strategy.write_entity(h.txn, "a", 11)       # at lock index 1
        strategy.write_local(h.txn, "x", 1)
        h.lock("b", EXCLUSIVE, global_value=20)     # ordinal 2
        strategy.write_entity(h.txn, "a", 12)       # at lock index 2
        strategy.write_entity(h.txn, "b", 21)
        strategy.write_local(h.txn, "x", 2)
        h.lock("c", EXCLUSIVE, global_value=30)     # ordinal 3
        strategy.write_entity(h.txn, "a", 13)

        h.rollback(2)   # undo locks b..c and everything after lock state 2
        assert strategy.read_entity(h.txn, "a") == 11
        assert strategy.read_local(h.txn, "x") == 1
        with pytest.raises(LockError):
            strategy.read_entity(h.txn, "b")

    def test_rollback_to_one_keeps_nothing_but_locals(self):
        strategy = MultiLockCopyStrategy()
        h = Harness(strategy, initial_locals={"x": 0})
        strategy.write_local(h.txn, "x", 5)   # before any lock: index 0
        h.lock("a", EXCLUSIVE, global_value=10)
        strategy.write_local(h.txn, "x", 7)
        h.rollback(1)
        assert strategy.read_local(h.txn, "x") == 5

    def test_theorem3_space_bound(self):
        """Adversarial workload attains, never exceeds, n(n+1)/2 entity
        copies: after each lock, write every held entity once."""
        strategy = MultiLockCopyStrategy()
        h = Harness(strategy)
        n = 8
        names = [f"e{i}" for i in range(n)]
        for k, name in enumerate(names):
            h.lock(name, EXCLUSIVE, global_value=0)
            for held in names[: k + 1]:
                strategy.write_entity(h.txn, held, k)
        copies = strategy.entity_copies_count(h.txn)
        assert copies == n * (n + 1) // 2

    def test_theorem3_bound_never_exceeded_random(self):
        import random

        rng = random.Random(7)
        strategy = MultiLockCopyStrategy()
        h = Harness(strategy)
        n = 6
        names = [f"e{i}" for i in range(n)]
        held = []
        for name in names:
            h.lock(name, EXCLUSIVE, global_value=0)
            held.append(name)
            for _ in range(rng.randint(0, 10)):
                strategy.write_entity(h.txn, rng.choice(held), 1)
            assert (
                strategy.entity_copies_count(h.txn) <= n * (n + 1) // 2
            )

    def test_monitoring_off_stops_growth(self):
        strategy = MultiLockCopyStrategy()
        h = Harness(strategy)
        h.lock("a", EXCLUSIVE, global_value=0)
        strategy.write_entity(h.txn, "a", 1)
        strategy.on_declare_last_lock(h.txn)
        before = strategy.copies_count(h.txn)
        for value in range(5):
            strategy.write_entity(h.txn, "a", value)
        assert strategy.copies_count(h.txn) == before
        assert strategy.final_value(h.txn, "a") == 4

    def test_rollback_after_declaration_rejected(self):
        strategy = MultiLockCopyStrategy()
        h = Harness(strategy)
        h.lock("a")
        strategy.on_declare_last_lock(h.txn)
        with pytest.raises(RollbackError):
            strategy.rollback(h.txn, 0)


class TestSingleCopy:
    def test_choose_target_clamps_to_well_defined(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy)
        h.lock("a", EXCLUSIVE, global_value=10)   # ordinal 1
        strategy.write_entity(h.txn, "a", 11)     # u(a) = 1
        h.lock("b", EXCLUSIVE, global_value=20)   # ordinal 2
        h.lock("c", EXCLUSIVE, global_value=30)   # ordinal 3
        strategy.write_entity(h.txn, "a", 12)     # kills lock states 2, 3
        h.lock("d", EXCLUSIVE, global_value=40)   # ordinal 4
        assert strategy.choose_target(h.txn, 4) == 4
        assert strategy.choose_target(h.txn, 3) == 1
        assert strategy.choose_target(h.txn, 2) == 1
        assert strategy.choose_target(h.txn, 1) == 1

    def test_choose_target_exact_when_defined(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy)
        for entity in "abc":
            h.lock(entity)
        assert strategy.choose_target(h.txn, 2) == 2

    def test_choose_target_clamps_down_over_killed_states(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy, initial_locals={"x": 0})
        h.lock("a")                               # 1
        strategy.write_local(h.txn, "x", 1)
        h.lock("b")                               # 2
        h.lock("c")                               # 3
        strategy.write_local(h.txn, "x", 2)       # kills 2, 3
        assert strategy.choose_target(h.txn, 3) == 1
        assert strategy.choose_target(h.txn, 2) == 1

    def test_choose_target_zero_always_reachable(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy, initial_locals={"x": 0})
        h.lock("a")
        strategy.write_local(h.txn, "x", 1)
        assert strategy.choose_target(h.txn, 0) == 0

    def test_rollback_to_undefined_state_rejected(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy)
        h.lock("a", EXCLUSIVE, global_value=10)
        strategy.write_entity(h.txn, "a", 11)
        h.lock("b", EXCLUSIVE, global_value=20)
        h.lock("c", EXCLUSIVE, global_value=30)
        strategy.write_entity(h.txn, "a", 12)
        with pytest.raises(RollbackError):
            strategy.rollback(h.txn, 2)

    def test_rollback_to_well_defined_restores(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy, initial_locals={"x": 0})
        h.lock("a", EXCLUSIVE, global_value=10)   # ordinal 1
        strategy.write_entity(h.txn, "a", 11)
        strategy.write_local(h.txn, "x", 1)
        h.lock("b", EXCLUSIVE, global_value=20)   # ordinal 2
        strategy.write_entity(h.txn, "b", 21)
        # Lock state 2 is well-defined: a's only write precedes it and is
        # its last write; b's writes happen after it.
        assert strategy.choose_target(h.txn, 2) == 2
        h.rollback(2)
        assert strategy.read_entity(h.txn, "a") == 11   # last write kept
        assert strategy.read_local(h.txn, "x") == 1
        with pytest.raises(LockError):
            strategy.read_entity(h.txn, "b")

    def test_rollback_before_first_write_restores_base(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy)
        h.lock("a", EXCLUSIVE, global_value=10)   # ordinal 1
        h.lock("b", EXCLUSIVE, global_value=20)   # ordinal 2
        strategy.write_entity(h.txn, "a", 99)     # first write at index 2
        h.rollback(2)
        assert strategy.read_entity(h.txn, "a") == 10

    def test_copies_stay_linear(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy, initial_locals={"x": 0})
        n = 8
        for i in range(n):
            h.lock(f"e{i}", EXCLUSIVE, global_value=0)
            for held in range(i + 1):
                strategy.write_entity(h.txn, f"e{held}", held)
        # One copy per entity plus the local: linear, not quadratic.
        assert strategy.copies_count(h.txn) == n + 1

    def test_well_defined_states_view(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy)
        h.lock("a", EXCLUSIVE, global_value=0)
        assert strategy.well_defined_states(h.txn) == [0, 1]

    def test_is_k_copy_with_nothing_to_spend(self):
        strategy = SingleCopyStrategy()
        assert isinstance(strategy, KCopyStrategy)
        assert (strategy.name, strategy.extra_copies) == ("single-copy", 0)

    def test_rollback_after_declaration_rejected(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy)
        h.lock("a")
        strategy.on_declare_last_lock(h.txn)
        with pytest.raises(RollbackError):
            strategy.rollback(h.txn, 0)


class TestTheorem4Oracle:
    """Theorem 4 and Corollary 1 checked from outside the copy cells.

    The test keeps its own record of the writes still in force (nothing
    but "a rollback to lock state k undoes the writes at lock index >= k,
    and a restart forgets the locals it created") and builds the paper's
    graph from *that*, so the cells' restorability bookkeeping is compared
    with an answer it had no part in.
    """

    @pytest.mark.parametrize(
        "name", ["single-copy", "k-copy:1", "k-copy:2", "k-copy:inf"]
    )
    @given(script=SCRIPTS)
    def test_cells_spanning_edges_and_articulation_points_agree(
        self, name, script
    ):
        strategy = make_strategy(name)
        h = Harness(strategy, initial_locals={"x": 0, "y": 0})
        txn = h.txn
        writes = []              # (lock index, variable) still in force
        created = set()          # undeclared locals brought to life ("z")
        for value, (step, arg) in enumerate(script, start=1):
            if step == "lock":
                h.lock(f"e{txn.lock_count + 1}",
                       EXCLUSIVE if arg else SHARED, value)
            elif step == "write-entity":
                held = [
                    record.entity
                    for record in txn.lock_records
                    if record.mode.is_exclusive
                ]
                if held:
                    entity = held[arg % len(held)]
                    strategy.write_entity(txn, entity, value)
                    writes.append((txn.lock_count, f"e:{entity}"))
            elif step == "write-local":
                strategy.write_local(txn, arg, value)
                if arg in "xy" or arg in created:
                    writes.append((txn.lock_count, f"l:{arg}"))
                created.add(arg)    # a creating assignment is no write
            else:
                target = strategy.choose_target(
                    txn, arg % (txn.lock_count + 1)
                )
                h.rollback(target)
                writes = [w for w in writes if w[0] < target]
                if target == 0:
                    created.clear()

            assert sorted(strategy.write_history(txn)) == sorted(writes)
            graph = StateDependencyGraph.from_writes(txn.lock_count, writes)
            points = graph.articulation_points()
            states = range(txn.lock_count + 1)
            unspanned = [
                q for q in states
                if not any(edge.spans(q) for edge in graph.edges)
            ]
            # Corollary 1, on the graph alone.
            for q in states[1:-1]:
                assert (q in points) == (q in unspanned), (q, writes)
            reachable = [q for q in states if strategy.well_defined(txn, q)]
            if strategy.extra_copies == 0:
                # Theorem 4: one copy restores exactly the unspanned states.
                assert reachable == unspanned, writes
            else:
                # Retention only ever adds states.
                assert set(unspanned) <= set(reachable), writes
            assert reachable == strategy.well_defined_states(txn)
            for ideal in states:
                assert strategy.choose_target(txn, ideal) == max(
                    q for q in reachable if q <= ideal
                )


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_strategy("total"), TotalRestartStrategy)
        assert isinstance(make_strategy("mcs"), MultiLockCopyStrategy)
        assert isinstance(make_strategy("single-copy"), SingleCopyStrategy)
        assert isinstance(make_strategy("sdg"), SingleCopyStrategy)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("zz")
