"""Tests for the k-copy strategy and MultiCopy storage (§5 future work)."""

import pytest
from hypothesis import given, strategies as st

from repro import Database, Scheduler, TransactionProgram, ops
from repro.core.k_copy import (
    KCopyStrategy,
    eager_allocator,
    threshold_allocator,
)
from repro.core.rollback import make_strategy
from repro.errors import RollbackError
from repro.simulation import (
    RandomInterleaving,
    SimulationEngine,
    WorkloadConfig,
    expected_final_state,
    generate_workload,
)
from repro.storage.copies import CopyCell as MultiCopy, RetainedCopy


class TestMultiCopy:
    def test_behaves_like_single_copy_without_retention(self):
        copy = MultiCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        copy.write(9, 5)
        assert copy.restorable_at(3)
        assert not copy.restorable_at(4)
        assert copy.restorable_at(6)
        assert copy.value_at(3) == 7

    def test_retained_copy_covers_interval(self):
        copy = MultiCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        created = copy.write(9, 5, retain=True)
        assert created
        assert copy.restorable_at(4)
        assert copy.restorable_at(5)
        assert copy.value_at(4) == 8
        assert copy.value_at(5) == 8
        assert copy.copies_stored == 2

    def test_first_write_never_retains(self):
        copy = MultiCopy("a", base_value=7)
        assert not copy.write(8, 3, retain=True)
        assert copy.retained == []

    def test_same_index_rewrite_never_retains(self):
        copy = MultiCopy("a", base_value=7)
        copy.write(8, 3)
        assert not copy.write(9, 3, retain=True)
        assert copy.retained == []

    def test_rollback_into_retained_interval(self):
        copy = MultiCopy("a", base_value=7, lock_index=1)
        copy.write(8, 3)
        copy.write(9, 5, retain=True)
        copy.rollback_to(4)
        assert copy.value == 8
        assert copy.last_write_index == 3
        assert copy.retained == []   # the interval is now live history

    def test_rollback_keeps_earlier_retained(self):
        copy = MultiCopy("a", base_value=0)
        copy.write(1, 1)
        copy.write(2, 3, retain=True)   # retains value 1 over (1,3]
        copy.write(3, 6, retain=True)   # retains value 2 over (3,6]
        copy.rollback_to(7)             # after last write: keep all
        assert len(copy.retained) == 2
        copy.rollback_to(5)             # into (3,6]: value 2 current again
        assert copy.value == 2
        assert [r.hi for r in copy.retained] == [3]

    def test_unretained_gap_still_raises(self):
        copy = MultiCopy("a", base_value=0)
        copy.write(1, 1)
        copy.write(2, 3)                 # not retained: (1,3] destroyed
        copy.write(3, 6, retain=True)    # (3,6] retained
        assert not copy.restorable_at(2)
        with pytest.raises(RollbackError):
            copy.value_at(2)


@given(
    script=st.lists(
        st.tuples(st.integers(1, 8), st.booleans()), max_size=12
    )
)
def test_multicopy_retention_matches_reference(script):
    """Property: with retention decisions applied, restorable_at matches a
    full-history reference model exactly on the retained intervals."""
    copy = MultiCopy("a", base_value=0)
    history = []   # (lock_index, value) of every write, in order
    retained_intervals = []
    counter = 0
    last = None
    for lock_index, retain in sorted(script, key=lambda t: t[0]):
        counter += 1
        if retain and last is not None and lock_index > last:
            retained_intervals.append((last, lock_index))
        copy.write(counter, lock_index, retain=retain)
        history.append((lock_index, counter))
        last = lock_index
    for q in range(1, 10):
        if not history:
            assert copy.restorable_at(q)
            continue
        first_m = history[0][0]
        last_m = history[-1][0]
        expected = (
            q <= first_m
            or q > last_m
            or any(lo < q <= hi for lo, hi in retained_intervals)
        )
        assert copy.restorable_at(q) == expected


class Harness:
    """Same driving pattern as tests/test_strategies.py."""

    def __init__(self, strategy, initial_locals=None):
        program = TransactionProgram(
            "T1",
            [ops.assign(f"p{i}", ops.const(0)) for i in range(40)],
            initial_locals=initial_locals or {},
        )
        from repro.core.transaction import Transaction

        self.txn = Transaction(program=program)
        self.strategy = strategy
        strategy.begin(self.txn)

    def lock(self, entity, global_value=0):
        from repro.locking import EXCLUSIVE

        self.txn.pc += 2
        record = self.txn.record_lock_request(entity, EXCLUSIVE)
        self.strategy.on_lock_request(self.txn)
        record.granted = True
        self.strategy.on_lock_granted(
            self.txn, entity, EXCLUSIVE, global_value, record.ordinal
        )


def scatter_writes(harness):
    """lock a; write a; lock b; lock c; write a  (kills states 2, 3)."""
    strategy = harness.strategy
    harness.lock("a", global_value=10)
    strategy.write_entity(harness.txn, "a", 11)
    harness.lock("b", global_value=20)
    harness.lock("c", global_value=30)
    strategy.write_entity(harness.txn, "a", 12)


class TestKCopyStrategy:
    def test_zero_budget_equals_single_copy(self):
        strategy = KCopyStrategy(extra_copies=0)
        h = Harness(strategy)
        scatter_writes(h)
        assert strategy.well_defined_states(h.txn) == [0, 1]
        assert strategy.choose_target(h.txn, 3) == 1

    def test_budget_one_saves_the_interval(self):
        strategy = KCopyStrategy(extra_copies=1)
        h = Harness(strategy)
        scatter_writes(h)
        assert strategy.well_defined_states(h.txn) == [0, 1, 2, 3]
        assert strategy.choose_target(h.txn, 3) == 3

    def test_unbounded_budget_keeps_everything(self):
        strategy = KCopyStrategy(extra_copies=None)
        h = Harness(strategy)
        scatter_writes(h)
        strategy.write_entity(h.txn, "b", 21)
        strategy.write_entity(h.txn, "a", 13)
        assert strategy.well_defined_states(h.txn) == [0, 1, 2, 3]

    def test_rollback_restores_retained_value(self):
        strategy = KCopyStrategy(extra_copies=1)
        h = Harness(strategy)
        scatter_writes(h)
        strategy.rollback(h.txn, 2)
        h.txn.apply_rollback(2)
        assert strategy.read_entity(h.txn, "a") == 11

    def test_budget_exhaustion_falls_back(self):
        strategy = KCopyStrategy(extra_copies=1)
        h = Harness(strategy)
        h.lock("a", global_value=0)
        strategy.write_entity(h.txn, "a", 1)
        h.lock("b", global_value=0)
        strategy.write_entity(h.txn, "b", 1)
        h.lock("c", global_value=0)
        strategy.write_entity(h.txn, "a", 2)   # retained (budget 1->0)
        strategy.write_entity(h.txn, "b", 2)   # NOT retained
        # b's kill (2,3] is unprotected; a's (1,3] is protected.
        assert not strategy.well_defined(h.txn, 3)
        assert strategy.well_defined(h.txn, 2)

    def test_budget_returned_on_unlock_and_rollback(self):
        strategy = KCopyStrategy(extra_copies=1)
        h = Harness(strategy)
        scatter_writes(h)
        assert strategy._state(h.txn).budget_used == 1
        strategy.rollback(h.txn, 2)
        h.txn.apply_rollback(2)
        assert strategy._state(h.txn).budget_used == 0

    def test_threshold_allocator_skips_narrow_kills(self):
        strategy = KCopyStrategy(
            extra_copies=5, allocator=threshold_allocator(2)
        )
        h = Harness(strategy)
        h.lock("a", global_value=0)
        strategy.write_entity(h.txn, "a", 1)
        h.lock("b", global_value=0)
        strategy.write_entity(h.txn, "a", 2)   # width 1: skipped
        h.lock("c", global_value=0)
        h.lock("d", global_value=0)
        strategy.write_entity(h.txn, "a", 3)   # width 2: retained
        state = strategy._state(h.txn)
        assert state.budget_used == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            KCopyStrategy(extra_copies=-1)

    def test_factory_forms(self):
        assert make_strategy("k-copy").extra_copies == 1
        assert make_strategy("k-copy:4").extra_copies == 4
        assert make_strategy("k-copy:inf").extra_copies is None
        with pytest.raises(ValueError):
            make_strategy("k-copy:xx")

    def test_copies_count_includes_retained(self):
        strategy = KCopyStrategy(extra_copies=3)
        h = Harness(strategy, initial_locals={"x": 0})
        scatter_writes(h)
        # copies: a (1 + 1 retained) + b + c + local x = 5
        assert strategy.copies_count(h.txn) == 5


#: Seeded scattered-write runs whose rollbacks overshoot (``mcs`` on the same
#: three reads overshoot 0 and other fingerprints, so they bite on clamping):
#: (config, seed, trace fingerprint, (steps, deadlocks, rollbacks,
#: states_lost, overshoot_states, copies_peak)).
_SCATTERED = dict(skew="uniform", clustered_writes=False,
                  writes_per_entity=(2, 3))
PARENT_PINS = {
    "A": (
        WorkloadConfig(24, 8, (3, 6), write_ratio=0.8, skew="hotspot",
                       clustered_writes=False),
        3,
        "a7bc2b8be66b57cf813ffc188a8140201cb2709b43e2774baa943674e7612275",
        (1090, 129, 129, 600, 9, 44),
    ),
    "B": (
        WorkloadConfig(16, 8, (3, 6), write_ratio=1.0, **_SCATTERED),
        20,
        "0542bad4ee12b56cc8da48d560eee842ae9403d5185d9b50ee1665bf3102b47d",
        (868, 82, 82, 452, 35, 35),
    ),
    "C": (
        WorkloadConfig(16, 8, (3, 6), write_ratio=0.6, **_SCATTERED),
        11,
        "a6bf3553628bf134428064f1c9de9dd2997921404577289be83450255eb32f95",
        (556, 51, 52, 249, 3, 39),
    ),
}


class TestKCopyEndToEnd:
    @pytest.mark.parametrize("pin", sorted(PARENT_PINS))
    @pytest.mark.parametrize("strategy", ["single-copy", "k-copy:0"])
    def test_single_copy_and_budget_zero_pinned_at_parent(self, strategy, pin):
        """Bytes from before ``single-copy`` became ``k-copy`` at budget 0:
        the values were re-derived at the parent commit c4b47b1 (where the
        two were separate classes, one clamping by its live SDG, the other
        by its cells) before ``src/`` was touched, so the merged strategy is
        checked against the old pair and not against itself.  A and B were
        re-pinned (both strategies still byte-equal) when victim selection
        became the minimum vertex separator: equal-cost victim sets tie-break
        differently from the exhaustive solver's subset order; C is
        unchanged."""
        config, seed, fingerprint, counts = PARENT_PINS[pin]
        db, programs = generate_workload(config, seed=seed)
        scheduler = Scheduler(db, strategy, "ordered-min-cost")
        engine = SimulationEngine(
            scheduler, RandomInterleaving(seed=seed + 1),
            max_steps=200_000, livelock_window=20_000,
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        metrics = result.metrics
        assert result.trace.fingerprint() == fingerprint
        assert (
            result.steps, metrics.deadlocks, metrics.rollbacks,
            metrics.states_lost, metrics.overshoot_states,
            metrics.copies_peak,
        ) == counts

    @pytest.mark.parametrize("budget", ["k-copy:0", "k-copy:2",
                                        "k-copy:inf"])
    def test_serializable_under_contention(self, budget):
        config = WorkloadConfig(
            n_transactions=10, n_entities=8, locks_per_txn=(3, 6),
            write_ratio=1.0, writes_per_entity=(2, 3),
            clustered_writes=False, skew="uniform",
        )
        db, programs = generate_workload(config, seed=6)
        expected = expected_final_state(db, programs)
        scheduler = Scheduler(db, strategy=budget, policy="youngest")
        engine = SimulationEngine(
            scheduler, RandomInterleaving(2), max_steps=900_000,
        )
        for program in programs:
            engine.add(program)
        result = engine.run()
        assert result.final_state == expected

    def test_overshoot_decreases_with_budget(self):
        overshoots = {}
        for budget in (0, 1, 3, None):
            name = "k-copy:inf" if budget is None else f"k-copy:{budget}"
            total = 0
            for seed in range(4):
                config = WorkloadConfig(
                    n_transactions=12, n_entities=10,
                    locks_per_txn=(4, 7), write_ratio=1.0,
                    writes_per_entity=(2, 4), clustered_writes=False,
                    skew="uniform",
                )
                db, programs = generate_workload(config, seed=seed)
                scheduler = Scheduler(db, strategy=name,
                                      policy="youngest")
                engine = SimulationEngine(
                    scheduler, RandomInterleaving(seed + 177),
                    max_steps=900_000,
                )
                for program in programs:
                    engine.add(program)
                result = engine.run()
                total += result.metrics.overshoot_states
            overshoots[name] = total
        assert overshoots["k-copy:inf"] == 0
        assert overshoots["k-copy:0"] >= overshoots["k-copy:1"]
        assert overshoots["k-copy:1"] >= overshoots["k-copy:3"]
        assert overshoots["k-copy:3"] >= overshoots["k-copy:inf"]
        assert overshoots["k-copy:0"] > 0
