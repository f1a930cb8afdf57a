"""Unit and property tests for repro.graphs.state_dependency (§4).

The key invariant, cross-checked by property tests: ``well_defined(q)`` is
True exactly when a single-copy system could reproduce every variable's
value at lock state *q* — i.e. for every variable, *q* lies at-or-before
its first write or strictly after its last write.

The graph is never rewound: the single-copy strategy derives it from the
write history its copy cells keep (``graph_of``), so what a rollback does
to the graph is tested at that seam.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.single_copy import SingleCopyStrategy
from repro.errors import RollbackError
from repro.graphs.state_dependency import StateDependencyGraph, WriteEdge
from tests.test_strategies import Harness


class TestWriteEdge:
    def test_spans_half_open_interval(self):
        edge = WriteEdge(2, 5, "x")
        assert not edge.spans(2)
        assert edge.spans(3)
        assert edge.spans(5)
        assert not edge.spans(6)


class TestBasicLifecycle:
    def test_fresh_graph(self):
        sdg = StateDependencyGraph()
        assert sdg.lock_count == 0
        assert sdg.well_defined_states() == [0]

    def test_lock_states_accumulate(self):
        sdg = StateDependencyGraph()
        assert sdg.add_lock_state() == 1
        assert sdg.add_lock_state() == 2
        assert sdg.well_defined_states() == [0, 1, 2]

    def test_first_write_creates_no_span(self):
        sdg = StateDependencyGraph()
        sdg.add_lock_state()
        assert sdg.record_write("x") is None
        assert sdg.well_defined_states() == [0, 1]

    def test_second_write_kills_intermediate_states(self):
        sdg = StateDependencyGraph()
        sdg.add_lock_state()          # 1
        sdg.record_write("x")         # u(x) = 1
        sdg.add_lock_state()          # 2
        sdg.add_lock_state()          # 3
        edge = sdg.record_write("x")  # interval (1, 3]
        assert edge == WriteEdge(1, 3, "x")
        assert sdg.well_defined_states() == [0, 1]
        sdg.add_lock_state()          # 4
        assert sdg.well_defined_states() == [0, 1, 4]

    def test_repeated_writes_same_lock_state(self):
        sdg = StateDependencyGraph()
        sdg.add_lock_state()
        sdg.record_write("x")
        assert sdg.record_write("x") is None  # same lock index: no new kill
        assert sdg.well_defined_states() == [0, 1]

    def test_independent_variables_union_their_kills(self):
        sdg = StateDependencyGraph()
        sdg.add_lock_state()          # 1
        sdg.record_write("x")         # u(x)=1
        sdg.add_lock_state()          # 2
        sdg.record_write("y")         # u(y)=2
        sdg.add_lock_state()          # 3
        sdg.record_write("x")         # kills 2, 3
        sdg.add_lock_state()          # 4
        sdg.record_write("y")         # kills 3, 4
        sdg.add_lock_state()          # 5
        assert sdg.well_defined_states() == [0, 1, 5]

    def test_restorability_index(self):
        sdg = StateDependencyGraph()
        sdg.add_lock_state()
        assert sdg.restorability_index("x") is None
        sdg.record_write("x")
        assert sdg.restorability_index("x") == 1

    def test_out_of_range_queries_rejected(self):
        sdg = StateDependencyGraph()
        sdg.add_lock_state()
        with pytest.raises(ValueError):
            sdg.well_defined(2)
        with pytest.raises(ValueError):
            sdg.well_defined(-1)
        strategy = SingleCopyStrategy()
        h = Harness(strategy)
        h.lock("a")
        with pytest.raises(RollbackError):
            strategy.rollback(h.txn, 5)


class TestTruncate:
    """A rollback truncates the recorded history; the derived graph
    follows, with no graph of its own to rewind."""

    def make_harness(self):
        strategy = SingleCopyStrategy()
        h = Harness(strategy, initial_locals={"x": 0, "y": 0})
        h.lock("a")                              # 1
        strategy.write_local(h.txn, "x", 1)      # u(x)=1
        h.lock("b")                              # 2
        h.lock("c")                              # 3
        strategy.write_local(h.txn, "x", 2)      # (1,3]
        h.lock("d")                              # 4
        strategy.write_local(h.txn, "y", 1)      # u(y)=4
        return h

    def test_truncate_removes_late_writes(self):
        h = self.make_harness()
        h.rollback(4)
        # Rolled back to lock state 4: request 4 undone, so lock_count is
        # 3; the write at lock index 4 is gone, x keeps its interval.
        sdg = h.strategy.graph_of(h.txn)
        assert sdg.lock_count == 3
        assert sdg.well_defined_states() == [0, 1]
        assert sdg.edges == [WriteEdge(1, 3, "l:x")]
        assert sdg.restorability_index("l:x") == 1
        assert sdg.restorability_index("l:y") is None

    def test_truncate_to_zero_resets(self):
        h = self.make_harness()
        h.rollback(0)
        sdg = h.strategy.graph_of(h.txn)
        assert sdg.lock_count == 0
        assert sdg.edges == []
        assert sdg.well_defined_states() == [0]

    def test_truncate_then_regrow(self):
        h = self.make_harness()
        h.rollback(4)
        assert h.lock("d").ordinal == 4
        h.strategy.write_local(h.txn, "x", 3)    # kills 4 (u(x)=1 persists)
        sdg = h.strategy.graph_of(h.txn)
        assert sdg.restorability_index("l:x") == 1
        assert not sdg.well_defined(4)
        assert h.strategy.choose_target(h.txn, 4) == 1


class TestGraphView:
    def test_chain_edges_present(self):
        sdg = StateDependencyGraph()
        sdg.add_lock_state()
        sdg.add_lock_state()
        adj = sdg.adjacency()
        assert adj[0] == {1}
        assert adj[1] == {0, 2}

    def test_articulation_points_match_well_defined_interior(self):
        """Corollary 1: for interior vertices, articulation point in G_p
        iff the lock state is well-defined."""
        sdg = StateDependencyGraph()
        sdg.add_lock_state()          # 1
        sdg.record_write("x")
        sdg.add_lock_state()          # 2
        sdg.add_lock_state()          # 3
        sdg.record_write("x")         # kills 2,3
        sdg.add_lock_state()          # 4
        sdg.add_lock_state()          # 5
        points = sdg.articulation_points()
        for q in range(1, sdg.lock_count):
            assert (q in points) == sdg.well_defined(q), q


@st.composite
def write_scripts(draw):
    """A random interleaving of lock requests and variable writes."""
    steps = draw(st.lists(
        st.one_of(
            st.just(("lock",)),
            st.tuples(st.just("write"), st.sampled_from("xyz")),
        ),
        max_size=25,
    ))
    return steps


@settings(max_examples=80)
@given(script=write_scripts())
def test_well_defined_matches_reference_semantics(script):
    """Property: the SDG's answer equals the brute-force single-copy rule
    computed from the raw write history."""
    sdg = StateDependencyGraph()
    history: dict[str, list[int]] = {}
    lock_count = 0
    for step in script:
        if step[0] == "lock":
            sdg.add_lock_state()
            lock_count += 1
        else:
            sdg.record_write(step[1])
            history.setdefault(step[1], []).append(lock_count)
    for q in range(lock_count + 1):
        expected = all(
            q <= writes[0] or q > writes[-1]
            for writes in history.values()
            if writes
        )
        assert sdg.well_defined(q) == expected, (q, history)


def replay(script):
    """A fresh single-copy harness driven through *script*."""
    h = Harness(SingleCopyStrategy(), initial_locals=dict.fromkeys("xyz", 0))
    for step in script:
        if step[0] == "lock":
            h.lock(f"e{h.txn.lock_count + 1}")
        else:
            h.strategy.write_local(h.txn, step[1], 1)
    return h


@settings(max_examples=50)
@given(script=write_scripts(), data=st.data())
def test_truncate_matches_replay(script, data):
    """Property: after a rollback to lock state k the derived graph is the
    graph of replaying only the prefix of the script up to the k-th lock
    request."""
    h = replay(script)
    ideal = data.draw(st.integers(0, h.txn.lock_count), label="rollback-target")
    k = h.strategy.choose_target(h.txn, ideal)
    h.rollback(k)

    # Reference: replay only the prefix strictly before the k-th lock
    # request (a rollback to lock state k undoes requests k..n and every
    # later operation; k = 0 undoes everything).
    prefix = []
    locks_seen = 0
    if k > 0:
        for step in script:
            if step[0] == "lock":
                if locks_seen + 1 == k:
                    break
                locks_seen += 1
            prefix.append(step)
    expected = replay(prefix)
    sdg = h.strategy.graph_of(h.txn)
    replayed = expected.strategy.graph_of(expected.txn)
    assert sdg.lock_count == replayed.lock_count
    assert sdg.edges == replayed.edges
    assert sdg.well_defined_states() == replayed.well_defined_states()
    assert h.strategy.well_defined_states(h.txn) == sdg.well_defined_states()
