"""Unit and property tests for repro.graphs.algorithms.

Several algorithms are cross-checked against networkx (a test-only
dependency) on randomly generated graphs.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import algorithms as alg


class TestFindCycleThrough:
    def test_no_cycle(self):
        graph = {"a": {"b"}, "b": {"c"}}
        assert alg.find_cycle_through(graph, "a") is None

    def test_self_not_on_cycle(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": {"b"}}
        assert alg.find_cycle_through(graph, "a") is None

    def test_two_cycle(self):
        graph = {"a": {"b"}, "b": {"a"}}
        cycle = alg.find_cycle_through(graph, "a")
        assert cycle == ["a", "b"]

    def test_longer_cycle(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}}
        cycle = alg.find_cycle_through(graph, "b")
        assert cycle is not None
        assert cycle[0] == "b"
        assert len(cycle) == 3


class TestSimpleCyclesThrough:
    def test_multiple_cycles(self):
        graph = {
            "r": {"x", "y"},
            "x": {"r"},
            "y": {"z"},
            "z": {"r"},
        }
        cycles = alg.simple_cycles_through(graph, "r")
        as_sets = {frozenset(c) for c in cycles}
        assert as_sets == {frozenset({"r", "x"}), frozenset({"r", "y", "z"})}

    def test_all_cycles_start_at_origin(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": {"a", "b"}}
        for cycle in alg.simple_cycles_through(graph, "a"):
            assert cycle[0] == "a"

    def test_limit_caps_enumeration(self):
        # Complete digraph on 6 nodes has many cycles through node 0.
        nodes = list(range(6))
        graph = {n: set(nodes) - {n} for n in nodes}
        cycles = alg.simple_cycles_through(graph, 0, limit=5)
        assert len(cycles) == 5

    def test_no_cycles(self):
        graph = {"a": {"b"}, "b": set()}
        assert alg.simple_cycles_through(graph, "a") == []


class TestHasCycleAndForest:
    def test_empty_graph(self):
        assert not alg.has_cycle({})
        assert alg.is_forest({})

    def test_tree_is_forest(self):
        graph = {"r": {"a", "b"}, "a": {"c"}}
        assert alg.is_forest(graph)

    def test_two_trees_are_forest(self):
        graph = {"r1": {"a"}, "r2": {"b"}}
        assert alg.is_forest(graph)

    def test_diamond_not_forest(self):
        """In-degree 2 without a cycle: a DAG but not a forest."""
        graph = {"a": {"c"}, "b": {"c"}}
        assert not alg.is_forest(graph)
        assert not alg.has_cycle(graph)

    def test_cycle_not_forest(self):
        graph = {"a": {"b"}, "b": {"a"}}
        assert alg.has_cycle(graph)
        assert not alg.is_forest(graph)

    def test_self_loop(self):
        assert alg.has_cycle({"a": {"a"}})


@settings(max_examples=60)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        max_size=25,
    )
)
def test_has_cycle_matches_networkx(edges):
    graph = {}
    g = nx.DiGraph()
    g.add_nodes_from(range(9))
    for u, v in edges:
        graph.setdefault(u, set()).add(v)
        g.add_edge(u, v)
    assert alg.has_cycle(graph) == (not nx.is_directed_acyclic_graph(g))


class TestDescendants:
    def test_simple_chain(self):
        graph = {"a": {"b"}, "b": {"c"}}
        assert alg.descendants(graph, "a") == {"b", "c"}
        assert alg.descendants(graph, "c") == set()

    def test_cycle_includes_self(self):
        graph = {"a": {"b"}, "b": {"a"}}
        assert alg.descendants(graph, "a") == {"a", "b"}


class TestArticulationPoints:
    def test_path_graph(self):
        adj = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        assert alg.articulation_points(adj) == {1, 2}

    def test_cycle_has_none(self):
        adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        assert alg.articulation_points(adj) == set()

    def test_bridge_vertex(self):
        # Two triangles joined at vertex 2.
        adj = {
            0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3, 4},
            3: {2, 4}, 4: {2, 3},
        }
        assert alg.articulation_points(adj) == {2}

    def test_long_path_no_recursion_error(self):
        n = 5000
        adj = {i: set() for i in range(n)}
        for i in range(n - 1):
            adj[i].add(i + 1)
            adj[i + 1].add(i)
        points = alg.articulation_points(adj)
        assert points == set(range(1, n - 1))


@settings(max_examples=60)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=25,
    )
)
def test_articulation_points_match_networkx(edges):
    adj = {}
    g = nx.Graph()
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        g.add_edge(u, v)
    expected = set(nx.articulation_points(g)) if len(g) else set()
    assert alg.articulation_points(adj) == expected


class TestVertexCuts:
    def cost_table(self, costs):
        return lambda v: costs[v]

    def test_single_cycle_cheapest_vertex(self):
        cycles = [["a", "b", "c"]]
        cut = alg.min_cost_vertex_cut(
            cycles, self.cost_table({"a": 5, "b": 1, "c": 3})
        )
        assert cut == {"b"}

    def test_shared_vertex_beats_two_cheap(self):
        cycles = [["r", "x"], ["r", "y"]]
        cut = alg.min_cost_vertex_cut(
            cycles, self.cost_table({"r": 3, "x": 2, "y": 2})
        )
        assert cut == {"r"}

    def test_two_cheap_beat_shared_vertex(self):
        cycles = [["r", "x"], ["r", "y"]]
        cut = alg.min_cost_vertex_cut(
            cycles, self.cost_table({"r": 10, "x": 2, "y": 2})
        )
        assert cut == {"x", "y"}

    def test_larger_set_can_be_cheaper(self):
        """Regression: the optimum may have larger cardinality."""
        cycles = [["a", "p"], ["b", "q"], ["c", "r"]]
        costs = {"a": 1, "b": 1, "c": 1, "p": 100, "q": 100, "r": 100}
        cut = alg.min_cost_vertex_cut(cycles, self.cost_table(costs))
        assert cut == {"a", "b", "c"}

    def test_candidate_restriction(self):
        cycles = [["a", "b", "c"]]
        cut = alg.min_cost_vertex_cut(
            cycles, self.cost_table({"a": 5, "b": 1, "c": 3}),
            candidates={"a", "c"},
        )
        assert cut == {"c"}

    def test_no_cut_within_candidates_raises(self):
        cycles = [["a", "b"], ["c", "d"]]
        with pytest.raises(ValueError):
            alg.min_cost_vertex_cut(
                cycles, lambda v: 1, candidates={"a"}
            )

    def test_empty_cycles(self):
        assert alg.min_cost_vertex_cut([], lambda v: 1) == set()

    def test_too_many_candidates_rejected(self):
        cycles = [[f"v{i}" for i in range(30)]]
        with pytest.raises(ValueError):
            alg.min_cost_vertex_cut(cycles, lambda v: 1)


class TestOnCyclesThrough:
    def test_reachable_and_reaching(self):
        graph = {"r": {"a", "x"}, "a": {"b"}, "b": {"r"}, "x": {"y"},
                 "z": {"r"}}
        # x, y never get back; z is never reached.
        assert alg.on_cycles_through(graph, "r") == {"r", "a", "b"}

    def test_no_cycle_is_empty(self):
        assert alg.on_cycles_through({"r": {"a"}, "a": {"b"}}, "r") == set()

    def test_without_deletes_vertices(self):
        graph = {"r": {"a", "b"}, "a": {"r"}, "b": {"r"}}
        assert alg.on_cycles_through(graph, "r", without={"a"}) == {"r", "b"}
        assert alg.on_cycles_through(graph, "r", without={"a", "b"}) == set()
        assert alg.on_cycles_through(graph, "r", without={"r"}) == set()


def cost_of(cut, costs):
    return sum(costs[v] for v in cut)


class TestMinVertexSeparator:
    def test_single_cycle_is_figure1_walk(self):
        """Theorem 1: an exclusive-lock deadlock is one cycle, and the
        optimum is the argmin of Figure 1's walk along it from the
        requester — the first of the cheapest on a tie."""
        graph = {"r": {"a"}, "a": {"b"}, "b": {"c"}, "c": {"d"}, "d": {"r"}}
        costs = {"a": 5, "b": 2, "c": 7, "d": 2}
        walk = ["a", "b", "c", "d"]
        cut = alg.min_vertex_separator(graph, "r", costs.__getitem__, walk)
        assert cut == {min(walk, key=costs.__getitem__)} == {"b"}

    def test_shared_vertex_beats_two_cheap(self):
        graph = {"r": {"x", "y"}, "x": {"m"}, "y": {"m"}, "m": {"r"}}
        costs = {"x": 2, "y": 2, "m": 3}
        assert alg.min_vertex_separator(
            graph, "r", costs.__getitem__, costs
        ) == {"m"}

    def test_two_cheap_beat_shared_vertex(self):
        graph = {"r": {"x", "y"}, "x": {"m"}, "y": {"m"}, "m": {"r"}}
        costs = {"x": 2, "y": 2, "m": 10}
        assert alg.min_vertex_separator(
            graph, "r", costs.__getitem__, costs
        ) == {"x", "y"}

    def test_equal_cost_prefers_fewer_then_nearer(self):
        graph = {"r": {"x", "y"}, "x": {"m"}, "y": {"m"}, "m": {"n"},
                 "n": {"r"}}
        costs = {"x": 2, "y": 2, "m": 4, "n": 4}
        assert alg.min_vertex_separator(
            graph, "r", costs.__getitem__, costs
        ) == {"m"}

    def test_free_vertices_only_where_needed(self):
        """Cost-0 victims (a member that merely queues) join the cut only
        on paths nothing else covers."""
        graph = {"r": {"z", "b"}, "z": {"b"}, "b": {"r"}}
        costs = {"z": 0, "b": 1}
        assert alg.min_vertex_separator(
            graph, "r", costs.__getitem__, costs
        ) == {"b"}
        graph["z"] = {"b", "r"}
        assert alg.min_vertex_separator(
            graph, "r", costs.__getitem__, costs
        ) == {"z", "b"}

    def test_cycle_avoiding_candidates_is_none(self):
        graph = {"r": {"a", "b"}, "a": {"r"}, "b": {"r"}}
        assert alg.min_vertex_separator(graph, "r", lambda v: 1, {"a"}) is None
        assert alg.min_vertex_separator(graph, "r", lambda v: 1, ()) is None
        assert alg.min_vertex_separator(graph, "r", lambda v: 1, {"r"}) is None

    def test_no_cycle_is_empty(self):
        assert alg.min_vertex_separator(
            {"r": {"a"}}, "r", lambda v: 1, {"a"}
        ) == set()

    def test_truncated_reference_is_a_lower_bound(self):
        """Handed a truncated cycle list — what a capped enumeration gave
        victim selection before — the exhaustive solver covers only what
        it was shown; the separator reads the arcs, costs at least as
        much, and leaves no cycle."""
        graph = {"r": {"a", "b", "c"}, "a": {"r"}, "b": {"r"}, "c": {"r"}}
        costs = {"a": 1, "b": 2, "c": 3}
        cycles = alg.simple_cycles_through(graph, "r", limit=2)
        assert len(cycles) == 2
        partial = alg.min_cost_vertex_cut(
            cycles, costs.__getitem__, candidates=costs
        )
        cut = alg.min_vertex_separator(graph, "r", costs.__getitem__, costs)
        assert alg.on_cycles_through(graph, "r", without=partial)
        assert not alg.on_cycles_through(graph, "r", without=cut)
        assert cost_of(cut, costs) == 6 >= cost_of(partial, costs) == 3


@st.composite
def deadlocks(draw):
    """A digraph in which every cycle passes through ``r`` (what the
    waits-for graph is after one wait response): a random DAG over the
    other vertices plus arcs out of and into ``r``; integer costs, zeros
    included; a random candidate subset."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 7)))]
    order = draw(st.permutations(vertices))
    arcs = [
        (tail, head)
        for i, tail in enumerate(order) for head in order[i + 1:]
    ] + [("r", v) for v in vertices] + [(v, "r") for v in vertices]
    chosen = draw(st.lists(st.sampled_from(arcs), unique=True))
    costs = {v: draw(st.integers(0, 6), label=f"cost-{v}") for v in vertices}
    candidates = draw(st.sets(st.sampled_from(vertices)))
    return chosen, costs, candidates


@settings(max_examples=500, deadline=None)
@given(deadlock=deadlocks(), shuffle=st.randoms(use_true_random=False))
def test_separator_equals_exhaustive_reference(deadlock, shuffle):
    """Differential: the polynomial separator against the exhaustive
    solver over the complete cycle list — same cost, ``None`` exactly when
    the reference finds no cover, the same set whatever order the
    adjacency arrives in."""
    arcs, costs, candidates = deadlock
    graph = {}
    for tail, head in arcs:
        graph.setdefault(tail, set()).add(head)
    cut = alg.min_vertex_separator(graph, "r", costs.__getitem__, candidates)
    cycles = alg.simple_cycles_through(graph, "r")
    try:
        reference = alg.min_cost_vertex_cut(
            cycles, costs.__getitem__, candidates=candidates
        )
    except ValueError:
        reference = None
    if reference is None:
        assert cut is None
    else:
        assert cut is not None and cut <= candidates
        assert not alg.on_cycles_through(graph, "r", without=cut)
        assert cost_of(cut, costs) == cost_of(reference, costs)
    shuffle.shuffle(arcs)
    reordered = {}
    for tail, head in arcs:
        reordered.setdefault(tail, []).append(head)
    assert alg.min_vertex_separator(
        reordered, "r", costs.__getitem__, sorted(candidates, reverse=True)
    ) == cut
