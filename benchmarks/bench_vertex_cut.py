"""E4 — §3.2: the multi-victim optimum, exhaustive reference vs separator.

Paper artefact: "Optimization of deadlock removal in a system with shared
and exclusive locks ... is equivalent to ... finding a minimum cost vertex
cut set ... Unfortunately, the problem appears to be NP-complete."

That is the general problem — cycles with no vertex in common (feedback
vertex set), which only a periodic sweep ever faces.  Detection at every
wait response gives the special case the paper itself points out: every
cycle passes through the requester, so the optimum is a minimum s–t vertex
separator, polynomial by max-flow.  We measure (a) that the separator's
cost equals the exhaustive solver's on random multi-cycle deadlocks whose
cycle list is complete, and (b) the exhaustive solver's exponential
blow-up against the separator's flat time as the deadlock grows.
"""

import random
import time

from conftest import report

from repro.graphs.algorithms import (
    min_cost_vertex_cut,
    min_vertex_separator,
    on_cycles_through,
    simple_cycles_through,
)


def random_deadlock(rng, n_vertices, density=0.3):
    """A random digraph with a cycle in which every cycle passes through
    vertex 0 (what one wait response leaves): a DAG over the others, arcs
    out of and into the requester."""
    others = list(range(1, n_vertices))
    costs = {v: rng.randint(1, 20) for v in others}
    while True:
        rng.shuffle(others)
        graph = {0: set()}
        for i, tail in enumerate(others):
            for head in others[i + 1:]:
                if rng.random() < density:
                    graph.setdefault(tail, set()).add(head)
        for vertex in others:
            if rng.random() < 0.5:
                graph[0].add(vertex)
            if rng.random() < 0.5:
                graph.setdefault(vertex, set()).add(0)
        if on_cycles_through(graph, 0):
            return graph, costs


def equality_experiment(n_trials=60):
    rng = random.Random(42)
    exhaustive_total = separator_total = equal = multi_cycle = 0
    for _ in range(n_trials):
        graph, costs = random_deadlock(rng, 9)
        cycles = simple_cycles_through(graph, 0)
        exhaustive = min_cost_vertex_cut(
            cycles, costs.__getitem__, candidates=costs
        )
        separator = min_vertex_separator(graph, 0, costs.__getitem__, costs)
        exhaustive_cost = sum(costs[v] for v in exhaustive)
        separator_cost = sum(costs[v] for v in separator)
        exhaustive_total += exhaustive_cost
        separator_total += separator_cost
        equal += exhaustive_cost == separator_cost
        multi_cycle += len(cycles) > 1
    return {
        "trials": n_trials,
        "multi_cycle": multi_cycle,
        "exhaustive_cost_total": exhaustive_total,
        "separator_cost_total": separator_total,
        "equal_cost_rate": round(equal / n_trials, 3),
    }


def scaling_experiment():
    rng = random.Random(7)
    rows = []
    for n in (6, 10, 14, 18, 60):
        graph, costs = random_deadlock(rng, n, density=0.15)
        t0 = time.perf_counter()
        separator = min_vertex_separator(graph, 0, costs.__getitem__, costs)
        separator_time = time.perf_counter() - t0
        row = {
            "vertices": n,
            "separator_ms": round(separator_time * 1000, 3),
            "exhaustive_ms": None,  # refuses more than 22 candidates
        }
        if n <= 18:
            cycles = simple_cycles_through(graph, 0)
            t0 = time.perf_counter()
            exhaustive = min_cost_vertex_cut(
                cycles, costs.__getitem__, candidates=costs
            )
            row["exhaustive_ms"] = round(
                (time.perf_counter() - t0) * 1000, 3
            )
            assert sum(costs[v] for v in exhaustive) == sum(
                costs[v] for v in separator
            )
        rows.append(row)
    return rows


def test_cut_equality(benchmark):
    result = benchmark(equality_experiment)
    # Shape: through-the-requester deadlocks are solved exactly by the
    # polynomial separator.
    assert result["equal_cost_rate"] == 1.0
    assert result["multi_cycle"] >= result["trials"] // 2
    report(
        "E4 — min-cost victims: separator vs exhaustive reference (cost)",
        [result],
        paper_note="§3.2: NP-complete in general; cycles through one "
                   "requester are a polynomial s-t separator",
    )
    benchmark.extra_info.update(result)


def test_cut_scaling(benchmark):
    rows = benchmark.pedantic(scaling_experiment, rounds=1, iterations=1)
    # Shape: the exhaustive solver blows up with vertex count, the
    # separator does not — at 60 vertices it is still faster than the
    # exhaustive solver at 18.
    assert rows[3]["exhaustive_ms"] > rows[0]["exhaustive_ms"] * 10
    assert rows[3]["separator_ms"] < rows[3]["exhaustive_ms"]
    assert rows[4]["separator_ms"] < rows[3]["exhaustive_ms"]
    report(
        "E4 — min-cost victims: exhaustive blow-up vs separator (time)",
        rows,
        paper_note="exhaustive is exponential in deadlock size; max-flow "
                   "is polynomial",
    )
