"""Graph algorithms used by the deadlock machinery.

All algorithms are implemented from first principles on plain adjacency
dictionaries (``dict[node, set[node]]`` for digraphs, ``dict[node,
set[node]]`` symmetric for undirected graphs) so the core library carries no
third-party dependencies.  The test suite cross-checks several of them
against ``networkx``.

Contents
--------
* :func:`find_cycle_through` — one directed cycle through a given vertex.
* :func:`simple_cycles_through` — all simple directed cycles through a given
  vertex (bounded enumeration; every deadlock created by a single wait
  response passes through the requesting transaction, §3.2).
* :func:`is_forest` — Theorem 1's structural test for exclusive-lock graphs.
* :func:`descendants` — reachability (the paper's descendant test for
  single-cycle deadlock detection).
* :func:`articulation_points` — Hopcroft–Tarjan, iterative, for
  state-dependency graphs (§4).
* :func:`on_cycles_through` — the vertices on some cycle through a given
  vertex, by reachability (no enumeration): a deadlock's members.
* :func:`min_vertex_separator` — the minimum-cost set of vertices breaking
  every cycle through a given vertex, by max-flow: §3.2's multi-victim
  optimum when all cycles share the requester, polynomial and exact.
* :func:`min_cost_vertex_cut` — exhaustive hitting set over an explicit
  cycle list (the general problem, the paper's "appears to be
  NP-complete"); the reference the separator is tested against, with no
  caller on the scheduling path.
"""

from __future__ import annotations

import itertools
from typing import Callable, Collection, Hashable, Iterable, Mapping, Sequence

Node = Hashable
Digraph = Mapping[Node, set]
Cost = float


def _successors(graph: Digraph, node: Node) -> set:
    return graph.get(node, set())


def nodes_of(graph: Digraph) -> set:
    """All nodes appearing in *graph* as keys or successors."""
    found = set(graph.keys())
    for targets in graph.values():
        found.update(targets)
    return found


def find_cycle_through(graph: Digraph, start: Node) -> list[Node] | None:
    """Return one directed cycle through *start*, or ``None``.

    The cycle is returned as a node list ``[start, n1, ..., nk]`` such that
    consecutive nodes are connected and the last node links back to *start*.
    Uses an iterative DFS from *start* looking for a path back to it.
    """
    stack: list[tuple[Node, list[Node]]] = [(start, [start])]
    seen: set = set()
    while stack:
        node, path = stack.pop()
        for succ in _successors(graph, node):
            if succ == start:
                return path
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, path + [succ]))
    return None


def on_cycles_through(
    graph: Digraph, start: Node, without: Collection[Node] = frozenset()
) -> set:
    """Vertices on some directed cycle through *start*, by reachability.

    A vertex lies on a cycle through *start* iff it is reachable from
    *start* and reaches it — two linear passes, no enumeration.  Vertices
    in *without* are treated as deleted.  Empty when no such cycle exists
    (in particular when *start* itself is deleted).
    """
    if start in without:
        return set()
    # Forward pass, recording each arc it crosses reversed: the backward
    # pass then never leaves the forward-reachable set.
    reverse: dict[Node, list[Node]] = {}
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in _successors(graph, node):
            if succ in without:
                continue
            reverse.setdefault(succ, []).append(node)
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    if start not in reverse:
        return set()
    members = {start}
    frontier = [start]
    while frontier:
        for pred in reverse[frontier.pop()]:
            if pred not in members:
                members.add(pred)
                frontier.append(pred)
    return members


def simple_cycles_through(
    graph: Digraph, start: Node, limit: int = 10_000,
    visit_budget: int = 200_000,
) -> list[list[Node]]:
    """Enumerate simple directed cycles through *start*.

    Each cycle is a node list beginning at *start* (the closing arc back to
    *start* is implicit).  Enumeration is a DFS over simple paths from
    *start*, restricted to :func:`on_cycles_through` — without that pruning
    the DFS wastes exponential effort on paths that can never close.  Two
    caps bound adversarial graphs: *limit* on the number of cycles returned
    and *visit_budget* on DFS node expansions.  The output is therefore a
    possibly-partial *record* of the deadlock; whoever must break every
    cycle works from the arcs (:func:`min_vertex_separator`), not from it.
    """
    on_cycle = on_cycles_through(graph, start)
    if not on_cycle:
        return []

    cycles: list[list[Node]] = []
    path: list[Node] = [start]
    on_path: set = {start}
    visits = 0
    # Each node's successors, sorted once per call: a node is revisited
    # once per simple path that reaches it.
    ordered: dict[Node, list[Node]] = {}

    def dfs(node: Node) -> bool:
        nonlocal visits
        visits += 1
        if visits > visit_budget:
            return False
        succs = ordered.get(node)
        if succs is None:
            succs = ordered[node] = sorted(_successors(graph, node), key=repr)
        for succ in succs:
            if succ == start:
                cycles.append(list(path))
                if len(cycles) >= limit:
                    return False
            elif succ not in on_path and succ in on_cycle:
                path.append(succ)
                on_path.add(succ)
                if not dfs(succ):
                    return False
                on_path.discard(succ)
                path.pop()
        return True

    dfs(start)
    return cycles


def find_cycle(graph: Digraph) -> list[Node] | None:
    """Some directed cycle in the digraph, or ``None`` (single DFS pass).

    Linear in vertices+edges; returns the cycle as a node list in edge
    order.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Node, int] = {}
    for root in sorted(nodes_of(graph), key=repr):
        if color.get(root, WHITE) != WHITE:
            continue
        stack: list[tuple[Node, Iterable[Node]]] = [
            (root, iter(sorted(_successors(graph, root), key=repr)))
        ]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                c = color.get(succ, WHITE)
                if c == GRAY:
                    # succ is on the current DFS stack: slice the cycle
                    # out of the gray path.
                    path = [entry[0] for entry in stack]
                    return path[path.index(succ):]
                if c == WHITE:
                    color[succ] = GRAY
                    stack.append(
                        (succ, iter(sorted(_successors(graph, succ), key=repr)))
                    )
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def has_cycle(graph: Digraph) -> bool:
    """True iff the digraph contains any directed cycle."""
    return find_cycle(graph) is not None


def is_forest(graph: Digraph) -> bool:
    """Structural test behind Theorem 1.

    With exclusive locks only, every waiting transaction waits for exactly
    one holder, so in the holder->waiter orientation every vertex has
    in-degree at most one; the graph is then a forest (of out-trees) iff it
    is acyclic.  This predicate checks both properties.
    """
    indegree: dict[Node, int] = {}
    for node, targets in graph.items():
        indegree.setdefault(node, 0)
        for succ in targets:
            indegree[succ] = indegree.get(succ, 0) + 1
    if any(d > 1 for d in indegree.values()):
        return False
    return not has_cycle(graph)


def descendants(graph: Digraph, start: Node) -> set:
    """All nodes reachable from *start* by directed paths (excluding start
    unless it lies on a cycle through itself)."""
    reached: set = set()
    frontier = list(_successors(graph, start))
    while frontier:
        node = frontier.pop()
        if node in reached:
            continue
        reached.add(node)
        frontier.extend(_successors(graph, node))
    return reached


# ---------------------------------------------------------------------------
# Undirected: articulation points (for state-dependency graphs, §4)
# ---------------------------------------------------------------------------


def articulation_points(adjacency: Mapping[Node, set]) -> set:
    """Articulation points of an undirected graph (Hopcroft–Tarjan).

    *adjacency* must be symmetric (``b in adjacency[a]`` implies ``a in
    adjacency[b]``).  Implemented iteratively so pathological
    state-dependency chains cannot hit Python's recursion limit.
    """
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    parent: dict[Node, Node | None] = {}
    points: set = set()
    counter = itertools.count()

    for root in adjacency:
        if root in index:
            continue
        parent[root] = None
        root_children = 0
        stack: list[tuple[Node, Iterable[Node]]] = [
            (root, iter(sorted(adjacency[root], key=repr)))
        ]
        index[root] = low[root] = next(counter)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nb in it:
                if nb not in index:
                    parent[nb] = node
                    if node == root:
                        root_children += 1
                    index[nb] = low[nb] = next(counter)
                    stack.append((nb, iter(sorted(adjacency[nb], key=repr))))
                    advanced = True
                    break
                if nb != parent[node]:
                    low[node] = min(low[node], index[nb])
            if not advanced:
                stack.pop()
                p = parent[node]
                if p is not None:
                    low[p] = min(low[p], low[node])
                    if p != root and low[node] >= index[p]:
                        points.add(p)
        if root_children > 1:
            points.add(root)
    return points


# ---------------------------------------------------------------------------
# Minimum-cost victim sets (§3.2)
# ---------------------------------------------------------------------------


def min_vertex_separator(
    successors: Mapping[Node, Iterable[Node]],
    root: Node,
    cost: Callable[[Node], int],
    candidates: Iterable[Node],
) -> set | None:
    """Minimum-cost set of *candidates* hitting every cycle through *root*.

    Every cycle through *root* is a path from *root* back to itself, so a
    set of other vertices hits them all iff it separates *root*'s out-side
    from its in-side: a minimum s–t vertex cut.  Each ``v != root`` is
    split into ``v_in -> v_out`` with capacity from ``cost(v)`` (a
    non-negative integer; infinite for a non-candidate), the arcs of
    *successors* are infinite, and Edmonds–Karp runs from ``root_out`` to
    ``root_in`` — polynomial and exact.

    Capacities are ``cost * (len(candidates) + 1) + 1``: among separators
    of equal cost one with the fewest vertices wins (no free vertex rides
    along unneeded), and among those the one nearest ``root_out``.  That
    cut is the same for every maximum flow, so the result does not depend
    on adjacency or set iteration order.

    Returns ``None`` when some cycle through *root* avoids every candidate
    (*root* itself is never one), the empty set when there is no cycle.
    """
    pool = set(candidates)
    pool.discard(root)
    if on_cycles_through(successors, root, without=pool):
        return None
    scale = len(pool) + 1
    infinite = float("inf")
    source, sink = (root, 1), (root, 0)
    residual: dict[tuple, dict[tuple, float]] = {source: {}, sink: {}}

    def connect(tail: tuple, head: tuple, capacity: float) -> None:
        residual.setdefault(tail, {})[head] = capacity
        residual.setdefault(head, {}).setdefault(tail, 0)

    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        if node != root:
            connect(
                (node, 0), (node, 1),
                cost(node) * scale + 1 if node in pool else infinite,
            )
        for succ in successors.get(node, ()):
            connect((node, 1), (succ, 0), infinite)
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)

    while True:
        # Breadth-first search of the residual network; when the sink is
        # out of reach, `parent` holds exactly the source side of the cut.
        parent: dict[tuple, tuple | None] = {source: None}
        queue = [source]
        for tail in queue:
            for head, capacity in residual[tail].items():
                if capacity > 0 and head not in parent:
                    parent[head] = tail
                    queue.append(head)
        if sink not in parent:
            return {
                node for node, side in parent
                if side == 0 and (node, 1) not in parent
            }
        path = []
        head = sink
        while parent[head] is not None:
            path.append((parent[head], head))
            head = parent[head]
        flow = min(residual[tail][head] for tail, head in path)
        for tail, head in path:
            residual[tail][head] -= flow
            residual[head][tail] += flow


def _cycles_hit(cycles: Sequence[Sequence[Node]], chosen: set) -> bool:
    return all(any(v in chosen for v in cycle) for cycle in cycles)


def min_cost_vertex_cut(
    cycles: Sequence[Sequence[Node]],
    cost: Callable[[Node], Cost],
    candidates: Iterable[Node] | None = None,
) -> set:
    """Exhaustive minimum-cost set of vertices hitting every listed cycle.

    The weighted hitting-set formulation over an explicit cycle list,
    which need not share a vertex.  Exponential in the number of candidate
    vertices (refuses more than 22) and only as complete as *cycles* is;
    kept as the reference :func:`min_vertex_separator` is tested against.
    """
    if not cycles:
        return set()
    pool = sorted(
        set(candidates) if candidates is not None
        else {v for cycle in cycles for v in cycle},
        key=repr,
    )
    if len(pool) > 22:
        raise ValueError(
            f"exhaustive cut over {len(pool)} candidates is intractable"
        )
    best: set | None = None
    best_cost = float("inf")
    # A larger set of cheap vertices can beat a smaller expensive one, so all
    # subset sizes must be scanned; subsets whose cost already exceeds the
    # incumbent are pruned.
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            chosen = set(combo)
            total = sum(cost(v) for v in chosen)
            if total >= best_cost:
                continue
            if _cycles_hit(cycles, chosen):
                best, best_cost = chosen, total
    if best is None:
        raise ValueError("no vertex cut exists over the given candidates")
    return best
