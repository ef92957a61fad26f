"""Independent brute-force oracles for cross-checking the library.

Everything here is deliberately written with different algorithms than the
implementation: reachability enumerates journeys state by state instead of
sweeping snapshot components, components come from union-find instead of
BFS, and the optimizers enumerate raw subsets with no pruning.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from typing import Iterable, Sequence

from tgaug.augmentation import All, AugmentationProblem, Source, verify_solution
from tgaug.steiner_expansion import ExpansionGraph
from tgaug.temporal_graph import (
    NON_STRICT,
    STRICT,
    TemporalEdge,
    TemporalGraph,
    sorted_edges,
)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_find_components(n: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Snapshot components via union-find, sorted by smallest member."""
    uf = UnionFind(n)
    for u, v in pairs:
        uf.union(u, v)
    blocks: dict[int, list[int]] = {}
    for v in range(n):
        blocks.setdefault(uf.find(v), []).append(v)
    return sorted((tuple(sorted(b)) for b in blocks.values()), key=lambda b: b[0])


def journey_reach(g: TemporalGraph, source: int, semantics: str) -> set[int]:
    """Reachable set by enumerating journeys hop by hop.

    Explores (vertex, earliest usable next time) states, which covers every
    journey without repeating work; completely independent of the
    component-sweep implementation.
    """
    start = (source, 1)
    seen = {start}
    stack = [start]
    reached = {source}
    while stack:
        v, t_min = stack.pop()
        for e in g.edges:
            if v not in (e.u, e.v) or e.t < t_min:
                continue
            w = e.v if e.u == v else e.u
            nxt = (w, e.t + 1 if semantics == STRICT else e.t)
            reached.add(w)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return reached


def journey_connected(g: TemporalGraph, semantics: str) -> bool:
    return all(journey_reach(g, s, semantics) == set(range(g.n)) for s in range(g.n))


def is_journey(
    g: TemporalGraph,
    hops: Sequence[tuple[int, int, int]],
    semantics: str,
    source: int,
    target: int,
) -> bool:
    """Whether ``hops`` is a journey of ``g`` from ``source`` to ``target``.

    The (from, to, time) hops chain from ``source`` to ``target`` (no hops
    exactly when the two are equal), each is an edge of ``g`` in either
    direction, and the times never decrease (strict: always increase).
    """
    if (len(hops) == 0) != (source == target):
        return False
    present = {(e.u, e.v, e.t) for e in g.edges} | {(e.v, e.u, e.t) for e in g.edges}
    at, last = source, 0
    for frm, to, t in hops:
        if frm != at or (frm, to, t) not in present:
            return False
        if t < last or (semantics == STRICT and t == last):
            return False
        at, last = to, t
    return at == target


def journey_requirement_holds(
    problem: AugmentationProblem, selected: Iterable[TemporalEdge]
) -> bool:
    """Whether adding ``selected`` meets the requirement, read off its definition.

    Uses :func:`journey_reach` and no demand code of the library: All needs
    every vertex to reach every vertex, Source its vertex to reach every
    vertex, and Pairs at least its demand of the listed entries, each
    duplicate counted, to have a journey.
    """
    g = problem.base.augment(selected)
    req = problem.requirement
    everyone = set(range(g.n))
    if isinstance(req, All):
        return all(journey_reach(g, s, problem.semantics) == everyone for s in everyone)
    if isinstance(req, Source):
        return journey_reach(g, req.vertex, problem.semantics) == everyone
    met = sum(v in journey_reach(g, u, problem.semantics) for u, v in req.pairs)
    return met >= (len(req.pairs) if req.demand is None else req.demand)


def brute_min_cost(problem: AugmentationProblem, cap: int | None = None) -> int | None:
    """Minimum feasible cost by raw subset enumeration, no pruning at all."""
    if problem.cost_model == "group":
        units: list[tuple[TemporalEdge, ...]] = [
            edges for _, edges in problem.candidate_groups
        ]
    else:
        units = [(e,) for e in problem.candidates_sorted]
    limit = len(units) if cap is None else min(cap, len(units))
    for cost in range(limit + 1):
        for combo in itertools.combinations(units, cost):
            if verify_solution(problem, [e for unit in combo for e in unit]):
                return cost
    return None


def brute_least_selection(
    problem: AugmentationProblem,
) -> tuple[tuple[TemporalEdge, ...], tuple[tuple[int, int], ...] | None] | str:
    """The lexicographically least minimum selection by raw subset enumeration.

    Returns the selected edges and, under the group cost model, the chosen
    endpoint pairs; or the reason a solver reports instead: "infeasible"
    when not even every candidate together works, "budget_exceeded" when no
    selection fits the budget.
    """
    grouped = problem.cost_model == "group"
    if grouped:
        units: list[tuple[TemporalEdge, ...]] = [edges for _, edges in problem.candidate_groups]
    else:
        units = [(e,) for e in problem.candidates_sorted]
    if not verify_solution(problem, problem.candidates):
        return "infeasible"
    limit = len(units) if problem.budget is None else min(problem.budget, len(units))
    for cost in range(limit + 1):
        for combo in itertools.combinations(units, cost):
            selected = [e for unit in combo for e in unit]
            if verify_solution(problem, selected):
                groups = tuple(sorted(unit[0].pair for unit in combo)) if grouped else None
                return sorted_edges(selected), groups
    return "budget_exceeded"


def brute_spanner_min(g: TemporalGraph) -> int | None:
    """Smallest edge subset keeping non-strict connectivity, by direct enumeration."""
    edges = sorted_edges(g.edges)
    for size in range(len(edges) + 1):
        for combo in itertools.combinations(edges, size):
            sub = TemporalGraph.build(g.n, combo, lifespan=g.lifespan)
            if journey_connected(sub, NON_STRICT):
                return size
    return None


def brute_dominating_min(n: int, edges: frozenset[tuple[int, int]]) -> int:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            picked = set(combo)
            if all(v in picked or adj[v] & picked for v in range(n)):
                return size
    raise AssertionError("the full vertex set always dominates")


def brute_hitting_min(subsets: Sequence[frozenset[int]], universe: int) -> int | None:
    for size in range(universe + 1):
        for combo in itertools.combinations(range(universe), size):
            picked = set(combo)
            if all(s & picked for s in subsets):
                return size
    return None


def _partitions(items: list[int]):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def brute_max_disjoint_covers(subsets: Sequence[frozenset[int]], universe: int) -> int:
    """Largest k such that the collection splits into k parts that each cover."""
    full = set(range(universe))
    best = 0
    for part in _partitions(list(range(len(subsets)))):
        if all(set().union(*(subsets[j] for j in block)) >= full for block in part):
            best = max(best, len(part))
    return best


def brute_sat(n_vars: int, clauses: Sequence[Sequence[int]]):
    """First satisfying assignment of a CNF (DIMACS literals), or None."""
    for bits in itertools.product([False, True], repeat=n_vars):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses
        ):
            return bits
    return None


def dijkstra_weight(exp: ExpansionGraph, src: int, dst: int) -> int | None:
    """Weighted shortest path with every gate open, read off the arc list alone."""
    out = defaultdict(list)
    for a, b, w in exp.arcs:
        out[a].append((b, w))
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == dst:
            return d
        if d > dist.get(node, float("inf")):
            continue
        for nxt, w in out[node]:
            nd = d + w
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return None


def graph_from_mask(n: int, lifespan: int, mask: int) -> TemporalGraph:
    """Decode an edge-subset bitmask over all (pair, time) slots; exhaustive driver."""
    slots = [
        (u, v, t) for t in range(1, lifespan + 1) for u in range(n) for v in range(u + 1, n)
    ]
    edges = [TemporalEdge(u, v, t) for i, (u, v, t) in enumerate(slots) if mask >> i & 1]
    return TemporalGraph.build(n, edges, lifespan=lifespan)


def all_graphs(n: int, lifespan: int):
    """Every temporal graph on n vertices over 1..lifespan (lifespan pinned)."""
    n_slots = lifespan * n * (n - 1) // 2
    for mask in range(1 << n_slots):
        yield graph_from_mask(n, lifespan, mask)


def random_graph(rng, n: int, lifespan: int, p: float) -> TemporalGraph:
    edges = [
        TemporalEdge(u, v, t)
        for t in range(1, lifespan + 1)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return TemporalGraph.build(n, edges, lifespan=lifespan)


def merge_by_positions(rows: tuple[tuple[int, ...], ...], steps) -> tuple[tuple[int, ...], ...]:
    """Replay a merge history by OR-ing two lines at their current positions.

    Each step names two groups by their smallest original line (``axis`` is
    "rows" or "cols"); the OR takes the lower of the two positions and the
    smaller of the two names, and the other line is deleted.
    """
    rows = [list(r) for r in rows]
    names = {"rows": list(range(len(rows))), "cols": list(range(len(rows[0])))}
    for step in steps:
        labels = names[step.axis]
        a, c = sorted((labels.index(step.i), labels.index(step.j)))
        labels[a] = min(labels[a], labels.pop(c))
        if step.axis == "rows":
            rows[a] = [x | y for x, y in zip(rows[a], rows.pop(c))]
        else:
            for r in rows:
                r[a] |= r.pop(c)
    return tuple(tuple(r) for r in rows)


def brute_octo_min(rows: tuple[tuple[int, ...], ...]) -> int | None:
    """Minimum OR-combinations by plain BFS over raw matrix states (no canonicalization)."""
    from collections import deque

    def one_filled(m):
        return all(all(r) for r in m)

    if one_filled(rows):
        return 0
    if not any(any(r) for r in rows):
        return None
    seen = {rows}
    queue = deque([(rows, 0)])
    while queue:
        mat, depth = queue.popleft()
        succ = []
        for i, j in itertools.combinations(range(len(mat)), 2):
            merged = tuple(x | y for x, y in zip(mat[i], mat[j]))
            succ.append(tuple(merged if k == i else r for k, r in enumerate(mat) if k != j))
        cols = tuple(zip(*mat))
        for i, j in itertools.combinations(range(len(cols)), 2):
            merged = tuple(x | y for x, y in zip(cols[i], cols[j]))
            new_cols = tuple(merged if k == i else c for k, c in enumerate(cols) if k != j)
            succ.append(tuple(zip(*new_cols)))
        for new in succ:
            if one_filled(new):
                return depth + 1
            if new not in seen:
                seen.add(new)
                queue.append((new, depth + 1))
    return None
