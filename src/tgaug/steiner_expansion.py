"""Temporal expansion into a directed static graph with 0/1 gate weights.

Every vertex gets T+1 layer copies linked by zero-weight waiting arcs, and
every temporal edge becomes a two-node gate whose inner arc carries the
edge weight: 0 for an edge that is free to use, 1 for an edge to pay for.
Journeys of the temporal graph correspond to directed paths between layer
copies.  The non-strict variant additionally links gates of same-time
edges that share an endpoint, so a path may chain several hops inside one
time step.  On top of the expansion sits an exact solver for pair-demand
instances (fewest paid gates satisfying at least B of the p demands, found
by the subset search of :mod:`tgaug.augmentation`), the round trip between
journeys and expansion paths, and the DOT and JSON writers.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .augmentation import (
    COST_EDGE,
    AugmentationProblem,
    Infeasible,
    Pairs,
    Solution,
    SolveOutcome,
    _cheapest_subset,
    verify_solution,
)
from .temporal_graph import (
    NON_STRICT,
    Journey,
    TemporalEdge,
    TemporalGraph,
    sorted_edges,
    _check_semantics,
)

COPY = "copy"
GATE_IN = "gate_in"
GATE_OUT = "gate_out"


@dataclass(frozen=True)
class ExpansionNode:
    """Either the layer-t copy of a vertex or one of the two gate nodes of an edge."""

    kind: str
    vertex: int | None = None
    time: int | None = None
    edge: TemporalEdge | None = None

    @property
    def label(self) -> str:
        if self.kind == COPY:
            return f"{self.vertex}@{self.time}"
        suffix = "in" if self.kind == GATE_IN else "out"
        e = self.edge
        return f"{e.u}-{e.v}@{e.t}.{suffix}"


def _copy(v: int, t: int) -> ExpansionNode:
    return ExpansionNode(COPY, vertex=v, time=t)


def _gate_in(e: TemporalEdge) -> ExpansionNode:
    return ExpansionNode(GATE_IN, edge=e)


def _gate_out(e: TemporalEdge) -> ExpansionNode:
    return ExpansionNode(GATE_OUT, edge=e)


@dataclass(frozen=True)
class TGSteinerInstance:
    """A temporal graph with 0/1 edge weights and pair demands.

    Weight 0 marks an edge that is free to use, weight 1 an edge to pay
    for.  ``budget`` bounds the total weight of the kept sub-edge-set and
    ``demand`` the number of pairs that must be satisfied.
    """

    graph: TemporalGraph
    weight_items: tuple[tuple[TemporalEdge, int], ...]
    pairs: tuple[tuple[int, int], ...]
    demand: int
    budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((u, v) for u, v in self.pairs))
        weighted = {e for e, _ in self.weight_items}
        if weighted != self.graph.edges:
            raise ValueError("weights must cover exactly the temporal edges of the graph")
        if any(w not in (0, 1) for _, w in self.weight_items):
            raise ValueError("weights must be 0 or 1")
        if not 0 <= self.demand <= len(self.pairs):
            raise ValueError("demand must lie between 0 and the number of pairs")

    @classmethod
    def from_weights(
        cls,
        graph: TemporalGraph,
        weights: Mapping[TemporalEdge, int],
        pairs: Iterable[tuple[int, int]],
        demand: int | None = None,
        budget: int | None = None,
    ) -> "TGSteinerInstance":
        pair_list = tuple(pairs)
        items = tuple((e, weights[e]) for e in sorted_edges(graph.edges))
        return cls(graph, items, pair_list, len(pair_list) if demand is None else demand, budget)

    @cached_property
    def weights(self) -> dict[TemporalEdge, int]:
        return dict(self.weight_items)


@dataclass(frozen=True)
class ExpansionGraph:
    """Directed weighted static graph produced by the temporal expansion."""

    semantics: str
    n: int
    lifespan: int
    nodes: tuple[ExpansionNode, ...]
    arcs: tuple[tuple[int, int, int], ...]  # (src, dst, weight)

    @cached_property
    def node_index(self) -> dict[ExpansionNode, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    def copy_index(self, v: int, t: int) -> int:
        return self.node_index[_copy(v, t)]

    @cached_property
    def positive_gate_edges(self) -> tuple[TemporalEdge, ...]:
        """Edges whose gate arc has positive weight (no other arc has), in canonical order."""
        return sorted_edges(self.nodes[src].edge for src, _, w in self.arcs if w)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per node: (dst, weight, gate) with gate = index into positive gate list, else -1."""
        positive = {e: i for i, e in enumerate(self.positive_gate_edges)}
        out: list[list[tuple[int, int, int]]] = [[] for _ in self.nodes]
        for src, dst, w in self.arcs:
            out[src].append((dst, w, positive[self.nodes[src].edge] if w else -1))
        return tuple(tuple(lst) for lst in out)

    def reachable_from(self, start: int, open_gates: frozenset[int]) -> set[int]:
        """Nodes reachable from ``start`` with the positive gates outside ``open_gates`` closed."""
        adjacency = self.adjacency
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for dst, _, gate in adjacency[x]:
                if gate >= 0 and gate not in open_gates:
                    continue
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen


def build_expansion(
    inst: TGSteinerInstance, semantics: str = NON_STRICT
) -> tuple[ExpansionGraph, tuple[tuple[int, int], ...]]:
    """The expansion graph plus each demand pair mapped to (source, sink) node indices.

    Nodes: one copy per vertex and layer 1..T+1, one gate-in/gate-out pair
    per temporal edge.  Arcs: waiting arcs between consecutive copies, five
    arcs per gate (two entries, the weighted inner arc, two exits one layer
    up), and in the non-strict variant a pair of arcs between the gates of
    any two same-time edges sharing an endpoint.  Only the inner gate arcs
    carry weight.  A demand (u, v) maps to (copy of u at layer 1, copy of v
    at layer T+1).
    """
    _check_semantics(semantics)
    g = inst.graph
    T = g.lifespan
    weights = inst.weights
    nodes: list[ExpansionNode] = []
    for v in range(g.n):
        for t in range(1, T + 2):
            nodes.append(_copy(v, t))
    edges = sorted_edges(g.edges)
    for e in edges:
        nodes.append(_gate_in(e))
        nodes.append(_gate_out(e))
    index = {node: i for i, node in enumerate(nodes)}

    arcs: list[tuple[int, int, int]] = []
    for v in range(g.n):
        for t in range(1, T + 1):
            arcs.append((index[_copy(v, t)], index[_copy(v, t + 1)], 0))
    for e in edges:
        gin, gout = index[_gate_in(e)], index[_gate_out(e)]
        arcs.append((index[_copy(e.u, e.t)], gin, 0))
        arcs.append((index[_copy(e.v, e.t)], gin, 0))
        arcs.append((gin, gout, weights[e]))
        arcs.append((gout, index[_copy(e.u, e.t + 1)], 0))
        arcs.append((gout, index[_copy(e.v, e.t + 1)], 0))
    if semantics == NON_STRICT:
        by_time: dict[int, list[TemporalEdge]] = defaultdict(list)
        for e in edges:
            by_time[e.t].append(e)
        for t in sorted(by_time):
            for e1, e2 in itertools.combinations(by_time[t], 2):
                if {e1.u, e1.v} & {e2.u, e2.v}:
                    arcs.append((index[_gate_out(e1)], index[_gate_in(e2)], 0))
                    arcs.append((index[_gate_out(e2)], index[_gate_in(e1)], 0))

    exp = ExpansionGraph(semantics, g.n, T, tuple(nodes), tuple(arcs))
    pair_map = tuple(
        (exp.copy_index(u, 1), exp.copy_index(v, T + 1)) for u, v in inst.pairs
    )
    return exp, pair_map


@dataclass(frozen=True)
class ConnectionResult:
    """Outcome of the minimum-weight connection search."""

    weight: int
    selected: tuple[TemporalEdge, ...]
    satisfied: tuple[int, ...]  # indices into the pair list


def _satisfied_pairs(
    exp: ExpansionGraph, pairs: Sequence[tuple[int, int]], open_gates: frozenset[int]
) -> tuple[int, ...]:
    hit = []
    reach_cache: dict[int, set[int]] = {}
    for idx, (src, dst) in enumerate(pairs):
        if src not in reach_cache:
            reach_cache[src] = exp.reachable_from(src, open_gates)
        if dst in reach_cache[src]:
            hit.append(idx)
    return tuple(hit)


def min_weight_connection(
    exp: ExpansionGraph,
    pairs: Sequence[tuple[int, int]],
    demand: int,
    budget: int | None = None,
) -> ConnectionResult | Infeasible:
    """Fewest positive gates satisfying at least ``demand`` pairs.

    Gate weights are 0 or 1, so zero-weight arcs are always free to use
    and the weight of a set of positive gates is its size.
    :func:`~tgaug.augmentation._cheapest_subset` tries the gate subsets
    smallest first, lexicographically least over the canonical gate order
    within a size.  Exact, and exponential in the number of positive gates.
    """
    if not 0 <= demand <= len(pairs):
        raise ValueError("demand must lie between 0 and the number of pairs")
    gates = exp.positive_gate_edges
    combo = _cheapest_subset(
        range(len(gates)),
        budget,
        lambda combo: len(_satisfied_pairs(exp, pairs, frozenset(combo))) >= demand,
    )
    if isinstance(combo, Infeasible):
        return combo
    satisfied = _satisfied_pairs(exp, pairs, frozenset(combo))
    return ConnectionResult(len(combo), tuple(gates[i] for i in combo), satisfied)


def problem_instance(problem: AugmentationProblem) -> TGSteinerInstance:
    """The pair-demand instance of ``problem``: base edges weigh 0, candidates 1."""
    req = problem.requirement
    full = problem.base.augment(problem.candidates)
    weights = {e: (1 if e in problem.candidates else 0) for e in full.edges}
    return TGSteinerInstance.from_weights(
        full, weights, req.pairs, demand=req.effective_demand, budget=problem.budget
    )


def solve_tpca_via_expansion(problem: AugmentationProblem) -> SolveOutcome:
    """Solve a pair-demand augmentation problem through the expansion.

    Base edges get weight 0 and candidates weight 1, so the minimum
    connection weight equals the minimum number of candidates to add; the
    selected positive gates map straight back to the temporal edges.
    """
    req = problem.requirement
    if not isinstance(req, Pairs):
        raise ValueError("expansion solving requires a Pairs requirement")
    if problem.cost_model != COST_EDGE:
        raise ValueError("expansion solving supports the per-edge cost model only")
    inst = problem_instance(problem)
    exp, pair_map = build_expansion(inst, problem.semantics)
    outcome = min_weight_connection(exp, pair_map, inst.demand, budget=problem.budget)
    if isinstance(outcome, Infeasible):
        return outcome
    selected = sorted_edges(outcome.selected)
    if not verify_solution(problem, selected):
        raise RuntimeError("expansion selection does not meet the requirement")
    return Solution(selected, outcome.weight)


# -- journey <-> path correspondence ---------------------------------------


def journey_to_path(exp: ExpansionGraph, source: int, journey: Journey) -> tuple[int, ...]:
    """The canonical expansion path of a journey starting at ``source``.

    Waiting arcs bridge strictly increasing hop times; consecutive equal-time
    hops run through the gate-to-gate arcs of the non-strict expansion.  The
    result always runs from the layer-1 copy of the start vertex to the
    layer-(T+1) copy of the end vertex.
    """
    if journey.semantics != exp.semantics:
        raise ValueError(
            f"journey semantics {journey.semantics!r} does not match expansion {exp.semantics!r}"
        )
    if journey.hops and journey.start != source:
        raise ValueError("journey does not start at the given source")
    index = exp.node_index
    path = [exp.copy_index(source, 1)]
    layer = 1
    vertex = source
    pending_time: int | None = None  # set while standing on a gate-out node
    prev_edge: TemporalEdge | None = None
    for frm, to, t in journey.hops:
        if frm != vertex:
            raise ValueError("hops do not chain")
        e = TemporalEdge(frm, to, t)
        gin = index.get(_gate_in(e))
        if gin is None:
            raise ValueError(f"hop {e} is not an edge of the expanded graph")
        if pending_time is not None:
            if t == pending_time:
                if e == prev_edge:
                    raise ValueError(
                        "re-traversing an edge immediately at the same time has no expansion path"
                    )
                path.append(gin)  # gray arc, same time step
            else:
                path.append(exp.copy_index(vertex, pending_time + 1))
                layer = pending_time + 1
                pending_time = None
        if pending_time is None:
            while layer < t:
                layer += 1
                path.append(exp.copy_index(vertex, layer))
            path.append(gin)
        path.append(index[_gate_out(e)])
        pending_time = t
        prev_edge = e
        vertex = to
    if pending_time is not None:
        path.append(exp.copy_index(vertex, pending_time + 1))
        layer = pending_time + 1
    while layer < exp.lifespan + 1:
        layer += 1
        path.append(exp.copy_index(vertex, layer))
    return tuple(path)


def path_to_journey(exp: ExpansionGraph, path: Sequence[int]) -> tuple[int, Journey]:
    """Recover (source vertex, journey) from a copy-to-copy expansion path.

    Gate traversals entered and left at the same endpoint carry no movement
    and become waits, so arbitrary paths canonicalize to valid journeys;
    on canonical (bounce-free) paths this inverts :func:`journey_to_path`.
    """
    if not path:
        raise ValueError("empty path")
    arc_set = {(src, dst) for src, dst, _ in exp.arcs}
    for a, b in zip(path, path[1:]):
        if (a, b) not in arc_set:
            raise ValueError(f"no arc between nodes {a} and {b}")
    first, last = exp.nodes[path[0]], exp.nodes[path[-1]]
    if first.kind != COPY or first.time != 1:
        raise ValueError("path must start at a layer-1 copy")
    if last.kind != COPY or last.time != exp.lifespan + 1:
        raise ValueError(f"path must end at a layer-{exp.lifespan + 1} copy")
    source = first.vertex
    vertex = source
    hops: list[tuple[int, int, int]] = []
    i = 0
    while i < len(path):
        node = exp.nodes[path[i]]
        if node.kind == GATE_IN:
            e = node.edge
            # the out node is forced; find where the traversal exits
            nxt = exp.nodes[path[i + 2]] if i + 2 < len(path) else None
            if nxt is None:
                raise ValueError("path ends inside a gate")
            if nxt.kind == COPY:
                exit_vertex = nxt.vertex
            else:  # gray arc: the traveller stands on the shared endpoint
                shared = {e.u, e.v} & {nxt.edge.u, nxt.edge.v}
                exit_vertex = next(iter(shared))
            if exit_vertex != vertex:
                hops.append((vertex, exit_vertex, e.t))
                vertex = exit_vertex
            i += 2
        else:
            i += 1
    return source, Journey(tuple(hops), exp.semantics)


# -- export formats ---------------------------------------------------------


def expansion_to_json(exp: ExpansionGraph) -> dict:
    return {
        "schema": 1,
        "semantics": exp.semantics,
        "n": exp.n,
        "lifespan": exp.lifespan,
        "node_count": len(exp.nodes),
        "arc_count": len(exp.arcs),
        "nodes": [{"label": node.label, "kind": node.kind} for node in exp.nodes],
        "arcs": [{"src": src, "dst": dst, "weight": w} for src, dst, w in exp.arcs],
    }


def expansion_to_dot(exp: ExpansionGraph) -> str:
    """DOT export; the header comment carries the structural counts."""
    lines = [
        f"// nodes={len(exp.nodes)} arcs={len(exp.arcs)} n={exp.n} "
        f"lifespan={exp.lifespan} semantics={exp.semantics}",
        "digraph expansion {",
    ]
    for node in exp.nodes:
        lines.append(f'  "{node.label}";')
    for src, dst, w in exp.arcs:
        lines.append(f'  "{exp.nodes[src].label}" -> "{exp.nodes[dst].label}" [weight={w}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
