"""Temporal expansion into a directed static graph with 0/1 gate weights.

Every vertex gets T+1 layer copies linked by zero-weight waiting arcs, and
every temporal edge becomes a two-node gate whose inner arc carries the
edge weight: 0 for an edge that is free to use, 1 for an edge to pay for.
Journeys of the temporal graph correspond to directed paths between layer
copies.  The non-strict variant additionally links gates of same-time
edges that share an endpoint, so a path may chain several hops inside one
time step.  On top of the expansion sit an exact solver for pair-demand
instances (fewest paid gates meeting B of the p demands, by a plain
enumeration of gate subsets), which takes any requirement through its
demand pairs, and the DOT and JSON writers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .augmentation import (
    COST_EDGE,
    AugmentationProblem,
    Infeasible,
    Solution,
    SolveOutcome,
    _check_pairs,
    _demand_pairs,
    _demands_met,
)
from .temporal_graph import (
    NON_STRICT,
    TemporalEdge,
    TemporalGraph,
    sorted_edges,
    _check_semantics,
)


@dataclass(frozen=True)
class TGSteinerInstance:
    """A temporal graph with 0/1 edge weights and pair demands.

    ``weights`` maps every temporal edge of the graph to 0, an edge that
    is free to use, or 1, an edge to pay for.  ``budget`` bounds the total
    weight of the kept sub-edge-set and ``demand`` the number of pairs that
    must be satisfied.
    """

    graph: TemporalGraph
    weights: Mapping[TemporalEdge, int]
    pairs: tuple[tuple[int, int], ...]
    demand: int
    budget: int | None = None

    def __post_init__(self):
        if self.weights.keys() != self.graph.edges:
            raise ValueError("weights must cover exactly the temporal edges of the graph")
        if any(w not in (0, 1) for w in self.weights.values()):
            raise ValueError("weights must be 0 or 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative")
        object.__setattr__(self, "pairs", _check_pairs(self.pairs, self.graph.n, self.demand))

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
        demand = len(pair_list) if demand is None else demand
        return cls(graph, dict(weights), pair_list, demand, budget)


@dataclass(frozen=True)
class ExpansionGraph:
    """Directed weighted static graph produced by the temporal expansion.

    Its nodes are the integers of ``nodes``.  With L = lifespan + 1 layers,
    the layer-t copy of vertex v is ``v*L + t-1``, the gate-in node of the
    k-th edge of ``edges`` is ``n*L + 2k`` and its gate-out node is one more.
    """

    semantics: str
    n: int
    lifespan: int
    edges: tuple[TemporalEdge, ...]  # in canonical order, one gate each
    arcs: tuple[tuple[int, int, int], ...]  # (src, dst, weight)

    @property
    def nodes(self) -> range:
        return range(self.n * (self.lifespan + 1) + 2 * len(self.edges))

    def copy_index(self, v: int, t: int) -> int:
        return v * (self.lifespan + 1) + t - 1

    @cached_property
    def positive_gate_edges(self) -> tuple[TemporalEdge, ...]:
        """Edges whose gate arc has positive weight (no other arc has), in canonical order."""
        first_gate = self.n * (self.lifespan + 1)
        return tuple(self.edges[(src - first_gate) // 2] for src, _, w in self.arcs if w)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node: (dst, gate), gate numbering the weighted arcs in arc order, else -1."""
        gates = itertools.count()
        out: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for src, dst, w in self.arcs:
            out[src].append((dst, next(gates) if w else -1))
        return tuple(map(tuple, out))

    def reachable_from(self, start: int, open_gates: frozenset[int]) -> int:
        """The mask of nodes ``start`` reaches, positive gates outside ``open_gates`` shut."""
        adjacency = self.adjacency
        seen = 1 << start
        stack = [start]
        while stack:
            x = stack.pop()
            for dst, gate in adjacency[x]:
                if gate >= 0 and gate not in open_gates:
                    continue
                if not seen >> dst & 1:
                    seen |= 1 << dst
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
    layers = T + 1
    weights = inst.weights
    edges = sorted_edges(g.edges)
    first_gate = g.n * layers

    arcs: list[tuple[int, int, int]] = []
    for v in range(g.n):
        for t in range(1, T + 1):
            arcs.append((v * layers + t - 1, v * layers + t, 0))
    for k, e in enumerate(edges):
        gin = first_gate + 2 * k
        u_in, v_in = e.u * layers + e.t - 1, e.v * layers + e.t - 1
        arcs.append((u_in, gin, 0))
        arcs.append((v_in, gin, 0))
        arcs.append((gin, gin + 1, weights[e]))
        arcs.append((gin + 1, u_in + 1, 0))
        arcs.append((gin + 1, v_in + 1, 0))
    if semantics == NON_STRICT:
        # canonical order is time first, so each time's edges are one run
        for _, run in itertools.groupby(enumerate(edges), key=lambda item: item[1].t):
            for (k1, e1), (k2, e2) in itertools.combinations(run, 2):
                if {e1.u, e1.v} & {e2.u, e2.v}:
                    gin1, gin2 = first_gate + 2 * k1, first_gate + 2 * k2
                    arcs.append((gin1 + 1, gin2, 0))
                    arcs.append((gin2 + 1, gin1, 0))

    exp = ExpansionGraph(semantics, g.n, T, edges, tuple(arcs))
    pair_map = tuple(
        (exp.copy_index(u, 1), exp.copy_index(v, T + 1)) for u, v in inst.pairs
    )
    return exp, pair_map


@dataclass(frozen=True)
class ConnectionResult:
    """Outcome of the minimum-weight connection search."""

    weight: int
    selected: tuple[TemporalEdge, ...]


def min_weight_connection(
    exp: ExpansionGraph,
    pairs: Sequence[tuple[int, int]],
    demand: int,
    budget: int | None = None,
) -> ConnectionResult | Infeasible:
    """Fewest positive gates satisfying at least ``demand`` pairs of copy nodes.

    Gate weights are 0 or 1, so zero-weight arcs are always free to use
    and the weight of a set of positive gates is its size.  The gate
    subsets are tried smallest first and lexicographically within a size
    over the canonical gate order, with no bound, so the first one that
    connects is the least minimum gate set.  Sharing no search with
    :func:`~tgaug.augmentation.solve_exact` keeps ``--cross-check``
    independent of its bounds.  Exact, and exponential in the number of
    positive gates.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    pairs = _check_pairs(pairs, exp.n * (exp.lifespan + 1), demand)
    entries = [(s, 1 << d) for s, d in pairs]
    gates = exp.positive_gate_edges

    def connects(open_gates: frozenset[int]) -> bool:
        return _demands_met(entries, demand, lambda s: exp.reachable_from(s, open_gates))

    if not connects(frozenset(range(len(gates)))):
        return Infeasible("infeasible")
    max_size = len(gates) if budget is None else min(budget, len(gates))
    for size in range(max_size + 1):
        for combo in itertools.combinations(range(len(gates)), size):
            if connects(frozenset(combo)):
                return ConnectionResult(size, tuple(gates[i] for i in combo))
    return Infeasible("budget_exceeded")


def problem_instance(problem: AugmentationProblem) -> TGSteinerInstance:
    """``problem``'s demand pairs over its lifespan: base edges weigh 0, candidates 1."""
    base = problem.base
    pairs, demand = _demand_pairs(problem.requirement, base.n)
    full = TemporalGraph(base.n, base.edges | problem.candidates, problem.effective_lifespan)
    weights = {e: (1 if e in problem.candidates else 0) for e in full.edges}
    return TGSteinerInstance.from_weights(full, weights, pairs, demand, problem.budget)


def solve_tpca_via_expansion(problem: AugmentationProblem) -> SolveOutcome:
    """Solve an edge-cost augmentation problem, any requirement, through its demand pairs.

    Base edges get weight 0 and candidates weight 1, so the minimum
    connection weight equals the minimum number of candidates to add; the
    selected positive gates map straight back to the temporal edges.
    """
    if problem.cost_model != COST_EDGE:
        raise ValueError("expansion solving supports the per-edge cost model only")
    inst = problem_instance(problem)
    exp, pair_map = build_expansion(inst, problem.semantics)
    outcome = min_weight_connection(exp, pair_map, inst.demand, budget=problem.budget)
    if isinstance(outcome, Infeasible):
        return outcome
    return Solution(sorted_edges(outcome.selected), outcome.weight)


# -- export formats ---------------------------------------------------------


def _labels(exp: ExpansionGraph) -> list[tuple[str, str]]:
    """(label, kind) of each node, from its id."""
    layers = exp.lifespan + 1
    out = [(f"{v}@{t}", "copy") for v in range(exp.n) for t in range(1, layers + 1)]
    for e in exp.edges:
        out.append((f"{e.u}-{e.v}@{e.t}.in", "gate_in"))
        out.append((f"{e.u}-{e.v}@{e.t}.out", "gate_out"))
    return out


def expansion_to_json(exp: ExpansionGraph) -> dict:
    return {
        "schema": 1,
        "semantics": exp.semantics,
        "n": exp.n,
        "lifespan": exp.lifespan,
        "node_count": len(exp.nodes),
        "arc_count": len(exp.arcs),
        "nodes": [{"label": label, "kind": kind} for label, kind in _labels(exp)],
        "arcs": [{"src": src, "dst": dst, "weight": w} for src, dst, w in exp.arcs],
    }


def expansion_to_dot(exp: ExpansionGraph) -> str:
    """DOT export; the header comment carries the structural counts."""
    labels = [label for label, _ in _labels(exp)]
    lines = [
        f"// nodes={len(exp.nodes)} arcs={len(exp.arcs)} n={exp.n} "
        f"lifespan={exp.lifespan} semantics={exp.semantics}",
        "digraph expansion {",
    ]
    for label in labels:
        lines.append(f'  "{label}";')
    for src, dst, w in exp.arcs:
        lines.append(f'  "{labels[src]}" -> "{labels[dst]}" [weight={w}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
