"""Augmentation problems and exact solvers.

Models the three connectivity requirements (everything reaches everything,
a designated source, or a list of ordered pair demands) under both journey
semantics and both cost models, and solves them exactly by budget-bounded
subset search.  Also contains the quadratic special-case algorithm for
lifespan-1 graphs that may add edges at time 2, and the bridge that turns
a spanner question into an augmentation instance.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .temporal_graph import (
    NON_STRICT,
    STRICT,
    InvalidCandidateError,
    Journey,
    TemporalEdge,
    TemporalGraph,
    sorted_edges,
    sweep,
    _check_semantics,
    _journey_tree,
)

COST_EDGE = "edge"  # every temporal edge costs 1
COST_GROUP = "group"  # all temporal copies of one endpoint pair cost 1 together
COST_MODELS = (COST_EDGE, COST_GROUP)


@dataclass(frozen=True)
class All:
    """Require full temporal connectivity."""


@dataclass(frozen=True)
class Source:
    """Require that ``vertex`` reaches every vertex."""

    vertex: int


@dataclass(frozen=True)
class Pairs:
    """Require journeys for at least ``demand`` of the listed (u, v) entries.

    ``demand`` defaults to all of them.  Duplicate entries name the same
    demand and are satisfied together, but each entry counts toward the
    demand tally.
    """

    pairs: tuple[tuple[int, int], ...]
    demand: int | None = None

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("pair list must be non-empty")
        object.__setattr__(self, "pairs", tuple((u, v) for u, v in self.pairs))
        if self.demand is not None and not 0 <= self.demand <= len(self.pairs):
            raise ValueError("demand must lie between 0 and the number of pairs")

    @property
    def effective_demand(self) -> int:
        return len(self.pairs) if self.demand is None else self.demand


Requirement = All | Source | Pairs


@dataclass(frozen=True)
class AugmentationProblem:
    """A base graph, a disjoint candidate edge set, and what must become reachable."""

    base: TemporalGraph
    candidates: frozenset[TemporalEdge]
    requirement: Requirement = All()
    semantics: str = NON_STRICT
    cost_model: str = COST_EDGE
    budget: int | None = None
    lifespan: int | None = None  # declared horizon; defaults to what the edges span

    def __post_init__(self):
        _check_semantics(self.semantics)
        if self.cost_model not in COST_MODELS:
            raise ValueError(f"unknown cost model {self.cost_model!r}")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative")
        n = self.base.n
        overlap = self.candidates & self.base.edges
        if overlap:
            raise InvalidCandidateError(
                f"candidates already in the base graph: {', '.join(map(str, sorted_edges(overlap)))}"
            )
        horizon = self.effective_lifespan
        for e in self.candidates:
            if not 0 <= e.u < n or not 0 <= e.v < n:
                raise InvalidCandidateError(f"candidate {e} has endpoints outside 0..{n - 1}")
            if e.t > horizon:
                raise InvalidCandidateError(f"candidate {e} exceeds the lifespan {horizon}")
        req = self.requirement
        if isinstance(req, Source) and not 0 <= req.vertex < n:
            raise ValueError(f"source vertex {req.vertex} out of range 0..{n - 1}")
        if isinstance(req, Pairs):
            for u, v in req.pairs:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"pair ({u},{v}) out of range 0..{n - 1}")

    @property
    def effective_lifespan(self) -> int:
        """The declared horizon when given, else whatever the edges span."""
        if self.lifespan is not None:
            return max(self.base.lifespan, self.lifespan)
        return max(self.base.lifespan, max((e.t for e in self.candidates), default=0))

    @cached_property
    def candidates_sorted(self) -> tuple[TemporalEdge, ...]:
        return sorted_edges(self.candidates)

    @cached_property
    def candidate_groups(self) -> tuple[tuple[tuple[int, int], tuple[TemporalEdge, ...]], ...]:
        """Candidates grouped by endpoint pair, both levels sorted."""
        groups: dict[tuple[int, int], list[TemporalEdge]] = defaultdict(list)
        for e in self.candidates_sorted:
            groups[e.pair].append(e)
        return tuple((pair, tuple(es)) for pair, es in sorted(groups.items()))


@dataclass(frozen=True)
class Solution:
    """A verified selection: the edges to add, their cost, and witness journeys."""

    selected: tuple[TemporalEdge, ...]
    cost: int
    groups: tuple[tuple[int, int], ...] | None = None
    certificate: tuple[tuple[int, int, Journey], ...] = ()

    @property
    def feasible(self) -> bool:
        return True


@dataclass(frozen=True)
class Infeasible:
    """No selection works ("infeasible") or none fits the budget ("budget_exceeded")."""

    reason: str

    @property
    def feasible(self) -> bool:
        return False


SolveOutcome = Solution | Infeasible


def verify_solution(problem: AugmentationProblem, selected: Iterable[TemporalEdge]) -> bool:
    """True iff adding ``selected`` (a subset of the candidates) meets the requirement."""
    chosen = frozenset(selected)
    stray = chosen - problem.candidates
    if stray:
        raise InvalidCandidateError(
            f"not in the candidate set: {', '.join(map(str, sorted_edges(stray)))}"
        )
    augmented = problem.base.augment(chosen)
    return _requirement_holds(
        problem.requirement,
        augmented.n,
        augmented._layers(problem.semantics),
        problem.semantics == STRICT,
    )


def _requirement_holds(req: Requirement, n: int, layers: Sequence[tuple], strict: bool) -> bool:
    """Whether :func:`sweep` over ``layers`` meets ``req`` on vertices 0..n-1."""
    full = (1 << n) - 1
    if isinstance(req, All):
        return all(sweep(layers, strict, 1 << s) == full for s in range(n))
    if isinstance(req, Source):
        return sweep(layers, strict, 1 << req.vertex) == full
    reach: dict[int, int] = {}
    satisfied = 0
    for u, v in req.pairs:
        if u not in reach:
            reach[u] = sweep(layers, strict, 1 << u)
        if reach[u] >> v & 1:
            satisfied += 1
    return satisfied >= req.effective_demand


def unrestricted_candidates(g: TemporalGraph, lifespan: int | None = None) -> frozenset[TemporalEdge]:
    """Every absent temporal edge over the vertex set and 1..T."""
    horizon = g.lifespan if lifespan is None else lifespan
    if horizon < 1:
        raise ValueError("requires lifespan >= 1")
    if horizon < g.lifespan:
        raise ValueError("horizon below the graph lifespan")
    return frozenset(
        TemporalEdge(u, v, t)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        for t in range(1, horizon + 1)
        if TemporalEdge(u, v, t) not in g.edges
    )


class _SubsetEvaluator:
    """Fast feasibility checks for candidate subsets of one problem.

    Builds the base graph's sweep layers over the base and candidate times
    once; each call copies that list and patches only the slots of the
    selected edges' times.  A strict slot gets the extra edge bit pairs
    appended; a non-strict slot gets its component masks merged by the
    extra edges (non-strict reachability is a function of the per-time
    component partitions).  That merge runs once per tested subset, so it
    is a union-find over the slot's components: merging the masks by
    scanning the component list measured slower on non-strict searches.
    """

    def __init__(self, problem: AugmentationProblem):
        base = problem.base
        self.requirement = problem.requirement
        self.n = base.n
        self.strict = problem.semantics == STRICT
        times = sorted(set(base._edge_times) | {e.t for e in problem.candidates})
        self.slot = {t: i for i, t in enumerate(times)}
        self.layers = tuple(base._layer(t, self.strict) for t in times)
        if not self.strict:
            self.comp_index = {}
            for t, masks in zip(times, self.layers):
                index = [0] * base.n
                for i, m in enumerate(masks):
                    mm = m
                    while mm:
                        low = mm & -mm
                        index[low.bit_length() - 1] = i
                        mm &= mm - 1
                self.comp_index[t] = index

    def edge_effect(self, e: TemporalEdge) -> tuple[int, int, int] | None:
        """(t, comp, comp) merged by this edge in the base graph; None when void."""
        idx = self.comp_index[e.t]
        a, b = idx[e.u], idx[e.v]
        if a == b:
            return None
        return (e.t, a, b) if a < b else (e.t, b, a)

    def feasible(self, selected: Sequence[TemporalEdge]) -> bool:
        layers = list(self.layers)
        if self.strict:
            for e in selected:
                layers[self.slot[e.t]] += ((1 << e.u, 1 << e.v),)
        else:
            by_time: dict[int, list[TemporalEdge]] = defaultdict(list)
            for e in selected:
                by_time[e.t].append(e)
            for t, edges in by_time.items():
                i = self.slot[t]
                parts = list(layers[i])
                parent = list(range(len(parts)))

                def find(k: int) -> int:
                    while parent[k] != k:
                        parent[k] = parent[parent[k]]
                        k = parent[k]
                    return k

                index = self.comp_index[t]
                for e in edges:
                    ra, rb = find(index[e.u]), find(index[e.v])
                    if ra != rb:
                        parent[rb] = ra
                        parts[ra] |= parts[rb]
                layers[i] = tuple(parts[k] for k in range(len(parts)) if find(k) == k)
        return _requirement_holds(self.requirement, self.n, layers, self.strict)


def _group_items(problem: AugmentationProblem):
    """The searchable units: temporal edges, or endpoint-pair groups."""
    if problem.cost_model == COST_GROUP:
        return [edges for _, edges in problem.candidate_groups]
    return [(e,) for e in problem.candidates_sorted]


def solve_exact(
    problem: AugmentationProblem,
    *,
    with_certificate: bool = True,
) -> SolveOutcome:
    """Minimum-cost selection by subset search, or an infeasibility report.

    Iterates cost c = 0, 1, 2, ... and tests every c-subset of the
    candidate units (edges, or endpoint-pair groups under the group cost
    model), so among minimum-cost solutions the lexicographically least
    under canonical edge ordering is returned.  Two prunings are applied on
    non-strict runs, both of which provably preserve that answer: edges
    joining vertices already in the same snapshot component are dropped
    (they never change any reachability), and candidates with identical
    component-merge effects are collapsed to their least representative.
    A given budget caps the search; "budget_exceeded" is reported distinctly
    from true infeasibility.

    Each subset is tested by :func:`~tgaug.temporal_graph.sweep` over the
    base layers patched at the selected edges' times only.  The optional
    certificate takes one traced sweep per distinct source and reads every
    witness journey off that source's foremost-journey tree, with the tie
    breaks :func:`~tgaug.temporal_graph.find_journey` documents.
    """
    evaluator = _SubsetEvaluator(problem)
    items = _group_items(problem)
    if problem.semantics == NON_STRICT:
        kept = []
        seen_effects: set[tuple] = set()
        for unit in items:
            effects = sorted(
                eff for eff in (evaluator.edge_effect(e) for e in unit) if eff is not None
            )
            if not effects:
                continue  # void: cannot alter any snapshot partition
            sig = tuple(effects)
            if sig in seen_effects:
                continue  # same merges as an earlier (lexicographically smaller) unit
            seen_effects.add(sig)
            kept.append(unit)
        items = kept

    combo = _cheapest_subset(
        items, problem.budget, lambda combo: evaluator.feasible([e for unit in combo for e in unit])
    )
    if isinstance(combo, Infeasible):
        return combo
    selected = sorted_edges(e for unit in combo for e in unit)
    groups = None
    if problem.cost_model == COST_GROUP:
        groups = tuple(sorted(unit[0].pair for unit in combo))
    certificate = build_certificate(problem, selected) if with_certificate else ()
    return Solution(selected, len(combo), groups, certificate)


def _cheapest_subset(
    units: Sequence, budget: int | None, feasible: Callable[[tuple], bool]
) -> tuple | Infeasible:
    """The first subset of at most ``budget`` units that ``feasible`` accepts.

    Tries subsets smallest first, lexicographically least within a size.
    ``Infeasible("infeasible")`` when not even all units together are accepted.
    """
    if not feasible(tuple(units)):
        return Infeasible("infeasible")
    max_size = len(units) if budget is None else min(budget, len(units))
    for size in range(max_size + 1):
        for combo in itertools.combinations(units, size):
            if feasible(combo):
                return combo
    if budget is not None:
        return Infeasible("budget_exceeded")
    raise RuntimeError("search space exhausted although the full candidate set is feasible")


def build_certificate(
    problem: AugmentationProblem, selected: Iterable[TemporalEdge]
) -> tuple[tuple[int, int, Journey], ...]:
    """Witness journeys, one per reachability obligation met by the selection."""
    augmented = problem.base.augment(selected)
    req = problem.requirement
    semantics = problem.semantics
    pairs: list[tuple[int, int]]
    if isinstance(req, All):
        pairs = [(u, v) for u in range(augmented.n) for v in range(augmented.n) if u != v]
    elif isinstance(req, Source):
        pairs = [(req.vertex, v) for v in range(augmented.n) if v != req.vertex]
    else:
        pairs = list(req.pairs)
    trees: dict[int, dict[int, tuple]] = {}
    witnesses = []
    for u, v in pairs:
        if u not in trees:
            trees[u] = _journey_tree(augmented, u, semantics)
        hops = trees[u].get(v)
        if hops is not None:
            witnesses.append((u, v, Journey(hops, semantics)))
    return tuple(witnesses)


def solve_one_plus_one(g: TemporalGraph) -> frozenset[TemporalEdge]:
    """Optimal time-2 edge set making a lifespan-1 graph non-strict connected.

    The vertices of a smallest time-1 component become star centers; the
    vertices of every other component are spread over the centers round
    robin (restarting per component), one new time-2 edge each.  Every
    resulting time-2 star then meets every time-1 component, which is
    exactly what non-strict connectivity at lifespan 2 requires, and the
    n - |smallest component| edges used are optimal.
    """
    if g.lifespan != 1:
        raise ValueError(f"requires lifespan exactly 1, got {g.lifespan}")
    blocks = g.snapshot_components(1).blocks
    smallest = min(blocks, key=len)
    centers = list(smallest)
    added = []
    for block in blocks:
        if block is smallest:
            continue
        for j, v in enumerate(block):
            added.append(TemporalEdge(v, centers[j % len(centers)], 2))
    return frozenset(added)


def component_count_bound_check(g: TemporalGraph) -> bool:
    """Necessary condition for non-strict connectivity at lifespan 2.

    The number of components at either time cannot exceed the size of the
    smallest component at the other time (each component must meet all of
    them).
    """
    if g.lifespan != 2:
        raise ValueError(f"requires lifespan exactly 2, got {g.lifespan}")
    blocks1 = g.snapshot_components(1).blocks
    blocks2 = g.snapshot_components(2).blocks
    return len(blocks1) <= min(len(b) for b in blocks2) and len(blocks2) <= min(
        len(b) for b in blocks1
    )


def spanner_via_tca(g: TemporalGraph, budget: int | None = None) -> AugmentationProblem:
    """Recast minimum-spanner on a connected graph as an augmentation instance.

    The base is the edgeless graph on the same vertices (lifespan kept), the
    candidates are all of g's temporal edges, and the requirement is full
    non-strict connectivity; the instance's minimum cost equals g's minimum
    spanner size.
    """
    if not g.is_temporally_connected(NON_STRICT):
        raise ValueError("requires a temporally connected graph")
    base = TemporalGraph(g.n, frozenset(), g.lifespan)
    return AugmentationProblem(
        base, frozenset(g.edges), All(), NON_STRICT, COST_EDGE, budget
    )


def solution_to_json(outcome: SolveOutcome, problem: AugmentationProblem) -> dict:
    """JSON form: {cost, selected, feasible, model, semantics} plus groups when relevant."""
    data = {
        "schema": 1,
        "feasible": outcome.feasible,
        "model": problem.cost_model,
        "semantics": problem.semantics,
    }
    if isinstance(outcome, Solution):
        data["cost"] = outcome.cost
        data["selected"] = [{"u": e.u, "v": e.v, "t": e.t} for e in outcome.selected]
        if outcome.groups is not None:
            data["groups"] = [[u, v] for u, v in outcome.groups]
    else:
        data["reason"] = outcome.reason
    return data
