"""Augmentation problems and exact solvers.

Models the three connectivity requirements (everything reaches everything,
a designated source, or a list of ordered pair demands) under both journey
semantics and both cost models, and solves them exactly by budget-bounded
subset search.  Also contains the quadratic special-case algorithm for
lifespan-1 graphs that may add edges at time 2, and the bridge that turns
a spanner question into an augmentation instance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
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
    sweep_all,
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
        if self.lifespan is not None and self.lifespan < 0:
            raise ValueError("lifespan must be non-negative")
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
        _demands(self.requirement, n)  # checks the named vertices

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


def _demands(req: Requirement, n: int) -> tuple[list[tuple[int, int]], int]:
    """``req`` as demand entries ``(source, mask it must reach)`` and how many must be met.

    All needs every other vertex from each vertex, Source one entry, and
    Pairs one entry per listed pair, duplicates and ``(u, u)`` kept.
    Raises ``ValueError`` when ``req`` names a vertex outside 0..n-1.
    """
    full = (1 << n) - 1
    if isinstance(req, All):
        return [(s, full ^ 1 << s) for s in range(n)], n
    if isinstance(req, Source):
        if not 0 <= req.vertex < n:
            raise ValueError(f"source vertex {req.vertex} out of range 0..{n - 1}")
        return [(req.vertex, full ^ 1 << req.vertex)], 1
    _check_pairs(req.pairs, n)
    return [(u, 1 << v) for u, v in req.pairs], req.effective_demand


def _check_pairs(pairs: Iterable[tuple[int, int]], n: int) -> None:
    """Raise ``ValueError`` when a pair names a vertex outside 0..n-1."""
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"pair ({u},{v}) out of range 0..{n - 1}")


def _demand_pairs(req: Requirement, n: int) -> tuple[list[tuple[int, int]], int]:
    """:func:`_demands` as (source, target) pairs and how many pairs must be met."""
    entries, required = _demands(req, n)
    pairs = [(s, v) for s, need in entries for v in range(n) if need >> v & 1]
    return pairs, len(pairs) if required == len(entries) else required  # B of p: one v each


def _demands_met(
    entries: list[tuple[int, int]], required: int, reach: Callable[[int], int]
) -> bool:
    """Whether ``required`` of ``entries`` are met, ``reach(source)`` giving a mask.

    Calls ``reach`` once per source and stops once the answer is settled.
    The entry that settles a failure moves to the front, to be tried first
    when a search checks the same list again.  The per-node test of the
    subset search passes one :func:`~tgaug.temporal_graph.sweep` per call,
    since it mostly fails on its first entry; :func:`verify_solution` and
    the search's root tests pass :func:`_reach_all`.
    """
    met = 0
    reached: dict[int, int] = {}
    for i, (source, need) in enumerate(entries):
        if met >= required:
            return True
        if source not in reached:
            reached[source] = reach(source)
        if reached[source] & need == need:
            met += 1
        elif met + len(entries) - i - 1 < required:
            entries.insert(0, entries.pop(i))
            return False
    return met >= required


def _reach_all(
    layers: Sequence[tuple], strict: bool, n: int, entries: list[tuple[int, int]]
) -> Callable[[int], int]:
    """``reach`` for :func:`_demands_met` when every source of ``entries`` may be asked.

    Entries with several distinct sources read them all off one
    :func:`~tgaug.temporal_graph.sweep_all`; a single source takes one
    :func:`~tgaug.temporal_graph.sweep`, which is cheaper.
    """
    if len({source for source, _ in entries}) > 1:
        return sweep_all(layers, strict, n).__getitem__
    return lambda s: sweep(layers, strict, 1 << s)


def verify_solution(problem: AugmentationProblem, selected: Iterable[TemporalEdge]) -> bool:
    """True iff adding ``selected`` (a subset of the candidates) meets the requirement."""
    chosen = frozenset(selected)
    stray = chosen - problem.candidates
    if stray:
        raise InvalidCandidateError(
            f"not in the candidate set: {', '.join(map(str, sorted_edges(stray)))}"
        )
    augmented = problem.base.augment(chosen)
    layers = augmented._layers(problem.semantics)
    entries, required = _demands(problem.requirement, augmented.n)
    reach = _reach_all(layers, problem.semantics == STRICT, augmented.n, entries)
    return _demands_met(entries, required, reach)


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


def _joined(masks: tuple[int, ...], link: int) -> tuple[int, ...]:
    """The disjoint ``masks`` with every mask that meets ``link`` merged into one.

    ``masks`` must cover every bit of ``link``.  Serves both the component
    masks of a non-strict sweep layer and the static footprint of a subset.
    """
    hit = 0
    rest = []
    for m in masks:
        if m & link:
            hit |= m
        else:
            rest.append(m)
    return (hit, *rest)


def _components(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Component masks of the static graph on vertices 0..n-1 with edges ``pairs``."""
    masks = tuple(1 << v for v in range(n))
    for u, v in pairs:
        masks = _joined(masks, 1 << u | 1 << v)
    return masks


def _footprint(space) -> tuple[list[int], tuple[int, ...], tuple[int, ...]]:
    """The footprint bound's start data for a search space: unit links and two partitions.

    The footprint is the static graph of the space's free edges plus the
    chosen units, each of which links its endpoint pair.  Every accepted
    selection puts each demand link (the vertices of one demanded entry)
    in one footprint component.  The first partition is the footprint's
    components, the second those of the footprint joined by every demand
    link; extended by the same unit links, their difference in size is how
    many more units a node needs at least, since a unit joins at most two
    components.
    """
    links = [1 << u | 1 << v for u, v in space.unit_pairs]
    footprint = _components(space.n, space.free_pairs)
    return links, footprint, reduce(_joined, space.demand_links, footprint)


class _LayerSpace:
    """The subset search's states for one problem: sweep layers patched unit by unit.

    The start state is the base graph's sweep layers over the base and
    candidate times.  Adding a unit patches only the slots of its edges'
    times: a strict slot gets the edge bit pairs appended, a non-strict
    slot gets its component masks merged by the edges (non-strict
    reachability is a function of the per-time component partitions).
    The free edges of the footprint are the base edges.  Each demand
    entry links its source with the vertices it needs when every entry
    must be met, and a B-of-p demand links nothing.  The two-time bound
    ``need`` applies to non-strict All with two layers and one-edge units.
    """

    def __init__(self, problem: AugmentationProblem, units: Sequence[tuple[TemporalEdge, ...]]):
        base = problem.base
        self.n = base.n
        self.strict = problem.semantics == STRICT
        self.entries, self.required = _demands(problem.requirement, base.n)
        times = sorted(set(base._edge_times) | {e.t for e in problem.candidates})
        slot = {t: i for i, t in enumerate(times)}
        self.start = tuple(base._layer(t, self.strict) for t in times)
        self.patches = [tuple((slot[e.t], 1 << e.u, 1 << e.v) for e in unit) for unit in units]
        self.unit_pairs = [unit[0].pair for unit in units]
        self.free_pairs = [e.pair for e in base.edges]
        self.demand_links = []
        if self.required == len(self.entries):
            self.demand_links = [1 << s | need for s, need in self.entries]
        two_time = len(times) == 2 and all(len(unit) == 1 for unit in units)
        nonstrict_all = not self.strict and isinstance(problem.requirement, All)
        self.need = _two_time_need if two_time and nonstrict_all else None

    def add(self, layers: Sequence[tuple], unit: int) -> list[tuple]:
        layers = list(layers)
        for i, bu, bv in self.patches[unit]:
            layers[i] = layers[i] + ((bu, bv),) if self.strict else _joined(layers[i], bu | bv)
        return layers

    def holds(self, layers: Sequence[tuple]) -> bool:
        return _demands_met(
            self.entries, self.required, lambda s: sweep(layers, self.strict, 1 << s)
        )

    def root_holds(self, layers: Sequence[tuple]) -> bool:
        """:meth:`holds` for the search's root tests, which rarely stop at the first source."""
        reach = _reach_all(layers, self.strict, self.n, self.entries)
        return _demands_met(self.entries, self.required, reach)


def _two_time_need(layers: Sequence[tuple[int, ...]]) -> int:
    """How many more single-edge units two non-strict sweep layers need at least.

    With two times, every vertex reaches every other exactly when each
    component at the first time meets each component at the second.  Let
    z(A) count the second-time components that component A misses.  A
    second-time merge lowers z(A) by at most 1, and k first-time merges
    touch at most 2k components, so some untouched A still has the
    (2k+1)-th largest z to clear by second-time merges alone.  So at least
    the least k + z_(2k+1) over all k is needed, and its mirror with the
    two times swapped; the larger of the two is returned.
    """
    need = 0
    for rows, cols in (layers, layers[::-1]):
        misses = sorted([[r & c for c in cols].count(0) for r in rows], reverse=True) + [0]
        p = len(rows)
        need = max(need, min([k + misses[min(2 * k, p)] for k in range(p // 2 + 2)]))
    return need


def _group_items(problem: AugmentationProblem) -> list[tuple[TemporalEdge, ...]]:
    """The searchable units: temporal edges, or endpoint-pair groups."""
    if problem.cost_model == COST_GROUP:
        return [edges for _, edges in problem.candidate_groups]
    return [(e,) for e in problem.candidates_sorted]


def _merging_units(
    problem: AugmentationProblem, units: Sequence[tuple[TemporalEdge, ...]]
) -> list[tuple[TemporalEdge, ...]]:
    """Non-strict: the units that merge base components, least of each equal-effect class.

    An edge joining vertices already in one snapshot component never
    changes any reachability, and two units with the same merges are
    interchangeable, so neither a void unit nor a later duplicate is ever
    part of the least minimum selection.
    """
    kept = []
    seen: set[tuple] = set()
    for unit in units:
        effects = []
        for e in unit:
            masks = problem.base._component_masks(e.t)
            cu = next(m for m in masks if m >> e.u & 1)
            if not cu >> e.v & 1:
                effects.append((e.t, cu | next(m for m in masks if m >> e.v & 1)))
        if not effects:
            continue
        sig = tuple(sorted(effects))
        if sig not in seen:
            seen.add(sig)
            kept.append(unit)
    return kept


def solve_exact(
    problem: AugmentationProblem,
    *,
    with_certificate: bool = True,
) -> SolveOutcome:
    """Minimum-cost selection by subset search, or an infeasibility report.

    :func:`_cheapest_subset` tries the subsets of the candidate units
    (edges, or endpoint-pair groups under the group cost model) smallest
    first and lexicographically least within a size, so among minimum-cost
    solutions the lexicographically least under canonical edge ordering is
    returned.  It skips only subsets that the footprint bound proves
    infeasible, or, for non-strict All over two times, the two-time bound:
    a unit merges at most two components at its time, so a component that
    misses z components at the other time needs z more merges there.  This
    leaves that answer unchanged.  On non-strict runs two prunings keep it
    too: units that join vertices already in one snapshot component are
    dropped, and units with identical component-merge effects are collapsed
    to their least representative.  A given budget caps the search;
    "budget_exceeded" is reported distinctly from true infeasibility.

    Each search node extends its parent's sweep layers by one unit, so a
    tested subset costs only the requirement's sweeps: one per demand
    entry's source, stopping once the answer is settled, and starting with
    the entry that failed the last test, which subsets tested in a row
    tend to fail alike.  The two root tests, all units together and the
    empty subset, read every source off one
    :func:`~tgaug.temporal_graph.sweep_all` instead when the entries name
    more than one source, as :func:`verify_solution` does.  The optional
    certificate takes one traced sweep per distinct source and reads every
    witness journey off that source's foremost-journey tree, with the tie
    breaks :func:`~tgaug.temporal_graph.find_journey` documents.
    """
    units = _group_items(problem)
    if problem.semantics == NON_STRICT:
        units = _merging_units(problem, units)
    combo = _cheapest_subset(_LayerSpace(problem, units), problem.budget)
    if isinstance(combo, Infeasible):
        return combo
    chosen = [units[i] for i in combo]
    selected = sorted_edges(e for unit in chosen for e in unit)
    groups = None
    if problem.cost_model == COST_GROUP:
        groups = tuple(sorted(unit[0].pair for unit in chosen))
    certificate = build_certificate(problem, selected) if with_certificate else ()
    return Solution(selected, len(chosen), groups, certificate)


def _cheapest_subset(space, budget: int | None) -> tuple[int, ...] | Infeasible:
    """Indices of the first unit subset of at most ``budget`` units that ``space`` accepts.

    ``space`` gives the search states (``start``, ``add(state, unit)``,
    the requirement test ``holds(state)`` of a search node and the same
    test ``root_holds(state)`` for the two root tests, all units together
    and the empty subset) and the footprint bound's data
    (``n``, ``unit_pairs``, ``free_pairs`` and ``demand_links``; see
    :func:`_footprint`).  For each size, smallest first, a depth-first
    search picks units in increasing index order, so subsets are visited
    lexicographically within a size.  Each node carries its state and its
    footprint, and a node whose footprint needs more units than are left
    to pick is cut, since no extension of it can be accepted.  When
    ``space.need`` is not None it is a second such bound on a state, the
    admissible two-time bound of :func:`_two_time_need`: nodes it puts at
    or past the units left are cut too, and the sizes start at the larger
    of the two bounds at the root.  Acceptance
    is monotone in the subset, so the answer is the least accepted subset
    of the least accepted size, exactly as plain enumeration would find
    it.  ``Infeasible("infeasible")`` when not even all units together are
    accepted.
    """
    links, footprint, target = _footprint(space)
    everything = space.start
    for i in range(len(links)):
        everything = space.add(everything, i)
    if not space.root_holds(everything):
        return Infeasible("infeasible")
    max_size = len(links) if budget is None else min(budget, len(links))
    need = 0 if space.need is None else space.need(space.start)
    for size in range(max(len(footprint) - len(target), need), max_size + 1):
        found = _first_of_size(space, size, links, footprint, target)
        if found is not None:
            return found
    if budget is not None:
        return Infeasible("budget_exceeded")
    raise RuntimeError("search space exhausted although the full candidate set is feasible")


def _first_of_size(
    space, size: int, links: Sequence[int], footprint: tuple[int, ...], target: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The lexicographically least accepted subset of exactly ``size`` units, or None."""
    if size == 0:
        return () if space.root_holds(space.start) else None
    add, holds, need = space.add, space.holds, space.need
    count = len(links)
    chosen: list[int] = []
    # one frame per chosen unit plus the root: [state, footprint, target, next unit to try]
    stack = [[space.start, footprint, target, 0]]
    while stack:
        frame = stack[-1]
        state, footprint, target, i = frame
        left = size - len(chosen)  # units still to pick, this frame's child included
        if i > count - left:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[3] = i + 1
        child_footprint = _joined(footprint, links[i])
        child_target = _joined(target, links[i])
        if len(child_footprint) - len(child_target) >= left:
            continue
        child = add(state, i)
        if need is not None and need(child) >= left:
            continue
        if left == 1:
            if holds(child):
                return (*chosen, i)
        else:
            chosen.append(i)
            stack.append([child, child_footprint, child_target, i + 1])
    return None


def build_certificate(
    problem: AugmentationProblem, selected: Iterable[TemporalEdge]
) -> tuple[tuple[int, int, Journey], ...]:
    """Witness journeys, one per reachability obligation met by the selection."""
    augmented = problem.base.augment(selected)
    semantics = problem.semantics
    pairs, _ = _demand_pairs(problem.requirement, augmented.n)
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
    if not blocks:  # no vertices: connected as it is
        return frozenset()
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
    them).  It holds vacuously on the empty vertex set.
    """
    if g.lifespan != 2:
        raise ValueError(f"requires lifespan exactly 2, got {g.lifespan}")
    blocks1 = g.snapshot_components(1).blocks
    blocks2 = g.snapshot_components(2).blocks
    return len(blocks1) <= min(map(len, blocks2), default=0) and len(blocks2) <= min(
        map(len, blocks1), default=0
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
