"""Augmentation problems and exact solvers.

Models the three connectivity requirements (everything reaches everything,
a designated source, or a list of ordered pair demands) under both journey
semantics and both cost models, and solves them exactly by budget-bounded
subset search.  The search starts at its largest lower bound and cuts by
them (see :func:`_cheapest_subset`): the footprint gap, a paid-link
distance floor, and for All over two times the two-time bound of either
semantics (:func:`_two_time_need`).  The first level of an edge-cost All
problem over an edgeless base, a spanning tree, is decided in closed form
(see :func:`_tree_level`).  Also contains the quadratic special-case
algorithm for lifespan-1 graphs that may add edges at time 2, and the
bridge that turns a spanner question into an augmentation instance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Iterable, Sequence

from .temporal_graph import (
    NON_STRICT,
    STRICT,
    Hops,
    InvalidCandidateError,
    TemporalEdge,
    TemporalGraph,
    sorted_edges,
    sweep,
    sweep_all,
    _check_semantics,
    _components,
    _joined,
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
    candidates: frozenset[TemporalEdge]  # any iterable of edges, kept as a frozenset
    requirement: Requirement = All()
    semantics: str = NON_STRICT
    cost_model: str = COST_EDGE
    budget: int | None = None
    lifespan: int | None = None  # declared horizon, at least the base's; else what the edges span

    def __post_init__(self):
        object.__setattr__(self, "candidates", frozenset(self.candidates))
        _check_semantics(self.semantics)
        if self.cost_model not in COST_MODELS:
            raise ValueError(f"unknown cost model {self.cost_model!r}")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.lifespan is not None and self.lifespan < 0:
            raise ValueError("lifespan must be non-negative")
        if self.lifespan is not None and self.lifespan < self.base.lifespan:
            raise ValueError(
                f"declared lifespan {self.lifespan} is below the base graph's lifespan {self.base.lifespan}"
            )
        horizon = self.effective_lifespan
        # augment names a candidate that is in the base graph or has an endpoint outside it
        if self.base.augment(self.candidates).lifespan > horizon:
            latest = self.candidates_sorted[-1]
            raise InvalidCandidateError(f"candidate {latest} exceeds the lifespan {horizon}")
        req, n = self.requirement, self.base.n
        if isinstance(req, Source) and not 0 <= req.vertex < n:
            raise ValueError(f"source vertex {req.vertex} out of range 0..{n - 1}")
        if isinstance(req, Pairs):
            _check_pairs(req.pairs, n, req.effective_demand)

    @property
    def effective_lifespan(self) -> int:
        """The declared horizon when given, else whatever the edges span."""
        if self.lifespan is not None:
            return self.lifespan
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
    """A verified selection: the edges to add, their cost, and any witness journeys asked for."""

    selected: tuple[TemporalEdge, ...]
    cost: int
    groups: tuple[tuple[int, int], ...] | None = None
    certificate: tuple[tuple[int, int, Hops], ...] = ()

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
    :class:`AugmentationProblem` has checked that ``req`` names vertices of 0..n-1.
    """
    full = (1 << n) - 1
    if isinstance(req, All):
        return [(s, full ^ 1 << s) for s in range(n)], n
    if isinstance(req, Source):
        return [(req.vertex, full ^ 1 << req.vertex)], 1
    return [(u, 1 << v) for u, v in req.pairs], req.effective_demand


def _check_pairs(pairs: Iterable[tuple[int, int]], n: int, demand: int) -> tuple[tuple[int, int], ...]:
    """``pairs`` as a tuple, once ``demand`` lies in 0..len(pairs) and each pair in 0..n-1."""
    pairs = tuple((u, v) for u, v in pairs)
    if not 0 <= demand <= len(pairs):
        raise ValueError("demand must lie between 0 and the number of pairs")
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"pair ({u},{v}) out of range 0..{n - 1}")
    return pairs


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
    when a search checks the same list again.  The subset search's
    :meth:`_LayerSpace.holds` passes a ``reach`` that runs one
    :func:`~tgaug.temporal_graph.sweep` per source asked, since a tested
    subset mostly fails on its first entry; :func:`verify_solution` and
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
    layers: Sequence[tuple[int, ...]], n: int, entries: list[tuple[int, int]]
) -> Callable[[int], int]:
    """``reach`` for :func:`_demands_met` when every source of ``entries`` may be asked.

    Entries with several distinct sources read them all off one
    :func:`~tgaug.temporal_graph.sweep_all`; a single source takes one
    :func:`~tgaug.temporal_graph.sweep`, which is cheaper.
    """
    if len({source for source, _ in entries}) > 1:
        return sweep_all(layers, n).__getitem__
    return lambda s: sweep(layers, 1 << s)


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
    reach = _reach_all(layers, augmented.n, entries)
    return _demands_met(entries, required, reach)


def unrestricted_candidates(g: TemporalGraph) -> frozenset[TemporalEdge]:
    """Every absent temporal edge over the vertex set and 1..T."""
    if g.lifespan < 1:
        raise ValueError("requires lifespan >= 1")
    return frozenset(
        TemporalEdge(u, v, t)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        for t in range(1, g.lifespan + 1)
    ) - g.edges


class _LayerSpace:
    """The subset search's states for one problem: sweep layers patched unit by unit.

    The start state is the base graph's sweep layers over the base and
    candidate times.  Adding a unit patches only the slots of its edges'
    times: a strict slot gets each edge's two-vertex mask appended, a
    non-strict slot gets its component masks merged by the edges
    (non-strict reachability is a function of the per-time component
    partitions); past that, the sweeps read both semantics alike.

    The footprint bound's two root partitions of the vertices: the
    ``footprint`` is the components of the base edges, each chosen unit
    linking its endpoint pair on top.  When every demand entry
    ``(source, need mask)`` must be met, an accepted selection puts each
    entry's demand link (its source with the vertices it needs) in one
    footprint component, and ``target`` is the footprint joined by every
    demand link; a B-of-p demand links nothing.  Extended by the same unit
    links, their difference in size is how many more units a node needs
    at least, since a unit joins at most two components.  The two-time
    bound ``need`` (:func:`_two_time_need`) applies to All with two layers
    and one-edge units, under either semantics.
    """

    def __init__(self, problem: AugmentationProblem, units: Sequence[tuple[TemporalEdge, ...]]):
        base = problem.base
        self.n = base.n
        self.strict = problem.semantics == STRICT
        self.entries, self.required = _demands(problem.requirement, base.n)
        times = sorted(set(base._edges_by_time) | {e.t for e in problem.candidates})
        slot = {t: i for i, t in enumerate(times)}
        self.start = tuple(base._layer(t, self.strict) for t in times)
        self.patches = [tuple((slot[e.t], 1 << e.u | 1 << e.v) for e in unit) for unit in units]
        self.links = [patch[0][1] for patch in self.patches]  # a unit's edges share one pair
        self.footprint = self.target = _components(base.n, [e.pair for e in base.edges])
        if self.required == len(self.entries):
            demand_links = [1 << s | need for s, need in self.entries]
            self.target = reduce(_joined, demand_links, self.footprint)
        two_time_all = (len(times) == 2 and isinstance(problem.requirement, All)
                        and all(len(unit) == 1 for unit in units))
        self.need = partial(_two_time_need, n=base.n, strict=self.strict) if two_time_all else None

    def add(self, layers: Sequence[tuple[int, ...]], unit: int) -> list[tuple[int, ...]]:
        layers = list(layers)
        for i, link in self.patches[unit]:
            layers[i] = layers[i] + (link,) if self.strict else _joined(layers[i], link)
        return layers

    def holds(self, layers: Sequence[tuple[int, ...]]) -> bool:
        return _demands_met(self.entries, self.required, lambda s: sweep(layers, 1 << s))

    def leaf_test(self, layers: Sequence[tuple[int, ...]]) -> Callable[[int], bool]:
        """``unit -> bool``: whether the front demand entry is met once the unit joins ``layers``.

        One forward sweep of the entry's source records the reach before and
        after each slot.  A unit fires at the first of its slots whose link
        meets the reach before the slot (strict) or after it (non-strict),
        and the sweep goes on from there with the link's two vertices added.
        A sweep from a set is the union of the sweeps from its members, and
        once both endpoints are reached the unit's later edges add nothing.
        A B-of-p demand can be met without its front entry: every unit passes.
        """
        if self.required < len(self.entries):
            return lambda unit: True
        source, need = self.entries[0]
        gates = []  # per slot: the mask a link must meet, where the sweep resumes, from what
        reach = 1 << source
        for k, layer in enumerate(layers):
            grown = sweep((layer,), reach)
            gates.append((reach, k + 1, grown) if self.strict else (grown, k, reach))
            reach = grown
        met = reach & need == need

        def test(unit: int) -> bool:
            for k, link in self.patches[unit]:
                gate, resume, start = gates[k]
                if link & gate:
                    return sweep(layers[resume:], start | link) & need == need
            return met

        return test

    def floor(self, budget: int | None) -> int:
        """The paid-link floor, a lower bound on the cost, capped at min(budget, units) + 1.

        The least k such that the front demand entry's source reaches every
        vertex that the entries with that source need using at most k paid
        links, each edge of each unit being one.  Level k is one pass over
        the start layers: a slot's base masks join by
        :func:`~tgaug.temporal_graph.sweep`'s rule, and its paid links join
        when they meet level k-1's reach before the slot (strict) or after it
        (non-strict).  It is admissible under both cost models: waiting is
        always allowed, so a journey with its loops cut out visits each vertex
        once, crossing each endpoint pair at most once and so using no more
        paid links than the units it touches.  For a single pair it is the
        optimum; a B-of-p demand may skip the front entry, so it gets 0.
        Only the front source is swept (a floor over every source cost more
        than it saved).  When the source cannot reach its need at all, the
        passes run out at the cap.
        """
        if not self.entries or self.required < len(self.entries):
            return 0
        cap = (len(self.patches) if budget is None else min(budget, len(self.patches))) + 1
        source = self.entries[0][0]
        need = reduce(int.__or__, [need for s, need in self.entries if s == source])
        paid: list[list[int]] = [[] for _ in self.start]
        for patch in self.patches:
            for i, link in patch:
                paid[i].append(link)
        gates = [0] * len(self.start)  # level k-1's reach around each slot; none before level 0
        for k in range(cap):
            reach, level = 1 << source, []
            for layer, links, gate in zip(self.start, paid, gates):
                before = reach
                for link in links:
                    if link & gate:
                        reach |= link
                reach |= sweep((layer,), before if self.strict else reach)
                level.append(before if self.strict else reach)
            if reach & need == need:
                return k
            gates = level
        return cap

    def root_holds(self, layers: Sequence[tuple[int, ...]]) -> bool:
        """:meth:`holds` for the search's root tests, which rarely stop at the first source."""
        reach = _reach_all(layers, self.n, self.entries)
        return _demands_met(self.entries, self.required, reach)


def _two_time_need(layers: Sequence[tuple[int, ...]], n: int, strict: bool) -> int:
    """How many more single-edge units two sweep layers on n vertices need at least for All.

    Each time order gives rows that must clear their misses.  Non-strict,
    with two times, every vertex reaches every other exactly when each
    component at the first time meets each component at the second; a row
    is a first-time component and misses the second-time components it
    does not meet.  A second-time merge lowers a row's misses by at most 1,
    and k first-time merges touch at most 2k rows.  Strict, a journey is at
    most a first-time hop and then a second-time hop; a row is a vertex x
    and misses the n - |reach(x)| vertices it does not reach.  A new
    first-time edge changes only its two endpoints' reach, and a new
    second-time edge {a, b} adds at most one vertex to any reach: when x
    reaches both a and b by time 1 it already reached both.  Either way,
    some row among the 2k+1 with the most misses is untouched by k
    first-time units and clears its misses by second-time units alone, so
    at least the least k + misses_(2k+1) over all k is needed.  The mirror
    order swaps the times (strict: what reaches x, read over the reversed
    layers); the larger of the two is returned.
    """
    need = 0
    for order in (layers, layers[::-1]):
        if strict:
            misses = [n - reach.bit_count() for reach in sweep_all(order, n)]
        else:
            rows, cols = order
            misses = [[r & c for c in cols].count(0) for r in rows]
        p = len(misses)
        misses = sorted(misses, reverse=True) + [0]
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
    with_certificate: bool = False,
) -> SolveOutcome:
    """Minimum-cost selection by subset search, or an infeasibility report.

    The units are the candidate edges, or endpoint-pair groups under the
    group cost model; on non-strict runs :func:`_merging_units` drops the
    void ones and collapses duplicates.  :func:`_cheapest_subset` tries
    their subsets smallest first and lexicographically least within a
    size, so among minimum-cost solutions the lexicographically least
    under canonical edge ordering is returned; it documents the bounds it
    starts and cuts with, none of which changes that answer.  Its states
    are :class:`_LayerSpace`'s patched sweep layers.  Edge-cost All over an
    edgeless base may have its first level decided without search
    (:func:`_tree_level`).  A given budget caps the search;
    "budget_exceeded" is reported distinctly from true infeasibility
    ("infeasible").  ``with_certificate=True`` adds :func:`build_certificate`'s journeys.
    """
    units = _group_items(problem)
    if problem.semantics == NON_STRICT:
        units = _merging_units(problem, units)
    combo, first = _tree_level(problem, units)
    if combo is None:
        combo = _cheapest_subset(_LayerSpace(problem, units), problem.budget, first)
    if isinstance(combo, Infeasible):
        return combo
    chosen = [units[i] for i in combo]
    selected = sorted_edges(e for unit in chosen for e in unit)
    groups = None
    if problem.cost_model == COST_GROUP:
        groups = tuple(sorted(unit[0].pair for unit in chosen))
    certificate = build_certificate(problem, selected) if with_certificate else ()
    return Solution(selected, len(chosen), groups, certificate)


def _tree_level(
    problem: AugmentationProblem, units: Sequence[tuple[TemporalEdge, ...]]
) -> tuple[tuple[int, ...] | None, int]:
    """Level n-1 of edge-cost All over an edgeless base, decided without search.

    The level's least accepted subset of ``units`` and 0, or None and the
    size the search starts at: n when the level is empty, else 0.  It
    applies on n >= 2 vertices with no budget below n-1.  n-1 units that
    connect n vertices form a spanning tree, and a non-strict journey along
    a tree path needs times that never fall, as does the one back, so the
    whole tree sits at one time.  Canonical order is time first, so the
    answer is the tree a Kruskal scan in canonical order builds in the
    earliest connected snapshot, the lexicographically least basis of a
    graphic matroid; with no such snapshot the search starts at n.  Strict
    at n >= 3 starts at n too: a tree path u-w-v would need each of its
    times below the other.  Group cost, Source, Pairs and bases with edges
    stay with the search.
    """
    n, budget = problem.base.n, problem.budget
    if (not isinstance(problem.requirement, All) or problem.cost_model != COST_EDGE
            or problem.base.edges or n < 2 or budget is not None and budget < n - 1):
        return None, 0
    if problem.semantics == STRICT:
        return None, n if n >= 3 else 0
    time = None
    for i, (e,) in enumerate(units):  # canonical order: by time, then endpoints
        if e.t != time:
            time, tree, blocks = e.t, [], tuple(1 << v for v in range(n))
        joined = _joined(blocks, 1 << e.u | 1 << e.v)
        if len(joined) < len(blocks):
            tree, blocks = tree + [i], joined
        if len(blocks) == 1:
            return tuple(tree), 0
    return None, n


def _cheapest_subset(space, budget: int | None, first: int = 0) -> tuple[int, ...] | Infeasible:
    """Indices of the first unit subset of at most ``budget`` units that ``space`` accepts.

    ``space`` is a :class:`_LayerSpace`.  Once all units together are
    accepted, the sizes start at the largest of the footprint gap
    ``len(footprint) - len(target)``, ``need(start)``, ``first``, a size
    below which the caller knows no subset is accepted, and
    ``floor(budget)``.  The floor is asked only when the others are below
    both n-1 and the largest size searched: a journey with its loops cut
    pays at most n-1 links, and a start past the budget searches nothing
    either way.  For each size, smallest first, a depth-first search picks
    units in increasing index order, so subsets are visited
    lexicographically within a size.  Each node carries its state and its
    footprint, and a node whose footprint puts at least as many units to go
    as are left to pick is cut, since no extension of it can be accepted.
    ``need`` makes the same cut at a node with two or more units still to
    pick (at the root it is a start bound); the last level does not ask it,
    since ``holds`` tests a leaf state at once.  A frame with one unit left
    tries its units in a plain loop: the footprint cut keeps those whose
    link joins the two blocks its target has merged, if any, and one
    ``leaf_test`` per such frame screens them before a state is built; a
    unit it rejects would have failed ``holds``.  Acceptance is monotone in
    the subset, so the answer is the least accepted subset of the least
    accepted size, exactly as plain enumeration would find it.
    ``Infeasible("infeasible")`` when not even all units together are
    accepted.
    """
    count = len(space.links)
    if not space.root_holds(reduce(space.add, range(count), space.start)):
        return Infeasible("infeasible")
    max_size = count if budget is None else min(budget, count)
    need = 0 if space.need is None else space.need(space.start)
    first = max(first, len(space.footprint) - len(space.target), need)
    if first < min(space.n - 1, max_size + 1):
        first = max(first, space.floor(budget))
    for size in range(first, max_size + 1):
        found = _first_of_size(space, size)
        if found is not None:
            return found
    if budget is not None:
        return Infeasible("budget_exceeded")
    raise RuntimeError("search space exhausted although the full candidate set is feasible")


def _first_of_size(space, size: int) -> tuple[int, ...] | None:
    """The lexicographically least accepted subset of exactly ``size`` units, or None."""
    if size == 0:
        return () if space.root_holds(space.start) else None
    add, holds, need, links = space.add, space.holds, space.need, space.links
    count = len(links)
    # one frame per chosen unit plus the root: [state, footprint, target, next unit to try];
    # below the top frame, a frame's next unit minus one is the unit its child chose
    stack = [[space.start, space.footprint, space.target, 0]]
    while stack:
        frame = stack[-1]
        state, footprint, target, i = frame
        left = size - len(stack) + 1  # units still to pick, this frame's child included
        if left == 1:
            units = range(i, count)
            if len(footprint) > len(target):  # by one, or the parent would have been cut
                a, b = set(footprint).difference(target)  # the blocks the last unit must join
                units = [j for j in units if links[j] & a and links[j] & b]
            test = space.leaf_test(state)
            for j in units:
                if test(j) and holds(add(state, j)):
                    return (*(f[3] - 1 for f in stack[:-1]), j)
        if left == 1 or i > count - left:
            stack.pop()
            continue
        frame[3] = i + 1
        footprint_i = _joined(footprint, links[i])
        target_i = _joined(target, links[i])
        if len(footprint_i) - len(target_i) >= left:
            continue
        child = add(state, i)
        if left > 2 and need is not None and need(child) >= left:
            continue
        stack.append([child, footprint_i, target_i, i + 1])
    return None


def build_certificate(
    problem: AugmentationProblem, selected: Iterable[TemporalEdge]
) -> tuple[tuple[int, int, Hops], ...]:
    """Witness journeys ``(u, v, hops)``, one per reachability obligation the selection meets.

    ``hops`` is empty when u is v.  Built only on request; this,
    ``with_certificate`` of :func:`solve_exact` and
    :attr:`Solution.certificate` stay only because ``benchmarks/replay.py`` calls them.
    """
    augmented = problem.base.augment(selected)
    pairs, _ = _demand_pairs(problem.requirement, augmented.n)
    trees: dict[int, dict[int, Hops]] = {}
    witnesses = []
    for u, v in pairs:
        if u not in trees:
            trees[u] = _journey_tree(augmented, u, problem.semantics)
        hops = trees[u].get(v)
        if hops is not None:
            witnesses.append((u, v, hops))
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


def spanner_via_tca(g: TemporalGraph) -> AugmentationProblem:
    """Recast minimum-spanner on a connected graph as an augmentation instance.

    The base is the edgeless graph on the same vertices (lifespan kept), the
    candidates are all of g's temporal edges, and the requirement is full
    non-strict connectivity; the instance's minimum cost equals g's minimum
    spanner size.  :func:`solve_exact` answers its first level, a spanning
    tree in one snapshot, without search.
    """
    if not g.is_temporally_connected(NON_STRICT):
        raise ValueError("requires a temporally connected graph")
    base = TemporalGraph(g.n, frozenset(), g.lifespan)
    return AugmentationProblem(base, frozenset(g.edges), All(), NON_STRICT, COST_EDGE)


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
