"""Hardness-gadget constructors with bidirectional witness maps.

Each reduction turns a classic combinatorial instance (dominating set,
hitting set, disjoint set covers, 3-SAT) into an equivalent augmentation
or matrix instance.  The constructors double as instance generators for
the solver CLI and as equivalence oracles in the test suite; the witness
maps translate solutions in both directions with the sizes the
equivalences promise.

Each gadget witnesses one hardness claim of the paper's abstract:
dominating set, strict All at lifespan 2; hitting set, non-strict Source
at lifespan 2 (Source is as hard as TCA); disjoint set covers through
OCTO, non-strict All at lifespan 2; 3-SAT, the variant NP-hard with two
pairs (pair demands, group cost, non-strict).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .augmentation import (
    COST_EDGE,
    COST_GROUP,
    All,
    AugmentationProblem,
    Pairs,
    Source,
    unrestricted_candidates,
)
from .octo import COLS, BinaryMatrix, MergeStep, _groups, apply_sequence
from .temporal_graph import (
    NON_STRICT,
    STRICT,
    ParseError,
    TemporalEdge,
    TemporalGraph,
    _components,
    _count,
    _endpoints,
    _ints,
    _joined,
    _mask_to_block,
    _records,
)

MODE_SIMPLE = "simple"
MODE_UNRESTRICTED = "unrestricted"
MODES = (MODE_SIMPLE, MODE_UNRESTRICTED)


@dataclass(frozen=True)
class StaticGraphInstance:
    """A simple undirected graph with a budget, for dominating set."""

    n: int
    edges: frozenset[tuple[int, int]]
    budget: int

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))


@dataclass(frozen=True)
class SetSystemInstance:
    """A universe 0..n-1, a collection of subsets, and a budget.

    Used both for hitting set (budget = max picked elements) and for
    disjoint set covers (budget = required number of covering parts).
    """

    universe_size: int
    subsets: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not self.subsets:
            raise ValueError("collection must be non-empty")
        for s in self.subsets:
            for e in s:
                if not 0 <= e < self.universe_size:
                    raise ValueError(f"element {e} outside universe 0..{self.universe_size - 1}")


@dataclass(frozen=True)
class CnfInstance:
    """A 3-CNF formula; literals are DIMACS style (+/- 1-based variable numbers)."""

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError("need at least one variable")
        if not self.clauses:
            raise ValueError("need at least one clause")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("clauses must have exactly 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range")
            if any(-lit in clause for lit in clause):
                raise ValueError("a clause may not contain a variable and its negation")


# -- dominating set -> strict 2-TCA -----------------------------------------


@dataclass(frozen=True)
class DominatingSetReduction:
    problem: AugmentationProblem
    x: int
    y: int


def reduce_dominating_set(
    inst: StaticGraphInstance, mode: str = MODE_SIMPLE
) -> DominatingSetReduction:
    """Strict full-connectivity instance equivalent to dominating set.

    Two fresh vertices x and y join the graph; the original edges and
    {x,y} exist at time 2, every other pair inside V+{y} at time 1.  All
    journeys into x exist already, so a solution must make x a source, and
    only edges ({x,v},1) ever help, which is exactly picking a dominating
    set.  Candidates are those n star edges (simple mode) or every missing
    temporal edge (unrestricted mode).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    n = inst.n
    x, y = n, n + 1
    edges = [TemporalEdge(x, y, 2)]
    edges.extend(TemporalEdge(u, v, 2) for u, v in inst.edges)
    edges.extend(
        TemporalEdge(u, v, 1)
        for u, v in itertools.combinations([*range(n), y], 2)
        if (u, v) not in inst.edges
    )
    base = TemporalGraph.build(n + 2, edges, lifespan=2)
    if mode == MODE_SIMPLE:
        candidates = frozenset(TemporalEdge(x, v, 1) for v in range(n))
    else:
        candidates = unrestricted_candidates(base)
    problem = AugmentationProblem(base, candidates, All(), STRICT, COST_EDGE, inst.budget)
    return DominatingSetReduction(problem, x, y)


def ds_witness_to_edges(
    red: DominatingSetReduction, dominating: Iterable[int]
) -> frozenset[TemporalEdge]:
    """A dominating set becomes one time-1 star edge from x per chosen vertex."""
    return frozenset(TemporalEdge(red.x, u, 1) for u in dominating)


def ds_edges_to_witness(red: DominatingSetReduction, selected: Iterable[TemporalEdge]) -> frozenset[int]:
    """Normalize a valid connecting set into a dominating set of at most its size.

    Replays the dominance argument: time-1 edges not touching x are useless,
    a time-2 edge is only ever useful one hop after a (possibly replaced)
    time-1 star edge and moves to the star edge of its far endpoint, and
    edges meeting y never help.  Each selected edge contributes at most one
    vertex, so the result respects the budget.
    """
    x, y = red.x, red.y
    chosen = set(selected)
    star = {e.v if e.u == x else e.u for e in chosen if x in (e.u, e.v)}
    star.discard(y)
    # the star spreads over every component of the time-2 edges it touches
    late = [e.pair for e in chosen if x not in (e.u, e.v) and e.t == 2]
    reached = _joined(_components(red.problem.base.n, late), sum(1 << v for v in star))[0]
    witness = frozenset(_mask_to_block(reached)) - {y}
    if len(witness) > len(chosen):
        raise ValueError("normalization exceeded the witness size")
    return witness


# -- hitting set -> non-strict 2-TSA -----------------------------------------


@dataclass(frozen=True)
class HittingSetReduction:
    """Vertex 0 is x, membership k is vertex 1 + k and set j is vertex
    ``1 + len(membership_vertices) + j``."""

    problem: AugmentationProblem
    x: int
    membership_vertices: tuple[tuple[int, int], ...]  # (element, set) per vertex, in id order
    set_vertices: tuple[int, ...]  # vertex id of each set

    def membership_id(self, element: int, subset: int) -> int:
        return 1 + self.membership_vertices.index((element, subset))


def reduce_hitting_set(
    inst: SetSystemInstance, mode: str = MODE_SIMPLE
) -> HittingSetReduction:
    """Non-strict source instance equivalent to hitting set.

    One vertex per (element, containing set) membership plus one per set; at
    time 1 the memberships of one element form a clique, at time 2 each
    membership connects to its set vertex.  Making x a source requires one
    time-1 edge from x into some membership of every set, i.e. a hitting set.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    for j, s in enumerate(inst.subsets):
        if not s:
            raise ValueError(f"subset {j} is empty")
    memberships = sorted((e, j) for j, s in enumerate(inst.subsets) for e in s)
    x, k = 0, len(memberships)
    edges = []
    for _, clique in itertools.groupby(range(1, 1 + k), key=lambda v: memberships[v - 1][0]):
        edges.extend(TemporalEdge(a, b, 1) for a, b in itertools.combinations(clique, 2))
    edges.extend(TemporalEdge(v, 1 + k + j, 2) for v, (_, j) in enumerate(memberships, 1))
    n = 1 + k + len(inst.subsets)
    base = TemporalGraph.build(n, edges, lifespan=2)
    if mode == MODE_SIMPLE:
        candidates = frozenset(TemporalEdge(x, v, 1) for v in range(1, 1 + k))
    else:
        candidates = unrestricted_candidates(base)
    problem = AugmentationProblem(
        base, candidates, Source(x), NON_STRICT, COST_EDGE, inst.budget
    )
    return HittingSetReduction(problem, x, tuple(memberships), tuple(range(1 + k, n)))


def hs_witness_to_edges(
    red: HittingSetReduction, inst: SetSystemInstance, hitting: Iterable[int]
) -> frozenset[TemporalEdge]:
    """Each picked element becomes an edge from x to its first membership vertex."""
    edges = set()
    for e in hitting:
        j = min(j for j, s in enumerate(inst.subsets) if e in s)
        edges.add(TemporalEdge(red.x, red.membership_id(e, j), 1))
    return frozenset(edges)


def hs_edges_to_witness(
    red: HittingSetReduction, selected: Iterable[TemporalEdge]
) -> frozenset[int]:
    """A hitting set of at most ``len(selected)`` elements, read off a valid selection.

    x's time-1 component joins base time-1 components (a membership clique
    per element, a singleton per set vertex) by at least one selected time-1
    edge each.  Each gives its element, or the least element of its set,
    which hits every set whose time-2 star meets that component.  x reaches
    any other set only through a time-2 component that joins its star to one
    that meets it, by at least one selected time-2 edge per star; each such
    set still unhit gives its least element.
    """
    g = red.problem.base.augment(selected)
    x, memberships = red.x, red.membership_vertices
    k = len(memberships)
    elements: dict[int, set[int]] = defaultdict(set)  # set vertex -> its elements
    for e, j in memberships:
        elements[1 + k + j].add(e)
    start = next(m for m in g._component_masks(1) if m >> x & 1)
    hit = {
        memberships[v - 1][0] if v <= k else min(elements[v])
        for v in _mask_to_block(start)
        if v != x
    }
    for comp in g._component_masks(2):
        if comp & start:
            for v in _mask_to_block(comp):
                if v > k and not elements[v] & hit:
                    hit.add(min(elements[v]))
    return frozenset(hit)


# -- disjoint set covers -> OCTO ---------------------------------------------


@dataclass(frozen=True)
class DscReduction:
    matrix: BinaryMatrix
    budget: int  # OR-combination budget m - K


def reduce_dsc(inst: SetSystemInstance) -> DscReduction:
    """Matrix whose one-filling within m-K merges means K disjoint covers exist.

    Row block i of the n(m+1)-row matrix marks which subsets contain element
    i mod n; repeating the block m+1 times makes row merges unaffordable, so
    any within-budget solution merges columns only, grouping the subsets
    into covers.
    """
    n, m = inst.universe_size, len(inst.subsets)
    if inst.budget < 1:
        raise ValueError("cover target must be at least 1")
    if inst.budget > m:
        raise ValueError(f"cover target {inst.budget} exceeds the {m} sets")
    if n < 1:
        raise ValueError("universe must be non-empty")
    rows = tuple(
        tuple(1 if (i % n) in s else 0 for s in inst.subsets) for i in range(n * (m + 1))
    )
    return DscReduction(BinaryMatrix(rows), m - inst.budget)


def dsc_witness_to_steps(
    inst: SetSystemInstance, parts: Sequence[Iterable[int]]
) -> tuple[MergeStep, ...]:
    """A partition into covers becomes the column merges inside each part."""
    steps = []
    seen: set[int] = set()
    for part in sorted(tuple(sorted(p)) for p in parts):
        if not part:
            raise ValueError("empty part")
        for j in part:
            if j in seen or not 0 <= j < len(inst.subsets):
                raise ValueError(f"column {j} repeated or out of range")
            seen.add(j)
        head = part[0]
        steps.extend(MergeStep(COLS, head, j) for j in part[1:])
    if len(seen) != len(inst.subsets):
        raise ValueError("parts must partition the whole collection")
    return tuple(steps)


def dsc_steps_to_witness(
    inst: SetSystemInstance, red: DscReduction, steps: Sequence[MergeStep]
) -> tuple[tuple[int, ...], ...]:
    """Extract a partition into covering parts from a one-filling merge history.

    Useless row merges (those whose removal still one-fills) are dropped.
    Splitting a row group can only clear 1s, so all of them go exactly when
    the column merges alone one-fill; otherwise a meaningful row merge stays
    and the history is rejected.  Each column group then one-fills its
    column, so it covers the universe; ``ValueError`` is raised when ``inst``
    is not the instance ``red`` came from.
    """
    if len(inst.subsets) != red.matrix.n_cols:
        raise ValueError(f"instance has {len(inst.subsets)} sets, not {red.matrix.n_cols}")
    if not apply_sequence(red.matrix, steps).is_one_filled:
        raise ValueError("history does not one-fill the matrix")
    columns = [s for s in steps if s.axis == COLS]
    if not apply_sequence(red.matrix, columns).is_one_filled:
        raise ValueError("history still contains a meaningful row merge")
    shape = (red.matrix.n_rows, red.matrix.n_cols)
    parts = tuple(tuple(sorted(group)) for group in _groups(shape, columns)[COLS])
    universe = set(range(inst.universe_size))
    if not all(set().union(*(inst.subsets[j] for j in part)) >= universe for part in parts):
        raise ValueError("a column group does not cover the universe")
    return parts


# -- 3-SAT -> non-strict edge-by-edge pair demands ----------------------------


@dataclass(frozen=True)
class ThreeSatReduction:
    problem: AugmentationProblem
    budget: int  # optional-link count along one branch per variable
    standard_budget: bool  # budget == 3m (false when clauses repeat variables)
    n_vars: int
    links: tuple[tuple[int, str, int, tuple[int, int]], ...]  # (var, branch, clause, pair)


def reduce_3sat(cnf: CnfInstance) -> ThreeSatReduction:
    """Two pair demands whose joint budget-3m satisfiability mirrors the formula.

    Per variable, a chain gadget with a true and a false branch; each branch
    holds one buffer+value pair per clause the variable occurs in, joined by
    an optional link present at times 1 and 2 (one candidate group each).
    Walking the variable chain at time 1 forces buying every link of one
    branch per variable.  Per clause, a time-2 gadget reachable only across
    a bought link of one of its literals.  Demands: first variable start to
    last variable end, and first clause start to last clause end.  The
    budget charges the links of one branch per variable; it equals 3m
    exactly when no clause repeats a variable, and ``standard_budget``
    records whether that holds.
    """
    n, m = cnf.n_vars, len(cnf.clauses)
    literal_at: dict[tuple[int, int], str] = {}  # (var, clause) -> branch of its literal
    for c, clause in enumerate(cnf.clauses):
        for lit in clause:
            literal_at[abs(lit), c] = "T" if lit > 0 else "F"
    occs: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}  # clauses per variable
    for var, c in literal_at:
        occs[var].append(c)

    ids = itertools.count()  # vertex ids in allocation order
    edges: list[TemporalEdge] = []
    links: dict[tuple[int, str, int], tuple[int, int]] = {}  # (var, branch, clause) -> (buffer, value)
    for var in range(1, n + 1):
        start = next(ids)
        if var > 1:
            edges.append(TemporalEdge(end, start, 1))  # from the previous variable's end
        tails = set()
        for branch in ("T", "F"):
            tail = start
            for c in occs[var]:
                buf, val = links[var, branch, c] = next(ids), next(ids)
                edges.append(TemporalEdge(tail, buf, 1))
                tail = val
            tails.add(tail)
        end = next(ids)
        edges.extend(TemporalEdge(tail, end, 1) for tail in tails)

    gadgets = [(next(ids), next(ids)) for _ in range(m)]  # (start, end) per clause
    edges.extend(TemporalEdge(ce, cs, 2) for (_, ce), (cs, _) in zip(gadgets, gadgets[1:]))
    for (var, c), branch in literal_at.items():
        cs, ce = gadgets[c]
        buf, val = links[var, branch, c]
        edges += (TemporalEdge(cs, buf, 2), TemporalEdge(val, ce, 2))

    candidates = frozenset(TemporalEdge(*pair, t) for pair in links.values() for t in (1, 2))
    budget = sum(len(c) for c in occs.values())
    base = TemporalGraph.build(next(ids), edges, lifespan=2)
    problem = AugmentationProblem(
        base,
        candidates,
        Pairs(((0, end), (gadgets[0][0], gadgets[-1][1]))),  # vertex 0 starts the first variable
        NON_STRICT,
        COST_GROUP,
        budget,
    )
    link_rows = tuple((*key, pair) for key, pair in links.items())
    return ThreeSatReduction(problem, budget, budget == 3 * m, n, link_rows)


def sat_witness_to_edges(
    red: ThreeSatReduction, assignment: Sequence[bool]
) -> frozenset[TemporalEdge]:
    """All optional links on the branch each variable's truth value selects."""
    edges = set()
    for var, branch, _, (a, b) in red.links:
        if (branch == "T") == bool(assignment[var - 1]):
            edges.add(TemporalEdge(a, b, 1))
            edges.add(TemporalEdge(a, b, 2))
    return frozenset(edges)


def sat_edges_to_witness(red: ThreeSatReduction, selected: Iterable[TemporalEdge]) -> tuple[bool, ...]:
    """The assignment a valid solution buys: true iff no link of the true branch is missing."""
    pairs = {e.pair for e in selected}
    missing = {var for var, branch, _, pair in red.links if branch == "T" and pair not in pairs}
    return tuple(var not in missing for var in range(1, red.n_vars + 1))


# -- source-instance text formats ---------------------------------------------


def parse_static_graph(text: str, budget: int) -> StaticGraphInstance:
    """Edge-list format: ``V <n>`` then one ``E <u> <v>`` per line, '#' comments."""
    n: int | None = None
    edges = set()
    for lineno, fields in _records(text):
        if fields[0] == "V":
            n = _count(fields, lineno, n, "vertex count")
        elif fields[0] == "E" and len(fields) == 3:
            if n is None:
                raise ParseError("edge before V record", lineno)
            u, v, _ = _endpoints(fields, lineno, n)
            edges.add((min(u, v), max(u, v)))
        else:
            raise ParseError("expected 'V <n>' or 'E <u> <v>'", lineno)
    if n is None:
        raise ParseError("missing V record")
    return StaticGraphInstance(n, frozenset(edges), budget)


def parse_set_system(text: str, budget: int) -> SetSystemInstance:
    """Set-list format: ``U <n>`` then one ``S <i>: <e> <e> ...`` per line."""
    n: int | None = None
    subsets: list[frozenset[int]] = []
    for lineno, fields in _records(text):
        if fields[0] == "U":
            n = _count(fields, lineno, n, "universe size")
        elif fields[0] == "S":
            if n is None:
                raise ParseError("set before U record", lineno)
            head, colon, tail = " ".join(fields[1:]).partition(":")
            if len(head.split()) != 1 or not colon:
                raise ParseError("expected 'S <i>: <e> <e> ...'", lineno)
            idx, *elements = _ints([head, *tail.split()], lineno, "set index or element")
            if idx != len(subsets):
                raise ParseError(f"expected set index {len(subsets)}", lineno)
            if any(not 0 <= e < n for e in elements):
                raise ParseError(f"element outside universe 0..{n - 1}", lineno)
            subsets.append(frozenset(elements))
        else:
            raise ParseError("expected 'U <n>' or 'S <i>: ...'", lineno)
    if n is None:
        raise ParseError("missing U record")
    if not subsets:
        raise ParseError("no sets given")
    return SetSystemInstance(n, tuple(subsets), budget)


def parse_dimacs(text: str) -> CnfInstance:
    """Standard DIMACS CNF; clauses shorter than 3 pad by repeating a literal.

    A line whose first character is ``c`` is a comment, and so, as in the
    other formats, is everything after a ``#``.
    """
    n_vars: int | None = None
    n_clauses = header_line = 0
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []
    for lineno, fields in _records(text):
        if fields[0][0] == "c":
            continue
        if fields[0] == "p":
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError("expected 'p cnf <vars> <clauses>'", lineno)
            if n_vars is not None:
                raise ParseError("duplicate problem line", lineno)
            n_vars, n_clauses = _ints(fields[2:], lineno, "variable or clause count")
            if n_vars < 1:
                raise ParseError("need at least one variable", lineno)
            if n_clauses < 1:
                raise ParseError("need at least one clause", lineno)
            header_line = lineno
            continue
        if n_vars is None:
            raise ParseError("clause before the problem line", lineno)
        for value in _ints(fields, lineno, "literal"):
            if value == 0:
                if not pending:
                    raise ParseError("empty clause", lineno)
                if len(pending) > 3:
                    raise ParseError("clause with more than 3 literals", lineno)
                if any(-lit in pending for lit in pending):
                    raise ParseError("a clause may not contain a variable and its negation", lineno)
                while len(pending) < 3:
                    pending.append(pending[-1])
                clauses.append(tuple(pending))
                pending = []
            elif abs(value) > n_vars:
                raise ParseError(f"literal {value} out of range", lineno)
            else:
                pending.append(value)
    if n_vars is None:
        raise ParseError("missing problem line")
    if pending:
        raise ParseError("unterminated clause")
    if len(clauses) != n_clauses:
        raise ParseError(f"{n_clauses} clauses declared, {len(clauses)} given", header_line)
    return CnfInstance(n_vars, tuple(clauses))
