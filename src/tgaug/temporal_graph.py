"""Core temporal graph model.

A temporal graph is a fixed vertex set 0..n-1 plus a set of undirected
edges that each exist at a single integer time step.  Journeys traverse
edges in non-decreasing ("non-strict") or strictly increasing ("strict")
time order; most connectivity notions here come in both flavours.

Every reachability question in the package but one goes through one of two
kernels over the same per-time layers; the exception is
:meth:`~tgaug.steiner_expansion.ExpansionGraph.reachable_from`, a third
walk over the expansion graph, kept apart so that ``--cross-check`` stays
independent of these kernels.  A layer is a tuple of vertex masks, and a
journey that has reached any vertex of a mask before the layer's time
reaches every vertex of it by the end of that time: a non-strict layer
holds the snapshot components, a strict layer one two-vertex mask per
edge (a strict journey takes at most one hop per step).
:func:`sweep` passes over the layers in increasing time order and gives
what one source reaches.  It pays when one source is asked about, or
when a test over many sources tends to fail on the first it tries.
:func:`sweep_all` passes over the layers once in decreasing time order
and gives what every vertex reaches, for the cost of a few sweeps rather
than one per vertex; it pays for questions that must look at many
sources, such as temporal connectivity.  Every vertex partition goes through
two more kernels: :func:`_components` builds one from scratch by union-find,
masks smallest member first (the snapshot components of the non-strict
layers, the footprint of the subset search, the spread of a dominating-set
witness), and :func:`_joined` merges the blocks one link meets, as the subset
search does at every node.  :func:`_journey_tree` reads each time's edges and
keeps the foremost journey into each vertex one source reaches.

Every text format of the package shares one record grammar: :func:`_records`
yields each line's fields once ``#`` comments go, :func:`_ints` reads
integers, :func:`_count` a ``<keyword> <count>`` header that may appear
once, and :func:`_endpoints` reads the integers of an ``E`` record in one
pass and checks its endpoints.

Everything in this module is immutable after construction and safe to
share between threads; all operations are pure functions of their inputs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

STRICT = "strict"
NON_STRICT = "non-strict"
SEMANTICS = (STRICT, NON_STRICT)
# a journey's (from, to, time) steps, in order
Hops = tuple[tuple[int, int, int], ...]


class InvalidCandidateError(ValueError):
    """An edge set offered for augmentation overlaps the graph or is malformed."""


class ParseError(ValueError):
    """Input text could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_semantics(semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}, expected one of {SEMANTICS}")


@dataclass(frozen=True, slots=True, init=False)
class TemporalEdge:
    """An undirected edge present at one time step.

    Endpoints are normalized so that ``u < v``; fields that are not ints
    (``bool`` included), self-loops and non-positive times are rejected.
    """

    u: int
    v: int
    t: int

    def __init__(self, u: int, v: int, t: int):
        if not (type(u) is type(v) is type(t) is int or all(map(_is_int, (u, v, t)))):
            raise ValueError(f"temporal edge fields must be ints, got ({u!r}, {v!r}, {t!r})")
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        if t < 1:
            raise ValueError(f"edge time must be >= 1, got {t}")
        if u > v:
            u, v = v, u
        _set_u(self, u)
        _set_v(self, v)
        _set_t(self, t)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)

    @property
    def key(self) -> tuple[int, int, int]:
        """Canonical sort key: (time, min endpoint, max endpoint)."""
        return (self.t, self.u, self.v)

    def __str__(self) -> str:
        return f"{{{self.u},{self.v}}}@{self.t}"


# the slots' own setters, which write past the frozen class's refusing ``__setattr__``
_set_u, _set_v, _set_t = TemporalEdge.u.__set__, TemporalEdge.v.__set__, TemporalEdge.t.__set__


def sorted_edges(edges: Iterable[TemporalEdge]) -> tuple[TemporalEdge, ...]:
    """Canonical ordering used for every deterministic output."""
    return tuple(sorted(edges, key=attrgetter("t", "u", "v")))


@dataclass(frozen=True)
class SnapshotComponents:
    """Partition of all vertices into the connected components of one snapshot.

    Blocks are sorted internally and ordered by smallest member; isolated
    vertices appear as singleton blocks, so the blocks always cover 0..n-1.
    """

    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TemporalGraph:
    """Immutable temporal graph on vertices 0..n-1.

    The constructor checks every edge set: ``n`` is non-negative, every
    endpoint lies in 0..n-1, and ``lifespan`` is at least the maximum edge
    time.  ``lifespan`` defaults to that maximum (0 when edgeless) and may
    be set higher, e.g. so an empty graph can still host candidate edges
    at later times.  A frozenset hides repeated edges, so :meth:`build`
    takes any edge iterable and rejects repeats.
    """

    n: int
    edges: frozenset[TemporalEdge] = frozenset()
    lifespan: int | None = None

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for e in self.edges:
            if e.u < 0 or e.v >= n:  # every edge has u < v
                raise ValueError(f"edge {e} has endpoints outside 0..{n - 1}")
        if self.lifespan is None:
            object.__setattr__(self, "lifespan", self.max_edge_time)
        elif self.lifespan < self.max_edge_time:
            raise ValueError(
                f"declared lifespan {self.lifespan} is below the maximum edge time {self.max_edge_time}"
            )

    @classmethod
    def build(
        cls, n: int, edges: Iterable[TemporalEdge] = (), lifespan: int | None = None
    ) -> "TemporalGraph":
        edge_list = list(edges)
        edge_set = frozenset(edge_list)
        if len(edge_set) != len(edge_list):
            dupes = sorted_edges(e for e, k in Counter(edge_list).items() if k > 1)
            raise ValueError(f"duplicate temporal edges: {', '.join(map(str, dupes))}")
        return cls(n, edge_set, lifespan)

    # -- basic queries -------------------------------------------------

    @cached_property
    def max_edge_time(self) -> int:
        return max([e.t for e in self.edges], default=0)

    @cached_property
    def _edges_by_time(self) -> dict[int, tuple[TemporalEdge, ...]]:
        buckets: dict[int, list[TemporalEdge]] = defaultdict(list)
        for e in self.edges:
            buckets[e.t].append(e)
        return {t: tuple(sorted(buckets[t], key=attrgetter("u", "v"))) for t in sorted(buckets)}

    @cached_property
    def _comp_cache(self) -> dict[int, tuple[int, ...]]:
        return {}

    # -- snapshots and components ---------------------------------------

    def _check_time(self, t: int) -> None:
        if not 1 <= t <= self.lifespan:
            raise ValueError(f"time {t} out of range 1..{self.lifespan}")

    def _component_masks(self, t: int) -> tuple[int, ...]:
        """Vertex bitmasks of the snapshot components at time t.

        Ordered by smallest member; cached per time step.  Valid for any
        t >= 1 (steps past the last edge are all-singleton).
        """
        cached = self._comp_cache.get(t)
        if cached is None:
            pairs = (e.pair for e in self._edges_by_time.get(t, ()))
            cached = self._comp_cache[t] = _components(self.n, pairs)
        return cached

    def snapshot_components(self, t: int) -> SnapshotComponents:
        """Connected components of the snapshot at time t as a partition."""
        self._check_time(t)
        blocks = tuple(_mask_to_block(m) for m in self._component_masks(t))
        return SnapshotComponents(blocks)

    # -- reachability ----------------------------------------------------

    def _layer(self, t: int, strict: bool) -> tuple[int, ...]:
        """The :func:`sweep` layer of time t >= 1: strict, the edge masks; else the components."""
        if strict:
            return tuple(1 << e.u | 1 << e.v for e in self._edges_by_time.get(t, ()))
        return self._component_masks(t)

    def _layers(self, semantics: str) -> tuple[tuple[int, ...], ...]:
        """Sweep layers of every edge time, in time order."""
        strict = semantics == STRICT
        return tuple(self._layer(t, strict) for t in self._edges_by_time)

    def reachable_set(self, source: int, semantics: str = NON_STRICT) -> frozenset[int]:
        """Vertices reachable from ``source`` by a journey (always contains it)."""
        _check_semantics(semantics)
        if not 0 <= source < self.n:
            raise ValueError(f"vertex {source} out of range 0..{self.n - 1}")
        reach = sweep(self._layers(semantics), 1 << source)
        return frozenset(_mask_to_block(reach))

    def is_temporally_connected(self, semantics: str = NON_STRICT) -> bool:
        """True iff every vertex reaches every other; n <= 1 counts as connected.

        One :func:`sweep_all` gives every vertex's reach at once.
        """
        _check_semantics(semantics)
        full = (1 << self.n) - 1
        reach = sweep_all(self._layers(semantics), self.n)
        return all(mask == full for mask in reach)

    # -- augmentation ----------------------------------------------------

    def augment(self, extra: Iterable[TemporalEdge]) -> "TemporalGraph":
        """Graph with ``extra`` added; lifespan extends to cover the new edges.

        Raises :class:`InvalidCandidateError`, naming the edge, when an added
        edge is repeated, already exists (candidate sets are disjoint from
        the graph by definition) or has an endpoint outside 0..n-1.  Cached
        component masks carry over for every time that no added edge uses.
        """
        extra = list(extra)
        lifespan = max(self.lifespan, max((e.t for e in extra), default=0))
        edges = self.edges.union(extra)
        try:
            if len(edges) < len(self.edges) + len(extra):  # a repeat or an edge of the graph
                TemporalGraph.build(self.n, [*self.edges, *extra])  # raises, naming them
            g = TemporalGraph(self.n, edges, lifespan)
        except ValueError as exc:
            raise InvalidCandidateError(str(exc)) from None
        kept = self._comp_cache.copy()  # one step, so a thread filling the cache cannot upset it
        g._comp_cache.update((t, kept[t]) for t in kept.keys() - {e.t for e in extra})
        return g


def _mask_to_block(mask: int) -> tuple[int, ...]:
    block = []
    while mask:
        low = mask & -mask
        block.append(low.bit_length() - 1)
        mask ^= low
    return tuple(block)


def sweep(layers: Iterable[tuple[int, ...]], start_mask: int) -> int:
    """Mask of the vertices reachable from ``start_mask`` through time-ordered ``layers``.

    The single-source reachability kernel.  Each layer is a tuple of
    vertex masks, and every mask that meets the set reached before the
    layer joins it: a non-strict layer's snapshot components, since a
    journey may take any number of hops within a time step, or a strict
    layer's edges, since only vertices reached before the step may use
    them.
    """
    reach = start_mask
    for layer in layers:
        before = reach
        for m in layer:
            if m & before:
                reach |= m
    return reach


def sweep_all(layers: Sequence[tuple[int, ...]], n: int) -> list[int]:
    """The mask of the vertices each of 0..n-1 reaches through time-ordered ``layers``.

    Entry s equals ``sweep(layers, 1 << s)``, read for every s from one
    pass over the layers latest first.  ``into[x]`` starts as x alone, and
    after the layers at times t and later it is what x reaches using those
    times alone.  A journey from x over times >= t either skips time t, or
    reaches at t every vertex of a mask holding x and goes on from one of
    them over times after t, which ``into`` held before the layer at t.  So
    every member of a mask gains the OR of the members' values of before
    the layer.  A mask of one or two vertices, such as every strict edge,
    takes that step without listing its members.  Costs one pass, against
    one :func:`sweep` per source.
    """
    into = [1 << v for v in range(n)]
    for layer in reversed(layers):
        before = into[:]
        for m in layer:
            low = m & -m
            high = m ^ low
            if high & high - 1:
                members = _mask_to_block(m)
                joint = 0
                for x in members:
                    joint |= before[x]
                for x in members:
                    into[x] |= joint
            elif high:
                u, v = low.bit_length() - 1, high.bit_length() - 1
                into[u] |= before[v]
                into[v] |= before[u]
    return into


def _components(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Component masks of the static graph on vertices 0..n-1 with edges ``pairs``.

    Union-find with path halving (Tarjan, JACM 1975) in which the smaller
    root wins, so no parent is above its vertex and each root is the smallest
    member.  Read in vertex order, each parent already points at its root,
    and the masks, kept by root, come smallest member first.
    """
    parent = list(range(n))
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u > v:
            u, v = v, u
        parent[v] = u
    masks = [0] * n
    for v in range(n):
        root = parent[v] = parent[parent[v]]
        masks[root] |= 1 << v
    return tuple(filter(None, masks))


def _joined(masks: tuple[int, ...], link: int) -> tuple[int, ...]:
    """The disjoint ``masks`` with every mask that meets ``link`` merged into one.

    ``masks`` must cover every bit of ``link``.  Extends a partition of
    :func:`_components` by one more link: a non-strict sweep layer patched
    by an added edge, the footprint of a subset, a dominating set's spread.
    """
    hit = 0
    rest = []
    for m in masks:
        if m & link:
            hit |= m
        else:
            rest.append(m)
    return (hit, *rest)


def _journey_tree(g: TemporalGraph, source: int, semantics: str) -> dict[int, Hops]:
    """Hops of the foremost journey from ``source`` to every vertex it reaches.

    One first-reach pass over the edges, times increasing and each time's
    edges in (u, v) order: an edge with one endpoint reached extends that
    endpoint's journey to the other.  Strict extends only from the vertices
    reached before the edge's time; non-strict from all reached so far, and
    goes through the time's edges again until none extends a journey.  So
    each journey ends at the earliest time its vertex can be reached, and
    the first edge in that order to reach the vertex wins a tie.
    """
    strict = semantics == STRICT
    hops = {source: ()}
    for t, bucket in g._edges_by_time.items():
        tails = set(hops) if strict else hops  # the vertices the edges of t extend from
        while True:
            size = len(hops)
            for e in bucket:
                u, v = e.u, e.v
                if u in tails:
                    if v not in hops:
                        hops[v] = hops[u] + ((u, v, t),)
                elif v in tails and u not in hops:
                    hops[u] = hops[v] + ((v, u, t),)
            if strict or len(hops) == size:
                break
    return hops


# -- text formats ---------------------------------------------------------


def parse_tg(text: str) -> TemporalGraph:
    """Parse the ``.tg`` temporal graph format.

    One record per line, ``#`` starts a comment.  ``V <n>`` is required and
    must precede every edge line; ``T <lifespan>`` optionally overrides the
    lifespan; ``E <u> <v> <t1> [<t2> ...]`` expands to one temporal edge per
    listed time.
    """
    n: int | None = None
    override: int | None = None
    edges: set[TemporalEdge] = set()
    for lineno, fields in _records(text):
        if fields[0] == "E":
            if n is None:
                raise ParseError("edge record before V", lineno)
            if len(fields) < 4:
                raise ParseError("edge record needs two endpoints and at least one time", lineno)
            _edge_record(fields, lineno, n, edges)
        elif fields[0] == "V":
            n = _count(fields, lineno, n, "vertex count")
        elif fields[0] == "T":
            if n is not None:
                raise ParseError("T record must precede V", lineno)
            override = _count(fields, lineno, override, "lifespan")
            override_line = lineno
        else:
            raise ParseError(f"unknown record type {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing V record")
    try:
        # each record was checked as it was read, so only a declared lifespan can fail here
        return TemporalGraph(n, frozenset(edges), override)
    except ValueError as exc:
        raise ParseError(str(exc), override_line) from None


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of each line left non-blank once ``#`` comments go."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if fields:
            yield lineno, fields


def _ints(fields: list[str], lineno: int, what: str, low: int | None = None) -> list[int]:
    """``fields`` as integers, each at least ``low`` when given."""
    try:
        values = list(map(int, fields))
    except ValueError:
        raise ParseError(f"expected integer {what}", lineno) from None
    if low is not None and min(values) < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ParseError(f"{what} must be {bound}", lineno)
    return values


def _count(fields: list[str], lineno: int, declared: int | None, what: str) -> int:
    """The count of a ``<keyword> <count>`` header; ``declared`` is the one read before, if any."""
    if declared is not None:
        raise ParseError(f"duplicate {fields[0]} record", lineno)
    if len(fields) != 2:
        raise ParseError(f"{fields[0]} record takes exactly one value", lineno)
    return _ints(fields[1:], lineno, what, 0)[0]


def _endpoints(fields: list[str], lineno: int, n: int | None) -> tuple[int, int, list[int]]:
    """The checked endpoints of an ``E <u> <v> ...`` record and the integers after them.

    ``n`` bounds the endpoints and is None for a ``.cand`` record, whose
    file declares no vertex count, so only their sign is checked.
    """
    try:
        u, v, *rest = map(int, fields[1:])  # callers check the field count first
    except ValueError:
        raise ParseError("expected integer endpoint or time", lineno) from None
    if n is not None and not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"endpoint out of range 0..{n - 1}", lineno)
    if u < 0 or v < 0:
        raise ParseError("endpoint must be non-negative", lineno)
    if u == v:
        raise ParseError("self-loops are not allowed", lineno)
    return u, v, rest


def _edge_record(fields: list[str], lineno: int, n: int | None, edges: set[TemporalEdge]) -> None:
    """Adds one edge per time of an ``E`` record to ``edges``; a repeat is an error."""
    u, v, times = _endpoints(fields, lineno, n)
    for t in times:
        if t < 1:
            raise ParseError("time steps must be >= 1", lineno)
        e = TemporalEdge(u, v, t)
        size = len(edges)
        edges.add(e)
        if len(edges) == size:
            what = "candidate" if n is None else "temporal edge"
            raise ParseError(f"duplicate {what} {e}", lineno)


def format_tg(g: TemporalGraph) -> str:
    """Serialize to the ``.tg`` format (stable output, groups times per pair)."""
    lines = []
    if g.lifespan != g.max_edge_time:
        lines.append(f"T {g.lifespan}")
    lines.append(f"V {g.n}")
    by_pair: dict[tuple[int, int], list[int]] = defaultdict(list)
    for e in g.edges:
        by_pair[e.pair].append(e.t)
    for (u, v), times in sorted(by_pair.items()):
        lines.append(f"E {u} {v} " + " ".join(str(t) for t in sorted(times)))
    return "\n".join(lines) + "\n"


def parse_candidates(text: str) -> tuple[TemporalEdge, ...]:
    """Parse the ``.cand`` candidate set format: one ``E <u> <v> <t>`` per line."""
    edges: set[TemporalEdge] = set()
    for lineno, fields in _records(text):
        if fields[0] != "E" or len(fields) != 4:
            raise ParseError("expected 'E <u> <v> <t>'", lineno)
        _edge_record(fields, lineno, None, edges)
    return sorted_edges(edges)


def format_candidates(edges: Iterable[TemporalEdge]) -> str:
    return "".join(f"E {e.u} {e.v} {e.t}\n" for e in sorted_edges(edges))

