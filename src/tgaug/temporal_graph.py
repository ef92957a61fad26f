"""Core temporal graph model.

A temporal graph is a fixed vertex set 0..n-1 plus a set of undirected
edges that each exist at a single integer time step.  Journeys traverse
edges in non-decreasing ("non-strict") or strictly increasing ("strict")
time order; most connectivity notions here come in both flavours.

Every reachability question in the package goes through one of two
kernels over the same per-time layers: a non-strict layer is the tuple of
snapshot component masks, a strict layer the tuple of edge bit pairs.
:func:`sweep` passes over the layers in increasing time order and gives
what one source reaches.  It pays when one source is asked about, or
when a test over many sources tends to fail on the first it tries;
traced, it yields the source's whole foremost-journey tree, from which
:func:`find_journey` and the certificates of the solvers read their
journeys.  :func:`sweep_all` passes over the layers once in decreasing
time order and gives what every vertex reaches, for the cost of a few
sweeps rather than one per vertex; it pays for questions that must look
at many sources, such as temporal connectivity.

Every text format of the package shares one record grammar: :func:`_records`
yields each line's fields once ``#`` comments go, :func:`_ints` reads
integers, :func:`_count` a ``<keyword> <count>`` header that may appear
once, and :func:`_endpoints` checks the endpoints of an ``E`` record.

Everything in this module is immutable after construction and safe to
share between threads; all operations are pure functions of their inputs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

STRICT = "strict"
NON_STRICT = "non-strict"
SEMANTICS = (STRICT, NON_STRICT)


class InvalidCandidateError(ValueError):
    """An edge set offered for augmentation overlaps the graph or is malformed."""


class ParseError(ValueError):
    """Input text could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _check_semantics(semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}, expected one of {SEMANTICS}")


@dataclass(frozen=True, slots=True)
class TemporalEdge:
    """An undirected edge present at one time step.

    Endpoints are normalized so that ``u < v``; self-loops and
    non-positive times are rejected.
    """

    u: int
    v: int
    t: int

    def __post_init__(self):
        u, v, t = self.u, self.v, self.t
        if not (isinstance(u, int) and isinstance(v, int) and isinstance(t, int)):
            raise ValueError(f"temporal edge fields must be ints, got ({u!r}, {v!r}, {t!r})")
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        if t < 1:
            raise ValueError(f"edge time must be >= 1, got {t}")
        if u > v:
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)

    @property
    def key(self) -> tuple[int, int, int]:
        """Canonical sort key: (time, min endpoint, max endpoint)."""
        return (self.t, self.u, self.v)

    def __str__(self) -> str:
        return f"{{{self.u},{self.v}}}@{self.t}"


def sorted_edges(edges: Iterable[TemporalEdge]) -> tuple[TemporalEdge, ...]:
    """Canonical ordering used for every deterministic output."""
    return tuple(sorted(edges, key=lambda e: e.key))


@dataclass(frozen=True)
class SnapshotComponents:
    """Partition of all vertices into the connected components of one snapshot.

    Blocks are sorted internally and ordered by smallest member; isolated
    vertices appear as singleton blocks, so the blocks always cover 0..n-1.
    """

    time: int
    blocks: tuple[tuple[int, ...], ...]

    def block_of(self, v: int) -> tuple[int, ...]:
        for b in self.blocks:
            if v in b:
                return b
        raise ValueError(f"vertex {v} not covered by this partition")


@dataclass(frozen=True)
class Journey:
    """A hop sequence certifying reachability.

    ``hops`` is a tuple of (from, to, time) triples; consecutive hops chain
    and times are non-decreasing (non-strict) or strictly increasing
    (strict) per the carried ``semantics`` tag.  The empty journey is a
    valid journey from any vertex to itself.
    """

    hops: tuple[tuple[int, int, int], ...]
    semantics: str = NON_STRICT

    def __post_init__(self):
        _check_semantics(self.semantics)
        prev_to = None
        prev_t = None
        for frm, to, t in self.hops:
            if prev_to is not None and frm != prev_to:
                raise ValueError(f"hops do not chain: {prev_to} -> {frm}")
            if prev_t is not None:
                if self.semantics == STRICT and not prev_t < t:
                    raise ValueError(f"strict journey needs increasing times, got {prev_t} then {t}")
                if self.semantics == NON_STRICT and not prev_t <= t:
                    raise ValueError(f"journey times must be non-decreasing, got {prev_t} then {t}")
            prev_to, prev_t = to, t

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def start(self) -> int | None:
        return self.hops[0][0] if self.hops else None

    @property
    def end(self) -> int | None:
        return self.hops[-1][1] if self.hops else None


@dataclass(frozen=True)
class TemporalGraph:
    """Immutable temporal graph on vertices 0..n-1.

    ``lifespan`` defaults to the maximum edge time (0 when edgeless) and may
    be overridden upwards, e.g. so an empty graph can still host candidate
    edges at later times.  Use :meth:`build` to construct from an arbitrary
    edge iterable with duplicate detection.
    """

    n: int
    edges: frozenset[TemporalEdge] = frozenset()
    lifespan: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        max_t = 0
        for e in self.edges:
            if not 0 <= e.u < self.n or not 0 <= e.v < self.n:
                raise ValueError(f"edge {e} has endpoints outside 0..{self.n - 1}")
            if e.t > max_t:
                max_t = e.t
        if self.lifespan < max_t:
            raise ValueError(f"lifespan {self.lifespan} is below the maximum edge time {max_t}")

    @classmethod
    def build(
        cls, n: int, edges: Iterable[TemporalEdge] = (), lifespan: int | None = None
    ) -> "TemporalGraph":
        edge_list = list(edges)
        edge_set = frozenset(edge_list)
        if len(edge_set) != len(edge_list):
            dupes = sorted_edges(e for e in edge_set if edge_list.count(e) > 1)
            raise ValueError(f"duplicate temporal edges: {', '.join(map(str, dupes))}")
        max_t = max((e.t for e in edge_set), default=0)
        return cls(n, edge_set, max_t if lifespan is None else lifespan)

    # -- basic queries -------------------------------------------------

    @cached_property
    def edges_sorted(self) -> tuple[TemporalEdge, ...]:
        return sorted_edges(self.edges)

    @cached_property
    def max_edge_time(self) -> int:
        return max((e.t for e in self.edges), default=0)

    @cached_property
    def is_simple(self) -> bool:
        """True iff every endpoint pair carries exactly one time label."""
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if e.pair in seen:
                return False
            seen.add(e.pair)
        return True

    @cached_property
    def _edges_by_time(self) -> dict[int, tuple[TemporalEdge, ...]]:
        buckets: dict[int, list[TemporalEdge]] = defaultdict(list)
        for e in self.edges_sorted:
            buckets[e.t].append(e)
        return {t: tuple(es) for t, es in buckets.items()}

    @cached_property
    def _edge_times(self) -> tuple[int, ...]:
        return tuple(sorted(self._edges_by_time))

    @cached_property
    def _full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _adjacency(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """Per edge time: each non-isolated vertex's snapshot neighbours, sorted."""
        adj: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
        for e in self.edges_sorted:
            adj[e.t][e.u].append(e.v)
            adj[e.t][e.v].append(e.u)
        return {t: {x: tuple(sorted(ys)) for x, ys in nbrs.items()} for t, nbrs in adj.items()}

    @cached_property
    def _comp_cache(self) -> dict[int, tuple[int, ...]]:
        return {}

    @cached_property
    def _layer_cache(self) -> dict[bool, tuple]:
        return {}

    def with_lifespan(self, lifespan: int) -> "TemporalGraph":
        """Same graph with an explicit lifespan override."""
        return TemporalGraph(self.n, self.edges, lifespan)

    # -- snapshots and components ---------------------------------------

    def _check_time(self, t: int) -> None:
        if not 1 <= t <= self.lifespan:
            raise ValueError(f"time {t} out of range 1..{self.lifespan}")

    def snapshot(self, t: int) -> tuple[tuple[int, int], ...]:
        """Endpoint pairs of the edges present at time t, sorted."""
        self._check_time(t)
        return tuple(e.pair for e in self._edges_by_time.get(t, ()))

    def _component_masks(self, t: int) -> tuple[int, ...]:
        """Vertex bitmasks of the snapshot components at time t.

        Ordered by smallest member; cached per time step.  Valid for any
        t >= 1 (steps past the last edge are all-singleton).
        """
        cached = self._comp_cache.get(t)
        if cached is not None:
            return cached
        adj = self._adjacency.get(t, {})
        masks: list[int] = []
        seen = 0
        for start in range(self.n):
            if seen >> start & 1:
                continue
            mask = 1 << start
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj.get(x, ()):
                    if not mask >> y & 1:
                        mask |= 1 << y
                        stack.append(y)
            seen |= mask
            masks.append(mask)
        result = tuple(masks)
        self._comp_cache[t] = result
        return result

    def snapshot_components(self, t: int) -> SnapshotComponents:
        """Connected components of the snapshot at time t as a partition."""
        self._check_time(t)
        blocks = tuple(_mask_to_block(m) for m in self._component_masks(t))
        return SnapshotComponents(t, blocks)

    # -- reachability ----------------------------------------------------

    def _layer(self, t: int, strict: bool) -> tuple:
        """The :func:`sweep` layer of time t, valid for any t >= 1."""
        if strict:
            return tuple((1 << e.u, 1 << e.v) for e in self._edges_by_time.get(t, ()))
        return self._component_masks(t)

    def _layers(self, semantics: str) -> tuple[tuple, ...]:
        """Sweep layers of every edge time, in time order; cached per semantics."""
        strict = semantics == STRICT
        layers = self._layer_cache.get(strict)
        if layers is None:
            layers = tuple(self._layer(t, strict) for t in self._edge_times)
            self._layer_cache[strict] = layers
        return layers

    def reachable_set(self, source: int, semantics: str = NON_STRICT) -> frozenset[int]:
        """Vertices reachable from ``source`` by a journey (always contains it)."""
        _check_semantics(semantics)
        if not 0 <= source < self.n:
            raise ValueError(f"vertex {source} out of range 0..{self.n - 1}")
        reach = sweep(self._layers(semantics), semantics == STRICT, 1 << source)
        return frozenset(_mask_to_block(reach))

    def is_temporally_connected(self, semantics: str = NON_STRICT) -> bool:
        """True iff every vertex reaches every other; n <= 1 counts as connected.

        One :func:`sweep_all` gives every vertex's reach at once.
        """
        _check_semantics(semantics)
        full = self._full_mask
        reach = sweep_all(self._layers(semantics), semantics == STRICT, self.n)
        return all(mask == full for mask in reach)

    def check_property_p(self) -> bool:
        """Chain-of-overlapping-components test, equivalent to non-strict connectivity.

        Every component of the first snapshot must link to every vertex
        through later per-step components with pairwise non-empty
        intersections.  That is one non-strict :func:`sweep` from any
        single vertex of each first-step component (the sweep absorbs the
        whole component at time 1), ending on all vertices.
        """
        if self.lifespan < 1:
            raise ValueError("requires lifespan >= 1")
        layers = self._layers(NON_STRICT)
        return all(
            sweep(layers, False, m & -m) == self._full_mask for m in self._component_masks(1)
        )

    # -- augmentation ----------------------------------------------------

    def augment(self, extra: Iterable[TemporalEdge]) -> "TemporalGraph":
        """Graph with ``extra`` added; lifespan extends to cover the new edges.

        Raises :class:`InvalidCandidateError` if any added edge already
        exists (candidate sets are disjoint from the graph by definition).
        """
        extra_list = list(extra)
        extra_set = frozenset(extra_list)
        if len(extra_set) != len(extra_list):
            raise InvalidCandidateError("duplicate edges in the added set")
        overlap = extra_set & self.edges
        if overlap:
            raise InvalidCandidateError(
                f"edges already present: {', '.join(map(str, sorted_edges(overlap)))}"
            )
        for e in extra_set:
            if not 0 <= e.u < self.n or not 0 <= e.v < self.n:
                raise InvalidCandidateError(f"edge {e} has endpoints outside 0..{self.n - 1}")
        lifespan = max(self.lifespan, max((e.t for e in extra_set), default=0))
        return TemporalGraph(self.n, self.edges | extra_set, lifespan)


def _mask_to_block(mask: int) -> tuple[int, ...]:
    block = []
    while mask:
        low = mask & -mask
        block.append(low.bit_length() - 1)
        mask ^= low
    return tuple(block)


def sweep(
    layers: Iterable[tuple], strict: bool, start_mask: int, trace: list[int] | None = None
) -> int:
    """Mask of the vertices reachable from ``start_mask`` through time-ordered ``layers``.

    The single-source reachability kernel.  A non-strict layer is the
    tuple of disjoint component masks of one snapshot: a journey may take
    any number of hops within a time step, so every component touching the
    reached set joins it.  A strict layer is a tuple of ``(1 << u, 1 << v)``
    edge bit pairs: a journey takes at most one hop per time step, so only
    vertices reached before the step may use its edges.  When ``trace`` is
    a list, the mask of the vertices first reached in each layer is
    appended to it, which gives every vertex its earliest arrival.
    """
    reach = start_mask
    for layer in layers:
        before = reach
        if strict:
            for bu, bv in layer:
                if before & bu:
                    reach |= bv
                if before & bv:
                    reach |= bu
        else:
            for m in layer:
                if m & before:
                    reach |= m
        if trace is not None:
            trace.append(reach & ~before)
    return reach


def sweep_all(layers: Sequence[tuple], strict: bool, n: int) -> list[int]:
    """The mask of the vertices each of 0..n-1 reaches through time-ordered ``layers``.

    Entry s equals ``sweep(layers, strict, 1 << s)``, read for every s from
    one pass over the layers latest first.  ``into[x]`` starts as x alone,
    and after the layers at times t and later it is what x reaches using
    those times alone.  A journey from x over times >= t either skips time
    t, or starts with its hops at t and goes on from where they end over
    times after t, which ``into`` held before the layer at t.  Strict: a
    journey takes at most one hop at t, so each edge ``(u, v)`` ORs the
    value ``into[v]`` had before the layer into ``into[u]``, and the other
    way round.  Non-strict: the hops at t may go anywhere in x's snapshot
    component, so every member of a component gets the OR of its members'
    values (the components are disjoint, so these are still the values of
    before the layer).  Costs one pass, against one :func:`sweep` per
    source.
    """
    into = [1 << v for v in range(n)]
    for layer in reversed(layers):
        if strict:
            before = into[:]
            for bu, bv in layer:
                u, v = bu.bit_length() - 1, bv.bit_length() - 1
                into[u] |= before[v]
                into[v] |= before[u]
            continue
        for m in layer:
            if m & m - 1:  # a singleton component changes nothing
                members = _mask_to_block(m)
                joint = 0
                for x in members:
                    joint |= into[x]
                for x in members:
                    into[x] = joint
    return into


def _journey_tree(
    g: TemporalGraph, source: int, semantics: str
) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """Hops of the foremost journey from ``source`` to every vertex it reaches.

    One traced :func:`sweep` fixes each vertex's earliest arrival; the
    journey into a vertex first reached at time t then continues a journey
    already in the tree.  Strict: the first edge at t in canonical order
    whose other endpoint was reached strictly earlier.  Non-strict: from the
    smallest vertex of the absorbing component reached before t, the
    breadth-first path within the snapshot, smallest neighbour first.
    """
    strict = semantics == STRICT
    layers = g._layers(semantics)
    trace: list[int] = []
    sweep(layers, strict, 1 << source, trace)
    hops = {source: ()}
    before = 1 << source
    for t, layer, new in zip(g._edge_times, layers, trace):
        if not new:
            continue
        if strict:
            for e in g._edges_by_time[t]:
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if new >> b & 1 and before >> a & 1 and b not in hops:
                        hops[b] = hops[a] + ((a, b, t),)
        else:
            adj = g._adjacency[t]
            for m in layer:
                if not m & new:
                    continue
                inter = m & before
                anchor = (inter & -inter).bit_length() - 1
                prev = {anchor: anchor}
                queue = deque([anchor])
                while queue:
                    x = queue.popleft()
                    for y in adj[x]:
                        if y not in prev:
                            prev[y] = x
                            queue.append(y)
                for v in _mask_to_block(m & new):
                    path = []
                    x = v
                    while x != anchor:
                        path.append((prev[x], x, t))
                        x = prev[x]
                    hops[v] = hops[anchor] + tuple(reversed(path))
        before |= new
    return hops


def validate_journey(g: TemporalGraph, journey: Journey, start: int | None = None) -> bool:
    """True iff ``journey`` is a valid journey of ``g`` (optionally from ``start``)."""
    if start is not None and journey.hops and journey.start != start:
        return False
    return all(TemporalEdge(frm, to, t) in g.edges for frm, to, t in journey.hops)


def find_journey(
    g: TemporalGraph, source: int, target: int, semantics: str = NON_STRICT
) -> Journey | None:
    """An explicit witness journey from source to target, or None.

    A lookup in the foremost-journey tree that one traced :func:`sweep`
    from ``source`` builds.  Deterministic: the journey arrives at every
    vertex on it as early as possible, and ties break toward the
    canonically first edge (strict) or the smallest already-reached vertex
    and smallest neighbours (non-strict), so equal inputs give equal
    journeys.
    """
    _check_semantics(semantics)
    for v in (source, target):
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
    hops = _journey_tree(g, source, semantics).get(target)
    return None if hops is None else Journey(hops, semantics)


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
    edges: list[TemporalEdge] = []
    seen: set[tuple[int, int, int]] = set()
    for lineno, fields in _records(text):
        if fields[0] == "E":
            if n is None:
                raise ParseError("edge record before V", lineno)
            if len(fields) < 4:
                raise ParseError("edge record needs two endpoints and at least one time", lineno)
            edges += _edge_record(fields, lineno, n, seen)
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
    max_t = max((e.t for e in edges), default=0)
    if override is not None and override < max_t:
        raise ParseError(
            f"declared lifespan {override} is below the maximum edge time {max_t}", override_line
        )
    return TemporalGraph.build(n, edges, lifespan=override)


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of each line left non-blank once ``#`` comments go."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
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
    file declares no vertex count.
    """
    u, v, *rest = _ints(fields[1:], lineno, "endpoint or time")
    if n is not None and not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"endpoint out of range 0..{n - 1}", lineno)
    if u == v:
        raise ParseError("self-loops are not allowed", lineno)
    return u, v, rest


def _edge_record(
    fields: list[str], lineno: int, n: int | None, seen: set[tuple[int, int, int]]
) -> list[TemporalEdge]:
    """One edge per time of an ``E`` record; ``seen`` gains each key, and a repeat is an error."""
    u, v, times = _endpoints(fields, lineno, n)
    edges = []
    for t in times:
        if t < 1:
            raise ParseError("time steps must be >= 1", lineno)
        key = (u, v, t) if u < v else (v, u, t)
        if key in seen:
            what = "candidate" if n is None else "temporal edge"
            raise ParseError(f"duplicate {what} {{{key[0]},{key[1]}}}@{t}", lineno)
        seen.add(key)
        edges.append(TemporalEdge(u, v, t))
    return edges


def format_tg(g: TemporalGraph) -> str:
    """Serialize to the ``.tg`` format (stable output, groups times per pair)."""
    lines = []
    if g.lifespan != g.max_edge_time:
        lines.append(f"T {g.lifespan}")
    lines.append(f"V {g.n}")
    by_pair: dict[tuple[int, int], list[int]] = defaultdict(list)
    for e in g.edges_sorted:
        by_pair[e.pair].append(e.t)
    for (u, v), times in sorted(by_pair.items()):
        lines.append(f"E {u} {v} " + " ".join(str(t) for t in sorted(times)))
    return "\n".join(lines) + "\n"


def parse_candidates(text: str) -> tuple[TemporalEdge, ...]:
    """Parse the ``.cand`` candidate set format: one ``E <u> <v> <t>`` per line."""
    edges: list[TemporalEdge] = []
    seen: set[tuple[int, int, int]] = set()
    for lineno, fields in _records(text):
        if fields[0] != "E" or len(fields) != 4:
            raise ParseError("expected 'E <u> <v> <t>'", lineno)
        edges += _edge_record(fields, lineno, None, seen)
    return sorted_edges(edges)


def format_candidates(edges: Iterable[TemporalEdge]) -> str:
    return "".join(f"E {e.u} {e.v} {e.t}\n" for e in sorted_edges(edges))

