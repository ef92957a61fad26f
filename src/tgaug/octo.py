"""Binary-matrix reformulation of unrestricted non-strict 2-TCA.

A lifespan-2 graph is summarized by its component-intersection matrix:
rows index time-1 snapshot components, columns index time-2 components,
and an entry is 1 iff the two components share a vertex.  Adding one
temporal edge merges two same-time components, which on the matrix is an
entrywise OR of two rows or two columns.  The matrix is all-ones exactly
when the graph is non-strict temporally connected, so the minimum number
of edge additions equals the minimum number of OR-combinations reaching
the one-filled matrix (the OCTO problem solved here by breadth-first
search over canonicalized matrix states).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .temporal_graph import ParseError, TemporalEdge, TemporalGraph, _ints, _records

ROWS = "rows"
COLS = "cols"
STATE_LIMIT = 200_000  # distinct states solve_octo keeps before it reports "limit_exceeded"


@dataclass(frozen=True)
class BinaryMatrix:
    """Immutable 0/1 matrix, at least 1x1."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if x not in (0, 1):
                    raise ValueError(f"entries must be 0 or 1, got {x!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def is_one_filled(self) -> bool:
        return all(all(row) for row in self.rows)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(tuple(zip(*self.rows)))

    def count_ones(self) -> int:
        return sum(sum(row) for row in self.rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


def parse_matrix(text: str) -> BinaryMatrix:
    """Matrix file format: first line ``<rows> <cols>``, then 0/1 rows."""
    lines = list(_records(text))
    if not lines:
        raise ParseError("empty matrix file")
    no, header = lines[0]
    if len(header) != 2:
        raise ParseError("expected '<rows> <cols>' header", no)
    n_rows, n_cols = _ints(header, no, "row or column count", 1)
    if len(lines) - 1 != n_rows:
        raise ParseError(f"expected {n_rows} rows, found {len(lines) - 1}", no)
    rows = []
    for no, values in lines[1:]:
        if len(values) != n_cols:
            raise ParseError(f"expected {n_cols} entries", no)
        row = tuple(_ints(values, no, "entry"))
        if any(x not in (0, 1) for x in row):
            raise ParseError("entries must be 0 or 1", no)
        rows.append(row)
    return BinaryMatrix(tuple(rows))


def format_matrix(b: BinaryMatrix) -> str:
    return f"{b.n_rows} {b.n_cols}\n" + str(b) + "\n"


def component_intersection_matrix(g: TemporalGraph) -> BinaryMatrix:
    """The intersection pattern of time-1 versus time-2 snapshot components.

    Components are taken in canonical (smallest-member) order on both axes.
    """
    if g.lifespan != 2:
        raise ValueError(f"requires lifespan exactly 2, got {g.lifespan}")
    masks1 = g._component_masks(1)
    masks2 = g._component_masks(2)
    return BinaryMatrix(
        tuple(tuple(1 if m1 & m2 else 0 for m2 in masks2) for m1 in masks1)
    )


def matrix_to_graph(b: BinaryMatrix) -> TemporalGraph:
    """A simple lifespan-2 graph whose components realize the matrix.

    One vertex per 1-entry, numbered row-major; entries sharing a row form
    a time-1 clique, entries sharing a column a time-2 clique.  Zero rows
    or columns are rejected (they would describe an empty component).
    """
    for i, row in enumerate(b.rows):
        if not any(row):
            raise ValueError(f"row {i} is all zeros")
    for j in range(b.n_cols):
        if not any(row[j] for row in b.rows):
            raise ValueError(f"column {j} is all zeros")
    ids: dict[tuple[int, int], int] = {}
    for i, row in enumerate(b.rows):
        for j, x in enumerate(row):
            if x:
                ids[(i, j)] = len(ids)
    edges = []
    for i in range(b.n_rows):
        members = [ids[(i, j)] for j in range(b.n_cols) if (i, j) in ids]
        edges.extend(
            TemporalEdge(a, c, 1) for k, a in enumerate(members) for c in members[k + 1 :]
        )
    for j in range(b.n_cols):
        members = [ids[(i, j)] for i in range(b.n_rows) if (i, j) in ids]
        edges.extend(
            TemporalEdge(a, c, 2) for k, a in enumerate(members) for c in members[k + 1 :]
        )
    return TemporalGraph.build(len(ids), edges, lifespan=2)


def _merge(lines: tuple, a: int, c: int) -> tuple:
    """The one merge rule: lines a < c become their entrywise OR at position a; c goes."""
    merged = tuple(x | y for x, y in zip(lines[a], lines[c]))
    return lines[:a] + (merged,) + lines[a + 1 : c] + lines[c + 1 :]


def or_combine(b: BinaryMatrix, axis: str, i: int, j: int) -> BinaryMatrix:
    """Replace lines i and j along ``axis`` by their entrywise OR.

    The combined line lands at min(i, j); the dimension shrinks by one.
    Every other line keeps its values and its relative order, so line k
    moves to k - 1 exactly when k > max(i, j).
    """
    if axis not in (ROWS, COLS):
        raise ValueError(f"axis must be {ROWS!r} or {COLS!r}")
    if i == j:
        raise ValueError("cannot combine a line with itself")
    size = b.n_rows if axis == ROWS else b.n_cols
    for k in (i, j):
        if not 0 <= k < size:
            raise ValueError(f"index {k} out of range 0..{size - 1}")
    lo, hi = min(i, j), max(i, j)
    if axis == ROWS:
        return BinaryMatrix(_merge(b.rows, lo, hi))
    return BinaryMatrix(_merge(b.transpose().rows, lo, hi)).transpose()


@dataclass(frozen=True, order=True)
class MergeStep:
    """One OR-combination, named by original line indices.

    ``i`` and ``j`` name the two merged groups by their representatives:
    the smallest original index in each group.  Merges keep lines in
    order, so representatives increase with position and the merged group
    is named by the representative of the lower line.  A history can thus
    be replayed on the original matrix regardless of how intermediate
    merges renumbered the lines.  Ordering is (axis, i, j), which puts
    column merges before row merges.
    """

    axis: str
    i: int
    j: int


@dataclass(frozen=True)
class OctoResult:
    status: str  # "solved" | "budget_exceeded" | "limit_exceeded" | "infeasible"
    min_combinations: int | None = None
    sequence: tuple[MergeStep, ...] | None = None

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _canonical(rows: tuple[tuple[int, ...], ...]) -> tuple:
    """Permutation-stable key: alternately sort rows and columns to a fixpoint.

    Sorting is itself a row/column permutation, so two states with equal
    keys are genuinely permutation-equivalent (and thus share their minimum).
    """
    prev = None
    while rows != prev:
        prev = rows
        rows = tuple(sorted(rows))
        rows = tuple(zip(*sorted(zip(*rows))))
    return rows


def solve_octo(b: BinaryMatrix, budget: int | None = None) -> OctoResult:
    """Minimum number of OR-combinations reaching the all-ones matrix.

    Level-synchronized breadth-first search over matrix states, memoized by
    a permutation-canonical form (minima are invariant under row/column
    permutation).  The witness is the lexicographically least merge history
    among minimum-length ones, with column merges ordered before row merges.
    Always terminates: merging everything down to 1x1 takes at most
    (rows-1)+(cols-1) steps and succeeds whenever the matrix has any 1.
    """
    if b.count_ones() == 0:
        return OctoResult("infeasible")
    if b.is_one_filled:
        if budget is not None and budget < 0:
            return OctoResult("budget_exceeded")
        return OctoResult("solved", 0, ())

    max_depth = (b.n_rows - 1) + (b.n_cols - 1)
    start = ((), b.rows, {ROWS: tuple(range(b.n_rows)), COLS: tuple(range(b.n_cols))})
    frontier: list[tuple[tuple[MergeStep, ...], tuple, dict]] = [start]
    seen = {_canonical(b.rows)}
    states = 1
    for depth in range(1, max_depth + 1):
        if budget is not None and depth > budget:
            return OctoResult("budget_exceeded")
        level: dict[tuple, tuple[tuple[MergeStep, ...], tuple, dict]] = {}
        goals = []
        for history, rows, names_by_axis in frontier:
            for axis, lines in ((COLS, tuple(zip(*rows))), (ROWS, rows)):
                names = names_by_axis[axis]
                for a in range(len(lines)):
                    for c in range(a + 1, len(lines)):
                        new_history = history + (MergeStep(axis, names[a], names[c]),)
                        new_rows = _merge(lines, a, c)
                        if axis == COLS:
                            new_rows = tuple(zip(*new_rows))
                        if all(all(row) for row in new_rows):
                            goals.append(new_history)
                            continue
                        key = _canonical(new_rows)
                        if key in seen:
                            continue
                        kept = level.get(key)
                        if kept is None or new_history < kept[0]:
                            new_names = {**names_by_axis, axis: names[:c] + names[c + 1 :]}
                            level[key] = (new_history, new_rows, new_names)
        if goals:
            return OctoResult("solved", depth, min(goals))
        states += len(level)
        if states > STATE_LIMIT:
            return OctoResult("limit_exceeded")
        seen.update(level)
        frontier = sorted(level.values(), key=lambda item: item[0])
    raise RuntimeError("search exhausted without reaching the one-filled matrix")


def _replay(shape: tuple[int, int], steps: Sequence[MergeStep]) -> list[tuple[str, int, int]]:
    """Check a merge history against a matrix of ``shape`` (rows, columns).

    Returns each step's line positions ``(axis, a, c)`` with a < c at the
    time the step applies.  Raises ``ValueError`` unless every step names
    two distinct current representatives.
    """
    names = {ROWS: list(range(shape[0])), COLS: list(range(shape[1]))}
    moves = []
    for step in steps:
        current = names.get(step.axis, [])
        if step.i not in current or step.j not in current:
            raise ValueError(f"step {step} names a line that is not a group representative")
        if step.i == step.j:
            raise ValueError("cannot combine a line with itself")
        a, c = sorted((current.index(step.i), current.index(step.j)))
        del current[c]
        moves.append((step.axis, a, c))
    return moves


def apply_sequence(b: BinaryMatrix, steps: Sequence[MergeStep]) -> BinaryMatrix:
    """Replay a merge history on the original matrix."""
    for axis, a, c in _replay((b.n_rows, b.n_cols), steps):
        b = or_combine(b, axis, a, c)
    return b


def sequence_to_edges(g: TemporalGraph, steps: Sequence[MergeStep]) -> tuple[TemporalEdge, ...]:
    """Map a merge history back to temporal edges of a lifespan-2 graph.

    A row merge becomes a time-1 edge between the smallest vertices of the
    two merged component groups, a column merge a time-2 edge; this turns
    an OCTO witness into an augmentation solution of equal size.  Since
    components are ordered by smallest member, a group's smallest vertex
    is the first vertex of its representative's component.
    """
    if g.lifespan != 2:
        raise ValueError(f"requires lifespan exactly 2, got {g.lifespan}")
    blocks = {ROWS: g.snapshot_components(1).blocks, COLS: g.snapshot_components(2).blocks}
    _replay((len(blocks[ROWS]), len(blocks[COLS])), steps)
    return tuple(
        TemporalEdge(blocks[s.axis][s.i][0], blocks[s.axis][s.j][0], 1 if s.axis == ROWS else 2)
        for s in steps
    )


def octo_result_to_json(result: OctoResult) -> dict:
    data = {"schema": 1, "status": result.status, "feasible": result.solved}
    if result.solved:
        data["min_combinations"] = result.min_combinations
        data["sequence"] = [{"axis": s.axis, "i": s.i, "j": s.j} for s in result.sequence]
    return data
