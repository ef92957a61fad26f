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

from .temporal_graph import ParseError, TemporalEdge, TemporalGraph, _parse_int, _records

ROWS = "rows"
COLS = "cols"


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
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("expected '<rows> <cols>' header", no)
    n_rows = _parse_int(parts, 0, no, "row count")
    n_cols = _parse_int(parts, 1, no, "column count")
    if len(lines) - 1 != n_rows:
        raise ParseError(f"expected {n_rows} rows, found {len(lines) - 1}", no)
    rows = []
    for no, line in lines[1:]:
        values = line.split()
        if len(values) != n_cols:
            raise ParseError(f"expected {n_cols} entries", no)
        try:
            row = tuple(int(x) for x in values)
        except ValueError:
            raise ParseError("entries must be 0 or 1", no) from None
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


def or_combine(b: BinaryMatrix, axis: str, i: int, j: int) -> BinaryMatrix:
    """Replace lines i and j along ``axis`` by their entrywise OR.

    The combined line lands at min(i, j); the dimension shrinks by one.
    Every other line keeps its values and its relative order, so line k
    moves to k - 1 exactly when k > max(i, j).  ``apply_sequence`` and the
    representative renumbering of ``MergeStep`` histories rely on this.
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
        merged = tuple(x | y for x, y in zip(b.rows[lo], b.rows[hi]))
        rows = [merged if k == lo else row for k, row in enumerate(b.rows) if k != hi]
        return BinaryMatrix(tuple(rows))
    return or_combine(b.transpose(), ROWS, i, j).transpose()


@dataclass(frozen=True, order=True)
class MergeStep:
    """One OR-combination, named by original line indices.

    ``i`` and ``j`` are representatives (the smallest original index) of the
    two merged groups, so a sequence can be replayed on the original matrix
    regardless of how intermediate merges renumbered the lines.  Ordering is
    (axis, i, j), which puts column merges before row merges.
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


def solve_octo(
    b: BinaryMatrix, budget: int | None = None, state_limit: int = 200_000
) -> OctoResult:
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
    start = (b.rows, tuple(range(b.n_rows)), tuple(range(b.n_cols)))
    frontier: list[tuple[tuple[MergeStep, ...], tuple, tuple[int, ...], tuple[int, ...]]] = [
        ((), *start)
    ]
    seen = {_canonical(b.rows)}
    states = 1
    for depth in range(1, max_depth + 1):
        if budget is not None and depth > budget:
            return OctoResult("budget_exceeded")
        level: dict[tuple, tuple[tuple[MergeStep, ...], tuple, tuple, tuple]] = {}
        goals = []
        for history, rows, row_reps, col_reps in frontier:
            n_rows, n_cols = len(rows), len(rows[0])
            succs = []
            for a in range(n_cols):
                for c in range(a + 1, n_cols):
                    succs.append((COLS, a, c))
            for a in range(n_rows):
                for c in range(a + 1, n_rows):
                    succs.append((ROWS, a, c))
            for axis, a, c in succs:
                if axis == ROWS:
                    merged = tuple(x | y for x, y in zip(rows[a], rows[c]))
                    new_rows = tuple(
                        merged if k == a else row for k, row in enumerate(rows) if k != c
                    )
                    reps = sorted((row_reps[a], row_reps[c]))
                    new_row_reps = tuple(
                        reps[0] if k == a else r for k, r in enumerate(row_reps) if k != c
                    )
                    new_col_reps = col_reps
                else:
                    cols = tuple(zip(*rows))
                    merged = tuple(x | y for x, y in zip(cols[a], cols[c]))
                    new_cols = tuple(
                        merged if k == a else col for k, col in enumerate(cols) if k != c
                    )
                    new_rows = tuple(zip(*new_cols))
                    reps = sorted((col_reps[a], col_reps[c]))
                    new_col_reps = tuple(
                        reps[0] if k == a else r for k, r in enumerate(col_reps) if k != c
                    )
                    new_row_reps = row_reps
                step = MergeStep(axis, reps[0], reps[1])
                new_history = history + (step,)
                if all(all(row) for row in new_rows):
                    goals.append(new_history)
                    continue
                key = _canonical(new_rows)
                if key in seen:
                    continue
                kept = level.get(key)
                if kept is None or new_history < kept[0]:
                    level[key] = (new_history, new_rows, new_row_reps, new_col_reps)
        if goals:
            return OctoResult("solved", depth, min(goals))
        states += len(level)
        if states > state_limit:
            return OctoResult("limit_exceeded")
        seen.update(level)
        frontier = sorted(level.values(), key=lambda item: item[0])
    raise RuntimeError("search exhausted without reaching the one-filled matrix")


def apply_sequence(b: BinaryMatrix, steps: Sequence[MergeStep]) -> BinaryMatrix:
    """Replay a merge history on the original matrix."""
    rows = b.rows
    row_reps = list(range(b.n_rows))
    col_reps = list(range(b.n_cols))
    for step in steps:
        reps = row_reps if step.axis == ROWS else col_reps
        try:
            a, c = reps.index(step.i), reps.index(step.j)
        except ValueError:
            raise ValueError(f"step {step} names a line that is not a group representative") from None
        m = BinaryMatrix(rows)
        m = or_combine(m, step.axis, a, c)
        rows = m.rows
        keep = min(a, c)
        drop = max(a, c)
        reps[keep] = min(reps[a], reps[c])
        del reps[drop]
    return BinaryMatrix(rows)


def sequence_to_edges(g: TemporalGraph, steps: Sequence[MergeStep]) -> tuple[TemporalEdge, ...]:
    """Map a merge history back to temporal edges of a lifespan-2 graph.

    A row merge becomes a time-1 edge between (the smallest vertices of) the
    two merged component groups, a column merge a time-2 edge; this turns an
    OCTO witness into an augmentation solution of equal size.
    """
    if g.lifespan != 2:
        raise ValueError(f"requires lifespan exactly 2, got {g.lifespan}")
    groups = {
        ROWS: [set(block) for block in g.snapshot_components(1).blocks],
        COLS: [set(block) for block in g.snapshot_components(2).blocks],
    }
    reps = {axis: list(range(len(groups[axis]))) for axis in groups}
    edges = []
    for step in steps:
        axis = step.axis
        try:
            a, c = reps[axis].index(step.i), reps[axis].index(step.j)
        except ValueError:
            raise ValueError(f"step {step} names a line that is not a group representative") from None
        u = min(groups[axis][a])
        v = min(groups[axis][c])
        edges.append(TemporalEdge(u, v, 1 if axis == ROWS else 2))
        keep, drop = min(a, c), max(a, c)
        groups[axis][keep] = groups[axis][a] | groups[axis][c]
        reps[axis][keep] = min(reps[axis][a], reps[axis][c])
        del groups[axis][drop]
        del reps[axis][drop]
    return tuple(edges)


def octo_result_to_json(result: OctoResult) -> dict:
    data = {"schema": 1, "status": result.status, "feasible": result.solved}
    if result.solved:
        data["min_combinations"] = result.min_combinations
        data["sequence"] = [{"axis": s.axis, "i": s.i, "j": s.j} for s in result.sequence]
    return data
