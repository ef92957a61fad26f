"""Binary-matrix reformulation of unrestricted non-strict 2-TCA.

A lifespan-2 graph is summarized by its component-intersection matrix:
rows index time-1 snapshot components, columns index time-2 components,
and an entry is 1 iff the two components share a vertex.  Adding one
temporal edge merges two same-time components, which on the matrix is an
entrywise OR of two rows or two columns.  The matrix is all-ones exactly
when the graph is non-strict temporally connected, so the minimum number
of edge additions equals the minimum number of OR-combinations reaching
the one-filled matrix (the OCTO problem).  OCTO is therefore solved by the
augmentation subset search on a graph that realizes the matrix, and its
witness is that search's least minimum selection: zero lines merge first,
then row merges come before column merges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .augmentation import All, AugmentationProblem, Infeasible, solve_exact
from .temporal_graph import ParseError, TemporalEdge, TemporalGraph, _ints, _records

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
    ones = [(i, j) for i, row in enumerate(b.rows) for j, x in enumerate(row) if x]
    edges = [
        TemporalEdge(a, c, t)
        for (a, p), (c, q) in combinations(enumerate(ones), 2)
        for t in (1, 2)
        if p[t - 1] == q[t - 1]
    ]
    return TemporalGraph.build(len(ones), edges, lifespan=2)


@dataclass(frozen=True)
class MergeStep:
    """One OR-combination of two line groups along ``axis``.

    Every line starts as its own group, and a merge joins two groups of
    one axis.  ``i`` and ``j`` name them by their representatives, the
    smallest original index in each group, and the joined group takes the
    smaller one.  A history thus names the same lines however earlier
    merges renumbered the matrix's lines.
    """

    axis: str
    i: int
    j: int


@dataclass(frozen=True)
class OctoResult:
    status: str  # "solved" | "budget_exceeded" | "infeasible"
    min_combinations: int | None = None
    sequence: tuple[MergeStep, ...] | None = None

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def solve_octo(b: BinaryMatrix, budget: int | None = None) -> OctoResult:
    """Minimum number of OR-combinations reaching the all-ones matrix.

    A zero line costs exactly one merge, since ORing it into a line changes
    nothing, so each merges into the first nonzero line of its axis first
    and comes off the budget.  The rest is non-strict All on
    :func:`matrix_to_graph`, with one time-1 (time-2) candidate per pair of
    rows (columns) joining their first vertices, and the witness is the
    least minimum selection of :func:`~tgaug.augmentation.solve_exact`:
    row merges come before column merges.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be non-negative")
    ones = [(i, j) for i, row in enumerate(b.rows) for j, x in enumerate(row) if x]
    if not ones:
        return OctoResult("infeasible")
    head = {}  # (axis, line) -> the line's first vertex, numbered as matrix_to_graph does
    for v, (i, j) in reversed(list(enumerate(ones))):
        head[ROWS, i] = head[COLS, j] = v
    live = {axis: sorted(k for a, k in head if a == axis) for axis in (ROWS, COLS)}
    sizes = {ROWS: b.n_rows, COLS: b.n_cols}
    merges = [(a, k, live[a][0]) for a in live for k in range(sizes[a]) if (a, k) not in head]
    if budget is not None and budget < len(merges):
        return OctoResult("budget_exceeded")
    lines = {
        TemporalEdge(head[axis, a], head[axis, c], t): (axis, a, c)
        for axis, t in ((ROWS, 1), (COLS, 2))
        for a, c in combinations(live[axis], 2)
    }
    kept = BinaryMatrix(tuple(tuple(b.rows[i][j] for j in live[COLS]) for i in live[ROWS]))
    rest = None if budget is None else budget - len(merges)
    problem = AugmentationProblem(matrix_to_graph(kept), frozenset(lines), All(), budget=rest)
    outcome = solve_exact(problem)
    if isinstance(outcome, Infeasible):
        return OctoResult(outcome.reason)
    names = {axis: list(range(size)) for axis, size in sizes.items()}
    steps = []
    for axis, a, c in merges + [lines[e] for e in outcome.selected]:
        lo, hi = sorted((names[axis][a], names[axis][c]))  # relabel to the smaller one
        steps.append(MergeStep(axis, lo, hi))
        names[axis] = [lo if x == hi else x for x in names[axis]]
    return OctoResult("solved", len(steps), tuple(steps))


def _groups(shape: tuple[int, int], steps: Sequence[MergeStep]) -> dict[str, list[list[int]]]:
    """The groups of original lines that a merge history leaves, per axis.

    ``shape`` is the matrix's (rows, columns).  Each group lists its
    representative first, and the groups come in representative order,
    which is the order of the merged matrix's lines.  Raises
    ``ValueError`` unless every step names two distinct current
    representatives.
    """
    groups = {ROWS: {k: [k] for k in range(shape[0])}, COLS: {k: [k] for k in range(shape[1])}}
    for step in steps:
        current = groups.get(step.axis, {})
        if step.i not in current or step.j not in current:
            raise ValueError(f"step {step} names a line that is not a group representative")
        if step.i == step.j:
            raise ValueError("cannot combine a line with itself")
        lo, hi = sorted((step.i, step.j))
        current[lo] += current.pop(hi)
    return {axis: list(current.values()) for axis, current in groups.items()}


def apply_sequence(b: BinaryMatrix, steps: Sequence[MergeStep]) -> BinaryMatrix:
    """The merged matrix: entry (R, C) is the OR of b over row group R and column group C."""
    groups = _groups((b.n_rows, b.n_cols), steps)
    return BinaryMatrix(
        tuple(
            tuple(max(b.rows[i][j] for i in rows for j in cols) for cols in groups[COLS])
            for rows in groups[ROWS]
        )
    )


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
    _groups((len(blocks[ROWS]), len(blocks[COLS])), steps)
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
