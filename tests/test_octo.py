import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_min_cost, brute_octo_min, merge_by_positions
from tgaug.augmentation import AugmentationProblem, solve_exact, unrestricted_candidates
from tgaug.octo import (
    COLS,
    ROWS,
    BinaryMatrix,
    MergeStep,
    apply_sequence,
    component_intersection_matrix,
    format_matrix,
    matrix_to_graph,
    parse_matrix,
    sequence_to_edges,
    solve_octo,
)
from tgaug.temporal_graph import NON_STRICT, ParseError, TemporalEdge, TemporalGraph

M = BinaryMatrix.from_rows


def valid_matrices(max_rows, max_cols):
    """All matrices without zero rows/columns, up to the given shape."""
    for r in range(1, max_rows + 1):
        for c in range(1, max_cols + 1):
            for bits in itertools.product((0, 1), repeat=r * c):
                rows = tuple(tuple(bits[i * c : (i + 1) * c]) for i in range(r))
                if all(any(row) for row in rows) and all(
                    any(row[j] for row in rows) for j in range(c)
                ):
                    yield BinaryMatrix(rows)


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = tuple(
        tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(c))
        for _ in range(r)
    )
    return BinaryMatrix(rows)


@st.composite
def merges(draw):
    """(matrix, axis, i, j): a mergeable axis of the matrix and two distinct lines on it."""
    b = draw(matrices().filter(lambda m: max(m.n_rows, m.n_cols) >= 2))
    sizes = {ROWS: b.n_rows, COLS: b.n_cols}
    axis = draw(st.sampled_from([a for a in (ROWS, COLS) if sizes[a] >= 2]))
    i, j = draw(st.permutations(range(sizes[axis])))[:2]
    return b, axis, i, j


@st.composite
def histories(draw):
    """(matrix, steps): a valid merge history over both axes, each step naming two current groups."""
    b = draw(matrices(max_dim=5))
    reps = {ROWS: list(range(b.n_rows)), COLS: list(range(b.n_cols))}
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=b.n_rows + b.n_cols - 2))):
        axis = draw(st.sampled_from([a for a in (ROWS, COLS) if len(reps[a]) >= 2]))
        i, j = draw(st.permutations(reps[axis]))[:2]
        reps[axis].remove(max(i, j))  # the joined group keeps the smaller name
        steps.append(MergeStep(axis, i, j))
    return b, steps


def _line(b, axis, k):
    """Line k of b along axis, read entry by entry."""
    if axis == ROWS:
        return b.rows[k]
    return tuple(row[k] for row in b.rows)


class TestBinaryMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryMatrix(())
        with pytest.raises(ValueError):
            M([[0, 1], [1]])
        with pytest.raises(ValueError):
            M([[0, 2]])

    def test_parse_format_round_trip(self):
        b = M([[1, 0], [0, 1], [1, 1]])
        assert parse_matrix(format_matrix(b)) == b

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_matrix("2 2\n1 0\n")
        with pytest.raises(ParseError):
            parse_matrix("1 2\n1 0 1\n")


class TestComponentIntersectionMatrix:
    def test_connected_both_times(self):
        g = TemporalGraph.build(2, [TemporalEdge(0, 1, 1), TemporalEdge(0, 1, 2)])
        assert component_intersection_matrix(g) == M([[1]])

    def test_isolated_vertices_give_identity(self):
        g = TemporalGraph.build(2, [], lifespan=2)
        assert component_intersection_matrix(g) == M([[1, 0], [0, 1]])

    def test_requires_lifespan_two(self):
        with pytest.raises(ValueError):
            component_intersection_matrix(TemporalGraph.build(2, [TemporalEdge(0, 1, 1)]))


class TestMatrixToGraph:
    def test_single_entry(self):
        g = matrix_to_graph(M([[1]]))
        assert g.n == 1 and not g.edges and g.lifespan == 2

    def test_all_ones_connected(self):
        g = matrix_to_graph(M([[1, 1], [1, 1]]))
        assert g.n == 4
        assert g.is_temporally_connected(NON_STRICT)

    def test_identity_disconnected(self):
        g = matrix_to_graph(M([[1, 0], [0, 1]]))
        assert g.n == 2 and not g.edges
        assert not g.is_temporally_connected(NON_STRICT)

    def test_rejects_zero_lines(self):
        with pytest.raises(ValueError):
            matrix_to_graph(M([[1, 0], [0, 0]]))
        with pytest.raises(ValueError):
            matrix_to_graph(M([[1, 0], [1, 0]]))

    def test_graphs_are_simple(self):
        for b in valid_matrices(3, 3):
            edges = matrix_to_graph(b).edges
            assert len({e.pair for e in edges}) == len(edges)

    def test_round_trip_exhaustive_3x3(self):
        for b in valid_matrices(3, 3):
            back = component_intersection_matrix(matrix_to_graph(b))
            # rows come back in order; columns permute to canonical order
            assert sorted(zip(*back.rows)) == sorted(zip(*b.rows))
            assert back.rows != b.rows or back == b
            first_one = [min(i for i in range(b.n_rows) if b.rows[i][j]) for j in range(b.n_cols)]
            if first_one == sorted(first_one):
                assert back == b  # canonical column form round-trips exactly


class TestOrCombine:
    """One-step histories: at the start every line is its own representative."""

    @staticmethod
    def combine(b, axis, i, j):
        return apply_sequence(b, [MergeStep(axis, i, j)])

    def test_identity_columns(self):
        assert self.combine(M([[1, 0], [0, 1]]), COLS, 0, 1) == M([[1], [1]])

    def test_duplicate_rows_collapse(self):
        assert self.combine(M([[1, 0], [1, 0]]), ROWS, 0, 1) == M([[1, 0]])

    def test_index_errors(self):
        b = M([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            self.combine(b, ROWS, 0, 0)
        with pytest.raises(ValueError):
            self.combine(b, ROWS, 0, 2)
        with pytest.raises(ValueError):
            self.combine(b, "diag", 0, 1)

    @settings(max_examples=150, deadline=None)
    @given(merge=merges())
    @example(merge=(M([[1], [1]]), ROWS, 0, 1))
    @example(merge=(M([[1, 1], [0, 1]]), COLS, 0, 1))
    def test_ones_never_decrease_and_dims_shrink(self, merge):
        b, axis, i, j = merge
        size = b.n_rows if axis == ROWS else b.n_cols
        merged = self.combine(b, axis, i, j)
        if axis == ROWS:
            assert (merged.n_rows, merged.n_cols) == (b.n_rows - 1, b.n_cols)
        else:
            assert (merged.n_rows, merged.n_cols) == (b.n_rows, b.n_cols - 1)
        # the OR lands at min(i, j), line max(i, j) goes, the rest keep their order
        lo, hi = min(i, j), max(i, j)
        line_i, line_j = _line(b, axis, i), _line(b, axis, j)
        union = tuple(x | y for x, y in zip(line_i, line_j))
        expected = [union if k == lo else _line(b, axis, k) for k in range(size) if k != hi]
        assert [_line(merged, axis, k) for k in range(size - 1)] == expected
        # no 1 is lost: only the 1s the two lines share collapse into one
        assert sum(_line(merged, axis, lo)) >= max(sum(line_i), sum(line_j))
        overlap = sum(x & y for x, y in zip(line_i, line_j))
        assert sum(map(sum, merged.rows)) == sum(map(sum, b.rows)) - overlap


class TestHistories:
    # benchmarks/checks.py accepts or rejects every OCTO output by apply_sequence
    @settings(max_examples=200, deadline=None)
    @given(history=histories())
    @example(
        history=(
            M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            [MergeStep(COLS, 1, 2), MergeStep(ROWS, 2, 0), MergeStep(COLS, 1, 0)],
        )
    )
    def test_matches_position_merges(self, history):
        b, steps = history
        assert apply_sequence(b, steps).rows == merge_by_positions(b.rows, steps)


class TestSolveOcto:
    def test_all_ones_is_zero(self):
        r = solve_octo(M([[1, 1], [1, 1]]))
        assert r.solved and r.min_combinations == 0 and r.sequence == ()

    def test_identity_two(self):
        r = solve_octo(M([[1, 0], [0, 1]]))
        assert r.min_combinations == 1

    def test_budget_semantics(self):
        b = M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        full = solve_octo(b)
        assert full.min_combinations == 2
        assert solve_octo(b, budget=1).status == "budget_exceeded"
        assert solve_octo(b, budget=2).solved
        with pytest.raises(ValueError, match="budget must be non-negative"):
            solve_octo(M([[1]]), budget=-1)

    def test_zero_matrix_infeasible(self):
        assert solve_octo(M([[0, 0], [0, 0]])).status == "infeasible"

    def test_zero_line_forces_merges(self):
        r = solve_octo(M([[1, 1], [0, 0]]))
        assert r.solved and r.min_combinations == 1

    def test_witness_replays_to_one_filled(self):
        rng = random.Random(13)
        for _ in range(150):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            rows = tuple(
                tuple(rng.randint(0, 1) for _ in range(c)) for _ in range(r)
            )
            b = BinaryMatrix(rows)
            result = solve_octo(b)
            if not result.solved:
                continue
            replayed = apply_sequence(b, result.sequence)
            assert replayed.is_one_filled
            assert len(result.sequence) == result.min_combinations

    def test_matches_raw_bfs_oracle(self):
        rng = random.Random(17)
        for _ in range(240):
            r = rng.randint(1, 3)
            c = rng.randint(1, 4)
            density = rng.choice([0.25, 0.5, 0.75])  # the sparse ones have zero lines
            rows = tuple(tuple(int(rng.random() < density) for _ in range(c)) for _ in range(r))
            budget = rng.choice([None, 0, 1, 2, 3])
            expected = brute_octo_min(rows)
            b = BinaryMatrix(rows)
            result = solve_octo(b, budget)
            if expected is None:
                assert result.status == "infeasible"
            elif budget is not None and expected > budget:
                assert result.status == "budget_exceeded"
            else:
                assert result.solved and result.min_combinations == expected
                assert len(result.sequence) == expected
                assert apply_sequence(b, result.sequence).is_one_filled

    # minima pinned from an independent solver: the breadth-first search over
    # matrix states that solve_octo used before it ran on the subset search
    @pytest.mark.parametrize("seed, minimum", [(1, 5), (2, 6), (3, 6), (4, 5)])
    def test_seven_by_seven_wall(self, seed, minimum):
        rng = random.Random(seed)
        b = M([[int(rng.random() < 0.35) for _ in range(7)] for _ in range(7)])
        start = time.perf_counter()
        result = solve_octo(b)
        assert time.perf_counter() - start < 0.5
        assert result.min_combinations == minimum
        assert apply_sequence(b, result.sequence).is_one_filled

    def test_transpose_invariance(self):
        rng = random.Random(19)
        for _ in range(80):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            b = BinaryMatrix(
                tuple(tuple(rng.randint(0, 1) for _ in range(c)) for _ in range(r))
            )
            a, bt = solve_octo(b), solve_octo(BinaryMatrix(tuple(zip(*b.rows))))
            assert a.min_combinations == bt.min_combinations and a.status == bt.status


class TestInvalidHistories:
    """Histories that name no current representative, or one line twice."""

    BAD = [
        ([MergeStep("diag", 0, 1)], "representative"),
        ([MergeStep(ROWS, 0, 3)], "representative"),
        ([MergeStep(COLS, 0, 1), MergeStep(COLS, 1, 2)], "representative"),
        ([MergeStep(ROWS, 1, 1)], "cannot combine a line with itself"),
        ([MergeStep(COLS, 0, 2), MergeStep(COLS, 0, 0)], "cannot combine a line with itself"),
    ]

    @pytest.mark.parametrize("steps, message", BAD)
    def test_apply_sequence(self, steps, message):
        with pytest.raises(ValueError, match=message):
            apply_sequence(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), steps)

    @pytest.mark.parametrize("steps, message", BAD)
    def test_sequence_to_edges(self, steps, message):
        g = TemporalGraph.build(3, [], lifespan=2)
        with pytest.raises(ValueError, match=message):
            sequence_to_edges(g, steps)

    def test_sequence_to_edges_needs_lifespan_2(self):
        g = TemporalGraph.build(3, [], lifespan=3)
        with pytest.raises(ValueError, match="^requires lifespan exactly 2, got 3$"):
            sequence_to_edges(g, [])

    def test_steps_may_name_the_larger_representative_first(self):
        b = M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        steps = [MergeStep(COLS, 2, 0), MergeStep(ROWS, 1, 0)]
        assert apply_sequence(b, steps) == M([[1, 1], [1, 0]])
        g = TemporalGraph.build(3, [], lifespan=2)
        assert sequence_to_edges(g, steps) == (TemporalEdge(0, 2, 2), TemporalEdge(0, 1, 1))


class TestGraphEquivalence:
    def test_minimum_tca_equals_octo_small(self):
        from oracles import all_graphs

        for g in all_graphs(4, 2):
            matrix_min = solve_octo(component_intersection_matrix(g)).min_combinations
            problem = AugmentationProblem(g, unrestricted_candidates(g))
            sol = solve_exact(problem)
            assert sol.cost == matrix_min

    def test_witness_maps_back_to_connecting_edges(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(2, 6)
            edges = [
                TemporalEdge(u, v, t)
                for u in range(n)
                for v in range(u + 1, n)
                for t in (1, 2)
                if rng.random() < 0.35
            ]
            g = TemporalGraph.build(n, edges, lifespan=2)
            result = solve_octo(component_intersection_matrix(g))
            assert result.solved
            added = sequence_to_edges(g, result.sequence)
            assert len(added) == result.min_combinations
            assert g.augment(added).is_temporally_connected(NON_STRICT)

    def test_all_ones_iff_connected(self):
        for b in valid_matrices(3, 3):
            g = matrix_to_graph(b)
            assert b.is_one_filled == g.is_temporally_connected(NON_STRICT)
