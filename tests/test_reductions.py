"""Witness maps of the gadget reductions, against the brute-force oracles."""

import dataclasses
import itertools
import random
import re

import pytest

from oracles import (
    _partitions,
    brute_dominating_min,
    brute_hitting_min,
    brute_max_disjoint_covers,
    brute_sat,
)
from tgaug.augmentation import (
    All,
    AugmentationProblem,
    Solution,
    Source,
    solve_exact,
    unrestricted_candidates,
    verify_solution,
)
from tgaug.octo import (
    COLS,
    ROWS,
    MergeStep,
    apply_sequence,
    component_intersection_matrix,
    matrix_to_graph,
    sequence_to_edges,
    solve_octo,
)
from tgaug.reductions import (
    MODE_SIMPLE,
    MODE_UNRESTRICTED,
    CnfInstance,
    SetSystemInstance,
    StaticGraphInstance,
    ds_edges_to_witness,
    ds_witness_to_edges,
    dsc_steps_to_witness,
    dsc_witness_to_steps,
    hs_edges_to_witness,
    hs_witness_to_edges,
    parse_dimacs,
    parse_set_system,
    parse_static_graph,
    reduce_3sat,
    reduce_dominating_set,
    reduce_dsc,
    reduce_hitting_set,
    sat_edges_to_witness,
    sat_witness_to_edges,
)
from tgaug.temporal_graph import (
    NON_STRICT,
    ParseError,
    TemporalEdge,
    TemporalGraph,
    format_tg,
    parse_tg,
)


def dominates(n, edges, picked):
    return all(v in picked or any(v in e and set(e) & picked for e in edges) for v in range(n))


def random_graph(rng, n, p):
    return frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)


def min_dominating_sets(n, edges):
    size = brute_dominating_min(n, edges)
    return [set(c) for c in itertools.combinations(range(n), size) if dominates(n, edges, set(c))]


def covers(inst, part):
    return set().union(*(inst.subsets[j] for j in part)) >= set(range(inst.universe_size))


def random_system(rng, universe, m):
    subsets = [frozenset(e for e in range(universe) if rng.random() < 0.6) for _ in range(m)]
    return SetSystemInstance(universe, tuple(subsets), 1)


class TestDominatingSet:
    @pytest.mark.parametrize("mode", [MODE_SIMPLE, MODE_UNRESTRICTED])
    def test_witness_round_trip(self, mode):
        rng = random.Random(41)
        for _ in range(12 if mode == MODE_SIMPLE else 6):
            n = rng.randint(1, 4)
            edges = random_graph(rng, n, 0.4)
            gamma = brute_dominating_min(n, edges)
            red = reduce_dominating_set(StaticGraphInstance(n, edges, gamma), mode)
            for picked in min_dominating_sets(n, edges):
                selected = ds_witness_to_edges(red, picked)
                assert len(selected) == gamma
                assert verify_solution(red.problem, selected)
                assert ds_edges_to_witness(red, selected) == picked
            sol = solve_exact(red.problem)
            assert isinstance(sol, Solution) and sol.cost == gamma
            witness = ds_edges_to_witness(red, sol.selected)
            assert len(witness) <= gamma and dominates(n, edges, witness)

    @pytest.mark.parametrize(
        "mode, max_n, count", [(MODE_SIMPLE, 5, 150), (MODE_UNRESTRICTED, 4, 60)]
    )
    def test_source_x_keeps_the_domination_number(self, mode, max_n, count):
        # every journey into x exists already, so the gadget asks only that x reach every vertex
        rng = random.Random(47)
        for _ in range(count):
            n = rng.randint(1, max_n)
            edges = random_graph(rng, n, rng.choice([0.2, 0.5]))
            red = reduce_dominating_set(StaticGraphInstance(n, edges, 0), mode)
            problem = dataclasses.replace(red.problem, requirement=Source(red.x), budget=None)
            sol = solve_exact(problem)
            assert isinstance(sol, Solution) and sol.cost == brute_dominating_min(n, edges)

    def test_every_minimum_unrestricted_selection_maps_back(self):
        # minimum selections may hold time-2 edges and edges away from x
        rng = random.Random(43)
        checked = 0
        for _ in range(8):
            n = rng.randint(1, 3)
            edges = random_graph(rng, n, 0.5)
            gamma = brute_dominating_min(n, edges)
            red = reduce_dominating_set(StaticGraphInstance(n, edges, gamma), MODE_UNRESTRICTED)
            candidates = sorted(red.problem.candidates, key=lambda e: e.key)
            for combo in itertools.combinations(candidates, gamma):
                if not verify_solution(red.problem, combo):
                    continue
                witness = ds_edges_to_witness(red, combo)
                assert len(witness) <= gamma and dominates(n, edges, witness)
                checked += 1
        assert checked > 8

    def test_time2_edges_extend_the_star(self):
        # x-0 at time 1, then 0-1 and 1-2 at time 2 reach 1 and 2; y is never a witness
        red = reduce_dominating_set(StaticGraphInstance(3, frozenset(), 3), MODE_UNRESTRICTED)
        x, y = red.x, red.y
        selected = [TemporalEdge(x, 0, 1), TemporalEdge(0, 1, 2), TemporalEdge(1, 2, 2)]
        assert ds_edges_to_witness(red, selected) == {0, 1, 2}
        assert ds_edges_to_witness(red, [TemporalEdge(x, y, 1)]) == frozenset()
        assert ds_edges_to_witness(red, [TemporalEdge(0, 1, 2)]) == frozenset()
        assert ds_edges_to_witness(red, [TemporalEdge(x, 2, 1), TemporalEdge(2, y, 2)]) == {2}


def hits(inst, picked):
    return all(s & picked for s in inst.subsets)


class TestHittingSet:
    @staticmethod
    def random_instance(rng):
        universe, m = rng.randint(1, 3), rng.randint(1, 3)
        subsets = tuple(
            frozenset(rng.sample(range(universe), rng.randint(1, universe))) for _ in range(m)
        )
        return SetSystemInstance(universe, subsets, brute_hitting_min(subsets, universe))

    @pytest.mark.parametrize("mode", [MODE_SIMPLE, MODE_UNRESTRICTED])
    def test_forward_map_of_every_minimum_hitting_set(self, mode):
        rng = random.Random(59)
        for _ in range(20):
            inst = self.random_instance(rng)
            red = reduce_hitting_set(inst, mode)
            for combo in itertools.combinations(range(inst.universe_size), inst.budget):
                if not hits(inst, set(combo)):
                    continue
                selected = hs_witness_to_edges(red, inst, combo)
                assert len(selected) == inst.budget
                assert verify_solution(red.problem, selected)
                assert hs_edges_to_witness(red, selected) == set(combo)

    @pytest.mark.parametrize("mode", [MODE_SIMPLE, MODE_UNRESTRICTED])
    def test_backward_map_of_solver_and_random_selections(self, mode):
        rng = random.Random(3)
        checked = 0
        for _ in range(30 if mode == MODE_SIMPLE else 120):
            inst = self.random_instance(rng)
            red = reduce_hitting_set(inst, mode)
            sol = solve_exact(red.problem)
            assert isinstance(sol, Solution) and sol.cost == inst.budget
            selections = [sol.selected]
            candidates = sorted(red.problem.candidates, key=lambda e: e.key)
            for _ in range(6):
                # a random valid selection, thinned to a random minimal one
                selected = [e for e in candidates if rng.random() < 0.5]
                if not verify_solution(red.problem, selected):
                    continue
                selections.append(list(selected))
                for e in rng.sample(selected, len(selected)):
                    rest = [f for f in selected if f != e]
                    if verify_solution(red.problem, rest):
                        selected = rest
                selections.append(selected)
            for selected in selections:
                witness = hs_edges_to_witness(red, selected)
                assert hits(inst, witness) and len(witness) <= len(selected)
                checked += 1
        assert checked > 200

    def test_edges_reaching_a_set_vertex_at_time_1(self):
        # x reaches S1 at time 1 through e0S1 and S0 through S1; the witness
        # must still hit S0 = {1}
        inst = SetSystemInstance(2, (frozenset({1}), frozenset({0, 1})), 2)
        red = reduce_hitting_set(inst, MODE_UNRESTRICTED)
        assert red.membership_vertices == ((0, 1), (1, 0), (1, 1))
        assert red.set_vertices == (4, 5)
        selected = [TemporalEdge(0, 1, 1), TemporalEdge(1, 5, 1), TemporalEdge(4, 5, 1)]
        assert verify_solution(red.problem, selected)
        witness = hs_edges_to_witness(red, selected)
        assert hits(inst, witness) and len(witness) <= 3


class TestThreeSat:
    @staticmethod
    def random_formula(rng):
        n_vars = rng.randint(3, 4)
        clauses = tuple(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), 3))
            for _ in range(rng.randint(1, 2))
        )
        return CnfInstance(n_vars, clauses)

    @staticmethod
    def satisfies(cnf, assignment):
        return all(
            any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in cnf.clauses
        )

    def test_witness_maps_against_the_oracle(self):
        rng = random.Random(79)
        for _ in range(20):
            cnf = self.random_formula(rng)
            assert brute_sat(cnf.n_vars, cnf.clauses) is not None
            red = reduce_3sat(cnf)
            for bits in itertools.product([False, True], repeat=cnf.n_vars):
                if not self.satisfies(cnf, bits):
                    continue
                selected = sat_witness_to_edges(red, bits)
                assert verify_solution(red.problem, selected)
                assert len({e.pair for e in selected}) <= red.budget
            sol = solve_exact(red.problem)
            # every selection buys one whole branch per variable, so the optimum is the budget
            assert isinstance(sol, Solution) and sol.cost == red.budget
            assert self.satisfies(cnf, sat_edges_to_witness(red, sol.selected))


class TestDisjointSetCovers:
    def test_witness_maps_match_the_oracle(self):
        rng = random.Random(47)
        for _ in range(25):
            universe, m = rng.randint(1, 2), rng.randint(1, 4)
            base = random_system(rng, universe, m)
            best = brute_max_disjoint_covers(base.subsets, universe)
            for k in range(1, m + 1):
                inst = SetSystemInstance(universe, base.subsets, k)
                red = reduce_dsc(inst)
                result = solve_octo(red.matrix, red.budget)
                assert result.solved == (k <= best)
                if not result.solved:
                    assert result.status in ("budget_exceeded", "infeasible")
                    continue
                parts = dsc_steps_to_witness(inst, red, result.sequence)
                assert sorted(j for p in parts for j in p) == list(range(m))
                assert len(parts) >= k and all(covers(inst, p) for p in parts)
            if best == 0:
                continue
            inst = SetSystemInstance(universe, base.subsets, best)
            red = reduce_dsc(inst)
            for partition in _partitions(list(range(m))):
                if len(partition) != best or not all(covers(inst, p) for p in partition):
                    continue
                steps = dsc_witness_to_steps(inst, partition)
                assert len(steps) == red.budget
                assert all(s.axis == COLS for s in steps)
                assert apply_sequence(red.matrix, steps).is_one_filled
                expected = sorted(tuple(sorted(p)) for p in partition)
                assert list(dsc_steps_to_witness(inst, red, steps)) == expected

    def test_covers_as_unrestricted_tca_without_octo(self):
        # the DSC matrix read as a lifespan-2 graph and solved by the subset search alone
        rng = random.Random(53)
        solved = 0
        for _ in range(40):
            universe, m = rng.randint(1, 2), rng.randint(1, 3)
            system = random_system(rng, universe, m)
            if not all(system.subsets) or not covers(system, range(m)):
                continue  # a zero column or a zero row of the matrix
            best = brute_max_disjoint_covers(system.subsets, universe)
            graph = matrix_to_graph(reduce_dsc(system).matrix)
            candidates = unrestricted_candidates(graph)
            for k in range(1, m + 1):
                problem = AugmentationProblem(graph, candidates, All(), NON_STRICT, budget=m - k)
                assert solve_exact(problem).feasible == (k <= best)
                solved += 1
        assert solved >= 30  # 24 feasible, 7 not

    def test_row_merges(self):
        inst = SetSystemInstance(2, (frozenset({0, 1}), frozenset({0}), frozenset({1})), 1)
        red = reduce_dsc(inst)
        steps = [MergeStep(ROWS, 0, 1), MergeStep(COLS, 1, 2)]
        assert dsc_steps_to_witness(inst, red, steps) == ((0,), (1, 2))
        with pytest.raises(ValueError, match="one-fill"):
            dsc_steps_to_witness(inst, red, [MergeStep(COLS, 0, 2)])
        # one-filled by row merges alone: each of them is needed
        inst2 = SetSystemInstance(2, (frozenset({0}), frozenset({1})), 1)
        rows_only = [MergeStep(ROWS, 0, k) for k in range(1, 6)]
        with pytest.raises(ValueError, match="row merge"):
            dsc_steps_to_witness(inst2, reduce_dsc(inst2), rows_only)

    @pytest.mark.parametrize("n_sets", [1, 4])
    def test_steps_to_witness_needs_the_reduced_instance(self, n_sets):
        # the empty history one-fills, so only the set count tells the instances apart
        red = reduce_dsc(SetSystemInstance(1, (frozenset({0}),) * 3, 3))
        other = SetSystemInstance(1, (frozenset({0}),) * n_sets, 1)
        with pytest.raises(ValueError, match=f"instance has {n_sets} sets, not 3"):
            dsc_steps_to_witness(other, red, ())

    @pytest.mark.parametrize(
        "parts",
        [[[0, 1]], [[0, 1], [1, 2]], [[0, 1], [2, 3]], [[0, 1], [], [2]]],
    )
    def test_witness_to_steps_needs_a_partition(self, parts):
        inst = SetSystemInstance(1, (frozenset({0}),) * 3, 1)
        with pytest.raises(ValueError):
            dsc_witness_to_steps(inst, parts)

    @pytest.mark.parametrize(
        "steps",
        [
            [MergeStep(COLS, 0, 1), MergeStep(COLS, 1, 2)],
            [MergeStep(COLS, 0, 3)],
            [MergeStep(COLS, 0, 0), MergeStep(COLS, 1, 2)],
            [MergeStep("diag", 0, 1), MergeStep(COLS, 0, 1), MergeStep(COLS, 0, 2)],
        ],
    )
    def test_steps_to_witness_rejects_invalid_histories(self, steps):
        inst = SetSystemInstance(1, (frozenset({0}),) * 3, 1)
        with pytest.raises(ValueError):
            dsc_steps_to_witness(inst, reduce_dsc(inst), steps)


class TestOctoWitnessEdges:
    @staticmethod
    def block_min(g, t, v):
        """Smallest vertex of the time-t component of g that holds v."""
        return min(next(b for b in g.snapshot_components(t).blocks if v in b))

    def test_each_edge_joins_the_smallest_vertices_of_the_merged_groups(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(2, 7)
            edges = [
                TemporalEdge(u, v, t)
                for u in range(n)
                for v in range(u + 1, n)
                for t in (1, 2)
                if rng.random() < 0.3
            ]
            g = TemporalGraph.build(n, edges, lifespan=2)
            result = solve_octo(component_intersection_matrix(g))
            added = sequence_to_edges(g, result.sequence)
            assert len(added) == result.min_combinations
            blocks = {ROWS: g.snapshot_components(1).blocks, COLS: g.snapshot_components(2).blocks}
            current = g
            for step, e in zip(result.sequence, added):
                t = 1 if step.axis == ROWS else 2
                u = self.block_min(current, t, blocks[step.axis][step.i][0])
                v = self.block_min(current, t, blocks[step.axis][step.j][0])
                assert u != v and e == TemporalEdge(u, v, t)
                current = current.augment([e])
            assert current.is_temporally_connected(NON_STRICT)

    def test_golden_witness(self):
        g = TemporalGraph.build(
            6, [TemporalEdge(0, 3, 1), TemporalEdge(1, 2, 2), TemporalEdge(4, 5, 2)], lifespan=2
        )
        result = solve_octo(component_intersection_matrix(g))
        assert result.sequence == (
            MergeStep(COLS, 0, 2),
            MergeStep(COLS, 0, 1),
            MergeStep(COLS, 0, 3),
        )
        assert sequence_to_edges(g, result.sequence) == (
            TemporalEdge(0, 3, 2),
            TemporalEdge(0, 1, 2),
            TemporalEdge(0, 4, 2),
        )


@pytest.mark.parametrize(
    "reduce",
    [
        lambda: reduce_dominating_set(StaticGraphInstance(3, frozenset({(0, 1)}), 1)),
        lambda: reduce_hitting_set(SetSystemInstance(3, (frozenset({0, 1}), frozenset({2})), 1)),
        lambda: reduce_3sat(CnfInstance(3, ((1, -2, 3), (-1, 2, 3)))),
    ],
    ids=["ds", "hs", "3sat"],
)
def test_gadget_base_survives_the_tg_round_trip(reduce):
    base = reduce().problem.base
    assert parse_tg(format_tg(base)) == base


class TestInputChecks:
    """Each check on a source instance, builder or source text, with its exact message."""

    @staticmethod
    def raises(build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize(
        "edges, message",
        [({(1, 1)}, "self-loops are not allowed"), ({(0, 3)}, "edge (0,3) out of range")],
    )
    def test_static_graph_instance(self, edges, message):
        self.raises(lambda: StaticGraphInstance(3, frozenset(edges), 1), message)

    @pytest.mark.parametrize(
        "subsets, message",
        [((), "collection must be non-empty"), ((frozenset({0, 2}),), "element 2 outside universe 0..1")],
    )
    def test_set_system_instance(self, subsets, message):
        self.raises(lambda: SetSystemInstance(2, subsets, 1), message)

    @pytest.mark.parametrize(
        "n_vars, clauses, message",
        [
            (0, ((1, 1, 1),), "need at least one variable"),
            (3, (), "need at least one clause"),
            (3, ((1, 2),), "clauses must have exactly 3 literals"),
            (3, ((1, 2, 4),), "literal 4 out of range"),
            (3, ((1, 0, 2),), "literal 0 out of range"),
            (3, ((1, -1, 2),), "a clause may not contain a variable and its negation"),
        ],
    )
    def test_cnf_instance(self, n_vars, clauses, message):
        self.raises(lambda: CnfInstance(n_vars, clauses), message)

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: reduce_dominating_set(StaticGraphInstance(2, frozenset(), 1), "tree"),
                "unknown mode 'tree'",
            ),
            (
                lambda: reduce_hitting_set(SetSystemInstance(2, (frozenset({0}),), 1), "tree"),
                "unknown mode 'tree'",
            ),
            (
                lambda: reduce_hitting_set(SetSystemInstance(2, (frozenset({0}), frozenset()), 1)),
                "subset 1 is empty",
            ),
            (
                lambda: reduce_dsc(SetSystemInstance(1, (frozenset({0}),), 0)),
                "cover target must be at least 1",
            ),
            (
                lambda: reduce_dsc(SetSystemInstance(0, (frozenset(),), 1)),
                "universe must be non-empty",
            ),
            (
                # same set count as the reduced instance, but its sets do not cover
                lambda: dsc_steps_to_witness(
                    SetSystemInstance(2, (frozenset({0}), frozenset({1})), 1),
                    reduce_dsc(SetSystemInstance(1, (frozenset({0}),) * 2, 2)),
                    (),
                ),
                "a column group does not cover the universe",
            ),
        ],
        ids=["ds-mode", "hs-mode", "hs-empty-subset", "dsc-target", "dsc-universe", "dsc-other"],
    )
    def test_builders(self, build, message):
        self.raises(build, message)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (lambda t: parse_static_graph(t, 1), "E 0 1\nV 2\n", "line 1: edge before V record"),
            (lambda t: parse_set_system(t, 1), "U 2\nS 0 1\n", "line 2: expected 'S <i>: <e> <e> ...'"),
            (lambda t: parse_set_system(t, 1), "U 2\nS 0 1: 1\n", "line 2: expected 'S <i>: <e> <e> ...'"),
            (lambda t: parse_set_system(t, 1), "U 2\nS 0: 0 2\n", "line 2: element outside universe 0..1"),
            (lambda t: parse_set_system(t, 1), "# none\nU 2\n", "no sets given"),
            (lambda t: parse_set_system(t, 1), "S 0: 1\nU 2\n", "line 1: set before U record"),
            (parse_dimacs, "p cnf 3 1\n1 2 3 0 0\n", "line 2: empty clause"),
            (parse_dimacs, "p cnf 4 1\n1 2\n3 4 0\n", "line 3: clause with more than 3 literals"),
            (parse_dimacs, "p cnf 3 1\n1 2 3\n", "unterminated clause"),
        ],
    )
    def test_parsers(self, parse, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)
