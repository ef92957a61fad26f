import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_dominating_min,
    brute_least_selection,
    brute_min_cost,
    brute_spanner_min,
    journey_connected,
    journey_reach,
    journey_requirement_holds,
    random_graph,
)
from tgaug import augmentation as aug_mod
from tgaug.augmentation import (
    COST_EDGE,
    COST_GROUP,
    All,
    AugmentationProblem,
    Infeasible,
    Pairs,
    Solution,
    Source,
    _footprint,
    _group_items,
    _LayerSpace,
    component_count_bound_check,
    solution_to_json,
    solve_exact,
    solve_one_plus_one,
    spanner_via_tca,
    unrestricted_candidates,
    verify_solution,
)
from tgaug.reductions import MODE_UNRESTRICTED, StaticGraphInstance, reduce_dominating_set
from tgaug.temporal_graph import (
    NON_STRICT,
    STRICT,
    InvalidCandidateError,
    TemporalEdge,
    TemporalGraph,
    sweep_all,
    validate_journey,
)


def G(n, *triples, lifespan=None):
    return TemporalGraph.build(n, [TemporalEdge(u, v, t) for u, v, t in triples], lifespan=lifespan)


def E(u, v, t):
    return TemporalEdge(u, v, t)


class TestProblemModel:
    def test_candidates_must_be_disjoint(self):
        with pytest.raises(InvalidCandidateError):
            AugmentationProblem(G(2, (0, 1, 1)), frozenset({E(0, 1, 1)}))

    def test_pairs_demand_defaults_to_all(self):
        req = Pairs(((0, 1), (1, 0)))
        assert req.effective_demand == 2
        assert Pairs(((0, 1), (1, 0)), demand=1).effective_demand == 1

    def test_pairs_nonempty(self):
        with pytest.raises(ValueError):
            Pairs(())

    def test_candidate_beyond_declared_lifespan(self):
        with pytest.raises(InvalidCandidateError):
            AugmentationProblem(
                G(2, (0, 1, 1)), frozenset({E(0, 1, 5)}), lifespan=3
            )
        # without a declared horizon the candidate simply extends it
        p = AugmentationProblem(G(2, (0, 1, 1)), frozenset({E(0, 1, 5)}))
        assert p.effective_lifespan == 5

    def test_negative_lifespan_is_rejected(self):
        with pytest.raises(ValueError, match="^lifespan must be non-negative$"):
            AugmentationProblem(G(2, (0, 1, 1)), frozenset(), lifespan=-4)


class TestVerifySolution:
    def test_connected_base_needs_nothing(self):
        p = AugmentationProblem(G(2, (0, 1, 1)), frozenset({E(0, 1, 2)}))
        assert verify_solution(p, [])

    def test_edgeless_pair(self):
        p = AugmentationProblem(G(2, lifespan=1), frozenset({E(0, 1, 1)}))
        assert not verify_solution(p, [])
        assert verify_solution(p, [E(0, 1, 1)])

    def test_rejects_non_candidates(self):
        p = AugmentationProblem(G(3, lifespan=1), frozenset({E(0, 1, 1)}))
        with pytest.raises(InvalidCandidateError):
            verify_solution(p, [E(1, 2, 1)])

    def test_source_requirement(self):
        g = G(3, (0, 1, 1))
        p = AugmentationProblem(g, frozenset({E(1, 2, 2)}), Source(0))
        assert not verify_solution(p, [])
        assert verify_solution(p, [E(1, 2, 2)])

    def test_pairs_with_demand(self):
        g = G(4, (0, 1, 1))
        req = Pairs(((0, 1), (2, 3)), demand=1)
        p = AugmentationProblem(g, frozenset({E(2, 3, 1)}), req)
        assert verify_solution(p, [])  # (0,1) already satisfied
        assert verify_solution(
            AugmentationProblem(g, frozenset({E(2, 3, 1)}), Pairs(((0, 1), (2, 3)))),
            [E(2, 3, 1)],
        )


class TestUnrestrictedCandidates:
    def test_examples(self):
        assert unrestricted_candidates(G(2, lifespan=1)) == {E(0, 1, 1)}
        assert unrestricted_candidates(G(2, (0, 1, 1), lifespan=2)) == {E(0, 1, 2)}

    def test_counting_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 6)
            lifespan = rng.randint(1, 3)
            edges = [
                E(u, v, t)
                for u in range(n)
                for v in range(u + 1, n)
                for t in range(1, lifespan + 1)
                if rng.random() < 0.5
            ]
            g = TemporalGraph.build(n, edges, lifespan=lifespan)
            expected = lifespan * n * (n - 1) // 2 - len(edges)
            assert len(unrestricted_candidates(g)) == expected

    def test_requires_positive_lifespan(self):
        with pytest.raises(ValueError):
            unrestricted_candidates(G(3))


@st.composite
def problems(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    lifespan = draw(st.integers(min_value=1, max_value=3))
    slots = [
        (u, v, t) for u in range(n) for v in range(u + 1, n) for t in range(1, lifespan + 1)
    ]
    base_set = draw(st.sets(st.sampled_from(slots))) if slots else set()
    rest = [s for s in slots if s not in base_set]
    cand_set = draw(st.sets(st.sampled_from(rest))) if rest else set()
    base = TemporalGraph.build(n, [E(*s) for s in base_set], lifespan=lifespan)
    semantics = draw(st.sampled_from([STRICT, NON_STRICT]))
    cost = draw(st.sampled_from([COST_EDGE, COST_GROUP]))
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        req = All()
    elif kind == 1:
        req = Source(draw(st.integers(min_value=0, max_value=n - 1)))
    else:
        k = draw(st.integers(min_value=1, max_value=3))
        pairs = tuple(
            (
                draw(st.integers(min_value=0, max_value=n - 1)),
                draw(st.integers(min_value=0, max_value=n - 1)),
            )
            for _ in range(k)
        )
        req = Pairs(pairs, demand=draw(st.integers(min_value=0, max_value=k)))
    return AugmentationProblem(base, frozenset(E(*s) for s in cand_set), req, semantics, cost)


@st.composite
def budgeted_problems(draw):
    problem = draw(problems())
    return dataclasses.replace(problem, budget=draw(st.sampled_from([None, 0, 1, 2, 3])))


@st.composite
def two_time_problems(draw):
    """Non-strict All edge-cost problems whose edges and candidates span times 1 and 2."""
    n = draw(st.integers(min_value=2, max_value=5))
    slots = [(u, v, t) for u in range(n) for v in range(u + 1, n) for t in (1, 2)]
    base_set = draw(st.sets(st.sampled_from(slots)))
    rest = [s for s in slots if s not in base_set]
    cand_set = draw(st.sets(st.sampled_from(rest), max_size=8)) if rest else set()
    assume({t for _, _, t in base_set | cand_set} == {1, 2})
    base = TemporalGraph.build(n, [E(*s) for s in base_set], lifespan=2)
    return AugmentationProblem(base, frozenset(E(*s) for s in cand_set), All(), NON_STRICT)


class TestEvaluatorAgreesWithVerify:
    @settings(max_examples=120, deadline=None)
    @given(problems(), st.randoms(use_true_random=False))
    def test_random_subsets(self, problem, rng):
        """The per-node test, the root tests and verify agree with the journey oracle."""
        units = _group_items(problem)
        space = _LayerSpace(problem, units)
        for _ in range(6):
            picked = [i for i in range(len(units)) if rng.random() < 0.4]
            state = space.start
            for i in picked:
                state = space.add(state, i)
            subset = [e for i in picked for e in units[i]]
            expected = journey_requirement_holds(problem, subset)
            assert space.holds(state) == expected
            assert space.root_holds(state) == expected
            assert verify_solution(problem, subset) == expected

    @pytest.mark.parametrize(
        "requirement, several",
        [
            (All(), True),
            (Pairs(((0, 1), (2, 0))), True),
            (Source(1), False),
            (Pairs(((1, 0), (1, 2), (1, 1))), False),
        ],
    )
    def test_kernel_follows_the_sources(self, requirement, several, monkeypatch):
        """Root tests and verify take sweep_all for several sources; per-node tests never do."""
        calls = []

        def counting(*args):
            calls.append(args)
            return sweep_all(*args)

        monkeypatch.setattr(aug_mod, "sweep_all", counting)
        candidates = frozenset({E(1, 2, 2), E(0, 2, 1)})
        problem = AugmentationProblem(G(3, (0, 1, 1)), candidates, requirement)
        space = _LayerSpace(problem, _group_items(problem))
        space.holds(space.start)
        assert calls == []
        space.root_holds(space.start)
        verify_solution(problem, [E(1, 2, 2)])
        assert len(calls) == (2 if several else 0)


@st.composite
def demand_problems(draw):
    """Problems on 0 to 5 vertices; Pairs lists repeat entries and name (u, u) pairs."""
    n = draw(st.integers(min_value=0, max_value=5))
    lifespan = draw(st.integers(min_value=1, max_value=3))
    slots = [
        (u, v, t) for u in range(n) for v in range(u + 1, n) for t in range(1, lifespan + 1)
    ]
    # each slot is absent, a base edge or a candidate
    roles = draw(st.lists(st.sampled_from("-bc"), min_size=len(slots), max_size=len(slots)))
    base = TemporalGraph.build(
        n, [E(*s) for s, role in zip(slots, roles) if role == "b"], lifespan=lifespan
    )
    candidates = frozenset(E(*s) for s, role in zip(slots, roles) if role == "c")
    kind = draw(st.sampled_from(["all", "source", "pairs"])) if n else "all"
    if kind == "all":
        req = All()
    elif kind == "source":
        req = Source(draw(st.integers(min_value=0, max_value=n - 1)))
    else:
        vertex = st.integers(min_value=0, max_value=n - 1)
        entries = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
        pairs = entries + draw(st.lists(st.sampled_from(entries), max_size=2))
        demand = draw(st.sampled_from([None, *range(len(pairs) + 1)]))
        req = Pairs(tuple(pairs), demand)
    semantics = draw(st.sampled_from([STRICT, NON_STRICT]))
    return AugmentationProblem(base, candidates, req, semantics)


class TestVerifyAgreesWithJourneyOracle:
    @settings(max_examples=300, deadline=None)
    @given(demand_problems(), st.randoms(use_true_random=False))
    @example(AugmentationProblem(G(0, lifespan=1), frozenset()), random.Random(0))
    @example(
        AugmentationProblem(
            G(3, (0, 1, 1), lifespan=2),
            frozenset({E(1, 2, 2)}),
            Pairs(((1, 1), (0, 2), (0, 2), (2, 0)), demand=0),
        ),
        random.Random(0),
    )
    @example(  # a duplicate entry counts twice
        AugmentationProblem(
            G(3, (0, 1, 1), lifespan=2),
            frozenset({E(1, 2, 2)}),
            Pairs(((0, 2), (0, 2), (2, 0), (1, 1)), demand=3),
        ),
        random.Random(0),
    )
    @example(  # a failed entry does not settle a B-of-p list while enough entries are left
        AugmentationProblem(
            G(3, (0, 1, 1), lifespan=2), frozenset({E(1, 2, 2)}), Pairs(((2, 0), (0, 2)), demand=1)
        ),
        random.Random(0),
    )
    def test_random_selections(self, problem, rng):
        for _ in range(4):
            selected = [e for e in problem.candidates_sorted if rng.random() < 0.5]
            assert verify_solution(problem, selected) == journey_requirement_holds(
                problem, selected
            )


class TestFootprintBound:
    @settings(max_examples=120, deadline=None)
    @given(problems())
    def test_root_need_is_admissible(self, problem):
        _, footprint, target = _footprint(_LayerSpace(problem, _group_items(problem)))
        best = brute_min_cost(problem)
        if best is not None:
            assert len(footprint) - len(target) <= best

    @settings(max_examples=120, deadline=None)
    @given(two_time_problems())
    def test_two_time_need_is_admissible(self, problem):
        outcome = solve_exact(problem, with_certificate=False)
        chosen = outcome.selected if isinstance(outcome, Solution) else ()
        for k in range(len(chosen) + 1):
            # the state after the first k units of the selection, as a problem of its own
            sub = dataclasses.replace(
                problem,
                base=problem.base.augment(chosen[:k]),
                candidates=problem.candidates - set(chosen[:k]),
            )
            space = _LayerSpace(sub, _group_items(sub))
            assert space.need is not None
            best = brute_min_cost(sub)
            if best is not None:
                assert space.need(space.start) <= best

    @staticmethod
    def _count_tests(monkeypatch):
        """Wrap the requirement test; record the merges each tested state holds."""
        merges: list[int] = []
        holds = _LayerSpace.holds

        def counting(self, layers):
            merges.append(sum(self.n - len(layer) for layer in layers))
            return holds(self, layers)

        monkeypatch.setattr(_LayerSpace, "holds", counting)
        return merges

    def test_spanner_never_tests_a_disconnected_footprint(self, monkeypatch):
        merges = self._count_tests(monkeypatch)
        rng = random.Random(31)
        solved = 0
        while solved < 3:
            g = random_graph(rng, 7, 2, 0.3)
            if not g.is_temporally_connected(NON_STRICT):
                continue
            solved += 1
            merges.clear()
            sol = solve_exact(spanner_via_tca(g), with_certificate=False)
            assert sol.cost >= 6
            # over an edgeless base, k units make at most k merges across all
            # layers, so no selection of fewer than n-1 units was tested
            assert merges and min(merges) >= 6

    def test_spanner_wall(self, monkeypatch):
        merges = self._count_tests(monkeypatch)
        rng = random.Random(4)
        while True:
            g = random_graph(rng, 7, 3, 0.45)
            if len(g.edges) == 27 and g.is_temporally_connected(NON_STRICT):
                break
        sol = solve_exact(spanner_via_tca(g), with_certificate=False)
        # n-1 edges are the least that connect 7 vertices at all, so a
        # connected selection of 6 is optimal without a search to prove it
        assert sol.cost == 6
        assert journey_connected(TemporalGraph.build(7, sol.selected, lifespan=3), NON_STRICT)
        assert min(merges) >= 6
        # plain enumeration tests every selection below the optimum first
        assert len(merges) < sum(math.comb(27, k) for k in range(6))

    def test_unrestricted_ds_gadget_wall(self):
        inst = StaticGraphInstance(7, frozenset({(0, 1), (2, 3)}), 5)
        assert brute_dominating_min(inst.n, inst.edges) == 5
        red = reduce_dominating_set(inst, MODE_UNRESTRICTED)
        assert len(red.problem.candidates) == 43
        sol = solve_exact(red.problem, with_certificate=False)
        assert isinstance(sol, Solution) and sol.cost == 5


class TestSolveExact:
    def test_connected_base_costs_zero(self):
        p = AugmentationProblem(G(2, (0, 1, 1)), frozenset({E(0, 1, 2)}))
        sol = solve_exact(p)
        assert isinstance(sol, Solution)
        assert sol.cost == 0 and sol.selected == ()

    def test_infeasible_reported_as_value(self):
        # no candidate can ever connect vertex 2
        p = AugmentationProblem(G(3, (0, 1, 1)), frozenset({E(0, 1, 2)}))
        out = solve_exact(p)
        assert out == Infeasible("infeasible")

    def test_budget_exceeded_distinct_from_infeasible(self):
        base = G(3, lifespan=1)
        cands = frozenset({E(0, 1, 1), E(1, 2, 1), E(0, 2, 1)})
        assert isinstance(solve_exact(AugmentationProblem(base, cands)), Solution)
        out = solve_exact(AugmentationProblem(base, cands, budget=1))
        assert out == Infeasible("budget_exceeded")

    def test_lexicographically_least_optimum(self):
        # two interchangeable ways to merge {0,1} with {2}: keep the least edge
        base = G(3, (0, 1, 1), lifespan=1)
        cands = frozenset({E(0, 2, 1), E(1, 2, 1)})
        sol = solve_exact(AugmentationProblem(base, cands))
        assert sol.selected == (E(0, 2, 1),)

    def test_certificates_verify(self):
        base = G(4, (0, 1, 1), (2, 3, 2))
        p = AugmentationProblem(base, unrestricted_candidates(base))
        sol = solve_exact(p)
        augmented = base.augment(sol.selected)
        assert len(sol.certificate) == 12  # every ordered pair
        for u, v, j in sol.certificate:
            assert validate_journey(augmented, j, u)
            assert (j.end if j.hops else u) == v

    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_matches_unpruned_enumeration(self, problem):
        expected = brute_min_cost(problem)
        out = solve_exact(problem, with_certificate=False)
        if expected is None:
            assert out == Infeasible("infeasible")
        else:
            assert isinstance(out, Solution)
            assert out.cost == expected
            assert verify_solution(problem, out.selected)

    @settings(max_examples=150, deadline=None)
    @given(budgeted_problems())
    def test_returns_the_least_selection_of_raw_enumeration(self, problem):
        expected = brute_least_selection(problem)
        out = solve_exact(problem, with_certificate=False)
        if isinstance(expected, str):
            assert out == Infeasible(expected)
        else:
            assert isinstance(out, Solution)
            assert (out.selected, out.groups) == expected

    def test_group_model_costs_at_most_edge_model(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(2, 5)
            base = TemporalGraph.build(n, [], lifespan=2)
            cands = frozenset(
                e for e in unrestricted_candidates(base) if rng.random() < 0.6
            )
            if not cands:
                continue
            pe = AugmentationProblem(base, cands, cost_model=COST_EDGE)
            pg = AugmentationProblem(base, cands, cost_model=COST_GROUP)
            edge_out = solve_exact(pe, with_certificate=False)
            group_out = solve_exact(pg, with_certificate=False)
            assert isinstance(edge_out, Solution) == isinstance(group_out, Solution)
            if isinstance(edge_out, Solution):
                assert group_out.cost <= edge_out.cost

    def test_group_model_equals_edge_model_without_repeats(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(2, 5)
            base = TemporalGraph.build(n, [], lifespan=1)
            cands = frozenset(
                e for e in unrestricted_candidates(base) if rng.random() < 0.7
            )
            if not cands:
                continue
            pe = AugmentationProblem(base, cands, cost_model=COST_EDGE)
            pg = AugmentationProblem(base, cands, cost_model=COST_GROUP)
            a = solve_exact(pe, with_certificate=False)
            b = solve_exact(pg, with_certificate=False)
            if isinstance(a, Solution):
                assert a.selected == b.selected and a.cost == b.cost
            else:
                assert isinstance(b, Infeasible)

    def test_requirement_monotonicity(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 5)
            base = TemporalGraph.build(n, [], lifespan=2)
            cands = unrestricted_candidates(base)
            u = rng.randrange(n)
            others = [v for v in range(n) if v != u]
            pairs = tuple((u, v) for v in rng.sample(others, min(2, len(others))))
            cost_pairs = solve_exact(
                AugmentationProblem(base, cands, Pairs(pairs)), with_certificate=False
            ).cost
            cost_source = solve_exact(
                AugmentationProblem(base, cands, Source(u)), with_certificate=False
            ).cost
            cost_all = solve_exact(
                AugmentationProblem(base, cands, All()), with_certificate=False
            ).cost
            assert cost_pairs <= cost_source <= cost_all

    def test_solution_json_shape(self):
        p = AugmentationProblem(G(2, lifespan=1), frozenset({E(0, 1, 1)}))
        data = solution_to_json(solve_exact(p), p)
        assert data == {
            "schema": 1,
            "feasible": True,
            "model": "edge",
            "semantics": "non-strict",
            "cost": 1,
            "selected": [{"u": 0, "v": 1, "t": 1}],
        }


class TestOnePlusOne:
    def test_worked_example(self):
        # components {0,1} and {2,3,4}: centers 0,1; round robin
        g = G(5, (0, 1, 1), (2, 3, 1), (3, 4, 1))
        out = solve_one_plus_one(g)
        assert out == {E(2, 0, 2), E(3, 1, 2), E(4, 0, 2)}
        assert g.augment(out).is_temporally_connected(NON_STRICT)

    def test_already_connected_snapshot(self):
        g = G(3, (0, 1, 1), (1, 2, 1))
        assert solve_one_plus_one(g) == frozenset()

    def test_empty_vertex_set_needs_nothing(self):
        assert solve_one_plus_one(TemporalGraph.build(0, [], lifespan=1)) == frozenset()

    def test_contract_error_on_wrong_lifespan(self):
        with pytest.raises(ValueError):
            solve_one_plus_one(G(3, (0, 1, 1), (1, 2, 2)))
        with pytest.raises(ValueError):
            solve_one_plus_one(G(3))  # lifespan 0; needs an explicit override

    def test_size_and_optimality_small(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 5)
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            ]
            g = TemporalGraph.build(n, [E(u, v, 1) for u, v in pairs], lifespan=1)
            out = solve_one_plus_one(g)
            smallest = min(len(b) for b in g.snapshot_components(1).blocks)
            assert len(out) == n - smallest
            augmented = g.augment(out)
            assert journey_connected(augmented, NON_STRICT)
            if augmented.lifespan == 2:
                assert augmented.check_property_p()
                assert component_count_bound_check(augmented)
            # no cheaper time-2 completion exists
            cands = frozenset(E(u, v, 2) for u in range(n) for v in range(u + 1, n))
            problem = AugmentationProblem(g, cands)
            expected = brute_min_cost(problem)
            assert expected == len(out)


class TestComponentCountBound:
    def test_violation_by_construction(self):
        # k1 = 3 but a time-2 component of size 2
        g = G(6, (0, 1, 1), (2, 3, 1), (4, 5, 1), (0, 2, 2), (1, 3, 2), (4, 5, 2))
        assert not component_count_bound_check(g)

    def test_contract_error(self):
        with pytest.raises(ValueError):
            component_count_bound_check(G(2, (0, 1, 1)))

    def test_empty_vertex_set_holds_vacuously(self):
        assert component_count_bound_check(TemporalGraph.build(0, [], lifespan=2))

    def test_every_connected_lifespan2_graph_passes(self):
        from oracles import all_graphs

        for g in all_graphs(3, 2):
            if g.is_temporally_connected(NON_STRICT):
                assert component_count_bound_check(g)


class TestSpannerBridge:
    def test_single_edge(self):
        g = G(2, (0, 1, 1))
        assert solve_exact(spanner_via_tca(g), with_certificate=False).cost == 1

    def test_two_way_path_example(self):
        g = G(3, (0, 1, 1), (1, 2, 2), (1, 2, 3), (0, 1, 4))
        sol = solve_exact(spanner_via_tca(g), with_certificate=False)
        assert sol.cost == brute_spanner_min(g) == 3

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            spanner_via_tca(G(3, (0, 1, 1)))

    def test_matches_direct_brute_force(self):
        rng = random.Random(9)
        found = 0
        while found < 25:
            n = rng.randint(2, 4)
            lifespan = rng.randint(1, 3)
            edges = [
                E(u, v, t)
                for u in range(n)
                for v in range(u + 1, n)
                for t in range(1, lifespan + 1)
                if rng.random() < 0.55
            ]
            g = TemporalGraph.build(n, edges, lifespan=lifespan)
            if not g.is_temporally_connected(NON_STRICT):
                continue
            found += 1
            sol = solve_exact(spanner_via_tca(g), with_certificate=False)
            assert sol.cost == brute_spanner_min(g)
