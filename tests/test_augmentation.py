import dataclasses
import functools
import itertools
import math
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_dominating_min,
    brute_least_selection,
    brute_min_cost,
    brute_spanner_min,
    is_journey,
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
    _cheapest_subset,
    _group_items,
    _LayerSpace,
    _merging_units,
    _tree_level,
    build_certificate,
    solution_to_json,
    solve_exact,
    solve_one_plus_one,
    spanner_via_tca,
    unrestricted_candidates,
    verify_solution,
)
from tgaug.reductions import (
    MODE_UNRESTRICTED,
    CnfInstance,
    StaticGraphInstance,
    reduce_3sat,
    reduce_dominating_set,
)
from tgaug.temporal_graph import (
    NON_STRICT,
    STRICT,
    InvalidCandidateError,
    TemporalEdge,
    TemporalGraph,
    _joined,
    sorted_edges,
    sweep_all,
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

    def test_candidate_outside_the_graph(self):
        with pytest.raises(InvalidCandidateError, match=r"\{1,2\}@1 has endpoints outside 0\.\.1"):
            AugmentationProblem(G(2, (0, 1, 1)), frozenset({E(1, 2, 1)}))

    def test_candidate_beyond_declared_lifespan(self):
        with pytest.raises(InvalidCandidateError, match=r"^candidate \{0,1\}@5 exceeds the lifespan 3$"):
            AugmentationProblem(
                G(3, (0, 1, 1)), frozenset({E(0, 1, 5), E(1, 2, 2), E(0, 2, 4)}), lifespan=3
            )
        # without a declared horizon the candidate simply extends it
        p = AugmentationProblem(G(2, (0, 1, 1)), frozenset({E(0, 1, 5)}))
        assert p.effective_lifespan == 5

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"semantics": "sometimes"},
                "unknown semantics 'sometimes', expected one of ('strict', 'non-strict')",
            ),
            ({"cost_model": "vertex"}, "unknown cost model 'vertex'"),
            ({"budget": -1}, "budget must be non-negative"),
            ({"requirement": Source(3)}, "source vertex 3 out of range 0..2"),
            ({"requirement": Source(-1)}, "source vertex -1 out of range 0..2"),
            ({"requirement": Pairs(((0, 3),))}, "pair (0,3) out of range 0..2"),
        ],
    )
    def test_bad_fields_are_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AugmentationProblem(G(3, (0, 1, 1)), frozenset(), **fields)

    def test_negative_lifespan_is_rejected(self):
        with pytest.raises(ValueError, match="^lifespan must be non-negative$"):
            AugmentationProblem(G(2, (0, 1, 1)), frozenset(), lifespan=-4)

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_candidates_any_iterable(self, kind):
        chosen = [E(1, 2, 1)]
        p = AugmentationProblem(G(3, (0, 1, 1)), kind(chosen + [E(0, 2, 2)]))
        assert p.candidates == frozenset(chosen + [E(0, 2, 2)])
        assert solve_exact(p).selected == tuple(chosen)
        assert verify_solution(p, chosen)
        assert not verify_solution(p, [])

    def test_declared_lifespan_below_the_base_is_rejected(self):
        base = G(3, (0, 1, 3))
        with pytest.raises(ValueError, match="^declared lifespan 1 is below the base graph's lifespan 3$"):
            AugmentationProblem(base, frozenset({E(1, 2, 2)}), lifespan=1)
        p = AugmentationProblem(base, frozenset({E(1, 2, 2)}), lifespan=3)
        assert p.effective_lifespan == 3


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
    """All edge-cost problems, either semantics, whose edges and candidates span times 1 and 2."""
    n = draw(st.integers(min_value=2, max_value=5))
    slots = [(u, v, t) for u in range(n) for v in range(u + 1, n) for t in (1, 2)]
    base_set = draw(st.sets(st.sampled_from(slots)))
    rest = [s for s in slots if s not in base_set]
    cand_set = draw(st.sets(st.sampled_from(rest), max_size=8)) if rest else set()
    assume({t for _, _, t in base_set | cand_set} == {1, 2})
    base = TemporalGraph.build(n, [E(*s) for s in base_set], lifespan=2)
    semantics = draw(st.sampled_from([STRICT, NON_STRICT]))
    return AugmentationProblem(base, frozenset(E(*s) for s in cand_set), All(), semantics)


def _units(problem):
    """The units :func:`solve_exact` searches: the cost model's items, pruned when non-strict."""
    units = _group_items(problem)
    if problem.semantics == NON_STRICT:
        units = _merging_units(problem, units)
    return units


def _searched(problem):
    """:func:`solve_exact`'s selection as the subset search alone finds it, or its report.

    The search starts where its own bounds put it: no tree level, no floor.
    """
    units = _units(problem)
    space = _LayerSpace(problem, units)
    space.floor = lambda budget: 0
    combo = _cheapest_subset(space, problem.budget)
    if isinstance(combo, Infeasible):
        return combo
    return sorted_edges(e for i in combo for e in units[i])


def _edgeless_all(rng, max_n, max_candidates):
    """A random edge-cost All problem over an edgeless base, the shape spanner_via_tca builds."""
    n = rng.randint(2, max_n)
    lifespan = rng.randint(1, 4)
    slots = [E(u, v, t) for u in range(n) for v in range(u + 1, n) for t in range(1, lifespan + 1)]
    candidates = rng.sample(slots, min(len(slots), rng.randint(n - 1, max_candidates)))
    return AugmentationProblem(
        TemporalGraph(n, frozenset(), lifespan),
        frozenset(candidates),
        All(),
        rng.choice([STRICT, NON_STRICT]),
        COST_EDGE,
        rng.choice([None, n - 2, n - 1, n]),
    )


def _chain_pair(n, lifespan, size, seed, semantics=NON_STRICT):
    """The pair (0, n-1) over an edgeless base, each candidate joining u to u+1 or u+2."""
    rng = random.Random(seed)
    candidates = set()
    while len(candidates) < size:
        u, d, t = rng.randint(0, n - 2), rng.choice([1, 2]), rng.randint(1, lifespan)
        candidates.add(E(u, min(n - 1, u + d), t))
    base = TemporalGraph(n, frozenset(), lifespan)
    return AugmentationProblem(base, frozenset(candidates), Pairs(((0, n - 1),)), semantics)


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

    @staticmethod
    def _front_met(problem, space, edges):
        """Whether the front entry is met with ``edges`` added, read off the journey oracle."""
        source, need = space.entries[0]
        g = problem.base.augment(edges)
        reach = journey_reach(g, source, problem.semantics)
        return all(v in reach for v in range(g.n) if need >> v & 1)

    @pytest.mark.parametrize("cost_model", [COST_EDGE, COST_GROUP])
    @pytest.mark.parametrize("semantics", [STRICT, NON_STRICT])
    def test_leaf_test_reads_the_front_entry(self, semantics, cost_model):
        """``leaf_test(state)(i)`` says whether the front entry is met in ``add(state, i)``."""
        rng = random.Random(f"leaf {semantics} {cost_model}")
        spread_groups = 0  # units with edges at several times
        for _ in range(250):
            n, lifespan = rng.randint(1, 6), rng.randint(1, 3)
            base = random_graph(rng, n, lifespan, rng.random() * 0.6)
            absent = sorted_edges(unrestricted_candidates(TemporalGraph(n, base.edges, lifespan + 1)))
            candidates = frozenset(e for e in absent if rng.random() < 0.35)
            kind = rng.randrange(3)
            if kind == 0:
                req = All()
            elif kind == 1:
                req = Source(rng.randrange(n))
            else:
                pairs = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3)))
                req = Pairs(pairs, rng.choice([None, *range(len(pairs) + 1)]))
            problem = AugmentationProblem(base, candidates, req, semantics, cost_model)
            units = _group_items(problem)
            space = _LayerSpace(problem, units)
            spread_groups += sum(len(unit) > 1 for unit in units)
            picked = [i for i in range(len(units)) if rng.random() < 0.3]
            state = space.start
            for i in picked:
                state = space.add(state, i)
            entries = space.entries
            entries.insert(0, entries.pop(rng.randrange(len(entries))))
            test = space.leaf_test(state)
            for i in range(len(units)):
                if space.required < len(entries):
                    assert test(i)
                    continue
                edges = {e for j in {*picked, i} for e in units[j]}
                assert test(i) == self._front_met(problem, space, edges)
        assert spread_groups > 0 if cost_model == COST_GROUP else spread_groups == 0

    @pytest.mark.parametrize(
        "pair, unit, strict_met",
        [
            ((0, 2), E(1, 2, 1), False),  # 1 is reached at time 1 only, too late for {1,2}@1
            ((0, 3), E(0, 2, 1), False),  # 2 is reached at time 1 only, too late for {2,3}@1
            ((0, 2), E(0, 2, 1), True),
            ((0, 3), E(1, 3, 2), True),  # 1 is reached before time 2
        ],
    )
    def test_leaf_test_strict_unit_does_not_chain(self, pair, unit, strict_met):
        base = G(4, (0, 1, 1), (2, 3, 1), lifespan=2)
        for semantics, met in ((STRICT, strict_met), (NON_STRICT, True)):
            problem = AugmentationProblem(base, frozenset({unit}), Pairs((pair,)), semantics)
            space = _LayerSpace(problem, _group_items(problem))
            assert space.leaf_test(space.start)(0) == met
            assert space.holds(space.add(space.start, 0)) == met

    def test_leaf_test_passes_every_b_of_p_unit(self):
        base = G(4, (0, 1, 1), (2, 3, 1), lifespan=1)
        candidates = frozenset({E(0, 3, 1), E(1, 3, 1)})
        problem = AugmentationProblem(base, candidates, Pairs(((0, 2), (1, 3)), 1), STRICT)
        space = _LayerSpace(problem, _group_items(problem))
        test = space.leaf_test(space.start)
        assert test(0) and test(1)  # neither unit meets the front pair (0, 2)
        assert not space.holds(space.add(space.start, 0))
        assert space.holds(space.add(space.start, 1))  # {1,3}@1 meets the pair (1, 3)


class TestLayerPatching:
    @pytest.mark.parametrize("cost_model", [COST_EDGE, COST_GROUP])
    @pytest.mark.parametrize("semantics", [STRICT, NON_STRICT])
    def test_patched_layers_equal_built_layers(self, semantics, cost_model):
        """Units added from ``start`` give the augmented graph's own layers, slot by slot."""
        rng = random.Random(f"{semantics} {cost_model}")
        strict = semantics == STRICT
        for _ in range(300):
            n, lifespan = rng.randint(1, 6), rng.randint(1, 3)
            base = random_graph(rng, n, lifespan, rng.random())
            absent = sorted_edges(unrestricted_candidates(TemporalGraph(n, base.edges, lifespan + 1)))
            candidates = frozenset(e for e in absent if rng.random() < 0.3)
            problem = AugmentationProblem(base, candidates, All(), semantics, cost_model)
            units = _group_items(problem)
            space = _LayerSpace(problem, units)
            picked = [i for i in range(len(units)) if rng.random() < 0.5]
            state = space.start
            for i in picked:
                state = space.add(state, i)
            augmented = base.augment(e for i in picked for e in units[i])
            times = sorted(set(base._edges_by_time) | {e.t for e in candidates})
            assert len(state) == len(times)
            for layer, t in zip(state, times):
                assert sorted(layer) == sorted(augmented._layer(t, strict))


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
        space = _LayerSpace(problem, _group_items(problem))
        best = brute_min_cost(problem)
        if best is not None:
            assert len(space.footprint) - len(space.target) <= best
        req = problem.requirement
        if isinstance(req, Pairs) and req.effective_demand < len(req.pairs):
            assert space.target == space.footprint  # a B-of-p demand links nothing

    @settings(max_examples=120, deadline=None)
    @given(two_time_problems())
    def test_two_time_need_is_admissible(self, problem):
        outcome = solve_exact(problem)
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

    @settings(max_examples=120, deadline=None)
    @given(two_time_problems(), st.sampled_from([None, 0, 1, 2, 3]))
    def test_strict_two_time_search_finds_the_least_selection(self, problem, budget):
        """The strict bound cuts only what raw enumeration would reject, budget cap included."""
        problem = dataclasses.replace(problem, semantics=STRICT, budget=budget)
        expected = brute_least_selection(problem)
        out = solve_exact(problem)
        if isinstance(expected, str):
            assert out == Infeasible(expected)
        else:
            assert isinstance(out, Solution)
            assert (out.selected, out.groups) == expected

    def test_strict_bound_beats_the_other_root_bounds(self):
        """Strict, vertex 0 misses both others and each of them misses 0: two units, not one."""
        base = G(3, (1, 2, 2), lifespan=2)
        cands = frozenset({E(0, 1, 1), E(0, 2, 1), E(0, 1, 2), E(0, 2, 2)})
        problem = AugmentationProblem(base, cands, All(), STRICT)
        space = _LayerSpace(problem, _group_items(problem))
        assert len(space.footprint) - len(space.target) == space.floor(None) == 1
        assert space.need(space.start) == brute_min_cost(problem) == 2

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
            problem = spanner_via_tca(g)
            selected = _searched(problem)
            assert len(selected) >= 6
            # over an edgeless base, k units make at most k merges across all
            # layers, so no selection of fewer than n-1 units was tested
            assert merges and min(merges) >= 6
            merges.clear()
            assert solve_exact(problem).selected == selected
            assert not merges  # answered by the tree level, not the search

    def test_spanner_screens_only_connecting_units(self, monkeypatch):
        """The last level's footprint cut leaves the screen only units that connect the footprint."""
        blocks = []
        leaf_test = _LayerSpace.leaf_test

        def recording(self, layers):
            test = leaf_test(self, layers)

            def screen(unit):
                masks = [m for layer in layers for m in layer] + [m for _, m in self.patches[unit]]
                blocks.append(len(functools.reduce(_joined, masks, tuple(1 << v for v in range(self.n)))))
                return test(unit)

            return screen

        monkeypatch.setattr(_LayerSpace, "leaf_test", recording)
        rng = random.Random(6)
        while True:
            g = random_graph(rng, 7, 3, 0.35)
            if g.is_temporally_connected(NON_STRICT):
                break
        problem = spanner_via_tca(g)
        selected = _searched(problem)
        assert len(selected) == 6
        assert len(blocks) > 1000 and set(blocks) == {1}
        blocks.clear()
        assert solve_exact(problem).selected == selected
        assert not blocks  # answered by the tree level, not the search

    def test_spanner_wall(self, monkeypatch):
        merges = self._count_tests(monkeypatch)
        rng = random.Random(4)
        while True:
            g = random_graph(rng, 7, 3, 0.45)
            if len(g.edges) == 27 and g.is_temporally_connected(NON_STRICT):
                break
        problem = spanner_via_tca(g)
        selected = _searched(problem)
        # n-1 edges are the least that connect 7 vertices at all, so a
        # connected selection of 6 is optimal without a search to prove it
        assert len(selected) == 6
        assert journey_connected(TemporalGraph.build(7, selected, lifespan=3), NON_STRICT)
        assert min(merges) >= 6
        # plain enumeration tests every selection below the optimum first
        assert len(merges) < sum(math.comb(27, k) for k in range(6))
        merges.clear()
        assert solve_exact(problem).selected == selected
        assert not merges  # answered by the tree level, not the search

    def test_leaf_screen_spares_most_leaves(self, monkeypatch):
        """A budget-capped strict All search runs the full test on few last-level units."""
        holds = self._count_tests(monkeypatch)
        screened = []
        leaf_test = _LayerSpace.leaf_test

        def counting(self, layers):
            test = leaf_test(self, layers)
            return lambda unit: screened.append(unit) or test(unit)

        monkeypatch.setattr(_LayerSpace, "leaf_test", counting)
        rng = random.Random(0)
        while True:
            g = random_graph(rng, 8, 3, 0.3)
            if g.is_temporally_connected(STRICT):
                break
        kept = set(g.edges)  # thinned to a minimal connected graph
        for e in rng.sample(sorted_edges(g.edges), len(g.edges)):
            if journey_connected(TemporalGraph(8, frozenset(kept - {e}), 3), STRICT):
                kept.discard(e)
        removed = rng.sample(sorted_edges(kept), 4)
        base = TemporalGraph(8, frozenset(kept) - set(removed), 3)
        absent = sorted_edges(unrestricted_candidates(TemporalGraph(8, frozenset(kept), 3)))
        problem = AugmentationProblem(base, frozenset(removed + rng.sample(absent, 24)), All(), STRICT)
        best = brute_min_cost(problem)
        assert best == 4
        holds.clear()
        capped = dataclasses.replace(problem, budget=best - 1)
        assert solve_exact(capped) == Infeasible("budget_exceeded")
        assert brute_min_cost(capped, best - 1) is None
        assert len(screened) == sum(math.comb(28, k) for k in range(1, 4))
        assert len(holds) < len(screened) / 4

    def test_leaf_screen_built_once_per_state(self, monkeypatch):
        """A failed ``holds`` that reorders the demands keeps the screen, and the answer stays the least."""
        states = []  # every screened state stays referenced, so no id is reused
        leaf_test = _LayerSpace.leaf_test

        def recording(self, layers):
            states.append(layers)
            return leaf_test(self, layers)

        monkeypatch.setattr(_LayerSpace, "leaf_test", recording)
        rng = random.Random(41)
        for _ in range(60):
            problem = dataclasses.replace(_edgeless_all(rng, 6, 11), semantics=STRICT)
            seen = len(states)
            out = solve_exact(problem)
            assert len({id(layers) for layers in states[seen:]}) == len(states) - seen
            expected = brute_least_selection(problem)
            if isinstance(expected, str):
                assert out == Infeasible(expected)
            else:
                assert (out.selected, out.groups) == expected
        assert len(states) > 100

    def test_unrestricted_ds_gadget_wall(self):
        inst = StaticGraphInstance(7, frozenset({(0, 1), (2, 3)}), 5)
        assert brute_dominating_min(inst.n, inst.edges) == 5
        red = reduce_dominating_set(inst, MODE_UNRESTRICTED)
        assert len(red.problem.candidates) == 43
        sol = solve_exact(red.problem)
        assert isinstance(sol, Solution) and sol.cost == 5


class TestTreeLevel:
    """Level n-1 of edge-cost All over an edgeless base, answered or skipped without search."""

    @staticmethod
    def _answered(problem):
        return _tree_level(problem, _group_items(problem))[0] is not None

    def _kind(self, problem, out):
        """Which way the outcome came: its semantics, feasibility and whether the tree level answered."""
        return problem.semantics, out.feasible, self._answered(problem)

    # every way an outcome can come: answered by the tree level (non-strict only),
    # or searched, feasible or not, in both semantics
    KINDS = {(s, f, False) for s in (STRICT, NON_STRICT) for f in (True, False)} | {(NON_STRICT, True, True)}

    def test_matches_raw_enumeration(self):
        rng = random.Random(17)
        kinds = set()
        for _ in range(400):
            problem = _edgeless_all(rng, 5, 10)
            expected = brute_least_selection(problem)
            out = solve_exact(problem)
            if isinstance(expected, str):
                assert out == Infeasible(expected)
            else:
                assert (out.selected, out.groups) == expected
            kinds.add(self._kind(problem, out))
        assert kinds == self.KINDS

    def test_matches_the_search(self):
        rng = random.Random(23)
        kinds = set()
        for _ in range(600):
            problem = _edgeless_all(rng, 7, 16)
            out = solve_exact(problem)
            expected = _searched(problem)
            if isinstance(expected, Infeasible):
                assert out == expected
            else:
                assert out.selected == expected and out.cost == len(expected)
            kinds.add(self._kind(problem, out))
        assert kinds == self.KINDS

    @pytest.mark.parametrize("budget", [None, 1])
    def test_strict_pair_takes_one_edge(self, budget):
        problem = AugmentationProblem(
            G(2, lifespan=2), frozenset({E(0, 1, 1), E(0, 1, 2)}), All(), STRICT, budget=budget
        )
        assert _tree_level(problem, _group_items(problem)) == (None, 0)  # nothing skipped
        assert solve_exact(problem) == Solution((E(0, 1, 1),), 1)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("semantics", [STRICT, NON_STRICT])
    def test_at_most_one_vertex_needs_nothing(self, n, semantics):
        problem = AugmentationProblem(G(n, lifespan=2), frozenset(), All(), semantics)
        assert _tree_level(problem, []) == (None, 0)
        assert solve_exact(problem) == Solution((), 0)

    @pytest.mark.parametrize(
        "semantics, tree",
        [
            (NON_STRICT, (E(0, 1, 2), E(0, 2, 2))),  # the Kruskal tree of the time-2 snapshot
            (STRICT, None),  # no tree is strict-connected; the least answer has 3 edges
        ],
    )
    def test_budgets_around_the_tree_level(self, semantics, tree):
        cands = frozenset({E(0, 1, 1), E(1, 2, 2), E(0, 2, 2), E(0, 1, 2), E(0, 1, 3)})
        for budget in (1, 2, 3, None):  # n-2, n-1, n and none
            problem = AugmentationProblem(G(3, lifespan=3), cands, All(), semantics, budget=budget)
            out = solve_exact(problem)
            expected = brute_least_selection(problem)
            if budget == 1 or (budget == 2 and tree is None):
                assert out == Infeasible("budget_exceeded") and expected == "budget_exceeded"
            else:
                assert (out.selected, out.groups) == expected
                assert out.selected == (tree or (E(0, 1, 1), E(0, 2, 2), E(1, 2, 2)))

    def test_no_connected_snapshot_starts_at_n(self, monkeypatch):
        sizes = []
        first_of_size = aug_mod._first_of_size

        def recording(space, size, *args):
            sizes.append(size)
            return first_of_size(space, size, *args)

        monkeypatch.setattr(aug_mod, "_first_of_size", recording)
        # no snapshot holds a spanning tree, so the path 01@1 12@2 and back 01@3 is needed
        problem = AugmentationProblem(G(3, lifespan=3), frozenset({E(0, 1, 1), E(1, 2, 2), E(0, 1, 3)}))
        assert _tree_level(problem, _group_items(problem)) == (None, 3)
        assert solve_exact(problem).cost == 3
        assert sizes == [3]
        sizes.clear()
        # strict needs no snapshot test: no tree on three vertices is strict-connected
        strict = dataclasses.replace(problem, semantics=STRICT)
        assert _tree_level(strict, _group_items(strict)) == (None, 3)
        assert solve_exact(strict).cost == 3
        assert sizes == [3]

    def test_declared_lifespan_past_the_candidates(self):
        g = G(4, (0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 1), (0, 2, 3))
        declared = dataclasses.replace(spanner_via_tca(g), lifespan=7)
        assert self._answered(declared)
        out = solve_exact(declared)
        assert out == solve_exact(spanner_via_tca(g))
        assert out.selected == (E(0, 1, 2), E(1, 2, 2), E(2, 3, 2))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("semantics", [STRICT, NON_STRICT])
    def test_no_candidates_is_infeasible(self, n, semantics):
        problem = AugmentationProblem(G(n, lifespan=2), frozenset(), All(), semantics)
        assert solve_exact(problem) == Infeasible("infeasible")

    def test_certificate_verifies(self):
        rng = random.Random(5)
        while True:
            g = random_graph(rng, 6, 3, 0.5)
            if g.is_temporally_connected(NON_STRICT):
                break
        problem = spanner_via_tca(g)
        assert self._answered(problem)
        sol = solve_exact(problem, with_certificate=True)
        augmented = problem.base.augment(sol.selected)
        assert sol.cost == 5 and len(sol.certificate) == 30  # every ordered pair
        for u, v, hops in sol.certificate:
            assert is_journey(augmented, hops, NON_STRICT, u, v)


class TestPaidFloor:
    """The paid-link floor: where the search starts, never past the optimum."""

    @staticmethod
    def _floor(problem):
        return _LayerSpace(problem, _units(problem)).floor(problem.budget)

    @staticmethod
    def _sizes_asked(monkeypatch):
        """Record the sizes :func:`_first_of_size` is asked."""
        sizes = []
        first_of_size = aug_mod._first_of_size

        def recording(space, size, *args):
            sizes.append(size)
            return first_of_size(space, size, *args)

        monkeypatch.setattr(aug_mod, "_first_of_size", recording)
        return sizes

    @staticmethod
    def _floors_asked(monkeypatch):
        """Record what each :meth:`_LayerSpace.floor` call returns."""
        floors = []
        floor = _LayerSpace.floor

        def recording(self, budget):
            floors.append(floor(self, budget))
            return floors[-1]

        monkeypatch.setattr(_LayerSpace, "floor", recording)
        return floors

    @settings(max_examples=150, deadline=None)
    @given(budgeted_problems())
    def test_is_admissible(self, problem):
        best = brute_min_cost(problem)
        if best is not None:
            assert self._floor(problem) <= best

    @settings(max_examples=150, deadline=None)
    @given(problems(), st.data())
    def test_is_exact_on_one_pair(self, problem, data):
        u, v = (data.draw(st.integers(min_value=0, max_value=problem.base.n - 1)) for _ in range(2))
        demand = data.draw(st.sampled_from([None, 1]))
        one_pair = dataclasses.replace(problem, requirement=Pairs(((u, v),), demand))
        best = brute_min_cost(one_pair)
        assert self._floor(one_pair) == (len(_units(one_pair)) + 1 if best is None else best)

    @settings(max_examples=80, deadline=None)
    @given(problems())
    def test_is_the_front_sources_farthest_need(self, problem):
        """Every vertex that an entry with the front entry's source needs counts, not the front's alone."""
        req, n = problem.requirement, problem.base.n
        if isinstance(req, Pairs):
            assume(req.effective_demand == len(req.pairs))
            source = req.pairs[0][0]
            targets = {v for u, v in req.pairs if u == source}
        else:
            source = req.vertex if isinstance(req, Source) else 0
            targets = set(range(n)) - {source}
        problem = dataclasses.replace(problem, budget=None)
        costs = [
            brute_min_cost(dataclasses.replace(problem, requirement=Pairs(((source, v),))))
            for v in targets
        ]
        expected = len(_units(problem)) + 1 if None in costs else max(costs, default=0)
        assert self._floor(problem) == expected

    @settings(max_examples=150, deadline=None)
    @given(budgeted_problems())
    def test_solve_exact_matches_the_unfloored_search(self, problem):
        out = solve_exact(problem)
        expected = brute_least_selection(problem)
        searched = _searched(problem)
        if isinstance(expected, str):
            assert out == searched == Infeasible(expected)
        else:
            assert out.selected == searched and (out.selected, out.groups) == expected

    @pytest.mark.parametrize("semantics", [STRICT, NON_STRICT])
    def test_all_on_no_vertices_is_zero(self, semantics):
        problem = AugmentationProblem(G(0, lifespan=2), frozenset(), All(), semantics)
        assert self._floor(problem) == 0

    @pytest.mark.parametrize("semantics", [STRICT, NON_STRICT])
    def test_b_of_p_is_zero(self, semantics):
        path = frozenset({E(0, 1, 1), E(1, 2, 2), E(2, 3, 3)})
        problem = AugmentationProblem(G(4, lifespan=3), path, Pairs(((0, 3), (3, 0)), 1), semantics)
        assert self._floor(problem) == 0
        assert solve_exact(problem).selected == sorted_edges(path)

    @pytest.mark.parametrize("semantics", [STRICT, NON_STRICT])
    def test_counts_every_entry_of_the_front_source(self, semantics):
        path = frozenset({E(0, 1, 1), E(1, 2, 2), E(2, 3, 3)})
        problem = AugmentationProblem(G(4, lifespan=3), path, Pairs(((0, 1), (0, 3))), semantics)
        assert self._floor(problem) == brute_min_cost(problem) == 3

    def test_strict_links_of_one_time_do_not_chain(self):
        same_time = frozenset({E(0, 1, 1), E(1, 2, 1), E(1, 2, 2)})
        pair = Pairs(((0, 2),))
        strict = AugmentationProblem(G(3, lifespan=2), same_time, pair, STRICT)
        # strict: 01@1 then 12@2; the floor is exact here, as on every one-pair problem
        assert self._floor(strict) == brute_min_cost(strict) == 2
        without_later = dataclasses.replace(strict, candidates=same_time - {E(1, 2, 2)})
        assert self._floor(without_later) == 3 and brute_min_cost(without_later) is None
        nonstrict = dataclasses.replace(without_later, semantics=NON_STRICT)
        assert self._floor(nonstrict) == brute_min_cost(nonstrict) == 2

    def test_satisfiable_3sat_gadget_asks_only_its_optimum(self, monkeypatch):
        """The floor is asked once, and raises the start past the footprint gap to 9."""
        floors = self._floors_asked(monkeypatch)
        sizes = self._sizes_asked(monkeypatch)
        problem = reduce_3sat(CnfInstance(4, ((1, 2, 3), (-1, -2, 4), (2, -3, -4)))).problem
        assert problem.cost_model == COST_GROUP and len(problem.requirement.pairs) == 2
        space = _LayerSpace(problem, _units(problem))
        assert len(space.footprint) - len(space.target) < 9
        out = solve_exact(problem)
        assert out.cost == 9 and floors == [9] and sizes == [9]
        assert out.selected == _searched(problem)

    def test_chain_pair_asks_only_its_optimum(self, monkeypatch):
        sizes = self._sizes_asked(monkeypatch)
        problem = _chain_pair(10, 6, 64, 1)
        out = solve_exact(problem)
        assert out.cost == 5 and sizes == [5]
        assert out.selected == _searched(problem)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_not_asked_where_the_start_is_already_past_it(self, n, monkeypatch):
        """The footprint gap or the tree level is n-1 or more, which no floor exceeds."""
        floors = self._floors_asked(monkeypatch)
        cands = frozenset(E(u, v, t) for u, v in itertools.combinations(range(n), 2) for t in (1, 2))
        problem = AugmentationProblem(G(n, lifespan=2), cands, All(), STRICT)
        assert solve_exact(problem).selected == _searched(problem)
        assert floors == []

    def test_not_asked_where_the_budget_is_below_the_footprint_gap(self, monkeypatch):
        """Two pairs on five vertices: the gap, 2, is below n-1 but past the budget."""
        floors = self._floors_asked(monkeypatch)
        cands = frozenset({E(0, 1, 1), E(2, 3, 1), E(1, 2, 2)})
        problem = AugmentationProblem(G(5, lifespan=2), cands, Pairs(((0, 1), (2, 3))), budget=1)
        assert solve_exact(problem) == Infeasible("budget_exceeded")
        assert floors == []
        assert solve_exact(dataclasses.replace(problem, budget=2)).cost == 2
        assert floors == [1]

    def test_floor_past_the_budget_searches_nothing(self, monkeypatch):
        sizes = self._sizes_asked(monkeypatch)
        path = frozenset({E(0, 1, 1), E(1, 2, 2), E(2, 3, 3), E(2, 3, 1)})  # 23@1 comes too early
        problem = AugmentationProblem(G(4, lifespan=3), path, Pairs(((0, 3),)), budget=2)
        assert self._floor(problem) == 3
        assert solve_exact(problem) == Infeasible("budget_exceeded") == Infeasible(brute_least_selection(problem))
        assert sizes == []
        # all units together fail: the root test says so before any size is asked
        no_way = dataclasses.replace(problem, candidates=path - {E(2, 3, 3)})
        assert solve_exact(no_way) == Infeasible("infeasible") == Infeasible(brute_least_selection(no_way))
        assert sizes == []


class TestSolveExact:
    def test_connected_base_costs_zero(self):
        p = AugmentationProblem(G(2, (0, 1, 1)), frozenset({E(0, 1, 2)}))
        sol = solve_exact(p)
        assert isinstance(sol, Solution)
        assert sol.cost == 0 and sol.selected == ()

    def test_search_has_no_depth_limit(self):
        """A 1,099-unit selection is one frame per unit, past Python's recursion limit."""
        n = 1100
        hops = [E(i, i + 1, i + 1) for i in range(n - 1)]
        problem = AugmentationProblem(G(n, lifespan=n - 1), hops, Pairs(((0, n - 1),)), STRICT)
        out = solve_exact(problem)
        assert out.cost == n - 1 and out.selected == tuple(hops)

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
        sol = solve_exact(p, with_certificate=True)
        augmented = base.augment(sol.selected)
        assert len(sol.certificate) == 12  # every ordered pair
        for u, v, hops in sol.certificate:
            assert is_journey(augmented, hops, p.semantics, u, v)

    @settings(max_examples=100, deadline=None)
    @given(problems())
    @example(  # B of p, with a (u, u) pair and a pair the selection need not meet
        AugmentationProblem(
            G(3, (0, 1, 1), lifespan=2),
            frozenset({E(1, 2, 2)}),
            Pairs(((1, 1), (2, 0), (0, 2)), demand=2),
            STRICT,
        )
    )
    def test_certificate_witnesses_each_met_pair_foremost(self, problem):
        out = solve_exact(problem)
        if not out.feasible:
            return
        augmented = problem.base.augment(out.selected)
        n, req, semantics = augmented.n, problem.requirement, problem.semantics
        if isinstance(req, All):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        elif isinstance(req, Source):
            pairs = [(req.vertex, v) for v in range(n) if v != req.vertex]
        else:
            pairs = list(req.pairs)
        # arrival[u][v]: the least t at which the edges at times <= t take u to v; the
        # last prefix is the whole graph, so arrival[u] holds every vertex u reaches
        arrival = {u: {u: 0} for u in range(n)}
        for t in range(1, augmented.lifespan + 1):
            prefix = TemporalGraph(n, frozenset(e for e in augmented.edges if e.t <= t), t)
            for u in range(n):
                for v in journey_reach(prefix, u, semantics):
                    arrival[u].setdefault(v, t)
        certificate = build_certificate(problem, out.selected)
        met = [(u, v) for u, v in pairs if v in arrival[u]]
        assert [(u, v) for u, v, _ in certificate] == met
        for u, v, hops in certificate:
            assert is_journey(augmented, hops, semantics, u, v)
            assert (hops[-1][2] if hops else 0) == arrival[u][v]

    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_matches_unpruned_enumeration(self, problem):
        expected = brute_min_cost(problem)
        out = solve_exact(problem)
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
        out = solve_exact(problem)
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
            edge_out = solve_exact(pe)
            group_out = solve_exact(pg)
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
            a = solve_exact(pe)
            b = solve_exact(pg)
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
            cost_pairs = solve_exact(AugmentationProblem(base, cands, Pairs(pairs))).cost
            cost_source = solve_exact(AugmentationProblem(base, cands, Source(u))).cost
            cost_all = solve_exact(AugmentationProblem(base, cands, All())).cost
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
            assert augmented.is_temporally_connected(NON_STRICT)
            # no cheaper time-2 completion exists
            cands = frozenset(E(u, v, 2) for u in range(n) for v in range(u + 1, n))
            problem = AugmentationProblem(g, cands)
            expected = brute_min_cost(problem)
            assert expected == len(out)


class TestSpannerBridge:
    def test_single_edge(self):
        g = G(2, (0, 1, 1))
        assert solve_exact(spanner_via_tca(g)).cost == 1

    def test_two_way_path_example(self):
        g = G(3, (0, 1, 1), (1, 2, 2), (1, 2, 3), (0, 1, 4))
        sol = solve_exact(spanner_via_tca(g))
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
            sol = solve_exact(spanner_via_tca(g))
            assert sol.cost == brute_spanner_min(g)
