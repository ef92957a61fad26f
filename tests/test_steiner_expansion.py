"""The temporal expansion and its pair-demand solver, against the oracles."""

import itertools
import json
import random

import pytest

from oracles import brute_min_cost, dijkstra_weight, enumerate_journeys, random_graph
from tgaug.augmentation import (
    AugmentationProblem,
    Infeasible,
    Pairs,
    Solution,
    solution_to_json,
    solve_exact,
    unrestricted_candidates,
)
from tgaug.cli import main
from tgaug.steiner_expansion import (
    TGSteinerInstance,
    build_expansion,
    journey_to_path,
    min_weight_connection,
    path_to_journey,
    problem_instance,
    solve_tpca_via_expansion,
)
from tgaug.temporal_graph import NON_STRICT, STRICT, Journey, TemporalEdge, TemporalGraph, sweep

SEMANTICS = [STRICT, NON_STRICT]


def random_pairs_problem(rng, semantics, with_budget):
    """A random Pairs instance with a few candidates, sometimes budget-capped."""
    n = rng.randint(2, 5)
    lifespan = rng.randint(1, 3)
    base = random_graph(rng, n, lifespan, 0.25)
    spare = sorted(unrestricted_candidates(base), key=lambda e: e.key)
    cands = frozenset(rng.sample(spare, min(len(spare), rng.randint(0, 6))))
    pairs = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3)))
    demand = rng.choice([None, rng.randint(0, len(pairs))])
    budget = rng.randint(0, 3) if with_budget else None
    return AugmentationProblem(base, cands, Pairs(pairs, demand), semantics, budget=budget)


class TestSolver:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("with_budget", [False, True])
    def test_matches_subset_search_and_brute_force(self, semantics, with_budget):
        rng = random.Random(61 + with_budget)
        outcomes = set()
        for _ in range(60):
            problem = random_pairs_problem(rng, semantics, with_budget)
            got = solve_tpca_via_expansion(problem)
            subset = solve_exact(problem, with_certificate=False)
            # both engines promise the lexicographically least cheapest selection
            assert solution_to_json(got, problem) == solution_to_json(subset, problem)
            best = brute_min_cost(problem)
            if best is None:
                assert got == Infeasible("infeasible")
            elif problem.budget is not None and best > problem.budget:
                assert got == Infeasible("budget_exceeded")
            else:
                assert isinstance(got, Solution) and got.cost == best
            outcomes.add(got.reason if isinstance(got, Infeasible) else "solved")
        expected = {"solved", "infeasible"} | ({"budget_exceeded"} if with_budget else set())
        assert outcomes == expected

    def test_single_pair_weight_is_the_shortest_path(self):
        rng = random.Random(67)
        checked = 0
        for semantics in SEMANTICS:
            for _ in range(60):
                n, lifespan = rng.randint(2, 5), rng.randint(1, 3)
                g = random_graph(rng, n, lifespan, 0.5)
                weights = {e: rng.randint(0, 1) for e in g.edges}
                u, v = rng.randrange(n), rng.randrange(n)
                inst = TGSteinerInstance.from_weights(g, weights, [(u, v)])
                exp, pair_map = build_expansion(inst, semantics)
                if len(exp.positive_gate_edges) > 12:
                    continue
                found = min_weight_connection(exp, pair_map, 1)
                expected = dijkstra_weight(exp, *pair_map[0])
                if expected is None:
                    assert found == Infeasible("infeasible")
                else:
                    assert found.weight == expected == len(found.selected)
                    assert found.satisfied == (0,)
                    checked += 1
        assert checked > 60

    def test_gate_cap(self):
        """The search has no size cap: 21 positive gates solve."""
        clique = [TemporalEdge(u, v, 1) for u, v in itertools.combinations(range(7), 2)]
        g = TemporalGraph.build(7, clique)
        inst = TGSteinerInstance.from_weights(g, dict.fromkeys(g.edges, 1), [(0, 1)])
        exp, pair_map = build_expansion(inst)
        assert len(exp.positive_gate_edges) == 21
        found = min_weight_connection(exp, pair_map, 1)
        assert (found.weight, found.selected) == (1, (TemporalEdge(0, 1, 1),))


class TestReachability:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_reachable_from_agrees_with_sweep(self, semantics):
        rng = random.Random(71)
        strict = semantics == STRICT
        for _ in range(25):
            n, lifespan = rng.randint(2, 5), rng.randint(1, 3)
            g = random_graph(rng, n, lifespan, 0.4)
            weights = {e: rng.randint(0, 1) for e in g.edges}
            inst = TGSteinerInstance.from_weights(g, weights, [(0, 0)])
            exp, _ = build_expansion(inst, semantics)
            gates = exp.positive_gate_edges
            assert gates == tuple(sorted((e for e in g.edges if weights[e]), key=lambda e: e.key))
            k = len(gates)
            subsets = {frozenset(), frozenset(range(k))}
            subsets |= {frozenset(i for i in range(k) if rng.random() < 0.5) for _ in range(6)}
            for open_gates in subsets:
                kept = [e for e in g.edges if not weights[e]] + [gates[i] for i in open_gates]
                sub = TemporalGraph.build(n, kept, lifespan=lifespan)
                for u in range(n):
                    reached = exp.reachable_from(exp.copy_index(u, 1), open_gates)
                    mask = sweep(sub._layers(semantics), strict, 1 << u)
                    for v in range(n):
                        assert (exp.copy_index(v, lifespan + 1) in reached) == bool(mask >> v & 1)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_journey_path_round_trip(self, semantics):
        rng = random.Random(73)
        count = 0
        for _ in range(20):
            n, lifespan = rng.randint(2, 5), rng.randint(1, 3)
            g = random_graph(rng, n, lifespan, 0.4)
            inst = TGSteinerInstance.from_weights(g, dict.fromkeys(g.edges, 0), [(0, 0)])
            exp, _ = build_expansion(inst, semantics)
            for source in range(n):
                for hops in enumerate_journeys(g, source, semantics):
                    journey = Journey(hops, semantics)
                    path = journey_to_path(exp, source, journey)
                    assert exp.nodes[path[0]] == exp.nodes[exp.copy_index(source, 1)]
                    end = journey.end if hops else source
                    assert path[-1] == exp.copy_index(end, lifespan + 1)
                    assert path_to_journey(exp, path) == (source, journey)
                    count += 1
        assert count > 300


GOLDEN_DOT = """\
// nodes=13 arcs=16 n=3 lifespan=2 semantics=non-strict
digraph expansion {
  "0@1";
  "0@2";
  "0@3";
  "1@1";
  "1@2";
  "1@3";
  "2@1";
  "2@2";
  "2@3";
  "0-1@1.in";
  "0-1@1.out";
  "1-2@2.in";
  "1-2@2.out";
  "0@1" -> "0@2" [weight=0];
  "0@2" -> "0@3" [weight=0];
  "1@1" -> "1@2" [weight=0];
  "1@2" -> "1@3" [weight=0];
  "2@1" -> "2@2" [weight=0];
  "2@2" -> "2@3" [weight=0];
  "0@1" -> "0-1@1.in" [weight=0];
  "1@1" -> "0-1@1.in" [weight=0];
  "0-1@1.in" -> "0-1@1.out" [weight=0];
  "0-1@1.out" -> "0@2" [weight=0];
  "0-1@1.out" -> "1@2" [weight=0];
  "1@2" -> "1-2@2.in" [weight=0];
  "2@2" -> "1-2@2.in" [weight=0];
  "1-2@2.in" -> "1-2@2.out" [weight=1];
  "1-2@2.out" -> "1@3" [weight=0];
  "1-2@2.out" -> "2@3" [weight=0];
}
"""


class TestInstance:
    def test_expand_dot_golden(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "tiny.tg").write_text("V 3\nE 0 1 1\n")
        (tmp_path / "tiny.cand").write_text("E 1 2 2\n")
        manifest = {
            "kind": "tca",
            "graph": "tiny.tg",
            "candidates": "tiny.cand",
            "requirement": {"type": "pairs", "pairs": [[0, 2]]},
        }
        (tmp_path / "tiny.json").write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        assert main(["expand", "tiny.json"]) == 0
        assert capsys.readouterr() == (GOLDEN_DOT, "")

    @pytest.mark.parametrize("weight", [-1, 2, 5])
    def test_weights_are_zero_or_one(self, weight):
        g = TemporalGraph.build(2, [TemporalEdge(0, 1, 1)])
        with pytest.raises(ValueError, match="0 or 1"):
            TGSteinerInstance.from_weights(g, {TemporalEdge(0, 1, 1): weight}, [(0, 1)])
        for w in (0, 1):
            inst = TGSteinerInstance.from_weights(g, {TemporalEdge(0, 1, 1): w}, [(0, 1)])
            assert inst.weights == {TemporalEdge(0, 1, 1): w}

    def test_problem_instance_weighs_candidates_one(self):
        base = TemporalGraph.build(3, [TemporalEdge(0, 1, 1)])
        cand = TemporalEdge(1, 2, 1)
        problem = AugmentationProblem(base, frozenset({cand}), Pairs(((0, 2),)), budget=1)
        inst = problem_instance(problem)
        assert inst.weights == {TemporalEdge(0, 1, 1): 0, cand: 1}
        assert (inst.pairs, inst.demand, inst.budget) == (((0, 2),), 1, 1)
