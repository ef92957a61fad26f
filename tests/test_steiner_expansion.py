"""The temporal expansion and its pair-demand solver, against the oracles."""

import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_least_selection, brute_min_cost, dijkstra_weight, random_graph
from tgaug.augmentation import (
    All,
    AugmentationProblem,
    Infeasible,
    Pairs,
    Solution,
    Source,
    solution_to_json,
    solve_exact,
    unrestricted_candidates,
)
from tgaug.cli import main
from tgaug.steiner_expansion import (
    TGSteinerInstance,
    build_expansion,
    min_weight_connection,
    problem_instance,
    solve_tpca_via_expansion,
)
from tgaug.temporal_graph import NON_STRICT, STRICT, TemporalEdge, TemporalGraph, sweep

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


@st.composite
def all_or_source_problems(draw):
    """Edge-cost All and Source problems: n <= 5, T <= 3, at most 10 candidates."""
    n = draw(st.integers(min_value=2, max_value=5))
    lifespan = draw(st.integers(min_value=1, max_value=3))
    slots = [
        TemporalEdge(u, v, t)
        for t in range(1, lifespan + 1)
        for u, v in itertools.combinations(range(n), 2)
    ]
    # each slot is absent, a base edge or a candidate
    roles = draw(st.lists(st.sampled_from("-bc"), min_size=len(slots), max_size=len(slots)))
    base = [e for e, role in zip(slots, roles) if role == "b"]
    cands = [e for e, role in zip(slots, roles) if role == "c"][:10]
    req = draw(st.sampled_from([All(), Source(draw(st.integers(min_value=0, max_value=n - 1)))]))
    return AugmentationProblem(
        TemporalGraph.build(n, base, lifespan=lifespan),
        frozenset(cands),
        req,
        draw(st.sampled_from(SEMANTICS)),
        budget=draw(st.sampled_from([None, 0, 1, 2, 3])),
    )


class TestSolver:
    @settings(max_examples=150, deadline=None)
    @given(all_or_source_problems())
    def test_all_and_source_agree_with_the_subset_engine(self, problem):
        ours = solve_tpca_via_expansion(problem)
        theirs = solve_exact(problem)
        assert solution_to_json(ours, problem) == solution_to_json(theirs, problem)
        expected = brute_least_selection(problem)
        if isinstance(expected, str):
            assert ours == Infeasible(expected)
        else:
            assert (ours.selected, None) == expected

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("with_budget", [False, True])
    def test_matches_subset_search_and_brute_force(self, semantics, with_budget):
        rng = random.Random(61 + with_budget)
        outcomes = set()
        for _ in range(60):
            problem = random_pairs_problem(rng, semantics, with_budget)
            got = solve_tpca_via_expansion(problem)
            subset = solve_exact(problem)
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

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_returns_the_least_selection_of_raw_enumeration(self, semantics):
        rng = random.Random(73)
        for _ in range(80):
            problem = random_pairs_problem(rng, semantics, rng.random() < 0.5)
            inst = problem_instance(problem)
            exp, pair_map = build_expansion(inst, semantics)
            found = min_weight_connection(exp, pair_map, inst.demand, budget=problem.budget)
            expected = brute_least_selection(problem)
            if isinstance(expected, str):
                assert found == Infeasible(expected)
            else:
                assert (found.selected, None) == expected

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
                    checked += 1
        assert checked > 60

    # copy nodes 0..3, then the edge's gate-in 4 and gate-out 5
    @pytest.mark.parametrize("pair", [(0, 999), (0, -1), (999, 0), (4, 5), (0, 4)])
    def test_pairs_name_nodes_of_the_expansion(self, pair):
        g = TemporalGraph.build(2, [TemporalEdge(0, 1, 1)])
        exp, _ = build_expansion(TGSteinerInstance.from_weights(g, dict.fromkeys(g.edges, 1), []))
        with pytest.raises(ValueError, match=re.escape(f"pair ({pair[0]},{pair[1]}) out of range 0..3")):
            min_weight_connection(exp, [pair], 1)

    @pytest.mark.parametrize(
        "demand, budget, message",
        [
            (-1, None, "demand must lie between 0 and the number of pairs"),
            (2, None, "demand must lie between 0 and the number of pairs"),
            (1, -1, "budget must be non-negative"),
        ],
    )
    def test_demand_and_budget_are_checked(self, demand, budget, message):
        g = TemporalGraph.build(2, [TemporalEdge(0, 1, 1)])
        inst = TGSteinerInstance.from_weights(g, dict.fromkeys(g.edges, 1), [(0, 1)])
        exp, pair_map = build_expansion(inst)
        with pytest.raises(ValueError, match=f"^{message}$"):
            min_weight_connection(exp, pair_map, demand, budget=budget)
        if budget is None:
            with pytest.raises(ValueError, match=f"^{message}$"):
                TGSteinerInstance.from_weights(g, inst.weights, inst.pairs, demand)

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
                    mask = sweep(sub._layers(semantics), 1 << u)
                    for v in range(n):
                        sink = exp.copy_index(v, lifespan + 1)
                        assert reached >> sink & 1 == mask >> v & 1


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


# Two time-1 edges sharing vertex 1: the non-strict expansion links their gates.
SAME_TIME_DOT_HEAD = """\
digraph expansion {
  "0@1";
  "0@2";
  "1@1";
  "1@2";
  "2@1";
  "2@2";
  "0-1@1.in";
  "0-1@1.out";
  "1-2@1.in";
  "1-2@1.out";
  "0@1" -> "0@2" [weight=0];
  "1@1" -> "1@2" [weight=0];
  "2@1" -> "2@2" [weight=0];
  "0@1" -> "0-1@1.in" [weight=0];
  "1@1" -> "0-1@1.in" [weight=0];
  "0-1@1.in" -> "0-1@1.out" [weight=0];
  "0-1@1.out" -> "0@2" [weight=0];
  "0-1@1.out" -> "1@2" [weight=0];
  "1@1" -> "1-2@1.in" [weight=0];
  "2@1" -> "1-2@1.in" [weight=0];
  "1-2@1.in" -> "1-2@1.out" [weight=1];
  "1-2@1.out" -> "1@2" [weight=0];
  "1-2@1.out" -> "2@2" [weight=0];
"""

SAME_TIME_GOLDEN = {
    ("dot", "strict"): "// nodes=10 arcs=13 n=3 lifespan=1 semantics=strict\n"
    + SAME_TIME_DOT_HEAD
    + "}\n",
    ("dot", "nonstrict"): "// nodes=10 arcs=15 n=3 lifespan=1 semantics=non-strict\n"
    + SAME_TIME_DOT_HEAD
    + '  "0-1@1.out" -> "1-2@1.in" [weight=0];\n'
    + '  "1-2@1.out" -> "0-1@1.in" [weight=0];\n'
    + "}\n",
    ("json", "nonstrict"): (
        '{"arc_count":15,"arcs":[{"dst":1,"src":0,"weight":0},{"dst":3,"src":2,"weight":0},'
        '{"dst":5,"src":4,"weight":0},{"dst":6,"src":0,"weight":0},{"dst":6,"src":2,"weight":0},'
        '{"dst":7,"src":6,"weight":0},{"dst":1,"src":7,"weight":0},{"dst":3,"src":7,"weight":0},'
        '{"dst":8,"src":2,"weight":0},{"dst":8,"src":4,"weight":0},{"dst":9,"src":8,"weight":1},'
        '{"dst":3,"src":9,"weight":0},{"dst":5,"src":9,"weight":0},{"dst":8,"src":7,"weight":0},'
        '{"dst":6,"src":9,"weight":0}],"lifespan":1,"n":3,"node_count":10,"nodes":['
        '{"kind":"copy","label":"0@1"},{"kind":"copy","label":"0@2"},'
        '{"kind":"copy","label":"1@1"},{"kind":"copy","label":"1@2"},'
        '{"kind":"copy","label":"2@1"},{"kind":"copy","label":"2@2"},'
        '{"kind":"gate_in","label":"0-1@1.in"},{"kind":"gate_out","label":"0-1@1.out"},'
        '{"kind":"gate_in","label":"1-2@1.in"},{"kind":"gate_out","label":"1-2@1.out"}],'
        '"schema":1,"semantics":"non-strict"}\n'
    ),
}


class TestInstance:
    @pytest.mark.parametrize("fmt, semantics", sorted(SAME_TIME_GOLDEN))
    def test_expand_same_time_golden(self, fmt, semantics, tmp_path, capsys, monkeypatch):
        (tmp_path / "same.tg").write_text("V 3\nE 0 1 1\n")
        (tmp_path / "same.cand").write_text("E 1 2 1\n")
        manifest = {
            "kind": "tca",
            "graph": "same.tg",
            "candidates": "same.cand",
            "requirement": {"type": "pairs", "pairs": [[0, 2]]},
        }
        (tmp_path / "same.json").write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        argv = ["expand", "same.json", "--format", fmt, "--semantics", semantics]
        assert main(argv) == 0
        assert capsys.readouterr() == (SAME_TIME_GOLDEN[fmt, semantics], "")

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

    @pytest.mark.parametrize(
        "weights",
        [{}, {TemporalEdge(0, 1, 1): 1, TemporalEdge(1, 2, 1): 7}],
        ids=["missing", "extra"],
    )
    def test_weights_cover_exactly_the_edges(self, weights):
        g = TemporalGraph.build(3, [TemporalEdge(0, 1, 1)])
        with pytest.raises(ValueError, match="^weights must cover exactly the temporal edges of the graph$"):
            TGSteinerInstance.from_weights(g, weights, [(0, 1)])

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 1)])
    def test_pairs_name_vertices_of_the_graph(self, pair):
        g = TemporalGraph.build(2, [TemporalEdge(0, 1, 1)])
        with pytest.raises(ValueError, match=rf"^pair \({pair[0]},{pair[1]}\) out of range 0\.\.1$"):
            TGSteinerInstance.from_weights(g, {TemporalEdge(0, 1, 1): 1}, [pair])

    def test_budget_is_non_negative(self):
        g = TemporalGraph.build(2, [TemporalEdge(0, 1, 1)])
        with pytest.raises(ValueError, match="^budget must be non-negative$"):
            TGSteinerInstance.from_weights(g, {TemporalEdge(0, 1, 1): 1}, [(0, 1)], budget=-1)
        for budget in (None, 0, 2):
            inst = TGSteinerInstance.from_weights(g, {TemporalEdge(0, 1, 1): 1}, [(0, 1)], budget=budget)
            assert inst.budget == budget

    def test_problem_instance_weighs_candidates_one(self):
        base = TemporalGraph.build(3, [TemporalEdge(0, 1, 1)])
        cand = TemporalEdge(1, 2, 1)
        problem = AugmentationProblem(base, frozenset({cand}), Pairs(((0, 2),)), budget=1)
        inst = problem_instance(problem)
        assert inst.weights == {TemporalEdge(0, 1, 1): 0, cand: 1}
        assert (inst.pairs, inst.demand, inst.budget) == (((0, 2),), 1, 1)
