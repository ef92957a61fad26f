import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import journey_connected, journey_reach, union_find_components
from tgaug.temporal_graph import (
    NON_STRICT,
    SEMANTICS,
    STRICT,
    InvalidCandidateError,
    Journey,
    ParseError,
    TemporalEdge,
    TemporalGraph,
    find_journey,
    format_candidates,
    format_tg,
    parse_candidates,
    parse_tg,
    sweep,
    sweep_all,
    validate_journey,
)


def G(n, *triples, lifespan=None):
    return TemporalGraph.build(n, [TemporalEdge(u, v, t) for u, v, t in triples], lifespan=lifespan)


@st.composite
def temporal_graphs(draw, max_n=8, max_t=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    lifespan = draw(st.integers(min_value=1, max_value=max_t))
    slots = [(u, v, t) for u in range(n) for v in range(u + 1, n) for t in range(1, lifespan + 1)]
    chosen = draw(st.sets(st.sampled_from(slots)) if slots else st.just(set()))
    return TemporalGraph.build(
        n, [TemporalEdge(u, v, t) for u, v, t in chosen], lifespan=lifespan
    )


class TestTemporalEdge:
    def test_normalizes_endpoints(self):
        assert TemporalEdge(2, 1, 3) == TemporalEdge(1, 2, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            TemporalEdge(1, 1, 1)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            TemporalEdge(0, 1, 0)


class TestConstruction:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TemporalGraph.build(2, [TemporalEdge(0, 1, 1), TemporalEdge(1, 0, 1)])

    def test_lifespan_default_and_override(self):
        g = G(2, (0, 1, 3))
        assert g.lifespan == 3
        assert G(2, lifespan=5).lifespan == 5
        with pytest.raises(ValueError):
            G(2, (0, 1, 3), lifespan=2)

    def test_edgeless_lifespan_zero(self):
        assert G(3).lifespan == 0

    def test_simple_flag(self):
        assert G(3, (0, 1, 1), (1, 2, 1)).is_simple
        assert not G(2, (0, 1, 1), (0, 1, 2)).is_simple


class TestSnapshot:
    def test_filters_by_time(self):
        g = G(3, (0, 1, 1), (1, 2, 2))
        assert g.snapshot(1) == ((0, 1),)
        assert g.snapshot(2) == ((1, 2),)

    def test_empty_graph(self):
        assert G(4, lifespan=2).snapshot(1) == ()

    def test_time_out_of_range(self):
        g = G(2, (0, 1, 1))
        with pytest.raises(ValueError):
            g.snapshot(2)
        with pytest.raises(ValueError):
            g.snapshot(0)

    def test_components_examples(self):
        assert G(3, (0, 1, 1)).snapshot_components(1).blocks == ((0, 1), (2,))
        assert G(4, lifespan=1).snapshot_components(1).blocks == ((0,), (1,), (2,), (3,))

    def test_components_match_union_find(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 8)
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = TemporalGraph.build(n, [TemporalEdge(u, v, 1) for u, v in pairs])
            if not pairs:
                g = g.with_lifespan(1)
            assert g.snapshot_components(1).blocks == tuple(union_find_components(n, pairs))


class TestReachability:
    def test_intro_example(self):
        # u-v@1, v-w@2: u reaches w but w cannot reach u
        g = G(3, (0, 1, 1), (1, 2, 2))
        assert g.reachable_set(0, NON_STRICT) == {0, 1, 2}
        assert g.reachable_set(2, NON_STRICT) == {1, 2}
        assert not g.is_temporally_connected(NON_STRICT)

    def test_strictness_blocks_equal_times(self):
        g = G(3, (0, 1, 1), (1, 2, 1))
        assert g.reachable_set(0, NON_STRICT) == {0, 1, 2}
        assert g.reachable_set(0, STRICT) == {0, 1}

    def test_single_edge_connected_both_ways(self):
        g = G(2, (0, 1, 1))
        assert g.is_temporally_connected(STRICT)
        assert g.is_temporally_connected(NON_STRICT)

    def test_trivial_graphs_connected(self):
        assert G(1).is_temporally_connected()
        assert G(0).is_temporally_connected()
        assert not G(2).is_temporally_connected()

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            G(2, (0, 1, 1)).reachable_set(2)

    @settings(max_examples=150, deadline=None)
    @given(temporal_graphs(max_n=7, max_t=4))
    def test_matches_journey_enumeration(self, g):
        for semantics in (STRICT, NON_STRICT):
            for s in range(g.n):
                assert g.reachable_set(s, semantics) == journey_reach(g, s, semantics)

    @settings(max_examples=100, deadline=None)
    @given(temporal_graphs())
    def test_strict_subset_of_nonstrict(self, g):
        for s in range(g.n):
            assert g.reachable_set(s, STRICT) <= g.reachable_set(s, NON_STRICT)

    @settings(max_examples=100, deadline=None)
    @given(temporal_graphs(max_n=6, max_t=3))
    def test_waiting_closure(self, g):
        # extending the lifespan (pure waiting) never changes non-strict reach
        extended = g.with_lifespan(g.lifespan + 2)
        for s in range(g.n):
            assert g.reachable_set(s, NON_STRICT) == extended.reachable_set(s, NON_STRICT)

    def test_lifespan_one_equals_static_connectivity(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 7)
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            ]
            g = TemporalGraph.build(
                n, [TemporalEdge(u, v, 1) for u, v in pairs], lifespan=1
            )
            static_connected = len(union_find_components(n, pairs)) == 1
            assert g.is_temporally_connected(NON_STRICT) == static_connected


def random_graph(rng, n, lifespan, density):
    slots = [(u, v, t) for u in range(n) for v in range(u + 1, n) for t in range(1, lifespan + 1)]
    edges = [TemporalEdge(*slot) for slot in slots if rng.random() < density]
    return TemporalGraph.build(n, edges, lifespan=lifespan)


class TestSweepAll:
    """The reversed all-sources kernel against the forward sweep and journey enumeration."""

    @staticmethod
    def assert_agrees(g):
        for semantics in SEMANTICS:
            strict = semantics == STRICT
            layers = g._layers(semantics)
            reach = sweep_all(layers, strict, g.n)
            assert len(reach) == g.n
            for s, mask in enumerate(reach):
                assert mask == sweep(layers, strict, 1 << s)
                assert {v for v in range(g.n) if mask >> v & 1} == journey_reach(g, s, semantics)
            assert g.is_temporally_connected(semantics) == journey_connected(g, semantics)

    @pytest.mark.parametrize(
        "g",
        [
            G(0),
            G(0, lifespan=2),
            G(1),
            G(1, lifespan=3),
            G(4),
            G(5, lifespan=3),
            G(2, (0, 1, 1)),
            G(3, (0, 1, 1), (1, 2, 1)),
            G(3, (0, 1, 1), (1, 2, 2)),
            G(3, (1, 2, 1), (0, 1, 2)),
            G(4, (0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2)),
        ],
        ids=repr,
    )
    def test_small_cases(self, g):
        self.assert_agrees(g)

    @settings(max_examples=150, deadline=None)
    @given(temporal_graphs(max_n=7, max_t=4))
    def test_random_graphs(self, g):
        self.assert_agrees(g)

    @pytest.mark.parametrize("lifespan", [1, 2, 4])
    @pytest.mark.parametrize("density", [0.15, 0.5, 0.9, 1.0])
    def test_seeded_densities(self, lifespan, density):
        rng = random.Random(lifespan * 100 + int(density * 100))
        for _ in range(12):
            self.assert_agrees(random_graph(rng, rng.randint(0, 8), lifespan, density))


class TestPropertyP:
    def test_lifespan_one_is_snapshot_connectivity(self):
        assert G(2, (0, 1, 1)).check_property_p()
        assert not TemporalGraph.build(3, [TemporalEdge(0, 1, 1)], lifespan=1).check_property_p()

    def test_lifespan_two_crossing_components(self):
        # time-1 components {0,1},{2,3}; time-2 components {0,2},{1,3}: all intersect
        g = G(4, (0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2))
        assert g.check_property_p()
        assert g.is_temporally_connected(NON_STRICT)

    def test_requires_positive_lifespan(self):
        with pytest.raises(ValueError):
            G(2).check_property_p()

    def test_exhaustive_equivalence_small(self):
        from oracles import all_graphs

        for n in (1, 2, 3):
            for lifespan in (1, 2, 3):
                for g in all_graphs(n, lifespan):
                    assert g.check_property_p() == g.is_temporally_connected(NON_STRICT)


class TestAugment:
    def test_empty_augmentation_is_identity(self):
        g = G(3, (0, 1, 1))
        assert g.augment([]) == g

    def test_connects_edgeless_pair(self):
        g = G(2).augment([TemporalEdge(0, 1, 1)])
        assert g.is_temporally_connected()

    def test_rejects_overlap(self):
        g = G(2, (0, 1, 1))
        with pytest.raises(InvalidCandidateError):
            g.augment([TemporalEdge(0, 1, 1)])

    def test_lifespan_extends(self):
        g = G(2, (0, 1, 1)).augment([TemporalEdge(0, 1, 5)])
        assert g.lifespan == 5

    @settings(max_examples=80, deadline=None)
    @given(temporal_graphs(max_n=5, max_t=3), st.randoms(use_true_random=False))
    def test_reachability_monotone(self, g, rng):
        missing = [
            TemporalEdge(u, v, t)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            for t in range(1, g.lifespan + 1)
            if TemporalEdge(u, v, t) not in g.edges
        ]
        extra = [e for e in missing if rng.random() < 0.3]
        bigger = g.augment(extra)
        for semantics in (STRICT, NON_STRICT):
            for s in range(g.n):
                assert g.reachable_set(s, semantics) <= bigger.reachable_set(s, semantics)


class TestJourneys:
    def test_validation(self):
        with pytest.raises(ValueError):
            Journey(((0, 1, 1), (2, 3, 1)))  # hops do not chain
        with pytest.raises(ValueError):
            Journey(((0, 1, 2), (1, 2, 1)))  # times decrease
        with pytest.raises(ValueError):
            Journey(((0, 1, 1), (1, 2, 1)), STRICT)  # strict needs increase

    def test_empty_journey_reflexive(self):
        g = G(1)
        j = find_journey(g, 0, 0, NON_STRICT)
        assert j == Journey((), NON_STRICT)

    @pytest.mark.parametrize(
        "g, source, target, hops",
        [
            # two same-time edges into 3 from vertices reached at time 1: the
            # canonically first edge wins
            (G(4, (0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 2)), 0, 3, ((0, 1, 1), (1, 3, 2))),
            # no second hop at the same time, so 2 waits for its time-2 edge
            (G(3, (0, 1, 1), (1, 2, 1), (1, 2, 2)), 0, 2, ((0, 1, 1), (1, 2, 2))),
            # earliest arrival beats the direct but later edge
            (G(4, (0, 3, 3), (0, 1, 1), (1, 3, 2)), 0, 3, ((0, 1, 1), (1, 3, 2))),
            # edges entered from their larger endpoint; (0, 2) precedes (1, 2)
            (G(5, (0, 4, 1), (1, 4, 1), (0, 2, 2), (1, 2, 2)), 4, 2, ((4, 0, 1), (0, 2, 2))),
            # 1 reached at time 2 cannot feed the time-2 edge (1, 3); (2, 3)
            # comes later in canonical order but starts from a vertex reached earlier
            (G(4, (0, 2, 1), (0, 1, 2), (1, 3, 2), (2, 3, 2)), 0, 3, ((0, 2, 1), (2, 3, 2))),
        ],
    )
    def test_strict_tie_breaks(self, g, source, target, hops):
        assert find_journey(g, source, target, STRICT) == Journey(hops, STRICT)

    @pytest.mark.parametrize(
        "g, source, target, hops",
        [
            # the time-2 component is entered from its smallest reached vertex, 1
            (
                G(4, (1, 3, 1), (2, 3, 1), (0, 2, 2), (1, 2, 2)),
                3,
                0,
                ((3, 1, 1), (1, 2, 2), (2, 0, 2)),
            ),
            # two shortest snapshot paths: the smaller neighbour goes first
            (G(4, (0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)), 0, 3, ((0, 1, 1), (1, 3, 1))),
            # chains hops inside one time step; the later direct edge is not used
            (
                G(4, (0, 1, 1), (1, 2, 2), (2, 3, 2), (0, 3, 3)),
                0,
                3,
                ((0, 1, 1), (1, 2, 2), (2, 3, 2)),
            ),
            # a breadth-first path, not the first depth-first one
            (
                G(5, (0, 1, 1), (1, 2, 1), (2, 4, 1), (0, 3, 1), (3, 4, 1)),
                0,
                4,
                ((0, 3, 1), (3, 4, 1)),
            ),
        ],
    )
    def test_nonstrict_tie_breaks(self, g, source, target, hops):
        assert find_journey(g, source, target, NON_STRICT) == Journey(hops, NON_STRICT)

    def test_unreachable_target_has_no_journey(self):
        g = G(3, (0, 1, 2), (1, 2, 1))
        for semantics in (STRICT, NON_STRICT):
            assert find_journey(g, 0, 2, semantics) is None
            assert find_journey(g, 2, 0, semantics) == Journey(((2, 1, 1), (1, 0, 2)), semantics)

    @settings(max_examples=100, deadline=None)
    @given(temporal_graphs(max_n=6, max_t=3))
    def test_find_journey_consistent_with_reachability(self, g):
        for semantics in (STRICT, NON_STRICT):
            for s in range(g.n):
                reach = g.reachable_set(s, semantics)
                for v in range(g.n):
                    j = find_journey(g, s, v, semantics)
                    if v in reach:
                        assert j is not None
                        assert validate_journey(g, j, s)
                        assert j.semantics == semantics
                        assert (j.end if j.hops else s) == v
                    else:
                        assert j is None


class TestFormats:
    def test_parse_basic(self):
        g = parse_tg("# comment\nV 3\nE 0 1 1 2\nE 1 2 2\n")
        assert g.n == 3
        assert g.edges == {TemporalEdge(0, 1, 1), TemporalEdge(0, 1, 2), TemporalEdge(1, 2, 2)}
        assert g.lifespan == 2

    def test_parse_override(self):
        g = parse_tg("T 5\nV 2\nE 0 1 1\n")
        assert g.lifespan == 5

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_tg("V 2\nE 0 5 1\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError, match="duplicate temporal edge"):
            parse_tg("V 2\nE 0 1 1 1\n")
        with pytest.raises(ParseError, match="missing V"):
            parse_tg("# nothing\n")
        with pytest.raises(ParseError):
            parse_tg("V 2\nE 0 1 1\nT 4\n")  # T after V
        with pytest.raises(ParseError, match="^line 1: lifespan must be non-negative$"):
            parse_tg("T -1\nV 2\n")
        with pytest.raises(ParseError, match="^line 2: declared lifespan 1 is below") as exc:
            parse_tg("# horizon\nT 1\nV 2\nE 0 1 3\n")
        assert exc.value.line == 2

    @settings(max_examples=100, deadline=None)
    @given(temporal_graphs())
    def test_tg_round_trip(self, g):
        assert parse_tg(format_tg(g)) == g

    def test_candidates_round_trip(self):
        edges = (TemporalEdge(0, 1, 2), TemporalEdge(1, 2, 1))
        text = format_candidates(edges)
        assert parse_candidates(text) == (TemporalEdge(1, 2, 1), TemporalEdge(0, 1, 2))

    def test_candidates_reject_duplicates(self):
        with pytest.raises(ParseError):
            parse_candidates("E 0 1 1\nE 1 0 1\n")
