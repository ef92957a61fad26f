import dataclasses
import pickle
import random
import re
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_graphs,
    is_journey,
    journey_connected,
    journey_reach,
    union_find_components,
)
from tgaug.temporal_graph import (
    NON_STRICT,
    SEMANTICS,
    STRICT,
    InvalidCandidateError,
    ParseError,
    TemporalEdge,
    TemporalGraph,
    _components,
    _journey_tree,
    _mask_to_block,
    format_candidates,
    format_tg,
    parse_candidates,
    parse_tg,
    sweep,
    sweep_all,
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


@st.composite
def matching_graphs(draw, max_n=8, max_t=4):
    """Temporal graphs whose every snapshot is a matching."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    lifespan = draw(st.integers(min_value=1, max_value=max_t))
    edges = []
    for t in range(1, lifespan + 1):
        order = draw(st.permutations(range(n)))
        for u, v in zip(order[::2], order[1::2]):
            if draw(st.booleans()):
                edges.append(TemporalEdge(u, v, t))
    return TemporalGraph.build(n, edges, lifespan=lifespan)


class TestTemporalEdge:
    def test_normalizes_endpoints(self):
        assert TemporalEdge(2, 1, 3) == TemporalEdge(1, 2, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            TemporalEdge(1, 1, 1)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            TemporalEdge(0, 1, 0)

    @pytest.mark.parametrize("fields", [(True, 2, 1), (0, 1, True)])
    def test_rejects_bool_fields(self, fields):
        with pytest.raises(ValueError, match="^temporal edge fields must be ints"):
            TemporalEdge(*fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0, 1.0, 1), "temporal edge fields must be ints, got (0, 1.0, 1)"),
            ((0, 1, "2"), "temporal edge fields must be ints, got (0, 1, '2')"),
            ((3, 3, 1), "self-loop on vertex 3 is not allowed"),
            ((0, 1, 0), "edge time must be >= 1, got 0"),
            ((1, 0, -2), "edge time must be >= 1, got -2"),
        ],
    )
    def test_rejection_messages(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TemporalEdge(*fields)

    def test_frozen(self):
        e = TemporalEdge(0, 1, 1)
        for name in ("u", "v", "t"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, 2)
        assert e == TemporalEdge(0, 1, 1)

    def test_replace_normalizes(self):
        e = dataclasses.replace(TemporalEdge(1, 2, 3), u=5)
        assert (e.u, e.v, e.t) == (2, 5, 3)
        assert dataclasses.replace(TemporalEdge(1, 2, 3), t=4) == TemporalEdge(2, 1, 4)
        with pytest.raises(ValueError, match="^self-loop"):
            dataclasses.replace(TemporalEdge(1, 2, 3), u=2)

    def test_swapped_endpoints_hash_and_compare_equal(self):
        a, b = TemporalEdge(4, 2, 7), TemporalEdge(2, 4, 7)
        assert a == b and hash(a) == hash(b)
        assert (a.u, a.v, a.pair, a.key, str(a)) == (2, 4, (2, 4), (7, 2, 4), "{2,4}@7")
        assert len({a, b, TemporalEdge(2, 4, 6)}) == 2
        assert a != (2, 4, 7)

    def test_pickle_round_trip(self):
        edges = (TemporalEdge(3, 1, 2), TemporalEdge(0, 5, 9))
        loaded = pickle.loads(pickle.dumps(edges))
        assert loaded == edges
        assert [(e.u, e.v, e.t) for e in loaded] == [(1, 3, 2), (0, 5, 9)]
        assert hash(loaded[0]) == hash(edges[0])


class TestConstruction:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TemporalGraph.build(2, [TemporalEdge(0, 1, 1), TemporalEdge(1, 0, 1)])

    def test_duplicate_report_names_each_repeat_once(self):
        edges = [TemporalEdge(0, 1, 2), TemporalEdge(2, 1, 1), TemporalEdge(1, 0, 2)]
        edges += [TemporalEdge(1, 2, 1), TemporalEdge(0, 2, 3), TemporalEdge(0, 1, 2)]
        with pytest.raises(ValueError, match=r"^duplicate temporal edges: \{1,2\}@1, \{0,1\}@2$"):
            TemporalGraph.build(3, edges)

    def test_overlap_with_an_edge_heavy_base(self):
        # 4,950 base edges and one candidate that repeats one of them
        n = 100
        base = TemporalGraph.build(
            n, [TemporalEdge(u, v, 1 + (u + v) % 3) for u in range(n) for v in range(u + 1, n)]
        )
        with pytest.raises(InvalidCandidateError) as exc:
            base.augment([TemporalEdge(98, 97, 1), TemporalEdge(0, 1, 4)])
        assert str(exc.value) == "duplicate temporal edges: {97,98}@1"

    @pytest.mark.parametrize(
        "n, triples, message",
        [
            (-1, (), "vertex count must be non-negative"),
            (3, ((0, 3, 1),), "edge {0,3}@1 has endpoints outside 0..2"),
            (3, ((-1, 1, 1), (0, 1, 1)), "edge {-1,1}@1 has endpoints outside 0..2"),
            (0, ((0, 1, 1),), "edge {0,1}@1 has endpoints outside 0..-1"),
        ],
    )
    def test_constructor_messages(self, n, triples, message):
        edges = frozenset(TemporalEdge(u, v, t) for u, v, t in triples)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TemporalGraph(n, edges)

    def test_lifespan_default_and_override(self):
        g = G(2, (0, 1, 3))
        assert g.lifespan == 3
        assert G(2, lifespan=5).lifespan == 5
        with pytest.raises(ValueError):
            G(2, (0, 1, 3), lifespan=2)

    def test_edgeless_lifespan_zero(self):
        assert G(3).lifespan == 0

    @pytest.mark.parametrize("triples", [(), ((0, 1, 2),), ((0, 1, 2), (1, 2, 4), (0, 2, 1))])
    def test_constructor_defaults_like_build(self, triples):
        edges = [TemporalEdge(u, v, t) for u, v, t in triples]
        g = TemporalGraph(3, frozenset(edges))
        assert g == TemporalGraph.build(3, edges)
        assert g.lifespan == max((t for _, _, t in triples), default=0)


class TestSnapshot:
    def test_filters_by_time(self):
        g = G(3, (0, 1, 1), (1, 2, 2))
        assert g.snapshot_components(1).blocks == ((0, 1), (2,))
        assert g.snapshot_components(2).blocks == ((0,), (1, 2))

    def test_empty_graph(self):
        assert G(4, lifespan=2).snapshot_components(2).blocks == ((0,), (1,), (2,), (3,))

    def test_time_out_of_range(self):
        g = G(2, (0, 1, 1))
        with pytest.raises(ValueError, match=r"^time 2 out of range 1\.\.1$"):
            g.snapshot_components(2)
        with pytest.raises(ValueError, match=r"^time 0 out of range 1\.\.1$"):
            g.snapshot_components(0)

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
            g = TemporalGraph.build(n, [TemporalEdge(u, v, 1) for u, v in pairs], lifespan=1)
            blocks = tuple(union_find_components(n, pairs))
            assert g.snapshot_components(1).blocks == blocks
            # the kernel on its own, fed repeats, reversed pairs and another order
            repeated = pairs + [(v, u) for u, v in pairs if rng.random() < 0.5] + pairs[::2]
            rng.shuffle(repeated)
            assert tuple(map(_mask_to_block, _components(n, repeated))) == blocks


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

    def test_lifespan_two_crossing_components(self):
        # time-1 components {0,1},{2,3}; time-2 components {0,2},{1,3}: all intersect,
        # and each pair is one edge apart or a time-1 edge then a time-2 edge apart, so strict too
        g = G(4, (0, 1, 1), (2, 3, 1), (0, 2, 2), (1, 3, 2))
        assert g.is_temporally_connected(NON_STRICT)
        assert g.is_temporally_connected(STRICT)

    def test_exhaustive_small_graphs(self):
        for n in (1, 2, 3):
            for lifespan in (1, 2, 3):
                for g in all_graphs(n, lifespan):
                    for semantics in SEMANTICS:
                        assert g.is_temporally_connected(semantics) == journey_connected(g, semantics)

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
        extended = TemporalGraph(g.n, g.edges, g.lifespan + 2)
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
            layers = g._layers(semantics)
            reach = sweep_all(layers, g.n)
            assert len(reach) == g.n
            for s, mask in enumerate(reach):
                assert mask == sweep(layers, 1 << s)
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

    @pytest.mark.parametrize(
        "layers, expected",
        [
            # two edges at one time share vertex 1: a strict journey takes one of them
            (((0b011, 0b110),), [0b011, 0b111, 0b110]),
            # a three-vertex component, then an edge leaving it
            (((0b0111,), (0b1100,)), [0b1111, 0b1111, 0b1111, 0b1100]),
            # an edge, then a three-vertex component it meets
            (((0b0011,), (0b1110,)), [0b1111, 0b1111, 0b1110, 0b1110]),
            # two three-vertex masks at one time share vertex 2, which gains both
            (((0b00111, 0b11100),), [0b00111, 0b00111, 0b11111, 0b11100, 0b11100]),
            # an empty layer between two edges
            (((0b011,), (), (0b110,)), [0b111, 0b111, 0b110]),
            # singletons beside a two-vertex mask
            (
                ((0b0001, 0b0110, 0b1000), (0b0011, 0b0100, 0b1000)),
                [0b0011, 0b0111, 0b0111, 0b1000],
            ),
        ],
        ids=[
            "edges-share-a-vertex",
            "component-then-edge",
            "edge-then-component",
            "masks-share-a-vertex",
            "empty-layer",
            "singletons-beside-edge",
        ],
    )
    def test_hand_built_layers(self, layers, expected):
        """Both kernels on literal mask layers, pinning the two-vertex step and the general one."""
        n = len(expected)
        reach = sweep_all(layers, n)
        for s in range(n):
            assert reach[s] == sweep(layers, 1 << s) == expected[s]

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


class TestAugment:
    def test_empty_augmentation_is_identity(self):
        g = G(3, (0, 1, 1))
        assert g.augment([]) == g

    def test_connects_edgeless_pair(self):
        g = G(2).augment([TemporalEdge(0, 1, 1)])
        assert g.is_temporally_connected()

    def test_rejects_overlap(self):
        g = G(2, (0, 1, 1))
        with pytest.raises(InvalidCandidateError, match=re.escape("{0,1}@1")):
            g.augment([TemporalEdge(0, 1, 1)])

    @pytest.mark.parametrize(
        "extra, named",
        [
            ([(1, 2, 2), (2, 1, 2)], "{1,2}@2"),  # repeated in the added set
            ([(1, 2, 1), (1, 3, 1)], "{1,3}@1"),  # endpoint outside 0..2
        ],
    )
    def test_rejects_bad_added_edges_by_name(self, extra, named):
        with pytest.raises(InvalidCandidateError, match=re.escape(named)):
            G(3, (0, 1, 1)).augment(TemporalEdge(u, v, t) for u, v, t in extra)

    def test_lifespan_extends(self):
        g = G(2, (0, 1, 1)).augment([TemporalEdge(0, 1, 5)])
        assert g.lifespan == 5

    @settings(max_examples=120, deadline=None)
    @given(temporal_graphs(max_n=6, max_t=3), st.randoms(use_true_random=False))
    def test_carried_components_match_a_fresh_graph(self, g, rng):
        # extras at the base's times, at times it does not use, and past its lifespan
        times = range(1, g.lifespan + 3)
        extra = [
            TemporalEdge(u, v, t)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            for t in times
            if TemporalEdge(u, v, t) not in g.edges and rng.random() < 0.2
        ]
        for t in times:
            g._component_masks(t)
        warm = dict(g._comp_cache)
        bigger = g.augment(extra)
        touched = {e.t for e in extra}
        assert bigger._comp_cache == {t: m for t, m in warm.items() if t not in touched}
        fresh = TemporalGraph(g.n, g.edges | frozenset(extra), bigger.lifespan)
        for t in range(1, bigger.lifespan + 3):
            assert bigger._component_masks(t) == fresh._component_masks(t)
        assert g._comp_cache == warm
        assert bigger == fresh

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
        g = G(4, (0, 1, 1), (0, 1, 2), (1, 2, 1), (2, 3, 1))
        assert not is_journey(g, ((0, 1, 1), (2, 3, 1)), NON_STRICT, 0, 3)  # hops do not chain
        assert not is_journey(g, ((0, 1, 2), (1, 2, 1)), NON_STRICT, 0, 2)  # times decrease
        assert not is_journey(g, ((0, 1, 1), (1, 2, 1)), STRICT, 0, 2)  # strict needs increase
        assert is_journey(g, ((0, 1, 1), (1, 2, 1)), NON_STRICT, 0, 2)

    def test_empty_journey_reflexive(self):
        for semantics in SEMANTICS:
            assert _journey_tree(G(1), 0, semantics) == {0: ()}

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
        assert _journey_tree(g, source, STRICT)[target] == hops

    @pytest.mark.parametrize(
        "g, source, target, hops",
        [
            # the first edge in (u, v) order that meets a reached vertex wins:
            # (0, 2) precedes (1, 2) at time 2 and 2 is reached, so 0 comes from 2
            (G(4, (1, 3, 1), (2, 3, 1), (0, 2, 2), (1, 2, 2)), 3, 0, ((3, 2, 1), (2, 0, 2))),
            # two shortest snapshot paths: the smaller neighbour goes first
            (G(4, (0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)), 0, 3, ((0, 1, 1), (1, 3, 1))),
            # chains hops inside one time step; the later direct edge is not used
            (
                G(4, (0, 1, 1), (1, 2, 2), (2, 3, 2), (0, 3, 3)),
                0,
                3,
                ((0, 1, 1), (1, 2, 2), (2, 3, 2)),
            ),
            # one pass in (u, v) order reaches 1, 3, 2 and then 4 through (2, 4),
            # before (3, 4): the first edge that reaches a vertex wins, not the shortest path
            (
                G(5, (0, 1, 1), (1, 2, 1), (2, 4, 1), (0, 3, 1), (3, 4, 1)),
                0,
                4,
                ((0, 1, 1), (1, 2, 1), (2, 4, 1)),
            ),
        ],
    )
    def test_nonstrict_tie_breaks(self, g, source, target, hops):
        assert _journey_tree(g, source, NON_STRICT)[target] == hops

    def test_unreachable_target_has_no_journey(self):
        g = G(3, (0, 1, 2), (1, 2, 1))
        for semantics in (STRICT, NON_STRICT):
            assert 2 not in _journey_tree(g, 0, semantics)
            assert _journey_tree(g, 2, semantics)[0] == ((2, 1, 1), (1, 0, 2))

    @settings(max_examples=100, deadline=None)
    @given(temporal_graphs(max_n=6, max_t=4))
    def test_journeys_are_foremost(self, g):
        for semantics in SEMANTICS:
            for s in range(g.n):
                # arrival[v]: the least t at which the edges at times <= t take s to v
                arrival = {s: 0}
                for t in range(1, g.lifespan + 1):
                    prefix = TemporalGraph(g.n, frozenset(e for e in g.edges if e.t <= t), t)
                    for v in journey_reach(prefix, s, semantics):
                        arrival.setdefault(v, t)
                tree = _journey_tree(g, s, semantics)
                assert tree.keys() == arrival.keys()
                for v, hops in tree.items():
                    assert (hops[-1][2] if hops else 0) == arrival[v]

    @settings(max_examples=100, deadline=None)
    @given(temporal_graphs(max_n=6, max_t=3))
    def test_journey_tree_consistent_with_reachability(self, g):
        for semantics in (STRICT, NON_STRICT):
            for s in range(g.n):
                tree = _journey_tree(g, s, semantics)
                assert tree.keys() == g.reachable_set(s, semantics)
                for v, hops in tree.items():
                    assert is_journey(g, hops, semantics, s, v)

    @settings(max_examples=100, deadline=None)
    @given(matching_graphs())
    def test_semantics_agree_on_matchings(self, g):
        # a vertex meets at most one edge per time, so a non-strict journey
        # takes one hop per time too
        for s in range(g.n):
            assert _journey_tree(g, s, STRICT) == _journey_tree(g, s, NON_STRICT)


def record_text(rng, head, records):
    """``head`` lines, then an ``E`` line per record, with comments and blank lines mixed in.

    Returns the text, its line ending picked at random, and each record's line number.
    """
    lines = list(head)
    at = []
    for fields in records:
        while rng.random() < 0.3:
            lines.append(rng.choice(["", "# E 0 0 0", " \t ", "#", "  # V 9"]))
        at.append(len(lines) + 1)
        trailer = rng.choice(["", "", " # E 1 1 1", "#x", "\t"])
        lines.append(" ".join(map(str, ["E", *fields])) + trailer)
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + end, at


# ways to spoil one record of a valid text; a .cand file has no vertex count to be out of
CORRUPTIONS = [
    "integer", "negative endpoint", "negative time", "range", "time 0", "self-loop", "repeat"
]


class TestFormats:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32), st.booleans())
    def test_random_texts_read_back_and_name_a_corrupt_record(self, n, seed, candidates):
        rng = random.Random(seed)
        triples = sorted({(*sorted(rng.sample(range(n), 2)), rng.randint(1, 4)) for _ in range(8)})
        if candidates:
            records = [list(triple) for triple in triples]
        else:  # the times of one pair, split over several multi-time records
            times_of = defaultdict(list)
            for u, v, t in triples:
                times_of[u, v].append(t)
            records = []
            for (u, v), times in times_of.items():
                rng.shuffle(times)
                while times:
                    cut = rng.randint(1, len(times))
                    records.append([u, v, *times[:cut]])
                    times = times[cut:]
        records = [[v, u, *ts] if rng.random() < 0.5 else [u, v, *ts] for u, v, *ts in records]
        rng.shuffle(records)
        head = [] if candidates else rng.choice([[f"V {n}"], ["# graph", f"V {n} # count"]])
        read = parse_candidates if candidates else lambda text: parse_tg(text).edges
        text, _ = record_text(rng, head, records)
        assert sorted((e.u, e.v, e.t) for e in read(text)) == triples

        kind = rng.choice([c for c in CORRUPTIONS if not (candidates and c == "range")])
        k = rng.randrange(len(records))
        fields = records[k]  # spoiled in place
        i = rng.randrange(2, len(fields))  # a time of the record
        if kind == "integer":
            fields[rng.randrange(len(fields))] = rng.choice(["x", "1.5", "1e3", "--1", "0x1"])
            message = "expected integer endpoint or time"
        elif kind in ("negative endpoint", "range"):
            low = kind == "negative endpoint"
            fields[rng.randrange(2)] = -rng.randint(1, 3) if low else n + rng.randint(0, 2)
            message = f"endpoint out of range 0..{n - 1}"
            if candidates:
                message = "endpoint must be non-negative"
        elif kind in ("negative time", "time 0"):
            fields[i] = 0 if kind == "time 0" else -rng.randint(1, 3)
            message = "time steps must be >= 1"
        elif kind == "self-loop":
            fields[1] = fields[0]
            message = "self-loops are not allowed"
        else:  # the edge of one time of the record, endpoints swapped, on the next record
            u, v, t = fields[1], fields[0], fields[i]
            k += 1
            records.insert(k, [u, v, t])
            what = "candidate" if candidates else "temporal edge"
            message = f"duplicate {what} {TemporalEdge(u, v, t)}"
        text, at = record_text(rng, head, records)
        with pytest.raises(ParseError) as exc:
            read(text)
        assert (str(exc.value), exc.value.line) == (f"line {at[k]}: {message}", at[k])

    def test_parse_basic(self):
        g = parse_tg("# comment\nV 3\nE 0 1 1 2\nE 1 2 2\n")
        assert g.n == 3
        assert g.edges == {TemporalEdge(0, 1, 1), TemporalEdge(0, 1, 2), TemporalEdge(1, 2, 2)}
        assert g.lifespan == 2

    def test_parse_override(self):
        g = parse_tg("T 5\nV 2\nE 0 1 1\n")
        assert g.lifespan == 5

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("V x\n", "expected integer vertex count", 1),
            ("V 2\nE 0 x 1\n", "expected integer endpoint or time", 2),
            ("V 2\nE 0 1 a\n", "expected integer endpoint or time", 2),
            ("V 2\nE 0 5 1\n", "endpoint out of range 0..1", 2),
            ("V 2\nE -1 1 1\n", "endpoint out of range 0..1", 2),
            ("V 2\nE 1 1 1\n", "self-loops are not allowed", 2),
            ("V 2\nE 0 1 0\n", "time steps must be >= 1", 2),
            ("V 2\nE 0 1 2 -3\n", "time steps must be >= 1", 2),
            ("V 2\nE 0 1 1 1\n", "duplicate temporal edge {0,1}@1", 2),
            ("V 3\nE 0 1 2\n# c\nE 1 0 2 # again\n", "duplicate temporal edge {0,1}@2", 4),
            ("E 0 1 1\nV 2\n", "edge record before V", 1),
            ("V 2\nE 0 1\n", "edge record needs two endpoints and at least one time", 2),
            ("V 2\nX 1\n", "unknown record type 'X'", 2),
            ("V 2\nV 3\n", "duplicate V record", 2),
            ("T 2\nT 3\nV 2\n", "duplicate T record", 2),
            ("V 2\nT 4\n", "T record must precede V", 2),
            ("V 2 3\n", "V record takes exactly one value", 1),
            ("V -1\n", "vertex count must be non-negative", 1),
            ("T 1\nV 2\nE 0 1 3\n", "declared lifespan 1 is below the maximum edge time 3", 1),
        ],
    )
    def test_parse_tg_error_messages(self, text, message, line):
        with pytest.raises(ParseError) as exc:
            parse_tg(text)
        assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("E 0 1\n", "expected 'E <u> <v> <t>'", 1),
            ("E 0 1 1 2\n", "expected 'E <u> <v> <t>'", 1),
            ("# x\nF 0 1 1\n", "expected 'E <u> <v> <t>'", 2),
            ("E 0 1 x\n", "expected integer endpoint or time", 1),
            ("E 1 1 1\n", "self-loops are not allowed", 1),
            ("E 0 1 0\n", "time steps must be >= 1", 1),
            ("E 0 1 2\nE 1 0 2\n", "duplicate candidate {0,1}@2", 2),
            ("E -1 2 1\n", "endpoint must be non-negative", 1),
            ("E 0 1 1\nE 2 -3 1\n", "endpoint must be non-negative", 2),
        ],
    )
    def test_parse_candidates_error_messages(self, text, message, line):
        with pytest.raises(ParseError) as exc:
            parse_candidates(text)
        assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)

    def test_missing_v_has_no_line(self):
        with pytest.raises(ParseError) as exc:
            parse_tg("# x\n\n")
        assert (str(exc.value), exc.value.line) == ("missing V record", None)

    def test_comments_and_blank_lines(self):
        g = parse_tg("#V 9\n\n  V 3 # three\nE 0 1 1#x\n\t\nE 1 2 2 3 #\n")
        assert g == G(3, (0, 1, 1), (1, 2, 2), (1, 2, 3))
        assert parse_candidates("# c\nE 1 0 2 # late\n\n") == (TemporalEdge(0, 1, 2),)
        crlf = parse_tg("V 3\r\nE 0 1 1 2 # two times\r\nE 1 2 2\r\n")
        assert crlf == G(3, (0, 1, 1), (0, 1, 2), (1, 2, 2))

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
