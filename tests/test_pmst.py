"""Feasibility, the augmentation optimum formula, the staged greedy, and
the two-valued minimum tree-with-matching solver."""

from __future__ import annotations

import hashlib
import random

import pytest

from helpers import (
    graph_from_mask,
    pairs_of,
    reference_build_tree_containing_matching,
    reference_greedy_augment,
)
from treematch import (
    DeficiencyProfile,
    DisconnectedError,
    HostKind,
    HostMismatchError,
    Infeasible,
    InternalError,
    Matching,
    MINUS,
    OddDeficiencyError,
    OddVertexCountError,
    PLUS,
    UnbalancedError,
    WeightOrderError,
    WeightedGraph,
    as_bipartitioned_tree,
    augmentation_optimum,
    build_tree_containing_matching,
    connected_components,
    deficiency,
    deficiency_profile,
    greedy_augment,
    is_connected,
    maximum_matching,
    min_pmst_two_valued,
    pmst_feasible,
    tree_perfect_matching,
)
from treematch import pmst
from treematch.generate import complete, complete_bipartite
from treematch.oracle import brute_force_min_pmst, brute_force_opt_aug


class TestHostKind:
    def test_complete(self):
        h = HostKind.complete(4)
        assert not h.is_bipartite
        assert h.admits_edge(0, 3) and not h.admits_edge(2, 2)

    def test_side_tuple(self):
        h = HostKind.complete(4)
        assert h.side is None
        with pytest.raises(HostMismatchError, match="no sides"):
            h.side_of(0)
        h = HostKind.complete_bipartite([0, 3], [2, 1])
        assert (h.n, h.side) == (4, (PLUS, MINUS, MINUS, PLUS))
        assert type(h.side) is tuple
        assert not h.admits_edge(1, 2) and h.admits_edge(2, 3)
        for v in (-1, 4):
            with pytest.raises(HostMismatchError, match="neither side"):
                h.side_of(v)

    def test_bipartite_sides(self):
        h = HostKind.complete_bipartite([0, 1], [2, 3])
        assert h.is_bipartite
        assert h.side_of(1) == 0 and h.side_of(3) == 1
        assert h.admits_edge(0, 2) and not h.admits_edge(0, 1)

    def test_unbalanced_sides_rejected(self):
        with pytest.raises(UnbalancedError):
            HostKind.complete_bipartite([0], [1, 2])

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError):
            HostKind.complete_bipartite([0, 1], [1, 2])

    @pytest.mark.parametrize("plus, minus", [([0, 1], [2, 5]), ([1, 2], [3, 4]), ([0], [-1])])
    def test_sides_must_cover_the_vertices(self, plus, minus):
        with pytest.raises(HostMismatchError, match="do not cover the vertex set"):
            HostKind.complete_bipartite(plus, minus)

    def test_validate_graph(self):
        h = HostKind.complete_bipartite([0, 1], [2, 3])
        h.validate_graph(WeightedGraph(4, [(0, 2, 1)]))
        with pytest.raises(HostMismatchError):
            h.validate_graph(WeightedGraph(4, [(0, 1, 1)]))
        with pytest.raises(HostMismatchError):
            h.validate_graph(WeightedGraph(5))


class TestPmstFeasible:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        found = pmst_feasible(g)
        assert found.tree == frozenset([0])
        assert found.matching.edges == frozenset([0])

    def test_triangle_infeasible_odd(self):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(Infeasible, match="no perfect matching"):
            pmst_feasible(g)

    def test_disconnected_infeasible(self):
        with pytest.raises(Infeasible, match="disconnected"):
            pmst_feasible(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))

    def test_k4_tree_contains_matching(self):
        g = complete(4)
        found = pmst_feasible(g)
        assert len(found.tree) == 3
        t = as_bipartitioned_tree(g, found.tree)
        assert tree_perfect_matching(t).edges == found.matching.edges

    def test_disconnected_without_perfect_matching_is_disconnected(self):
        # A star K_{1,3} beside an edge: neither connected nor matchable.
        g = WeightedGraph(6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 5, 1)])
        with pytest.raises(Infeasible, match="disconnected"):
            pmst_feasible(g)

    def test_star_with_even_order_infeasible(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        with pytest.raises(Infeasible, match="no perfect matching"):
            pmst_feasible(g)


class TestBuildTree:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        m = Matching.from_edges(g, [0])
        assert build_tree_containing_matching(g, m) == frozenset([0])

    def test_c4_lowest_index_connector(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        m = Matching.from_edges(g, [0, 2])
        assert build_tree_containing_matching(g, m) == frozenset([0, 1, 2])

    def test_k4_prefers_light_connector(self):
        g = WeightedGraph(
            4,
            [(0, 1, 0), (2, 3, 0), (1, 2, 0), (0, 2, 1), (0, 3, 1), (1, 3, 1)],
        )
        m = Matching.from_edges(g, [0, 1])
        tree = build_tree_containing_matching(g, m)
        assert tree == frozenset([0, 1, 2])
        assert g.total_weight(tree) == 0

    def test_matching_of_other_graph_rejected(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        h = WeightedGraph(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="different graph"):
            build_tree_containing_matching(g, Matching.from_edges(h, [0]))

    def test_imperfect_matching_rejected(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        with pytest.raises(ValueError, match="not perfect"):
            build_tree_containing_matching(g, Matching.from_edges(g, [0]))

    @pytest.mark.parametrize("weights", [(1, 2), tuple(range(1, 10))], ids=["1-2", "1-9"])
    def test_same_tree_as_reference(self, weights):
        # A planted perfect matching plus random edges, shuffled so that
        # the matching sits at any indices; few weights make ties decide.
        # About one graph in five is left disconnected.
        rng = random.Random(f"tree-completion:{len(weights)}")
        disconnected = 0
        for _ in range(500):
            n = 2 * rng.randint(1, 15)
            perm = rng.sample(range(n), n)
            pairs = {(min(a, b), max(a, b)) for a, b in zip(perm[0::2], perm[1::2])}
            matched = set(pairs)
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.sample(range(n), 2)
                pairs.add((min(u, v), max(u, v)))
            pairs = list(pairs)
            rng.shuffle(pairs)
            g = WeightedGraph(n, [(u, v, rng.choice(weights)) for u, v in pairs])
            m = Matching.from_edges(g, [i for i, p in enumerate(pairs) if p in matched])
            try:
                want = reference_build_tree_containing_matching(g, m)
            except DisconnectedError:
                disconnected += 1
                with pytest.raises(DisconnectedError, match="graph is not connected"):
                    build_tree_containing_matching(g, m)
                continue
            assert build_tree_containing_matching(g, m) == want
        assert 10 <= disconnected <= 250


def profile(*per_component):
    return DeficiencyProfile(tuple(per_component))


class TestAugmentationOptimum:
    def test_zero_deficiency_counts_connectors(self):
        assert augmentation_optimum(profile(0, 0, 0)) == 2

    def test_one_deficient_component_with_two_matched(self):
        # half-def 1 is not below the deficient count 1: 1 + 2 matched
        assert augmentation_optimum(profile(2, 0, 0)) == 3

    def test_many_weakly_deficient_components(self):
        # half-def 2 < 4 deficient components: connectors win, c - 1
        assert augmentation_optimum(profile(1, 1, 1, 1)) == 3

    def test_two_deficiency_one_components(self):
        assert augmentation_optimum(profile(1, 1)) == 1

    def test_single_perfect_component(self):
        assert augmentation_optimum(profile(0)) == 0

    def test_odd_total_rejected(self):
        with pytest.raises(OddDeficiencyError):
            augmentation_optimum(profile(1))

    def test_matches_brute_force_formula_by_cases(self):
        # spot grid over profiles: d/2 >= c+ uses d/2 + c0, else c - 1
        for defs in [(0,), (2,), (4,), (1, 1), (2, 2), (1, 1, 2), (0, 2), (0, 1, 1)]:
            p = profile(*defs)
            d = sum(defs)
            cplus = sum(1 for x in defs if x)
            czero = len(defs) - cplus
            want = len(defs) - 1 if (d == 0 or d // 2 < cplus) else d // 2 + czero
            assert augmentation_optimum(p) == want


class TestGreedyAugmentComplete:
    def test_already_feasible_adds_nothing(self):
        g = complete(4)
        res = greedy_augment(g, HostKind.complete(4))
        assert res.added_edges == ()
        assert res.matching.is_perfect

    def test_four_isolated_vertices(self):
        g = WeightedGraph(4)
        res = greedy_augment(g, HostKind.complete(4))
        assert len(res.added_edges) == 3
        assert is_connected(res.graph)
        assert deficiency(res.graph) == 0

    def test_two_disjoint_edges_one_connector(self):
        g = WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
        res = greedy_augment(g, HostKind.complete(4))
        assert res.added_edges == ((0, 2),)

    def test_empty_graph_deterministic_edges(self):
        res = greedy_augment(WeightedGraph(6), HostKind.complete(6))
        # smallest-vertex component order pairs them up, then connects
        assert res.added_edges == ((0, 1), (2, 3), (4, 5), (0, 2), (0, 4))

    def test_odd_vertex_count_rejected(self):
        with pytest.raises(OddVertexCountError):
            greedy_augment(WeightedGraph(3), HostKind.complete(3))

    def test_host_size_mismatch_rejected(self):
        with pytest.raises(HostMismatchError):
            greedy_augment(WeightedGraph(4), HostKind.complete(6))

    def test_rejected_addition_is_an_internal_error(self, monkeypatch):
        # A "maximum" matching that misses h's only edge makes stage 3 add
        # that edge again; the fault must not read as a bad-input error.
        monkeypatch.setattr(pmst, "maximum_matching", lambda g: Matching.from_edges(g, []))
        with pytest.raises(InternalError, match="parallel edge"):
            greedy_augment(WeightedGraph(2, [(0, 1, 1)]), HostKind.complete(2))

    def test_added_edges_are_new_and_count_matches_formula(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.choice([4, 6])
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            res = greedy_augment(g, HostKind.complete(n))
            for u, v in res.added_edges:
                assert not g.has_edge(u, v)
            assert len(res.added_edges) == augmentation_optimum(deficiency_profile(g))
            assert is_connected(res.graph) and deficiency(res.graph) == 0
            assert res.matching.is_perfect

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.choice([4, 6])
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            res = greedy_augment(g, HostKind.complete(n))
            assert len(res.added_edges) == brute_force_opt_aug(g, HostKind.complete(n))


class TestGreedyAugmentBipartite:
    def host(self, a):
        return HostKind.complete_bipartite(range(a), range(a, 2 * a))

    def test_empty_k22_subgraph(self):
        res = greedy_augment(WeightedGraph(4), self.host(2))
        assert res.added_edges == ((0, 2), (1, 3), (0, 3))

    def test_added_edges_cross_sides(self):
        rng = random.Random(41)
        host = self.host(3)
        cross = [(u, v) for u in range(3) for v in range(3, 6)]
        for _ in range(150):
            g = WeightedGraph(
                6, [(u, v, 1) for (u, v) in cross if rng.random() < 0.4]
            )
            res = greedy_augment(g, host)
            for u, v in res.added_edges:
                assert host.side_of(u) != host.side_of(v)
                assert not g.has_edge(u, v)
            assert len(res.added_edges) == augmentation_optimum(deficiency_profile(g))
            assert is_connected(res.graph) and deficiency(res.graph) == 0

    def test_matches_brute_force_on_k33_subgraphs(self):
        rng = random.Random(43)
        host = self.host(3)
        cross = [(u, v) for u in range(3) for v in range(3, 6)]
        for _ in range(40):
            g = WeightedGraph(6, [(u, v, 1) for (u, v) in cross if rng.random() < 0.5])
            res = greedy_augment(g, host)
            assert len(res.added_edges) == brute_force_opt_aug(g, host)

    def test_graph_crossing_host_sides_required(self):
        host = self.host(2)
        with pytest.raises(HostMismatchError):
            greedy_augment(WeightedGraph(4, [(0, 1, 1)]), host)


def augment_instance(seed, n, avg_degree, kind):
    """Seeded light graph and host for the pinned greedy outputs.

    ``kind`` is "complete", "bipartite" (sides range(n/2), range(n/2, n))
    or "permuted" (a random balanced split of the vertices)."""
    rng = random.Random(seed)
    if kind == "complete":
        host = HostKind.complete(n)
        pairs = pairs_of(n)
        p = avg_degree / (n - 1)
    else:
        order = list(range(n))
        if kind == "permuted":
            rng.shuffle(order)
        plus, minus = sorted(order[: n // 2]), sorted(order[n // 2 :])
        host = HostKind.complete_bipartite(plus, minus)
        pairs = sorted((min(u, v), max(u, v)) for u in plus for v in minus)
        p = avg_degree / (n // 2)
    return WeightedGraph(n, [(u, v, 1) for u, v in pairs if rng.random() < p]), host


# augment_instance(*key) -> greedy_augment's added_edges, captured before
# the stage loops were rewritten; the order is part of the output.
PINNED_ADDED_EDGES = {
    (1, 10, 0, "complete"): [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (0, 2), (0, 4), (0, 6), (0, 8)],
    (2, 20, 1.0, "complete"): [(0, 4), (2, 12), (5, 18), (17, 19), (0, 5), (0, 17)],
    (3, 40, 1.5, "complete"): [
        (11, 26), (1, 29), (10, 38), (15, 18), (19, 24), (30, 32), (34, 37),
        (0, 9), (0, 15), (0, 19), (0, 30), (0, 34),
    ],
    (4, 60, 2.0, "complete"): [
        (0, 28), (20, 31), (25, 34), (27, 40), (36, 44), (47, 49), (50, 51),
        (0, 11), (0, 15), (0, 26), (0, 50),
    ],
    (5, 12, 0, "bipartite"): [
        (0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (0, 7), (0, 8), (0, 9), (0, 10), (0, 11),
    ],
    (6, 30, 1.0, "bipartite"): [
        (1, 18), (13, 23), (14, 17), (3, 21), (5, 24), (7, 25), (10, 28),
        (0, 15), (0, 29), (0, 21), (0, 24), (0, 25), (0, 28), (0, 26),
    ],
    (7, 40, 1.5, "permuted"): [
        (0, 25), (4, 28), (8, 33), (6, 18), (7, 19), (13, 21), (16, 24), (17, 35),
        (0, 6), (0, 7), (0, 13), (0, 16), (0, 17), (0, 26),
    ],
    (8, 60, 2.0, "permuted"): [
        (5, 9), (12, 58), (4, 15), (47, 53), (20, 24), (27, 32), (33, 57), (38, 59),
        (0, 1), (0, 15), (0, 5), (0, 17), (0, 24), (0, 25), (0, 32), (0, 57), (0, 36), (0, 59), (0, 44),
    ],
    (9, 16, 0, "permuted"): [
        (0, 1), (2, 3), (4, 6), (5, 7), (8, 9), (10, 11), (12, 13), (14, 15),
        (0, 3), (0, 6), (0, 7), (0, 8), (0, 10), (0, 12), (0, 15),
    ],
}


# augment_instance(*key) at bench scale -> sha256 of repr(list(added_edges))
# and of repr(res.graph.edge_pairs(res.matching.edges)), captured before the
# greedy counted deficiencies instead of summing its exposed heaps.
PINNED_SCALE_DIGESTS = {
    (11, 1000, 1.0, "complete"): (
        "dc700cf8b83274a95cd59d2c93d696f7640642cd6397a1ec69fa27cd64c31b58",
        "59b8340b7e84619c2eedcff8476a4277da5eaf871630c18ec3650b83dc22acf7",
    ),
    (12, 1000, 1.0, "bipartite"): (
        "ffa569fa88b9f1288c660ec1ff5fe90926c3a3f2d0f55379485644fc0695b3be",
        "8167c54d57c7e4c05721bd14fe923d61d4b631ce31a35f5c7fa1d7cbcc08aa52",
    ),
    (13, 1000, 1.0, "permuted"): (
        "0684320c18ea2cbf1b055e254219072c1e359bb776fb463402714c481e409b50",
        "e37cf3e8d7e6a885fc1ef17e1d2ef892abe653c90004f4a447d0842a84346518",
    ),
    (14, 2000, 1.5, "complete"): (
        "a96923bb963c9596efca00d65abdbb955c3c414cde43b8c6a9f43b0a2376ae58",
        "96d2524d145d67f3fa795943bc8d42d5c3117a42bb987391d8ac75a892a7382e",
    ),
}


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestGreedyAugmentPinned:
    """Which optimal augmentation comes out is part of the observable output."""

    @pytest.mark.parametrize("key", sorted(PINNED_SCALE_DIGESTS))
    def test_bench_scale_digests(self, key):
        g, host = augment_instance(*key)
        res = greedy_augment(g, host)
        matched = res.graph.edge_pairs(res.matching.edges)
        assert (_sha256(list(res.added_edges)), _sha256(matched)) == PINNED_SCALE_DIGESTS[key]

    @pytest.mark.parametrize("key", sorted(PINNED_ADDED_EDGES))
    def test_exact_added_edges(self, key):
        g, host = augment_instance(*key)
        res = greedy_augment(g, host)
        assert list(res.added_edges) == PINNED_ADDED_EDGES[key]
        assert res.added_count == augmentation_optimum(deficiency_profile(g))
        assert sum(res.stage_added) == res.added_count

    def test_stars_all_four_stages(self):
        # deficiencies (4, 2, 0): stage 1 joins the stars, stage 2 finds no
        # deficiency-one component, stage 3 pairs inside the merged star,
        # stage 4 attaches the matched edge
        g = WeightedGraph(
            12,
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1),
             (6, 7, 1), (6, 8, 1), (6, 9, 1), (10, 11, 1)],
        )
        res = greedy_augment(g, HostKind.complete(12))
        assert res.added_edges == ((2, 8), (3, 4), (5, 9), (0, 10))
        assert res.stage_added == (1, 0, 2, 1)
        assert res.graph.edge_pairs(res.matching.edges) == [
            (0, 1), (2, 8), (3, 4), (5, 9), (6, 7), (10, 11)
        ]

    def test_bipartite_stage_three(self):
        # one deficient component with two exposed vertices per side
        g = WeightedGraph(
            12,
            [(0, 6, 1), (0, 7, 1), (0, 8, 1), (1, 9, 1), (2, 9, 1), (3, 9, 1),
             (0, 9, 1), (4, 10, 1), (5, 11, 1)],
        )
        res = greedy_augment(g, HostKind.complete_bipartite(range(6), range(6, 12)))
        assert res.added_edges == ((2, 7), (3, 8), (0, 10), (0, 11))
        assert res.stage_added == (0, 0, 2, 2)
        assert res.graph.edge_pairs(res.matching.edges) == [
            (0, 6), (1, 9), (2, 7), (3, 8), (4, 10), (5, 11)
        ]

    def test_bipartite_deficient_component_without_partner_side(self):
        # the deficiency-3 component has only minus-side exposure, so the
        # first stage-1 join starts from the isolated plus vertex 2
        g = WeightedGraph(12, [(0, 6, 1), (0, 7, 1), (0, 8, 1), (1, 6, 1), (1, 9, 1), (1, 10, 1)])
        res = greedy_augment(g, HostKind.complete_bipartite(range(6), range(6, 12)))
        assert res.added_edges == ((2, 7), (3, 8), (4, 10), (5, 11), (0, 11))
        assert res.stage_added == (2, 2, 0, 1)
        assert res.graph.edge_pairs(res.matching.edges) == [
            (0, 6), (1, 9), (2, 7), (3, 8), (4, 10), (5, 11)
        ]


def star_forest(rng, kind):
    """Disjoint stars of 0-5 leaves on 2..60 vertices, so that several
    components have deficiency >= 2, on the host kinds of
    ``augment_instance``; on a bipartite host the leaves sit on the side
    opposite their centre."""
    half = rng.randint(1, 30)
    n = 2 * half
    if kind == "complete":
        host = HostKind.complete(n)
    else:
        order = list(range(n))
        if kind == "permuted":
            rng.shuffle(order)
        host = HostKind.complete_bipartite(order[:half], order[half:])
    side = host.side or (0,) * n
    free = list(range(n))
    rng.shuffle(free)
    edges = []
    while free:
        centre = free.pop()
        leaves = [v for v in free if kind == "complete" or side[v] != side[centre]]
        for v in leaves[: rng.randrange(6)]:
            free.remove(v)
            edges.append((min(centre, v), max(centre, v), 1))
    return WeightedGraph(n, edges), host


class TestGreedyAugmentReference:
    """The greedy against the plain per-step scan in helpers, choice for
    choice: added edges in order, per-stage counts and the matching."""

    @staticmethod
    def check(g, host):
        res = greedy_augment(g, host)
        got = (res.added_edges, res.stage_added, res.graph.edge_pairs(res.matching.edges))
        assert got == reference_greedy_augment(g, host)

    @pytest.mark.parametrize("kind", ["complete", "bipartite", "permuted"])
    def test_random_graphs(self, kind):
        rng = random.Random(f"greedy-reference:{kind}")
        for _ in range(600):
            n = 2 * rng.randint(1, 30)
            avg_degree = rng.choice([0, 0.25, 0.5, 1, 1.5, 2, 3])
            self.check(*augment_instance(rng.randrange(10**9), n, avg_degree, kind))

    @pytest.mark.parametrize("kind", ["complete", "bipartite", "permuted"])
    def test_star_forests(self, kind):
        rng = random.Random(f"greedy-reference-stars:{kind}")
        for _ in range(200):
            self.check(*star_forest(rng, kind))

    def test_joined_root_below_r1(self):
        # The deficiency-2 component 0 has minus exposure only, so r1 is the
        # isolated plus vertex 1, r2 is 0, and the joined root is r2 < r1.
        g = WeightedGraph(12, [(0, 6, 1), (0, 7, 1), (0, 8, 1)])
        host = HostKind.complete_bipartite(range(6), range(6, 12))
        self.check(g, host)
        assert greedy_augment(g, host).added_edges[0] == (1, 7)


class TestGreedyAugmentScale:
    """20000 vertices, far beyond what a per-step scan over components
    allows: edgeless hosts give about n/2 stage-2 joins and n/2 stage-4
    connectors, and 5000 disjoint 3-leaf stars, each of deficiency 2,
    give 4999 stage-1 joins."""

    def check(self, g, host):
        res = greedy_augment(g, host)
        assert res.added_count == augmentation_optimum(deficiency_profile(g))
        assert is_connected(res.graph)
        assert res.matching.is_perfect
        return res

    def test_edgeless_complete_host(self):
        host = HostKind.complete(20000)
        assert self.check(WeightedGraph(host.n), host).added_count == host.n - 1

    def test_edgeless_bipartite_host(self):
        host = HostKind.complete_bipartite(range(10000), range(10000, 20000))
        assert self.check(WeightedGraph(host.n), host).added_count == host.n - 1

    def test_stars_complete_host(self):
        g = WeightedGraph(20000, [(c, c + i, 1) for c in range(0, 20000, 4) for i in (1, 2, 3)])
        assert self.check(g, HostKind.complete(20000)).stage_added == (4999, 0, 1, 0)

    def test_stars_bipartite_host(self):
        # Sides 0..9999 and 10000..19999; stars alternate their centre
        # between the sides, so each side holds 2500 centres and 7500 leaves.
        edges = []
        for i in range(2500):
            plus, minus = 4 * i, 10000 + 4 * i
            edges += [(plus, minus + j, 1) for j in (1, 2, 3)]
            edges += [(plus + j, minus, 1) for j in (1, 2, 3)]
        host = HostKind.complete_bipartite(range(10000), range(10000, 20000))
        assert self.check(WeightedGraph(20000, edges), host).stage_added == (4999, 0, 1, 0)


class TestMinPmstTwoValued:
    def test_all_light_k4(self):
        res = min_pmst_two_valued(HostKind.complete(4), WeightedGraph(4, pairs_of(4)), 1, 2)
        assert res.total_weight == 3
        assert res.heavy_count == 0

    def test_single_light_edge_k4(self):
        res = min_pmst_two_valued(HostKind.complete(4), WeightedGraph(4, [(0, 1)]), 1, 2)
        assert res.heavy_count == 2
        assert res.total_weight == 1 + 2 * 2

    def test_light_matching_in_k33(self):
        host = HostKind.complete_bipartite(range(3), range(3, 6))
        res = min_pmst_two_valued(host, WeightedGraph(6, [(0, 3), (1, 4), (2, 5)]), 1, 2)
        assert res.heavy_count == 2
        assert res.total_weight == 3 * 1 + 2 * 2

    def test_weight_order_enforced(self):
        with pytest.raises(WeightOrderError):
            min_pmst_two_valued(HostKind.complete(4), WeightedGraph(4, [(0, 1)]), 2, 2)

    def test_odd_host_rejected(self):
        with pytest.raises(OddVertexCountError):
            min_pmst_two_valued(HostKind.complete(5), WeightedGraph(5, [(0, 1)]), 1, 2)

    def test_non_host_light_edge_rejected(self):
        host = HostKind.complete_bipartite(range(2), range(2, 4))
        with pytest.raises(HostMismatchError, match=r"edge \{0, 1\} does not cross the host"):
            min_pmst_two_valued(host, WeightedGraph(4, [(0, 2), (0, 1)]), 1, 2)

    @pytest.mark.parametrize(
        "host", [HostKind.complete(4), HostKind.complete_bipartite([0, 1], [2, 3])]
    )
    def test_self_loop_light_edge_rejected(self, host):
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            min_pmst_two_valued(host, WeightedGraph(4, [(0, 2), (2, 2)]), 1, 2)

    def test_light_graph_of_another_order_rejected(self):
        for n in (2, 6):
            with pytest.raises(HostMismatchError, match=f"graph has {n} vertices, host has 4"):
                min_pmst_two_valued(HostKind.complete(4), WeightedGraph(n, [(0, 1)]), 1, 2)

    def test_light_graph_unchanged_and_heavy_edges_indexed(self):
        light = WeightedGraph(6, [(0, 1, 7), (2, 3, -4)])
        res = min_pmst_two_valued(HostKind.complete(6), light, 1, 3)
        # The support graph shares light's (u, v) -> index map only by copy.
        assert light.edges == ((0, 1, 7), (2, 3, -4))
        assert not any(light.has_edge(u, v) for u, v in res.added_edges)
        support = res.support_graph
        assert support.edges[:2] == ((0, 1, 1), (2, 3, 1))
        assert len(res.added_edges) == res.heavy_count == 3
        for k, (u, v) in enumerate(res.added_edges, start=2):
            assert support.edge_index(v, u) == k
            assert support.edges[k] == (u, v, 3)
        assert res.total_weight == 2 * 1 + 3 * 3

    def test_tree_contains_perfect_matching_and_heavy_count(self):
        rng = random.Random(59)
        for _ in range(60):
            n = rng.choice([4, 6])
            mask = rng.getrandbits(len(pairs_of(n)))
            light = [p for b, p in enumerate(pairs_of(n)) if mask >> b & 1]
            a, b = sorted(rng.sample(range(0, 9), 2))
            res = min_pmst_two_valued(HostKind.complete(n), WeightedGraph(n, light), a, b)
            t = as_bipartitioned_tree(res.support_graph, res.tree)
            assert tree_perfect_matching(t) is not None
            g0 = WeightedGraph(n, [(u, v, a) for u, v in light])
            k = augmentation_optimum(deficiency_profile(g0))
            assert res.heavy_count == k
            assert res.total_weight == a * (n - 1 - k) + b * k

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(61)
        pairs4 = pairs_of(4)
        for mask in range(1 << 6):
            light = [p for b, p in enumerate(pairs4) if mask >> b & 1]
            res = min_pmst_two_valued(HostKind.complete(4), WeightedGraph(4, light), 1, 5)
            full = WeightedGraph(
                4, [(u, v, 1 if mask >> b & 1 else 5) for b, (u, v) in enumerate(pairs4)]
            )
            best = brute_force_min_pmst(full)
            assert best is not None
            assert res.total_weight == best[1], (mask,)

    def test_adding_light_edges_never_raises_weight(self):
        rng = random.Random(67)
        pairs6 = pairs_of(6)
        for _ in range(40):
            mask = rng.getrandbits(15)
            extra = rng.randrange(15)
            bigger = mask | (1 << extra)
            light_small = [p for b, p in enumerate(pairs6) if mask >> b & 1]
            light_big = [p for b, p in enumerate(pairs6) if bigger >> b & 1]
            w_small = min_pmst_two_valued(HostKind.complete(6), WeightedGraph(6, light_small), 1, 3)
            w_big = min_pmst_two_valued(HostKind.complete(6), WeightedGraph(6, light_big), 1, 3)
            assert w_big.total_weight <= w_small.total_weight
