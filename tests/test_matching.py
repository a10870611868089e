"""Maximum matching (with blossoms), deficiency bookkeeping, and the
unique perfect matching of a tree."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from helpers import (
    graph_from_mask,
    max_matching_size_exhaustive,
    pairs_of,
    random_tree_edges,
    reference_mates_by_blossom,
)
from treematch import (
    Matching,
    OddDeficiencyError,
    WeightedGraph,
    as_bipartitioned_tree,
    connected_components,
    deficiency,
    deficiency_profile,
    maximum_matching,
    tree_perfect_matching,
)
from treematch.generate import complete, petersen
from treematch.matching import _mates_by_blossom


def path(n):
    return WeightedGraph(n, [(i, i + 1, 1) for i in range(n - 1)])


class TestMaximumMatching:
    def test_single_edge(self):
        m = maximum_matching(WeightedGraph(2, [(0, 1, 1)]))
        assert m.size == 1 and m.is_perfect

    def test_p3_leaves_one_exposed(self):
        m = maximum_matching(path(3))
        assert m.size == 1
        assert m.mate.count(None) == 1

    def test_edgeless(self):
        m = maximum_matching(WeightedGraph(4))
        assert m.size == 0 and m.mate == (None,) * 4

    def test_odd_cycle_needs_blossom(self):
        g = WeightedGraph(5, [(i, (i + 1) % 5, 1) for i in range(5)])
        assert maximum_matching(g).size == 2

    def test_two_triangles_bridged(self):
        # classic blossom case: triangles {0,1,2} and {3,4,5} joined 2-3
        g = WeightedGraph(
            6,
            [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1)],
        )
        m = maximum_matching(g)
        assert m.size == 3 and m.is_perfect

    def test_petersen_is_perfectly_matchable(self):
        m = maximum_matching(petersen())
        assert m.size == 5
        assert m.is_perfect

    def test_complete_graphs(self):
        for n in range(2, 9):
            assert maximum_matching(complete(n)).size == n // 2

    def test_mate_is_involution(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(1, 9)
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            m = maximum_matching(g)
            for v, u in enumerate(m.mate):
                if u is not None:
                    assert m.mate[u] == v and g.has_edge(u, v)

    def test_agrees_with_exhaustive_oracle_up_to_five_vertices(self):
        for n in range(1, 6):
            for mask in range(1 << len(pairs_of(n))):
                g = graph_from_mask(n, mask)
                assert maximum_matching(g).size == max_matching_size_exhaustive(g), (n, mask)

    def test_agrees_with_exhaustive_oracle_on_random_larger(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(6, 10)
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            assert maximum_matching(g).size == max_matching_size_exhaustive(g)


def shuffled_random_graph(seed, n, m):
    """m distinct random edges on n vertices, in a seeded random order."""
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = sorted(pairs)
    rng.shuffle(edges)
    return WeightedGraph(n, [(u, v, 1) for u, v in edges])


# shuffled_random_graph(*key) -> maximum_matching(g).edges, sorted.  The
# searches of these graphs shrink 1, 2, 1, 4, 2 and 11 blossoms.
PINNED_MATCHINGS = {
    (1, 12, 18): [0, 2, 4, 8, 12, 15],
    (3, 20, 30): [0, 2, 3, 6, 10, 11, 12, 20, 21, 24],
    (4, 30, 45): [4, 9, 13, 16, 17, 18, 22, 23, 25, 26, 27, 28, 31, 37, 41],
    (5, 40, 60): [1, 2, 6, 8, 11, 17, 23, 24, 26, 27, 29, 32, 33, 34, 36, 37, 43, 56],
    (6, 51, 80): [
        0, 4, 7, 8, 9, 10, 20, 22, 23, 26, 30, 32, 33, 34, 40, 49, 50, 54, 63, 67, 68, 69, 75,
    ],
    (7, 60, 90): [
        1, 4, 5, 7, 8, 11, 13, 14, 17, 19, 22, 25, 31, 42, 45, 46, 47, 55, 64, 73, 75, 76, 78,
        80, 84, 86, 89,
    ],
}


class TestPinnedMatchings:
    """Which maximum matching comes out is part of the observable output."""

    @pytest.mark.parametrize("key", sorted(PINNED_MATCHINGS))
    def test_exact_edges(self, key):
        assert sorted(maximum_matching(shuffled_random_graph(*key)).edges) == PINNED_MATCHINGS[key]


def adjacency(g):
    adj = [[] for _ in range(g.vertex_count)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


class TestAgainstWholeTreeSweep:
    """The O(blossom) contraction returns the mates of the whole-tree sweep."""

    def assert_same_mates(self, g):
        adj = adjacency(g)
        n = g.vertex_count
        assert _mates_by_blossom(n, adj) == reference_mates_by_blossom(n, adj)

    def test_small_random_graphs(self):
        rng = random.Random(13)
        for seed in range(1000):
            n = rng.randint(2, 60)
            m = rng.randint(0, min(3 * n, n * (n - 1) // 2))
            self.assert_same_mates(shuffled_random_graph(seed, n, m))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_random_graphs(self, seed):
        self.assert_same_mates(shuffled_random_graph(seed, 2000, 3000))

    @pytest.mark.parametrize(
        "seed, n, m", [(1, 9, 6), (2, 30, 25), (3, 300, 300), (4, 3000, 2000)]
    )
    def test_every_third_vertex_isolated(self, seed, n, m):
        # No search starts at 0, 3, 6, ...; the other vertices carry a
        # random graph on 2n/3 vertices.
        g = shuffled_random_graph(seed, 2 * n // 3, m)
        spread = [3 * (k // 2) + 1 + k % 2 for k in range(g.vertex_count)]
        h = WeightedGraph(n, [(spread[u], spread[v], w) for u, v, w in g.edges])
        assert all(not h.adjacency[v] for v in range(0, n, 3))
        self.assert_same_mates(h)

    def test_pinned_20000_vertex_matching(self):
        # sha256 of the sorted edge indices, taken with the whole-tree sweep.
        edges = sorted(maximum_matching(shuffled_random_graph(20000, 20000, 30000)).edges)
        assert len(edges) == 9273
        assert (
            hashlib.sha256(",".join(map(str, edges)).encode()).hexdigest()
            == "261666a0d1c3383743dabcfcc416b2118156c05d4e7fb4330c88cb8378a17ffc"
        )


class TestMatchingFromMates:
    """``maximum_matching`` builds its Matching from the search's mates; it
    equals the one built from the edges those mates match."""

    def test_equals_from_edges_of_the_matched_edges(self):
        rng = random.Random(29)
        seen = set()
        for seed in range(400):
            n = rng.randint(1, 40)
            m = rng.randint(0, min(2 * n, n * (n - 1) // 2))
            g = shuffled_random_graph(seed, n, m)
            mates = _mates_by_blossom(n, adjacency(g))
            scanned = [i for i, (u, v, _) in enumerate(g.edges) if mates[u] == v]
            assert maximum_matching(g) == Matching.from_edges(g, scanned), seed
            comps = connected_components(g)
            seen.update(
                ("odd n" if n % 2 else "even n", "disconnected" if len(comps) > 1 else "connected")
            )
            if any(len(c) == 1 for c in comps):
                seen.add("isolated vertex")
        assert seen == {"odd n", "even n", "disconnected", "connected", "isolated vertex"}


class TestMatchingType:
    def test_from_edges_rejects_shared_vertex(self):
        g = path(3)
        with pytest.raises(ValueError, match="shares a vertex"):
            Matching.from_edges(g, [0, 1])

    def test_covers(self):
        g = path(3)
        m = Matching.from_edges(g, [0])
        assert m.mate == (1, 0, None)


class TestDeficiency:
    def test_k4_zero(self):
        assert deficiency(complete(4)) == 0

    def test_p3_one(self):
        assert deficiency(path(3)) == 1

    def test_c5_one(self):
        g = WeightedGraph(5, [(i, (i + 1) % 5, 1) for i in range(5)])
        assert deficiency(g) == 1

    def test_parity_matches_vertex_count(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 9)
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            assert deficiency(g) % 2 == n % 2


class TestDeficiencyProfile:
    def test_isolated_vertices(self):
        p = deficiency_profile(WeightedGraph(4))
        assert p.per_component == (1, 1, 1, 1)
        assert p.deficiency == 4
        assert p.component_count == 4
        assert p.deficient_count == 4
        assert p.matched_count == 0

    def test_two_disjoint_edges(self):
        p = deficiency_profile(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))
        assert p.per_component == (0, 0)
        assert p.deficiency == 0
        assert p.deficient_count == 0 and p.matched_count == 2

    def test_star_plus_isolated(self):
        g = WeightedGraph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        p = deficiency_profile(g)
        assert p.per_component == (2, 1)
        assert p.deficiency == 3
        assert p.component_count == 2
        assert p.deficient_count == 2 and p.matched_count == 0

    def test_half_deficiency_even(self):
        p = deficiency_profile(WeightedGraph(4, [(0, 1, 1)]))
        assert p.deficiency == 2 and p.half_deficiency == 1

    def test_half_deficiency_odd_rejected(self):
        p = deficiency_profile(WeightedGraph(3, [(0, 1, 1)]))
        with pytest.raises(OddDeficiencyError):
            p.half_deficiency

    def test_total_matches_whole_graph_deficiency(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 9)
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            assert deficiency_profile(g).deficiency == deficiency(g)

    def test_totals_leave_equality_hash_and_repr_to_the_field(self):
        read = deficiency_profile(WeightedGraph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]))
        assert (read.deficiency, read.deficient_count, read.matched_count) == (3, 2, 0)
        fresh = deficiency_profile(WeightedGraph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]))
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == "DeficiencyProfile(per_component=(2, 1))"


class TestTreePerfectMatching:
    def tree(self, n, edge_pairs):
        g = WeightedGraph(n, [(u, v, 1) for u, v in edge_pairs])
        return as_bipartitioned_tree(g, range(len(edge_pairs)))

    def test_single_edge(self):
        m = tree_perfect_matching(self.tree(2, [(0, 1)]))
        assert m is not None and m.is_perfect

    def test_p4(self):
        t = self.tree(4, [(0, 1), (1, 2), (2, 3)])
        m = tree_perfect_matching(t)
        assert m is not None
        assert t.graph.edge_pairs(m.edges) == [(0, 1), (2, 3)]

    def test_star_has_none(self):
        assert tree_perfect_matching(self.tree(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_odd_order_has_none(self):
        assert tree_perfect_matching(self.tree(3, [(0, 1), (1, 2)])) is None

    def test_matches_brute_force_over_tree_edge_subsets(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.choice([2, 4, 6, 8])
            t = self.tree(n, random_tree_edges(rng, n))
            m = tree_perfect_matching(t)
            # brute force: try all (n/2)-subsets of tree edges
            g = t.graph
            hit = None
            for sub in combinations(range(n - 1), n // 2):
                used = [False] * n
                ok = True
                for i in sub:
                    u, v, _ = g.edges[i]
                    if used[u] or used[v]:
                        ok = False
                        break
                    used[u] = used[v] = True
                if ok and all(used):
                    hit = frozenset(sub)
                    break
            if hit is None:
                assert m is None
            else:
                assert m is not None and m.edges == hit  # unique in a tree
