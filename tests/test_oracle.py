"""Ground-truth oracles, checked against each other and closed forms."""

import random
import sys
from itertools import combinations, product
from math import comb

import pytest

from treematch import (
    DisconnectedError,
    HostKind,
    OddVertexCountError,
    TooLargeError,
    TruncatedError,
    WeightedGraph,
    as_bipartitioned_tree,
    augmentation_optimum,
    bipartition_of,
    deficiency_profile,
    is_connected,
    is_strongly_balanced,
    reduce_sat_to_sbst,
    replace_leaves,
)
from treematch import oracle
from treematch.generate import (
    circular_ladder,
    complete,
    cube,
    cycle,
    petersen,
    random_cnf_layout,
)
from treematch.oracle import (
    brute_force_min_pmst,
    brute_force_min_sbst,
    brute_force_opt_aug,
    brute_force_sat,
    brute_force_sbst_exists,
    sb_tree_search,
)

from helpers import (
    graph_from_mask,
    max_degree,
    max_matching_size_exhaustive,
    multigraph_spanning_trees,
    pairs_of,
    prufer_tree,
    random_connected_bipartite,
    random_subcubic,
    random_tree_edges,
    reference_min_pmst,
    reference_min_sbst,
    reference_opt_aug,
    spanning_tree_count_determinant,
    spanning_trees,
    strongly_balanced,
)


def connected_random(rng, n, extra):
    """Random tree plus `extra` chords; always connected."""
    from helpers import random_tree_edges

    pairs = set(random_tree_edges(rng, n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    rng.shuffle(pool)
    pairs.update(pool[:extra])
    return WeightedGraph(n, [(u, v, rng.randrange(1, 9)) for u, v in sorted(pairs)])


def pinned_search_corpus():
    """40 seeded graphs for ``sb_tree_search``: subcubic graphs with
    weights 1 and 2, so that ties occur; SAT reductions on 1 to 4
    variables, reweighted the same way when they have at most 50 edges;
    and leaf-replaced connected subcubic graphs."""
    rng = random.Random(1010)

    def reweight(g):
        return WeightedGraph(g.vertex_count, [(u, v, rng.choice((1, 2))) for u, v, _ in g.edges])

    for _ in range(16):
        yield reweight(random_subcubic(rng, rng.randrange(4, 13)))
    for t in range(12):
        g = reduce_sat_to_sbst(random_cnf_layout(1 + t % 4, t % 3, 2000 + t)).graph
        yield reweight(g) if g.edge_count <= 50 else g
    made = 0
    while made < 12:
        g = random_subcubic(rng, rng.randrange(4, 9), tries=rng.randrange(6, 12))
        if is_connected(g) and min(map(g.degree, range(g.vertex_count))) == 1:
            yield replace_leaves(reweight(g))
            made += 1


# Per graph of ``pinned_search_corpus``: what ``sb_tree_search`` returns
# with find_min True and False, as (the sorted indices of the edges the
# tree leaves out, weight), or None.  The complement names the tree
# exactly and is much shorter on the SAT reductions.
PINNED_SB_SEARCH = [
    (None, None),
    (((1, 4, 5), 3), ((3, 4, 5), 4)),
    (((3, 4, 5, 7), 7), ((5, 6, 9, 10), 10)),
    (None, None),
    (None, None),
    (None, None),
    (None, None),
    (None, None),
    (((1, 5, 7, 10), 8), ((1, 5, 7, 9), 9)),
    (None, None),
    (((5, 7, 8, 10, 11, 14), 13), ((5, 7, 8, 10, 13, 14), 14)),
    (((1, 4, 9, 11, 12, 13), 12), ((5, 8, 9, 11, 12, 14), 13)),
    (((2, 4, 5), 6), ((2, 4, 5), 6)),
    (((1, 4, 5), 3), ((2, 3, 5), 5)),
    (None, None),
    (((0, 2, 3, 5, 8, 15), 12), ((0, 2, 3, 5, 8, 15), 12)),
    (((12, 13, 17), 26), ((12, 13, 17), 26)),
    (((8, 18, 22, 31, 32, 36, 40, 44, 49), 56), ((16, 17, 21, 31, 32, 36, 40, 42, 47), 59)),
    (
        ((16, 17, 21, 33, 34, 38, 50, 51, 55, 59, 61, 66, 70, 72, 77), 0),
        ((16, 17, 21, 33, 34, 38, 50, 51, 55, 59, 61, 66, 70, 72, 77), 0),
    ),
    (
        ((12, 13, 17, 25, 26, 30, 38, 39, 43, 51, 52, 56), 0),
        ((12, 13, 17, 25, 26, 30, 38, 39, 43, 51, 52, 56), 0),
    ),
    (((8, 20, 24, 26, 35, 36), 52), ((18, 19, 23, 27, 29, 34), 54)),
    (
        ((18, 19, 23, 27, 39, 43, 45, 54, 55, 59, 64, 65), 0),
        ((18, 19, 23, 27, 39, 43, 45, 54, 55, 59, 64, 65), 0),
    ),
    (((12, 13, 17, 25, 26, 30, 34, 40, 44), 52), ((12, 13, 17, 25, 26, 30, 38, 39, 43), 54)),
    (
        ((14, 15, 19, 29, 30, 34, 44, 45, 49, 57, 58, 62, 66, 68, 73), 0),
        ((14, 15, 19, 29, 30, 34, 44, 45, 49, 57, 58, 62, 66, 68, 73), 0),
    ),
    (((24, 25, 29, 34, 40, 42, 44, 46, 51), 0), ((24, 25, 29, 34, 40, 42, 44, 46, 51), 0)),
    (((12, 13, 17, 25, 26, 30), 40), ((12, 13, 17, 25, 26, 30), 40)),
    (
        ((14, 15, 19, 29, 30, 34, 44, 45, 49, 54, 60, 62), 0),
        ((14, 15, 19, 29, 30, 34, 44, 45, 49, 54, 60, 62), 0),
    ),
    (
        ((16, 17, 21, 31, 32, 36, 46, 47, 51, 55, 65, 69, 73, 79, 81, 82, 84, 92), 0),
        ((16, 17, 21, 31, 32, 36, 46, 47, 51, 55, 65, 69, 73, 79, 81, 82, 84, 92), 0),
    ),
    (None, None),
    (((3, 5, 10), 6), ((3, 5, 10), 6)),
    (None, None),
    (None, None),
    (None, None),
    (((4, 6, 13, 18), 7), ((6, 7, 12, 18), 8)),
    (None, None),
    (((2, 3, 7, 12), 6), ((3, 5, 6, 11), 8)),
    (((5, 10), 6), ((5, 10), 6)),
    (((0, 2, 5, 11), 7), ((2, 4, 7, 11), 9)),
    (((3, 5, 11), 6), ((2, 5, 10), 7)),
    (((3, 8, 13, 18), 9), ((3, 6, 13, 17), 10)),
]


class TestEnumerateSpanningTrees:
    def test_tree_input_gives_one_tree(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        assert list(spanning_trees(g)) == [(0, 1, 2)]

    def test_single_vertex(self):
        assert list(spanning_trees(WeightedGraph(1, []))) == [()]

    def test_cycle_four(self):
        assert sum(1 for _ in spanning_trees(cycle(4))) == 4

    def test_triangle_in_lexicographic_order(self):
        assert list(spanning_trees(cycle(3))) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cayley_count_on_complete_graphs(self, n):
        assert sum(1 for _ in spanning_trees(complete(n))) == n ** (n - 2)

    def test_petersen_count(self):
        assert sum(1 for _ in spanning_trees(petersen())) == 2000

    def test_every_visit_is_a_spanning_tree(self):
        rng = random.Random(501)
        g = connected_random(rng, 6, 4)
        trees = list(spanning_trees(g))
        assert len(trees) == len(set(trees))
        for t in trees:
            assert len(t) == g.vertex_count - 1
            as_bipartitioned_tree(g, frozenset(t))  # raises if not a tree

    def test_disconnected_yields_nothing(self):
        assert list(spanning_trees(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))) == []
        assert list(spanning_trees(WeightedGraph(2, []))) == []
        assert list(multigraph_spanning_trees(3, [0, 1], [1, 0])) == []

    def test_count_matches_determinant_on_random_graphs(self):
        rng = random.Random(502)
        for _ in range(20):
            n = rng.randrange(3, 11)
            g = connected_random(rng, n, rng.randrange(0, n))
            assert sum(1 for _ in spanning_trees(g)) == spanning_tree_count_determinant(g)

    @staticmethod
    def _filtered(n, ends_u, ends_v):
        # Every (n-1)-subset of edge indices, in lexicographic order, kept
        # when it closes no cycle: an independent reference for both the
        # trees and their order.
        def acyclic(subset):
            root = list(range(n))

            def find(x):
                while root[x] != x:
                    x = root[x]
                return x

            for i in subset:
                ru, rv = find(ends_u[i]), find(ends_v[i])
                if ru == rv:
                    return False
                root[ru] = rv
            return True

        return [t for t in combinations(range(len(ends_u)), n - 1) if acyclic(t)]

    def test_order_matches_filtered_combinations(self):
        rng = random.Random(507)
        for _ in range(200):
            n = rng.randrange(1, 8)
            g = connected_random(rng, n, rng.randrange(0, n * (n - 1) // 2 - n + 2))
            want = self._filtered(n, [u for u, _, _ in g.edges], [v for _, v, _ in g.edges])
            assert list(spanning_trees(g)) == want

    def test_matches_reference_on_multigraphs(self):
        # The graphs the minimum-tree oracles contract are multigraphs:
        # a random tree plus random extra edges, repeats allowed, in
        # shuffled order, against the filtered (n-1)-subset list.
        rng = random.Random(508)
        parallel = 0
        for n in range(1, 8):
            for _ in range(40):
                pairs = random_tree_edges(rng, n)
                if n > 1:
                    extra = rng.randrange(0, 2 * n)
                    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
                rng.shuffle(pairs)
                ends_u = [u for u, _ in pairs]
                ends_v = [v for _, v in pairs]
                got = [tuple(t) for t in multigraph_spanning_trees(n, ends_u, ends_v)]
                assert got == self._filtered(n, ends_u, ends_v), (n, pairs)
                parallel += len({frozenset(p) for p in pairs}) < len(pairs)
        assert parallel >= 100

    def test_long_path_leaves_recursion_limit_alone(self):
        # A triangle on 0, 1, 2 followed by a path through 1500 vertices.
        n = 1502
        edges = [(0, 1), (0, 2), (1, 2)] + [(v, v + 1) for v in range(2, n - 1)]
        limit = sys.getrecursionlimit()
        assert sum(1 for _ in spanning_trees(WeightedGraph(n, edges))) == 3
        assert sys.getrecursionlimit() == limit


class TestDeterminantCount:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_complete_graphs(self, n):
        assert spanning_tree_count_determinant(complete(n)) == n ** (n - 2)

    def test_cycle_has_n_trees(self):
        assert spanning_tree_count_determinant(cycle(7)) == 7

    def test_petersen(self):
        assert spanning_tree_count_determinant(petersen()) == 2000

    def test_single_vertex(self):
        assert spanning_tree_count_determinant(WeightedGraph(1, [])) == 1


class TestMatchedTreeCount:
    def test_equals_the_trees_listed_through_each_matching(self):
        # Per perfect matching M of seeded connected graphs: the Kirchhoff
        # count of g/M against the trees of g/M that the enumerator lists.
        # On 2 vertices g/M is one vertex; on the denser graphs g/M has
        # parallel edges.
        rng = random.Random(815)
        matchings = with_parallel = 0
        for trial in range(80):
            n = 2 if trial < 4 else rng.choice((4, 6, 8))
            g = connected_random(rng, n, rng.randrange(0, min(12, n * (n - 1) // 2 - n + 2)))
            block = [0] * n
            for matching in oracle._perfect_matchings(g):
                for j, e in enumerate(matching):
                    u, v, _ = g.edges[e]
                    block[u] = block[v] = j
                rest = [i for i in range(g.edge_count) if i not in matching]
                ends_a = [block[g.edges[i][0]] for i in rest]
                ends_b = [block[g.edges[i][1]] for i in rest]
                listed = sum(1 for _ in multigraph_spanning_trees(n // 2, ends_a, ends_b))
                assert oracle._tree_count(n // 2, ends_a, ends_b) == listed, (trial, matching)
                matchings += 1
                bundles = {frozenset(p) for p in zip(ends_a, ends_b)}
                with_parallel += len(bundles) < len(rest)
        assert matchings >= 200 and with_parallel >= 100, (matchings, with_parallel)

    @pytest.mark.parametrize(
        "k, pairs",
        [
            (8, [(v, v + 1) for v in range(7)]),
            (7, [(3, 2), (2, 1), (1, 0), (0, 4), (4, 5), (5, 6)]),
            (10, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (1, 6), (2, 7), (3, 8), (3, 9)]),
            (11, [(v, (v + 1) % 6) for v in range(6)] + [(5, 6), (6, 7), (7, 8), (2, 9), (9, 10)]),
            (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)]),
            (4, [(0, 1), (1, 2), (2, 0), (2, 3), (2, 3)]),
            (4, [(0, 1), (1, 2), (1, 2), (2, 3)]),
            (7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 1), (5, 4), (6, 4), (6, 4)]),
        ],
        ids=[
            "path",
            "path-from-the-middle",
            "caterpillar",
            "cycle-with-hanging-paths",
            "cycle-off-vertex-0",
            "parallel-pendant",
            "parallel-after-strike",
            "caterpillar-with-parallel-leg",
        ],
    )
    def test_vertices_on_one_edge_are_struck_out(self, k, pairs):
        # Pendant vertices and paths, with vertex 0 at either end or in
        # the middle; a vertex held by two parallel edges must stay.
        ends_a = [a for a, _ in pairs]
        ends_b = [b for _, b in pairs]
        listed = sum(1 for _ in multigraph_spanning_trees(k, ends_a, ends_b))
        assert oracle._tree_count(k, ends_a, ends_b) == listed


class TestBruteForceMinPmst:
    def test_single_edge(self):
        got = brute_force_min_pmst(WeightedGraph(2, [(0, 1, 5)]))
        assert got == (frozenset({0}), 5)

    def test_odd_order_has_no_answer(self):
        assert brute_force_min_pmst(cycle(3)) is None

    def test_odd_order_answers_before_enumerating(self):
        # K7 has 16,807 spanning trees; a cap of one shows none is visited.
        assert brute_force_min_pmst(complete(7), cap=1) is None

    def test_odd_order_disconnected_still_rejected(self):
        with pytest.raises(DisconnectedError):
            brute_force_min_pmst(WeightedGraph(5, [(0, 1, 1), (2, 3, 1)]), cap=1)

    def test_star_has_no_answer(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        assert brute_force_min_pmst(g) is None

    def test_two_valued_complete_four(self):
        # One light edge; the cheapest tree with a perfect matching takes
        # it plus two heavy edges.
        edges = [(u, v, 1 if (u, v) == (0, 1) else 2) for u in range(4) for v in range(u + 1, 4)]
        got = brute_force_min_pmst(WeightedGraph(4, edges))
        assert got is not None
        assert got[1] == 5

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            brute_force_min_pmst(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))

    def test_equals_filtered_enumeration_on_all_small_graphs(self):
        # Every connected labelled graph on 2, 4 and 6 vertices (26,743
        # graphs), weights drawn per graph so that ties occur.  Those with
        # a vertex of degree four or more also check the SBST oracle's
        # matching-first route.
        rng = random.Random(811)
        checked = dense = 0
        for n in (2, 4, 6):
            pairs = pairs_of(n)
            for mask in range(1 << len(pairs)):
                shape = graph_from_mask(n, mask, pairs)
                if not is_connected(shape):
                    continue
                g = WeightedGraph(n, [(u, v, rng.randint(-2, 3)) for u, v, _ in shape.edges])
                want, _ = reference_min_pmst(g)
                assert brute_force_min_pmst(g) == want, (n, mask)
                checked += 1
                if max_degree(g) >= 4:
                    # The least tree with a perfect matching is also the
                    # least strongly balanced one when it is one itself.
                    if want is not None and not strongly_balanced(g, want[0]):
                        want, _ = reference_min_sbst(g)
                    assert brute_force_min_sbst(g) == want, (n, mask)
                    dense += 1
        assert checked == 26743
        assert dense == 19164

    def test_sbst_filter_rejects_trees_on_sparse_eight_vertex_graphs(self, monkeypatch):
        # On 6 vertices every tree with a perfect matching is strongly
        # balanced, so the test above never sees the filter say no.  Here:
        # the star from 0 to 1-4 (so the dense route runs) plus any 4 of
        # the other 24 pairs, connected, weighted 1 + position mod 3.
        test = oracle._matched_tree_is_strongly_balanced
        rejections = [0]

        def counting(g, tree):
            ok = test(g, tree)
            rejections[0] += not ok
            return ok

        monkeypatch.setattr(oracle, "_matched_tree_is_strongly_balanced", counting)
        pairs = pairs_of(8)
        graphs = with_rejections = 0
        for extra in combinations(range(4, 28), 4):
            chosen = (0, 1, 2, 3) + extra
            g = WeightedGraph(8, [(*pairs[b], 1 + i % 3) for i, b in enumerate(chosen)])
            if not is_connected(g):
                continue
            graphs += 1
            before = rejections[0]
            assert brute_force_min_sbst(g) == reference_min_sbst(g)[0], extra
            with_rejections += rejections[0] > before
        assert graphs == 3975
        assert with_rejections == 216
        assert rejections[0] == 288

    def test_equals_filtered_enumeration_on_seeded_larger_graphs(self):
        # 300 graphs on 7 or 8 vertices; every other one has two weights
        # only, so that many trees tie for the minimum.
        rng = random.Random(812)
        for trial in range(300):
            n = rng.choice((7, 8))
            g = connected_random(rng, n, rng.randrange(0, 12))
            if trial % 2:
                g = WeightedGraph(n, [(u, v, rng.choice((1, 2))) for u, v, _ in g.edges])
            want, _ = reference_min_pmst(g)
            assert brute_force_min_pmst(g) == want, trial

    @pytest.mark.parametrize("weights", [(-1, 0, 1), (1, 2)], ids=["-1..1", "1-2"])
    def test_equals_filtered_enumeration_on_dense_graphs(self, weights):
        # With a perfect matching contracted, these graphs keep two or
        # more parallel edges between many pairs of contracted vertices,
        # and with so few weights many trees of different shapes tie.
        rng = random.Random(813)
        shapes = [(6, pairs_of(6))] * 6  # K6
        for _ in range(10):
            n = rng.choice((7, 8))
            shapes.append((n, sorted(rng.sample(pairs_of(n), rng.randint(18, 21)))))
        for trial, (n, pairs) in enumerate(shapes):
            g = WeightedGraph(n, [(u, v, rng.choice(weights)) for u, v in pairs])
            if is_connected(g):
                want, _ = reference_min_pmst(g)
                assert brute_force_min_pmst(g) == want, trial

    def test_cap_is_exact_on_seeded_graphs(self):
        rng = random.Random(814)
        for trial in range(40):
            g = connected_random(rng, rng.choice((4, 6, 8)), rng.randrange(0, 12))
            _, n_trees = reference_min_pmst(g)
            if n_trees:
                assert brute_force_min_pmst(g, cap=n_trees) is not None, trial
                with pytest.raises(TruncatedError):
                    brute_force_min_pmst(g, cap=n_trees - 1)

    @pytest.mark.parametrize(
        "g", [complete(4), complete(6), cube(), petersen()], ids=["K4", "K6", "cube", "petersen"]
    )
    def test_cap_counts_trees_with_a_perfect_matching(self, g):
        _, n_trees = reference_min_pmst(g)
        assert 0 < n_trees < sum(1 for _ in spanning_trees(g))
        assert brute_force_min_pmst(g, cap=n_trees) is not None
        with pytest.raises(TruncatedError):
            brute_force_min_pmst(g, cap=n_trees - 1)

    def test_no_perfect_matching_answers_before_enumerating(self):
        g = WeightedGraph(6, [(0, v, 1) for v in range(1, 6)] + [(1, 2, 1)])
        assert brute_force_min_pmst(g, cap=0) is None

    def test_negative_cap_rejected(self):
        for call in (brute_force_min_pmst, brute_force_min_sbst):
            with pytest.raises(ValueError, match="-1"):
                call(complete(4), cap=-1)

    def test_long_path_leaves_recursion_limit_alone(self):
        n = 3000
        g = WeightedGraph(n, [(v, v + 1, 1) for v in range(n - 1)])
        limit = sys.getrecursionlimit()
        assert brute_force_min_pmst(g) == (frozenset(range(n - 1)), n - 1)
        assert sys.getrecursionlimit() == limit


class TestCapWithoutTheCount:
    """The Kirchhoff count in ``_min_matched_tree`` runs only when
    C(m, n - 1), the number of (n - 1)-edge subsets, is above the cap."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = []
        real = oracle._tree_count

        def spy(k, ends_a, ends_b):
            calls.append(k)
            return real(k, ends_a, ends_b)

        monkeypatch.setattr(oracle, "_tree_count", spy)
        return calls

    @pytest.mark.parametrize("solve", [brute_force_min_pmst, brute_force_min_sbst])
    def test_count_runs_only_past_the_binomial(self, counts, solve):
        # K6: m = 15 and C(15, 5) = 3,003; its 15 perfect matchings are
        # each in 3 * 4 * 4 = 48 trees, 720 in all.
        g = complete(6)
        want = solve(g)
        assert want is not None and counts == []
        assert solve(g, cap=3003) == want and counts == []
        assert solve(g, cap=3002) == want and counts == [3] * 15
        with pytest.raises(TruncatedError, match="more than 719 spanning"):
            solve(g, cap=719)

    def test_long_cycle_is_not_counted(self, counts):
        # C(1000, 999) = 1,000 is within the default cap.
        assert brute_force_min_pmst(cycle(1000))[1] == 999
        assert counts == []

    def test_truncation_is_exact_for_every_cap(self):
        # Every cap from 0 to C(m, n - 1) + 1 on seeded connected graphs
        # of 2 to 6 vertices: TruncatedError exactly when more than ``cap``
        # spanning trees contain a perfect matching, else the reference
        # answer.  The SBST oracle is swept on the graphs it does not send
        # to the pruned search.
        rng = random.Random(2507)
        counted = skipped = sbst = raised = 0
        for trial in range(40):
            n = (2, 4, 4, 6, 6)[trial % 5]
            g = connected_random(rng, n, rng.randrange(0, 5 if n == 6 else n * (n - 1) // 2 - n + 2))
            binomial = comb(g.edge_count, n - 1)
            solvers = [(brute_force_min_pmst, reference_min_pmst(g))]
            if max_degree(g) > 3:
                solvers.append((brute_force_min_sbst, reference_min_sbst(g)))
                sbst += 1
            for solve, (want, total) in solvers:
                for cap in range(binomial + 2):
                    if total > cap:
                        with pytest.raises(TruncatedError, match=f"more than {cap} spanning"):
                            solve(g, cap=cap)
                        raised += 1
                    else:
                        assert solve(g, cap=cap) == want, (trial, cap)
                    counted += cap < binomial
                    skipped += cap >= binomial
        assert counted >= 1500 and skipped >= 90, (counted, skipped)
        assert sbst >= 6 and raised >= 400, (sbst, raised)


class TestSbTreeSearch:
    def test_weighted_cycle_four(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)])
        got = sb_tree_search(g, find_min=True)
        assert got is not None
        assert got[1] == 6

    def test_agrees_with_plain_enumeration(self):
        # The pruned search against the dumbest possible route: every
        # spanning tree, filtered by the production recognizer.
        rng = random.Random(503)
        checked_feasible = 0
        for trial in range(50):
            n = rng.randrange(2, 9)
            if trial % 2:
                g = random_subcubic(rng, n)
                if g is None:
                    continue
            else:
                g = connected_random(rng, n, rng.randrange(0, n))
            best = None
            for t in spanning_trees(g):
                tree = as_bipartitioned_tree(g, frozenset(t))
                if is_strongly_balanced(tree) is None:
                    continue
                w = g.total_weight(frozenset(t))
                if best is None or w < best:
                    best = w
            got = sb_tree_search(g, find_min=True)
            if best is None:
                assert got is None
            else:
                assert got is not None and got[1] == best
                checked_feasible += 1
        assert checked_feasible >= 10

    def test_first_hit_variant_is_consistent(self):
        rng = random.Random(504)
        for _ in range(30):
            n = rng.randrange(2, 9)
            g = connected_random(rng, n, rng.randrange(0, n))
            full = sb_tree_search(g, find_min=True)
            fast = sb_tree_search(g, find_min=False)
            assert (full is None) == (fast is None)
            if fast is not None:
                t = as_bipartitioned_tree(g, fast[0])
                assert is_strongly_balanced(t) is not None

    def test_pinned_trees_and_weights(self):
        got = []
        for g in pinned_search_corpus():
            pair = []
            for find_min in (True, False):
                hit = sb_tree_search(g, find_min=find_min)
                if hit is not None:
                    hit = (tuple(sorted(set(range(g.edge_count)) - hit[0])), hit[1])
                pair.append(hit)
            got.append(tuple(pair))
        assert got == PINNED_SB_SEARCH

    def test_node_cap_is_enforced(self):
        with pytest.raises(TruncatedError):
            sb_tree_search(cube(), find_min=True, node_cap=3)

    def test_equal_weights_stop_after_the_first_tree(self):
        # Without the undecided edges' least weight in the bound, this
        # search took 252,326 nodes; every tree weighs 19.
        g = circular_ladder(10)
        got = sb_tree_search(g, find_min=True, node_cap=100)
        assert got is not None and got[1] == 19
        assert is_strongly_balanced(as_bipartitioned_tree(g, got[0])) is not None

    def test_weight_bound_keeps_the_tree(self):
        # The tree the search found when its bound held the in-weight
        # alone, after 13,532 nodes: the indices it leaves out.
        g = circular_ladder(7)
        got = sb_tree_search(g, find_min=True, node_cap=1000)
        assert got is not None
        assert (sorted(set(range(g.edge_count)) - got[0]), got[1]) == (
            [5, 8, 11, 14, 15, 16, 17, 19],
            13,
        )

    def test_negative_weights_agree_with_plain_enumeration(self):
        # The bound adds the least undecided weight for every missing
        # edge, which holds whatever the signs.
        rng = random.Random(509)
        feasible = 0
        for _ in range(60):
            n = rng.choice((4, 6, 8))
            shape = random_subcubic(rng, n)
            if not is_connected(shape):
                continue
            g = WeightedGraph(n, [(u, v, rng.randint(-3, 3)) for u, v, _ in shape.edges])
            weights = [
                g.total_weight(frozenset(t)) for t in spanning_trees(g) if strongly_balanced(g, t)
            ]
            got = sb_tree_search(g, find_min=True)
            assert (got and got[1]) == (min(weights) if weights else None)
            feasible += bool(weights)
        assert feasible >= 10


class TestBruteForceMinSbst:
    def test_cycle_drops_heaviest_edge(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)])
        got = brute_force_min_sbst(g)
        assert got is not None
        assert got[1] == (1 + 2 + 3 + 4) - 4

    def test_odd_order_infeasible(self):
        assert brute_force_min_sbst(cycle(5)) is None

    def test_disconnected_gives_none(self):
        assert brute_force_min_sbst(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])) is None

    def test_odd_order_answers_before_searching(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the pruned search ran")

        monkeypatch.setattr(oracle, "_SbSearch", no_search)
        assert brute_force_min_sbst(cycle(999)) is None
        assert brute_force_sbst_exists(cycle(999)) is None

    def test_cube_hamiltonian_path_weight(self):
        got = brute_force_min_sbst(cube())
        assert got is not None
        assert got[1] == 7

    def test_subcubic_dispatch_matches_dense_route(self):
        # Same instance through both code paths: the cube is subcubic, and
        # adding two chords at vertex 0 pushes it onto the matching-first
        # route.
        q = cube()
        chorded = q.with_added_edges([(0, 3, 100), (0, 6, 100)])
        a = brute_force_min_sbst(q)
        b = brute_force_min_sbst(chorded)
        assert a is not None and b is not None
        assert a[1] == b[1] == 7

    def test_equals_filtered_enumeration_on_seeded_dense_graphs(self):
        # 300 graphs on 7 to 10 vertices with a vertex of degree four or
        # more; every other one has two weights only, so that ties occur.
        rng = random.Random(813)
        trial = feasible = filtered = 0
        while trial < 300:
            n = rng.randint(7, 10)
            g = connected_random(rng, n, rng.randrange(2, 8))
            if max_degree(g) < 4:
                continue
            if trial % 2:
                g = WeightedGraph(n, [(u, v, rng.choice((1, 2))) for u, v, _ in g.edges])
            want, _ = reference_min_sbst(g)
            assert brute_force_min_sbst(g) == want, trial
            feasible += want is not None
            filtered += want != brute_force_min_pmst(g)
            trial += 1
        assert feasible >= 100 and filtered >= 20, (feasible, filtered)

    def test_cap_counts_trees_with_a_perfect_matching(self):
        g = complete(6)
        _, n_trees = reference_min_pmst(g)
        assert 0 < n_trees < sum(1 for _ in spanning_trees(g))
        assert brute_force_min_sbst(g, cap=n_trees) is not None
        with pytest.raises(TruncatedError, match=f"more than {n_trees - 1} "):
            brute_force_min_sbst(g, cap=n_trees - 1)

    def test_cap_is_exact_on_seeded_dense_graphs(self):
        # On the matching-first route: an answer at the number of trees
        # with a perfect matching, and one fewer raises with that number.
        rng = random.Random(816)
        checked = 0
        while checked < 40:
            n = rng.choice((6, 8))
            g = connected_random(rng, n, rng.randrange(2, 10))
            if max_degree(g) < 4:
                continue
            want, total = reference_min_sbst(g)
            if not total:
                continue
            assert brute_force_min_sbst(g, cap=total) == want, checked
            message = f"^more than {total - 1} spanning trees contain a perfect matching$"
            with pytest.raises(TruncatedError, match=message):
                brute_force_min_sbst(g, cap=total - 1)
            checked += 1

    def test_accept_sees_only_trees_that_would_become_the_best(self):
        # ``accept`` here turns down every tree whose index sum is a
        # multiple of three, so rejections occur; each tree it is asked
        # about must beat the best it has accepted, on (weight, key).
        rng = random.Random(817)
        asked = rejected = 0
        for trial in range(150):
            n = rng.choice((4, 6, 8))
            g = connected_random(rng, n, rng.randrange(0, 12))
            if trial % 2:
                g = WeightedGraph(n, [(u, v, rng.choice((1, 2))) for u, v, _ in g.edges])
            best = None

            def accept(tree):
                nonlocal best, asked, rejected
                key = (sum(g.edges[i][2] for i in tree), tree)
                assert best is None or key < best, (trial, key, best)
                asked += 1
                if sum(tree) % 3 == 0:
                    rejected += 1
                    return False
                best = key
                return True

            got = oracle._min_matched_tree(g, oracle.DEFAULT_TREE_CAP, accept)
            want, _ = reference_min_pmst(g, lambda tree: sum(tree) % 3 != 0)
            assert got == want, trial
            assert got is None or (got[1], tuple(sorted(got[0]))) == best
        assert asked >= 300 and rejected >= 100, (asked, rejected)

    @pytest.mark.parametrize(
        "g",
        [complete(5), WeightedGraph(6, [(0, v, 1) for v in range(1, 6)])],
        ids=["K5", "star"],
    )
    def test_no_perfect_matching_answers_before_enumerating(self, g):
        # Odd order, or even order without a perfect matching, on the
        # dense route: no tree is built, so a cap of zero is not reached.
        assert max_degree(g) >= 4
        assert brute_force_min_sbst(g, cap=0) is None

    def test_long_cycle_leaves_the_recursion_limit_alone(self):
        limit = sys.getrecursionlimit()
        got = brute_force_min_sbst(cycle(1000))
        assert got is not None and got[1] == 999
        assert sys.getrecursionlimit() == limit

    def test_satisfiable_one_variable_reduction_has_a_tree(self):
        from treematch import CnfFormula, default_layout, reduce_sat_to_sbst

        layout = default_layout(CnfFormula(1, ((1, 1, 1),)))
        red = reduce_sat_to_sbst(layout)
        assert brute_force_sbst_exists(red.graph) is not None


class TestBruteForceSbstExists:
    def test_matches_min_variant_feasibility(self):
        rng = random.Random(505)
        for _ in range(40):
            n = rng.randrange(2, 9)
            g = connected_random(rng, n, rng.randrange(0, n))
            hit = brute_force_sbst_exists(g)
            full = brute_force_min_sbst(g)
            assert (hit is None) == (full is None)
            if hit is not None:
                t = as_bipartitioned_tree(g, hit)
                assert is_strongly_balanced(t) is not None

    def test_circular_ladder_600_leaves_the_recursion_limit_alone(self):
        # 1800 edges, one search level each: deeper than Python's default
        # recursion limit.
        limit = sys.getrecursionlimit()
        g = circular_ladder(600)
        hit = brute_force_sbst_exists(g)
        assert hit is not None
        assert is_strongly_balanced(as_bipartitioned_tree(g, hit)) is not None
        assert sys.getrecursionlimit() == limit


class TestBruteForceOptAug:
    def test_already_feasible_costs_nothing(self):
        h = WeightedGraph(2, [(0, 1, 1)])
        assert brute_force_opt_aug(h, HostKind.complete(2)) == 0

    def test_two_isolated_vertices(self):
        h = WeightedGraph(2, [])
        assert brute_force_opt_aug(h, HostKind.complete(2)) == 1

    def test_four_isolated_vertices(self):
        h = WeightedGraph(4, [])
        assert brute_force_opt_aug(h, HostKind.complete(4)) == 3

    def test_six_isolated_vertices(self):
        h = WeightedGraph(6, [])
        assert brute_force_opt_aug(h, HostKind.complete(6)) == 5

    def test_empty_bipartite_two_two(self):
        host = HostKind.complete_bipartite(range(2), range(2, 4))
        assert brute_force_opt_aug(WeightedGraph(4, []), host) == 3

    def test_matches_closed_formula_on_random_graphs(self):
        rng = random.Random(506)
        for _ in range(30):
            n = rng.choice([2, 4, 6])
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pool)
            chosen = sorted(pool[: rng.randrange(0, len(pool) + 1)])
            h = WeightedGraph(n, [(u, v, 1) for u, v in chosen])
            want = augmentation_optimum(deficiency_profile(h))
            assert brute_force_opt_aug(h, HostKind.complete(n)) == want

    def test_odd_order_rejected(self):
        with pytest.raises(OddVertexCountError):
            brute_force_opt_aug(WeightedGraph(3, []), HostKind.complete(3))

    @staticmethod
    def answer(solve, h, host):
        try:
            return solve(h, host)
        except OddVertexCountError as exc:
            return str(exc)

    def test_equals_reference_on_every_graph_up_to_four_vertices(self):
        # Every graph on 1 to 4 vertices under the complete host, and
        # every one whose edges cross a balanced split under that split's
        # bipartite host.
        checked = 0
        for n in range(1, 5):
            pairs = pairs_of(n)
            hosts = [HostKind.complete(n)]
            if n % 2 == 0:
                hosts += [
                    HostKind.complete_bipartite(plus, set(range(n)) - set(plus))
                    for plus in combinations(range(n), n // 2)
                    if 0 in plus
                ]
            for host in hosts:
                for mask in range(1 << len(pairs)):
                    h = graph_from_mask(n, mask, pairs)
                    if not all(host.admits_edge(u, v) for u, v, _ in h.edges):
                        continue
                    want = self.answer(reference_opt_aug, h, host)
                    assert self.answer(brute_force_opt_aug, h, host) == want, (n, mask, host)
                    checked += 1
        assert checked == 1 + 2 + 8 + 64 + 2 + 3 * 16

    def test_equals_reference_on_seeded_six_and_eight_vertex_graphs(self):
        rng = random.Random(510)
        for trial in range(300):
            n = rng.choice((6, 8))
            if trial % 2:
                order = rng.sample(range(n), n)
                host = HostKind.complete_bipartite(order[: n // 2], order[n // 2 :])
            else:
                host = HostKind.complete(n)
            pool = [(u, v) for u, v in pairs_of(n) if host.admits_edge(u, v)]
            chosen = sorted(rng.sample(pool, rng.randrange(0, len(pool) // 2 + 1)))
            h = WeightedGraph(n, [(u, v, 1) for u, v in chosen])
            assert brute_force_opt_aug(h, host) == reference_opt_aug(h, host), (trial, chosen)

    def test_size_limit(self):
        with pytest.raises(TooLargeError):
            brute_force_opt_aug(WeightedGraph(10, []), HostKind.complete(10))

    @staticmethod
    def root_bound(h):
        profile = deficiency_profile(h)
        return max(profile.component_count - 1, profile.deficiency // 2)

    @pytest.mark.parametrize(
        "pairs, plus, want",
        [
            # A star of deficiency two and two matched edges: the root
            # bound is max(3 - 1, 2 // 2) = 2, the optimum 2 // 2 + 2.
            ([(0, 1), (0, 2), (0, 3), (4, 5), (6, 7)], None, 3),
            # A six-vertex tree of deficiency two next to a matched edge:
            # root bound 1, optimum 2, under either host.
            ([(0, 5), (1, 2), (3, 4), (3, 5), (3, 6), (5, 7)], None, 2),
            ([(0, 7), (1, 3), (2, 4), (2, 5), (2, 7), (6, 7)], (3, 4, 5, 7), 2),
            ([(0, 2), (0, 5), (0, 6), (1, 5), (3, 5), (4, 7)], (2, 5, 6, 7), 2),
        ],
        ids=["star-and-two-edges", "tree-and-edge", "spider-and-edge", "bipartite-tree-and-edge"],
    )
    def test_optimum_above_the_root_bound(self, pairs, plus, want):
        h = WeightedGraph(8, [(u, v, 1) for u, v in pairs])
        if plus is None:
            host = HostKind.complete(8)
        else:
            host = HostKind.complete_bipartite(plus, set(range(8)) - set(plus))
        assert self.root_bound(h) < want
        assert brute_force_opt_aug(h, host) == want
        assert reference_opt_aug(h, host) == want
        assert augmentation_optimum(deficiency_profile(h)) == want

    def test_deepens_past_the_root_bound_on_seeded_trees(self):
        # A random tree on six of eight vertices plus an edge on the other
        # two, under the complete host and, when the tree's colour classes
        # are equal, under the bipartite host they make.  A tree of even
        # deficiency d >= 2 next to a matched edge needs d / 2 + 1 edges,
        # one more than the root bound, so the search has to deepen.
        rng = random.Random(2525)
        deeper = {False: 0, True: 0}  # keyed by host.is_bipartite
        for _ in range(120):
            order = rng.sample(range(8), 8)
            tree = prufer_tree(tuple(rng.randrange(6) for _ in range(4)), 6)
            pairs = {tuple(sorted((order[a], order[b]))) for a, b in tree + [(6, 7)]}
            h = WeightedGraph(8, [(u, v, 1) for u, v in sorted(pairs)])
            side = bipartition_of(h)
            hosts = [HostKind.complete(8)]
            if side.count(0) == 4:
                plus = [v for v in range(8) if side[v] == 0]
                hosts.append(HostKind.complete_bipartite(plus, set(range(8)) - set(plus)))
            for host in hosts:
                got = brute_force_opt_aug(h, host)
                assert got == reference_opt_aug(h, host), (sorted(pairs), host)
                assert got == augmentation_optimum(deficiency_profile(h)), (sorted(pairs), host)
                deeper[host.is_bipartite] += got > self.root_bound(h)
        assert deeper[False] >= 40 and deeper[True] >= 6, deeper


class TestMaxMatchingSizeExhaustive:
    def test_petersen(self):
        assert max_matching_size_exhaustive(petersen()) == 5

    def test_path(self):
        g = WeightedGraph(5, [(i, i + 1, 1) for i in range(4)])
        assert max_matching_size_exhaustive(g) == 2

    def test_size_limit(self):
        with pytest.raises(TooLargeError):
            max_matching_size_exhaustive(WeightedGraph(21, []))


class TestBruteForceSat:
    def test_single_positive_clause(self):
        assert brute_force_sat(1, [(1,)]) == (1,)

    def test_contradiction(self):
        assert brute_force_sat(1, [(1,), (-1,)]) is None

    def test_lexicographically_first_answer(self):
        got = brute_force_sat(3, [(1, 2, 3), (-1, -2, -3)])
        assert got == (0, 0, 1)

    def test_no_clauses_means_all_false(self):
        assert brute_force_sat(3, []) == (0, 0, 0)

    def test_empty_clause_unsatisfiable(self):
        assert brute_force_sat(2, [()]) is None

    def test_matches_direct_scan(self):
        rng = random.Random(507)
        for _ in range(30):
            n = rng.randrange(1, 6)
            m = rng.randrange(0, 5)
            clauses = [
                tuple(
                    rng.choice([1, -1]) * rng.randrange(1, n + 1)
                    for _ in range(rng.randrange(1, 4))
                )
                for _ in range(m)
            ]
            def ok(a):
                return all(
                    any((lit > 0) == bool(a[abs(lit) - 1]) for lit in cl)
                    for cl in clauses
                )
            want = next((a for a in product((0, 1), repeat=n) if ok(a)), None)
            assert brute_force_sat(n, clauses) == want

    def test_variable_limit(self):
        with pytest.raises(TooLargeError):
            brute_force_sat(21, [])
