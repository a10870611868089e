"""Strongly balanced spanning trees: recognition and minimization."""

import random

import pytest

from treematch import (
    DisconnectedError,
    Infeasible,
    NotBipartiteError,
    UnbalancedError,
    WeightedGraph,
    alternating_characterization,
    as_bipartitioned_tree,
    format_graph,
    is_strongly_balanced,
    min_sbst_bipartite,
)
from treematch.cli import main
from treematch.oracle import brute_force_min_sbst

from helpers import planted_sb_bipartite, random_connected_bipartite, random_tree_edges


def pairs_in(matching):
    g = matching.graph
    return {g.endpoints(i) for i in matching.edges}


def tree_of(n, pairs, weights=None):
    if weights is None:
        edges = [(u, v, 1) for u, v in pairs]
    else:
        edges = [(u, v, w) for (u, v), w in zip(pairs, weights)]
    g = WeightedGraph(n, edges)
    return as_bipartitioned_tree(g, frozenset(range(len(pairs))))


class TestIsStronglyBalanced:
    def test_path_four(self):
        cert = is_strongly_balanced(tree_of(4, [(0, 1), (1, 2), (2, 3)]))
        assert cert is not None
        assert cert.plus_side == frozenset({0, 2})
        assert cert.unique_leaf == 0
        assert pairs_in(cert.matching) == {(0, 1), (2, 3)}

    def test_single_edge_tie_goes_to_vertex_zero_side(self):
        # Both sides qualify; the certificate must name the side with 0.
        cert = is_strongly_balanced(tree_of(2, [(0, 1)]))
        assert cert is not None
        assert cert.plus_side == frozenset({0})
        assert cert.unique_leaf == 0

    def test_path_six_tie(self):
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        cert = is_strongly_balanced(tree_of(6, pairs))
        assert cert is not None
        assert 0 in cert.plus_side
        assert cert.plus_side == frozenset({0, 2, 4})

    def test_star_is_not(self):
        assert is_strongly_balanced(tree_of(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_double_branch_is_not(self):
        # Two leaves hang off the middle of a path: both sides end up with
        # two leaves each, and there is no perfect matching either.
        pairs = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]
        assert is_strongly_balanced(tree_of(6, pairs)) is None

    def test_matched_tree_can_still_fail(self):
        # Path 0..5 with an arm of length two at each end's neighbor.  It
        # has the perfect matching {01, 23, 45, 67, 89} but both sides of
        # the bipartition carry two leaves.
        pairs = [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
            (1, 6), (6, 7), (4, 8), (8, 9),
        ]
        t = tree_of(10, pairs)
        assert is_strongly_balanced(t) is None
        assert alternating_characterization(t) is None

    def test_degree_pattern_with_interior_branch(self):
        # Vertex 1 has degree three but sits on the minus side, which the
        # pattern does not constrain beyond the matching it forces.
        pairs = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]
        cert = is_strongly_balanced(tree_of(6, pairs))
        assert cert is not None
        assert cert.plus_side == frozenset({0, 2, 4})
        assert cert.unique_leaf == 0

    def test_certificate_matching_is_perfect(self):
        pairs = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]
        cert = is_strongly_balanced(tree_of(6, pairs))
        covered = {v for pair in pairs_in(cert.matching) for v in pair}
        assert covered == set(range(6))


class TestAlternatingCharacterization:
    def test_path_four(self):
        cert = alternating_characterization(tree_of(4, [(0, 1), (1, 2), (2, 3)]))
        assert cert is not None
        assert cert.unique_leaf in (0, 3)
        assert pairs_in(cert.matching) == {(0, 1), (2, 3)}

    def test_no_matching_means_none(self):
        assert alternating_characterization(tree_of(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_agrees_with_degree_pattern_on_random_trees(self):
        rng = random.Random(405)
        for _ in range(300):
            n = rng.randrange(2, 13, 2)
            t = tree_of(n, random_tree_edges(rng, n))
            a = is_strongly_balanced(t)
            b = alternating_characterization(t)
            assert (a is None) == (b is None)
            if a is not None:
                # Certificates may name different sides when both qualify,
                # but each must be internally consistent.
                for cert in (a, b):
                    assert cert.unique_leaf in cert.plus_side
                    assert t.degree[cert.unique_leaf] == 1
                    others = cert.plus_side - {cert.unique_leaf}
                    assert all(t.degree[v] == 2 for v in others)

    def test_agreement_on_all_small_trees(self):
        # All trees on six labelled vertices, by direct enumeration of
        # edge subsets.
        from itertools import combinations

        pts = list(combinations(range(6), 2))
        for mask in range(1 << len(pts)):
            if bin(mask).count("1") != 5:
                continue
            pairs = [pts[i] for i in range(len(pts)) if mask >> i & 1]
            g = WeightedGraph(6, [(u, v, 1) for u, v in pairs])
            try:
                t = as_bipartitioned_tree(g, frozenset(range(5)))
            except Exception:
                continue
            assert (is_strongly_balanced(t) is None) == (
                alternating_characterization(t) is None
            )


class TestMinSbstBipartite:
    def test_weighted_cycle_four(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)])
        res = min_sbst_bipartite(g)
        assert res.total_weight == 6
        assert res.tree == frozenset({0, 1, 2})
        assert g.total_weight(res.tree) == 6

    def test_unit_cycle_tie_prefers_vertex_zero_side(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        res = min_sbst_bipartite(g)
        assert res.total_weight == 3
        assert 0 in res.certificate.plus_side

    def test_complete_bipartite_three_three(self):
        edges = [(u, v, 1) for u in range(3) for v in range(3, 6)]
        res = min_sbst_bipartite(WeightedGraph(6, edges))
        assert res.total_weight == 5
        assert len(res.tree) == 5

    def test_single_edge(self):
        res = min_sbst_bipartite(WeightedGraph(2, [(0, 1, 7)]))
        assert res.total_weight == 7
        assert res.certificate.plus_side == frozenset({0})

    def test_tree_without_pattern_is_infeasible(self):
        g = WeightedGraph(
            6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 4, 1), (2, 5, 1)]
        )
        with pytest.raises(Infeasible):
            min_sbst_bipartite(g)

    def test_odd_cycle_rejected(self):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        with pytest.raises(NotBipartiteError):
            min_sbst_bipartite(g)

    def test_unbalanced_rejected(self):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(UnbalancedError):
            min_sbst_bipartite(g)

    def test_disconnected_rejected(self):
        g = WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(DisconnectedError):
            min_sbst_bipartite(g)

    def test_result_is_a_strongly_balanced_tree(self):
        rng = random.Random(406)
        for _ in range(25):
            side = rng.randrange(2, 6)
            g = random_connected_bipartite(rng, side, rng.randrange(2 * side - 1, side * side + 1))
            try:
                res = min_sbst_bipartite(g)
            except Infeasible:
                continue
            assert len(res.tree) == g.vertex_count - 1
            t = as_bipartitioned_tree(g, res.tree)
            cert = is_strongly_balanced(t)
            assert cert is not None
            assert res.total_weight == g.total_weight(res.tree)

    def test_matches_brute_force(self):
        rng = random.Random(407)
        agreements = 0
        infeasible_seen = 0
        for _ in range(40):
            side = rng.randrange(2, 6)
            g = random_connected_bipartite(
                rng, side, rng.randrange(2 * side - 1, side * side + 1)
            )
            want = brute_force_min_sbst(g)
            if want is None:
                infeasible_seen += 1
                with pytest.raises(Infeasible):
                    min_sbst_bipartite(g)
            else:
                agreements += 1
                assert min_sbst_bipartite(g).total_weight == want[1]
        assert agreements >= 20

    def test_heavier_side_choice_not_taken(self):
        # Plus side {0, 2} forces both edges at vertex 4's star to appear
        # when the tree must pass through it; weights are rigged so the
        # optimum differs per side and the cheaper one must win.
        edges = [
            (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 10),
            (0, 5, 10), (4, 5, 1), (3, 4, 1),
        ]
        g = WeightedGraph(6, edges)
        res = min_sbst_bipartite(g)
        want = brute_force_min_sbst(g)
        assert want is not None
        assert res.total_weight == want[1]


def two_valued_bipartite(seed, side, target_edges):
    """Seeded connected balanced bipartite graph with every weight 1 or 2,
    so most instances have several optimal strongly balanced trees."""
    g = random_connected_bipartite(random.Random(seed), side, target_edges, wmax=1)
    return WeightedGraph(g.vertex_count, [(u, v, w + 1) for u, v, w in g.edges])


# two_valued_bipartite(*key) -> its minimum strongly balanced tree as
# edge indices, fixed by the intersection's smallest-source tie-break.
# By enumeration, the graphs of seeds 1 to 5 have 7, 2, 54, 12 and 30
# optimal trees.
TIE_BREAK_TREES = {
    (1, 3, 7): [0, 1, 2, 4, 5],
    (2, 4, 10): [0, 1, 3, 5, 6, 7, 8],
    (3, 5, 14): [0, 1, 3, 4, 6, 8, 11, 12, 13],
    (4, 6, 18): [0, 1, 4, 5, 6, 7, 8, 10, 11, 12, 15],
    (5, 6, 20): [0, 1, 3, 7, 10, 11, 13, 14, 16, 17, 18],
    (6, 10, 30): [0, 2, 5, 7, 8, 10, 12, 13, 14, 15, 16, 18, 19, 22, 23, 24, 26, 27, 29],
}

# planted_sb_bipartite(random.Random(100), 50, 600): a graph the size of
# the sbst-bipartite benchmark's, and its minimum strongly balanced tree
# (weight 60) as edge indices.
BENCH_SIZED_TREE = [
    0, 11, 22, 24, 32, 33, 52, 55, 59, 64, 68, 76, 84, 85, 98, 102, 103, 110,
    111, 114, 122, 127, 136, 139, 146, 152, 161, 165, 169, 172, 182, 186, 192,
    195, 205, 206, 216, 217, 232, 236, 240, 246, 251, 256, 264, 266, 279, 280,
    289, 310, 311, 316, 318, 323, 324, 330, 333, 339, 345, 356, 358, 366, 367,
    376, 377, 389, 397, 406, 410, 411, 413, 431, 432, 435, 437, 452, 454, 461,
    464, 470, 474, 484, 486, 490, 492, 506, 509, 516, 529, 534, 538, 548, 553,
    558, 572, 583, 586, 589, 592,
]

TIE_BREAK_REPORT = """\
{
  "status": "feasible",
  "value": 6,
  "edges": [
    [
      0,
      4
    ],
    [
      0,
      5
    ],
    [
      1,
      3
    ],
    [
      1,
      5
    ],
    [
      2,
      3
    ]
  ],
  "certificate": {
    "plus_side": [
      0,
      1,
      2
    ],
    "unique_leaf": 2,
    "matching": [
      [
        0,
        4
      ],
      [
        1,
        5
      ],
      [
        2,
        3
      ]
    ]
  }
}
"""


class TestTieBreaks:
    """Which optimal tree comes out is part of the observable output."""

    @pytest.mark.parametrize("instance", sorted(TIE_BREAK_TREES))
    def test_exact_tree(self, instance):
        res = min_sbst_bipartite(two_valued_bipartite(*instance))
        assert sorted(res.tree) == TIE_BREAK_TREES[instance]

    def test_exact_cli_report(self, tmp_path, capsys):
        path = tmp_path / "ties.graph"
        path.write_text(format_graph(two_valued_bipartite(1, 3, 7)))
        assert main(["minsbst-bipartite", str(path)]) == 0
        assert capsys.readouterr().out == TIE_BREAK_REPORT

    def test_exact_bench_sized_tree(self):
        g = planted_sb_bipartite(random.Random(100), 50, 600)
        assert g.edge_count == 600
        res = min_sbst_bipartite(g)
        assert res.total_weight == 60
        assert sorted(res.tree) == BENCH_SIZED_TREE
        assert res.certificate.unique_leaf == 24
