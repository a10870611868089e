"""The tree-with-matching certificate checker: every corruption is caught,
and on small graphs it agrees with re-deriving the tree's matching."""

from __future__ import annotations

import pytest

import treematch.cli
from helpers import graph_from_mask, pairs_of
from treematch import (
    Infeasible,
    InternalError,
    Matching,
    NotATreeError,
    TreeWithMatching,
    WeightedGraph,
    as_bipartitioned_tree,
    check_tree_with_matching,
    is_connected,
    maximum_matching,
    pmst_feasible,
    tree_perfect_matching,
)

# The path 0-1-2-3-4-5 (edges 0-4) plus the chords {0, 2} and {3, 5}.
PATH6 = WeightedGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (3, 5)])
PATH_TREE = [0, 1, 2, 3, 4]
PATH_MATCHING = [0, 2, 4]


class TestCorruptions:
    def test_the_path_and_its_matching_pass(self):
        check_tree_with_matching(PATH6, PATH_TREE, PATH_MATCHING)

    def test_matching_edge_outside_the_tree(self):
        # {3, 5} replaces {4, 5} in the matching; the tree stays the path.
        with pytest.raises(InternalError, match="matching edge 6 is not a tree edge"):
            check_tree_with_matching(PATH6, PATH_TREE, [0, 2, 6])

    def test_vertex_covered_twice(self):
        with pytest.raises(InternalError, match="matching edge 1 covers a vertex twice"):
            check_tree_with_matching(PATH6, PATH_TREE, [0, 1, 4])

    def test_repeated_matching_edge(self):
        with pytest.raises(InternalError, match="covers a vertex twice"):
            check_tree_with_matching(PATH6, PATH_TREE, [0, 2, 2])

    def test_vertex_left_uncovered(self):
        with pytest.raises(InternalError, match="leaves vertex 4 uncovered"):
            check_tree_with_matching(PATH6, PATH_TREE, [0, 2])

    def test_n_minus_one_edges_that_close_a_cycle(self):
        # 0-1-2-0 is a triangle, so vertex 5 hangs off nothing.
        with pytest.raises(InternalError, match="tree edge 5 closes a cycle"):
            check_tree_with_matching(PATH6, [0, 1, 5, 2, 3], PATH_MATCHING)

    def test_repeated_tree_edge(self):
        with pytest.raises(InternalError, match="closes a cycle"):
            check_tree_with_matching(PATH6, [0, 1, 2, 3, 3], PATH_MATCHING)

    @pytest.mark.parametrize("tree", [[0, 1, 2, 3], [0, 1, 2, 3, 4, 5], []])
    def test_wrong_edge_count(self, tree):
        with pytest.raises(InternalError, match=f"{len(tree)} tree edges on 6 vertices"):
            check_tree_with_matching(PATH6, tree, PATH_MATCHING)

    @pytest.mark.parametrize("index", [7, -1, 10**9])
    def test_out_of_range_index(self, index):
        with pytest.raises(InternalError, match=f"tree edge index {index} is out of range"):
            check_tree_with_matching(PATH6, [0, 1, 2, 3, index], PATH_MATCHING)

    def test_internal_error_is_an_assertion_error_not_an_input_error(self):
        assert issubclass(InternalError, AssertionError)
        with pytest.raises(InternalError):
            check_tree_with_matching(PATH6, PATH_TREE, [])

    def test_the_cli_lets_a_failed_check_escape(self, tmp_path, monkeypatch, capsys):
        # pmst-check runs the checker on every tree it reports; a solver
        # that hands it a matching outside the tree is a bug, not exit 1.
        def broken(g):
            return TreeWithMatching(pmst_feasible(g).tree, Matching.from_edges(g, []))

        monkeypatch.setattr(treematch.cli, "pmst_feasible", broken)
        path = tmp_path / "k4.graph"
        path.write_text("p 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n")
        with pytest.raises(InternalError, match="uncovered"):
            treematch.cli.main(["pmst-check", str(path)])
        assert capsys.readouterr().out == ""


def reference_accepts(g, tree, matching) -> bool:
    """Whether ``tree`` is a spanning tree whose perfect matching, derived
    from the tree alone, is ``matching``."""
    try:
        m = tree_perfect_matching(as_bipartitioned_tree(g, tree))
    except NotATreeError:
        return False
    return m is not None and m.edges == frozenset(matching)


def checker_accepts(g, tree, matching) -> bool:
    try:
        check_tree_with_matching(g, tree, matching)
    except InternalError:
        return False
    return True


def test_agrees_with_the_rederived_matching_on_every_graph_up_to_six_vertices():
    # Every infeasible graph gets the reason its obstruction names.  For
    # the others, both verdicts are compared on the record itself and on
    # a neighbouring tree with the same matching: its largest connector
    # swapped for the smallest edge outside it, which is sometimes a
    # spanning tree again and sometimes closes a cycle.
    verdicts = {True: 0, False: 0}
    for n in range(1, 7):
        pairs = pairs_of(n)
        for mask in range(1 << len(pairs)):
            g = graph_from_mask(n, mask, pairs)
            try:
                found = pmst_feasible(g)
            except Infeasible as exc:
                # Disconnection is named first, perfect matching or not.
                connected = is_connected(g)
                assert exc.reason == ("no perfect matching" if connected else "disconnected")
                assert not connected or maximum_matching(g).size * 2 < n
                continue
            tree, matching = sorted(found.tree), sorted(found.matching.edges)
            assert checker_accepts(g, tree, matching)
            assert reference_accepts(g, tree, matching)
            outside = [i for i in range(g.edge_count) if i not in found.tree]
            connectors = [i for i in tree if i not in found.matching.edges]
            if outside and connectors:
                swapped = [i for i in tree if i != connectors[-1]] + outside[:1]
                verdict = checker_accepts(g, swapped, matching)
                assert verdict == reference_accepts(g, swapped, matching)
                verdicts[verdict] += 1
    assert min(verdicts.values()) > 1000
