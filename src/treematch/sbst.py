"""Strongly balanced spanning trees.

A spanning tree of a bipartite graph is strongly balanced when one side
of the bipartition (the plus side) has exactly one leaf and all of its
other vertices have degree two.  Equivalently, the tree has a perfect
matching and a leaf from which every root-to-vertex path alternates
matching and non-matching edges; both views are implemented and tested
against each other.

On connected balanced bipartite graphs the minimum-weight such tree is
found by matroid intersection: spanning trees are bases of the graphic
matroid, and the degree pattern of a candidate plus side is a partition
matroid capping each plus vertex's star at two edges.  A degree-sum
argument pins the leaf count: n/2 plus vertices cover n - 1 tree edges
with degrees at most two, which forces exactly one vertex of degree one.
Solving once per side and keeping the lighter answer is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedError, Infeasible, InternalError, UnbalancedError
from .graph import (
    MINUS,
    PLUS,
    BipartitionedTree,
    EdgeSet,
    WeightedGraph,
    as_bipartitioned_tree,
    bipartition_of,
    is_connected,
)
from .matching import Matching, tree_perfect_matching
from .matroid import GraphicMatroid, PartitionMatroid, min_weight_common_base


@dataclass(frozen=True)
class SbstCertificate:
    """Witness that a tree is strongly balanced: the plus side, its unique
    leaf, and the perfect matching the structure forces."""

    plus_side: frozenset[int]
    unique_leaf: int
    matching: Matching


def is_strongly_balanced(tree: BipartitionedTree) -> SbstCertificate | None:
    """Check the degree pattern side by side.

    The side containing vertex 0 is tried first, so when both sides
    qualify the certificate names that one.  Unequal sides give None at
    once: each tree edge has one end on the plus side, so k plus vertices
    of this pattern carry 2k - 1 = n - 1 edges, and k = n/2.
    """
    if 2 * tree.side.count(PLUS) != tree.graph.vertex_count:
        return None
    for side in (PLUS, MINUS):
        members = [v for v, s in enumerate(tree.side) if s == side]
        leaves = [v for v in members if tree.degree[v] == 1]
        if len(leaves) != 1:
            continue
        if any(tree.degree[v] != 2 for v in members if v != leaves[0]):
            continue
        matching = tree_perfect_matching(tree)
        if matching is None:
            raise InternalError("degree pattern held without a perfect matching")
        return SbstCertificate(frozenset(members), leaves[0], matching)
    return None


def alternating_characterization(tree: BipartitionedTree) -> SbstCertificate | None:
    """Find a leaf from which every path alternates matching and
    non-matching edges (edges at odd depth matched, even depth not).

    Agrees with ``is_strongly_balanced`` on every tree; the two are
    checked against each other in the test suite.
    """
    matching = tree_perfect_matching(tree)
    if matching is None:
        return None
    n = tree.graph.vertex_count
    matched_edge = set(matching.edges)
    for r in range(n):
        if tree.degree[r] != 1:
            continue
        depth = [-1] * n
        depth[r] = 0
        stack = [r]
        good = True
        while stack and good:
            x = stack.pop()
            for e, y in tree.adjacency[x]:
                if depth[y] != -1:
                    continue
                depth[y] = depth[x] + 1
                if (e in matched_edge) != (depth[y] % 2 == 1):
                    good = False
                    break
                stack.append(y)
        if good:
            plus = frozenset(v for v in range(n) if tree.side[v] == tree.side[r])
            return SbstCertificate(plus, r, matching)
    return None


@dataclass(frozen=True)
class MinSbstResult:
    tree: EdgeSet
    total_weight: int
    certificate: SbstCertificate


def min_sbst_bipartite(g: WeightedGraph) -> MinSbstResult:
    """Minimum-weight strongly balanced spanning tree of a connected,
    balanced bipartite graph.

    Raises NotBipartiteError / DisconnectedError / UnbalancedError on bad
    inputs and Infeasible when no strongly balanced tree exists.  Ties
    between the two side choices go to the side containing vertex 0.
    """
    coloring = bipartition_of(g)
    if not is_connected(g):
        raise DisconnectedError("graph is not connected")
    n = g.vertex_count
    plus = coloring.count(PLUS)
    if 2 * plus != n:
        raise UnbalancedError(f"sides have sizes {plus} and {n - plus}")
    weights = [w for _, _, w in g.edges]
    graphic = GraphicMatroid(g)

    best: tuple[int, EdgeSet] | None = None
    for side in (PLUS, MINUS):
        parts = [[e for e, _ in g.adjacency[v]] for v, s in enumerate(coloring) if s == side]
        caps = [2] * len(parts)
        base = min_weight_common_base(graphic, PartitionMatroid(parts, caps), weights, n - 1)
        if base is None:
            continue
        w = g.total_weight(base)
        if best is None or w < best[0]:
            best = (w, base)
    if best is None:
        raise Infeasible("no strongly balanced spanning tree")
    tree = as_bipartitioned_tree(g, best[1])
    cert = is_strongly_balanced(tree)
    if cert is None:
        raise InternalError("matroid intersection returned a non-balanced tree")
    return MinSbstResult(best[1], best[0], cert)
