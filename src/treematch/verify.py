"""Linear-time certificate checks that share no code with the solvers."""

from __future__ import annotations

from typing import Collection

from .errors import InternalError
from .graph import WeightedGraph


def check_tree_with_matching(
    g: WeightedGraph, tree: Collection[int], matching: Collection[int]
) -> None:
    """Check that ``tree`` indexes a spanning tree of g and ``matching`` a
    perfect matching of g inside it.

    n - 1 in-range edges that close no cycle span g, which one union-find
    pass with path halving checks in O(n log n), near linear in practice;
    matching edges that all lie in the tree and cover no vertex twice are
    perfect when there are n / 2 of them.  Raises ``InternalError``.
    """
    n, edges = g.vertex_count, g.edges
    if len(tree) != n - 1:
        raise InternalError(f"{len(tree)} tree edges on {n} vertices")
    parent = list(range(n))
    for i in tree:
        if not 0 <= i < len(edges):
            raise InternalError(f"tree edge index {i} is out of range")
        u, v, _ = edges[i]
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            raise InternalError(f"tree edge {i} closes a cycle")
        parent[u] = v
    in_tree = set(tree)
    covered = [False] * n
    for i in matching:
        if i not in in_tree:
            raise InternalError(f"matching edge {i} is not a tree edge")
        u, v, _ = edges[i]
        if covered[u] or covered[v]:
            raise InternalError(f"matching edge {i} covers a vertex twice")
        covered[u] = covered[v] = True
    if 2 * len(matching) != n:
        raise InternalError(f"the matching leaves vertex {covered.index(False)} uncovered")
