"""Maximum matchings on general graphs, deficiency bookkeeping, and the
unique perfect matching of a tree.

The matching search is the classical blossom-contraction algorithm: grow an
alternating BFS forest from each exposed vertex, shrink odd cycles onto
their base, and flip the matching along any augmenting path found.  It is
exact on general (non-bipartite) graphs and runs in polynomial time.  All
scans go through vertices and incident edges in ascending index order, so
the result is a deterministic function of the input edge order.

Each search resets and sweeps only the vertices of its own tree, so a
search that stays inside a small component costs time proportional to
that component, not to n.  ``members[b]`` lists the vertices whose current
base is b, for each base that has absorbed others in the current search.
A contraction walks only the member lists of the bases on the odd cycle
and appends them to the new base's list, so it costs O(blossom), not
O(search tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import OddDeficiencyError
from .graph import BipartitionedTree, EdgeSet, WeightedGraph, connected_components


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges of ``graph``.

    ``mate[v]`` is the matched partner of v, or None if v is exposed.
    """

    graph: WeightedGraph
    edges: EdgeSet
    mate: tuple[int | None, ...]

    @classmethod
    def from_edges(cls, g: WeightedGraph, edge_indices: Iterable[int]) -> "Matching":
        edges = frozenset(edge_indices)
        mate: list[int | None] = [None] * g.vertex_count
        for i in edges:
            u, v, _ = g.edges[i]
            if mate[u] is not None or mate[v] is not None:
                raise ValueError(f"edge {i} shares a vertex with another matching edge")
            mate[u] = v
            mate[v] = u
        return cls(g, edges, tuple(mate))

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.edges) == self.graph.vertex_count


@dataclass(frozen=True)
class DeficiencyProfile:
    """Per-component deficiencies of a graph.

    The deficiency of a graph is the number of vertices left exposed by a
    maximum matching.  ``per_component`` follows the component order of
    :func:`treematch.graph.connected_components` (smallest vertex first).
    The totals are taken once, when the profile is made, and kept outside
    the dataclass fields, so equality, hash and repr look at
    ``per_component`` alone.  Deficiencies are never negative, so every
    component that is not matched is deficient.
    """

    per_component: tuple[int, ...]

    def __post_init__(self) -> None:
        per = self.per_component
        matched = per.count(0)
        object.__setattr__(self, "_totals", (sum(per), len(per) - matched, matched))

    @property
    def deficiency(self) -> int:
        return self._totals[0]

    @property
    def component_count(self) -> int:
        return len(self.per_component)

    @property
    def deficient_count(self) -> int:
        """Number of components with positive deficiency."""
        return self._totals[1]

    @property
    def matched_count(self) -> int:
        """Number of components that have a perfect matching."""
        return self._totals[2]

    @property
    def half_deficiency(self) -> int:
        if self.deficiency % 2:
            raise OddDeficiencyError(f"total deficiency {self.deficiency} is odd")
        return self.deficiency // 2


def _mates_by_blossom(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum matching as a mate array (-1 = exposed).

    ``adj[v]`` must list v's neighbors in ascending edge-index order.
    """
    mate = [-1] * n
    # Greedy seed, vertices ascending: cuts the number of augmentations.
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break

    # Per-search state.  Only the vertices in ``touched`` (the current
    # search tree) can differ from the reset values, so only they are reset.
    p = [-1] * n  # BFS parent of odd-level vertices
    base = list(range(n))  # blossom base each vertex is currently shrunk to
    used = [False] * n  # even-level (outer) vertices
    blossom = [False] * n
    seen = [0] * n  # lca marks: seen[v] == stamp means marked in this call
    stamp = 0
    touched: list[int] = []
    # Vertices shrunk to each base that absorbed others in this search; any
    # other base covers only itself.
    members: dict[int, list[int]] = {}

    def lca(a: int, b: int) -> int:
        nonlocal stamp
        stamp += 1
        while True:
            a = base[a]
            seen[a] = stamp
            if mate[a] == -1:
                break
            a = p[mate[a]]
        while True:
            b = base[b]
            if seen[b] == stamp:
                return b
            b = p[mate[b]]

    def mark_path(v: int, b: int, child: int, marked: list[int]) -> None:
        while base[v] != b:
            for x in (base[v], base[mate[v]]):
                blossom[x] = True
                marked.append(x)
            p[v] = child
            child = mate[v]
            v = p[mate[v]]

    def augment_from(root: int) -> None:
        for i in touched:
            p[i] = -1
            base[i] = i
            used[i] = False
        members.clear()
        touched.clear()
        touched.append(root)
        used[root] = True
        # The BFS queue is a list read from ``head``; v's base is read once
        # and again only after a contraction, the one step that moves it.
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            mv = mate[v]
            bv = base[v]
            for to in adj[v]:
                if bv == base[to] or mv == to:
                    continue
                mt = mate[to]
                if to == root or (mt != -1 and p[mt] != -1):
                    # Odd cycle: shrink the blossom onto its base.  Only
                    # the members of the marked bases move, and newly
                    # outer vertices join the queue in ascending id.
                    curbase = lca(v, to)
                    marked: list[int] = []
                    mark_path(v, curbase, to, marked)
                    mark_path(to, curbase, v, marked)
                    grown = []
                    into = members.setdefault(curbase, [curbase])
                    for x in marked:
                        if not blossom[x]:
                            continue  # marked twice
                        blossom[x] = False
                        moved = members.pop(x, (x,))
                        for i in moved:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                grown.append(i)
                        into += moved
                    grown.sort()
                    queue += grown
                    bv = base[v]
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if mt == -1:
                        # Augmenting path: flip matched edges back to the root.
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = mate[pv]
                            mate[u] = pv
                            mate[pv] = u
                            u = ppv
                        return
                    touched.append(mt)
                    used[mt] = True
                    queue.append(mt)

    for v in range(n):
        # A search from a vertex without neighbours would touch nothing.
        if mate[v] == -1 and adj[v]:
            augment_from(v)
    return mate


def maximum_matching(g: WeightedGraph) -> Matching:
    """A maximum-cardinality matching of g.

    The search never leaves a connected component, so the result is the
    union of per-component maximum matchings.
    """
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    mate = _mates_by_blossom(n, adj)
    # The graph is simple, so each matched pair is exactly one edge.
    edges = frozenset([i for i, (u, v, _) in enumerate(g.edges) if mate[u] == v])
    return Matching(g, edges, tuple([None if u < 0 else u for u in mate]))


def deficiency(g: WeightedGraph) -> int:
    """Number of vertices a maximum matching of g leaves exposed."""
    return g.vertex_count - 2 * maximum_matching(g).size


def deficiency_profile(g: WeightedGraph) -> DeficiencyProfile:
    """Deficiency of every connected component, in component order.

    A maximum matching never crosses components, so exposure counts of one
    global maximum matching give each component's deficiency.
    """
    m = maximum_matching(g)
    comps = connected_components(g)
    per = []
    for comp in comps:
        per.append(sum(1 for v in comp if m.mate[v] is None))
    return DeficiencyProfile(tuple(per))


def tree_perfect_matching(t: BipartitionedTree) -> Matching | None:
    """The perfect matching contained in a tree, or None if there is none.

    A tree contains at most one perfect matching: a leaf can only be
    matched along its single edge, so repeatedly matching a leaf to its
    neighbor and deleting both is forced.  None is a definite negative.
    """
    g = t.graph
    n = g.vertex_count
    if n % 2:
        return None
    deg = list(t.degree)
    alive = [True] * n
    chosen: list[int] = []
    stack = [v for v in range(n - 1, -1, -1) if deg[v] == 1]
    removed = 0
    while stack:
        leaf = stack.pop()
        if not alive[leaf] or deg[leaf] != 1:
            continue
        partner = -1
        partner_edge = -1
        for i, y in t.adjacency[leaf]:
            if alive[y]:
                partner = y
                partner_edge = i
                break
        if partner == -1:
            return None
        chosen.append(partner_edge)
        alive[leaf] = alive[partner] = False
        removed += 2
        for _, y in t.adjacency[partner]:
            if alive[y]:
                deg[y] -= 1
                if deg[y] == 1:
                    stack.append(y)
    if removed != n:
        # Some vertex was stranded with no alive neighbor.
        return None
    return Matching.from_edges(g, chosen)
