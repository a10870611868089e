"""Spanning trees that contain a perfect matching.

Feasibility on one graph is easy: such a tree exists iff the graph is
connected and has a perfect matching, and one can be built by seeding a
forest with any perfect matching and connecting it up.

The optimization problems live on a host (a complete graph, or a balanced
complete bipartite graph) whose edges carry one of two weights a < b.
Minimizing the weight of a tree-with-matching then reduces to making the
light subgraph connected and perfectly matchable with as few host-edge
additions as possible.  ``augmentation_optimum`` gives that number in
closed form from the per-component deficiencies; ``greedy_augment``
achieves it constructively, one edge at a time.

The greedy fills flat per-component arrays in one pass over the
components: heaps of exposed vertices, merged smaller into larger, and a
counted deficiency.  Each stage is then a direct pass over the components
or over a few lists of deficient ones, so apart from the maximum matching
and one list insertion per stage-1 join it runs in O(m + n log^2 n),
while keeping the tie rules of a plain scan over the components.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import neg
from typing import Iterable

from .errors import (
    DisconnectedError,
    HostMismatchError,
    Infeasible,
    InternalError,
    OddVertexCountError,
    UnbalancedError,
    WeightOrderError,
)
from .graph import (
    MINUS,
    PLUS,
    BadEdgeError,
    EdgeSet,
    WeightedGraph,
    connected_components,
    is_connected,
)
from .matching import (
    DeficiencyProfile,
    Matching,
    maximum_matching,
)


@dataclass(frozen=True)
class HostKind:
    """The ambient graph edges may be drawn from.

    Either the complete graph on ``n`` vertices, with ``side`` None, or the
    complete bipartite graph between two equal-size sides that cover
    ``0 .. n - 1``, with ``side[v]`` ``PLUS`` or ``MINUS``.  The sides are
    checked once, by ``complete_bipartite``.
    """

    n: int
    side: tuple[int, ...] | None = None

    @classmethod
    def complete(cls, n: int) -> "HostKind":
        if n < 1:
            raise ValueError("host needs at least one vertex")
        return cls(n)

    @classmethod
    def complete_bipartite(cls, side_plus: Iterable[int], side_minus: Iterable[int]) -> "HostKind":
        plus = frozenset(side_plus)
        minus = frozenset(side_minus)
        if plus & minus:
            raise ValueError(f"sides overlap: {sorted(plus & minus)}")
        if len(plus) != len(minus):
            raise UnbalancedError(f"sides have sizes {len(plus)} and {len(minus)}")
        n = len(plus) + len(minus)
        if n < 2:
            raise ValueError("host needs at least one vertex per side")
        if plus | minus != frozenset(range(n)):
            raise HostMismatchError("host sides do not cover the vertex set")
        return cls(n, tuple(MINUS if v in minus else PLUS for v in range(n)))

    @property
    def is_bipartite(self) -> bool:
        return self.side is not None

    def side_of(self, v: int) -> int:
        """``PLUS`` (0) or ``MINUS`` (1) for a vertex of a bipartite host."""
        if self.side is None:
            raise HostMismatchError("a complete host has no sides")
        if not 0 <= v < self.n:
            raise HostMismatchError(f"vertex {v} is on neither side of the host")
        return self.side[v]

    def admits_edge(self, u: int, v: int) -> bool:
        return u != v and (self.side is None or self.side_of(u) != self.side_of(v))

    def validate_graph(self, g: WeightedGraph) -> None:
        """Check that g could be a subgraph of this host."""
        if g.vertex_count != self.n:
            raise HostMismatchError(f"graph has {g.vertex_count} vertices, host has {self.n}")
        side = self.side
        if side is None:
            return
        for u, v, _ in g.edges:
            if side[u] == side[v]:
                raise HostMismatchError(f"edge {{{u}, {v}}} does not cross the host sides")


@dataclass(frozen=True)
class AugmentationResult:
    """Outcome of ``greedy_augment``.

    ``graph`` is the input plus every added edge; ``matching`` is perfect
    on it; ``added_edges`` are in addition order; ``stage_added`` counts
    the edges each of the greedy's four stages added, so it sums to
    ``added_count``.
    """

    graph: WeightedGraph
    added_edges: tuple[tuple[int, int], ...]
    matching: Matching
    stage_added: tuple[int, int, int, int]

    @property
    def added_count(self) -> int:
        return len(self.added_edges)


def build_tree_containing_matching(g: WeightedGraph, matching: Matching) -> EdgeSet:
    """A spanning tree of g that contains the given perfect matching.

    The matching edges seed a forest; connectors are then taken greedily,
    preferring lower weight and then lower edge index.  That order is a
    stable sort of the ascending non-matching indices keyed on the weight
    alone, and the union-find walks (path halving) are inlined, so the
    completion costs one sort plus near-linear scanning.
    """
    if matching.graph is not g:
        raise ValueError("matching belongs to a different graph")
    if not matching.is_perfect:
        raise ValueError("matching is not perfect")
    edges = g.edges
    parent = list(range(g.vertex_count))
    tree = set(matching.edges)
    for i in tree:
        u, v, _ = edges[i]
        parent[u] = v  # a matching's edges are disjoint, so u and v are roots
    need = g.vertex_count - 1 - len(tree)  # connectors still to take
    order = [i for i in range(len(edges)) if i not in tree]
    order.sort(key=[w for _, _, w in edges].__getitem__)
    for i in order:
        if not need:
            break
        u, v, _ = edges[i]
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            parent[u] = v
            tree.add(i)
            need -= 1
    if need:
        raise DisconnectedError("graph is not connected")
    return frozenset(tree)


@dataclass(frozen=True)
class TreeWithMatching:
    """A spanning tree and the perfect matching inside it.

    A tree contains at most one perfect matching, so ``matching`` is the
    tree's own; ``verify.check_tree_with_matching`` checks the pair.
    """

    tree: EdgeSet
    matching: Matching


def pmst_feasible(g: WeightedGraph) -> TreeWithMatching:
    """A spanning tree of g with the perfect matching that seeded it.

    Raises Infeasible("disconnected") or Infeasible("no perfect matching");
    those two conditions are the exact obstructions, and a disconnected
    graph is reported as such whether or not it is perfectly matchable.
    Connectivity is tested on its own only when there is no perfect
    matching; otherwise the tree completion finds it.
    """
    m = maximum_matching(g)
    if not m.is_perfect:
        raise Infeasible("no perfect matching" if is_connected(g) else "disconnected")
    try:
        return TreeWithMatching(build_tree_containing_matching(g, m), m)
    except DisconnectedError:
        raise Infeasible("disconnected") from None


def augmentation_optimum(profile: DeficiencyProfile) -> int:
    """Minimum number of host edges whose addition makes a graph connected
    with a perfect matching, given its per-component deficiencies.

    With c components of which c_plus are deficient and c_zero are not:
    c - 1 additions suffice when the deficiency is zero or when half the
    total deficiency is below c_plus (connector edges can then absorb all
    the exposure); otherwise every pairing of exposed vertices is needed
    and the optimum is deficiency/2 + c_zero.
    """
    # Raises OddDeficiencyError: whole edges cannot repair an odd deficiency.
    half = profile.half_deficiency
    if half == 0 or half < profile.deficient_count:
        return profile.component_count - 1
    return half + profile.matched_count


def greedy_augment(h: WeightedGraph, host: HostKind) -> AugmentationResult:
    """Add a minimum number of host edges so that h becomes connected and
    perfectly matchable, returning the additions and a perfect matching.

    Stage 1 joins a deficient component to one of deficiency at least two
    through exposed vertices, stage 2 pairs up deficiency-one components,
    stage 3 matches exposed vertex pairs inside the one remaining deficient
    component, and stage 4 connects the rest.  Edges added in stages 1-3
    join two exposed vertices and extend the maintained matching, so every
    one of them reduces the total deficiency by two; stage 4 edges only
    reduce the component count.  All choices are deterministic: components
    are ranked by smallest contained vertex and exposed vertices by id.
    On bipartite hosts every added edge must cross sides, which forces the
    exposed-pair choices documented inline.

    A component is named by its smallest vertex, its root.  One pass over
    the list from ``connected_components`` fills flat arrays indexed by
    root: for deficient roots only, the exposed vertices per host side (a
    complete host uses side 0 only) as ascending lists, which are heaps,
    and their count, the deficiency; for every root, the smallest vertex
    on the side stage 4 joins through.  The same pass files each deficient
    root into one of a few descending root lists, by deficiency one or
    more and by the sides of its exposure.  A stage-1 join reads its pair
    off the ends of those lists and files the joined root back by
    bisection, at the end on a complete host and nearly always on a
    bipartite one; stages 2-4 are single passes over the lists and the
    roots.  Beyond the maximum matching this costs O(m + n log^2 n), the
    share of the exposed heaps merged smaller into larger, plus the memory
    moves of those insertions.  Under CPython 3.11, on the sparse
    1000-vertex benchmark graphs, the maximum matching takes 35-40% of the
    time; ``connected_components``, the rest of the set-up pass, stage 1
    and the check of the new edges in ``with_added_edges`` 10-16% each;
    stages 2-4 about 8% and the closing checks about 5%.
    """
    n = h.vertex_count
    if n % 2:
        raise OddVertexCountError(f"{n} vertices cannot be perfectly matched")
    host.validate_graph(h)
    sides = (0, 1) if host.is_bipartite else (0,)
    other = sides[::-1]  # other[s]: the side an exposed vertex on s may be joined to
    side = host.side or (0,) * n
    m0 = maximum_matching(h)
    mate = m0.mate

    # Indexed by root: per side, the exposed vertices as a min-heap, and
    # their count, the deficiency.  Vertex 0 is always a root; stage 4
    # joins every other component to it through the component's smallest
    # vertex on side ``need``, kept in ``lowest`` (n if there is none).
    exposed: list[list[list[int] | None]] = [[None] * n for _ in sides]
    defic = [0] * n
    need = other[side[0]]
    lowest = list(range(n))
    # Stage-1 classes of deficient roots, each descending: per side s,
    # deficiency one with the vertex on s, and deficiency at least two
    # with exposure on s only; then deficiency at least two on both sides.
    ones: list[list[int]] = [[] for _ in sides]
    multi: list[list[int]] = [[] for _ in sides]
    both: list[int] = []

    def class_of(r: int) -> list[int]:
        plus, minus = exposed[0][r], exposed[-1][r]  # the same list on a complete host
        if plus and minus and plus is not minus:
            return both
        return (ones if defic[r] == 1 else multi)[0 if plus else -1]

    roots: list[int] = []
    for comp in connected_components(h):
        r = comp[0]
        roots.append(r)
        if len(comp) == 1:  # an isolated vertex, the most common component
            free = comp
            if side[r] != need:
                lowest[r] = n
        else:
            if side[r] != need:
                for v in comp:  # found: an edge of comp crosses the sides
                    if side[v] == need:
                        lowest[r] = v
                        break
            free = [v for v in comp if mate[v] is None]
        if len(free) == 1:  # most deficient roots; filed without class_of
            s = side[free[0]]
            exposed[s][r] = free
            defic[r] = 1
            ones[s].append(r)
        elif free:
            defic[r] = len(free)
            for s in sides:
                exposed[s][r] = [v for v in free if side[v] == s]
            class_of(r).append(r)
    for roots_of_class in (*ones, *multi, both):
        roots_of_class.reverse()
    profile = DeficiencyProfile(tuple(map(defic.__getitem__, roots)))

    added: list[tuple[int, int]] = []
    gone: set[int] = set()  # roots joined into a smaller one

    # Stage 1: a deficient component against one of deficiency >= 2, as a
    # plain scan over the components picks them: r1 is the smallest root
    # exposed on some side s such that another root of deficiency >= 2 is
    # exposed on other[s], r2 is the smallest such root over r1's sides,
    # and the pair is the smallest opposite-side exposed pair.  The roots
    # exposed on s make up three classes; r1 is their smallest, or the next
    # one when the smallest is the only partner, and r2 is the smallest or
    # next partner.  So both sit among the last two of their classes,
    # where a step reads and deletes them.
    while True:
        r1 = None
        heads = []  # per side s: the two smallest roots r1 may join through s
        for s in sides:
            partners = sorted(multi[other[s]][-2:] + both[-2:])[:2]
            heads.append(partners)
            if not partners:
                continue
            cands = sorted(ones[s][-2:] + multi[s][-2:] + both[-2:])[:2]
            if partners == cands[:1]:  # the first candidate is the only partner
                del cands[0]
            if cands and (r1 is None or cands[0] < r1):
                r1 = cands[0]
        if r1 is None:
            break
        r2 = min(p for s in sides if exposed[s][r1] for p in heads[s] if p != r1)
        # The smallest opposite-side exposed pair.
        v1, v2 = min(
            (exposed[s][r1][0], exposed[other[s]][r2][0])
            for s in sides
            if exposed[s][r1] and exposed[other[s]][r2]
        )
        added.append((v1, v2) if v1 < v2 else (v2, v1))
        for r in (r1, r2):
            roots_of_class = class_of(r)
            del roots_of_class[-1 if roots_of_class[-1] == r else -2]
        heappop(exposed[side[v1]][r1])
        heappop(exposed[side[v2]][r2])
        root, away = (r1, r2) if r1 < r2 else (r2, r1)
        gone.add(away)
        defic[root] += defic[away] - 2
        lowest[root] = min(lowest[root], lowest[away])
        for s in sides:
            # Merge the smaller heap into the larger.
            big, small = exposed[s][root] or [], exposed[s][away] or []
            if len(big) < len(small):
                big, small = small, big
            for x in small:
                heappush(big, x)
            exposed[s][root] = big
        insort(class_of(root), root, key=neg)
    stage_ends = [len(added)]

    # Stage 2: pair up deficiency-one components, the smallest with the next
    # one it may be joined to.  On a complete host those are consecutive; on
    # a bipartite host the k-th one with plus exposure meets the k-th one
    # with minus exposure.
    ascending = [roots_of_class[::-1] for roots_of_class in ones]
    pairs = zip(ascending[0][0::2], ascending[0][1::2]) if len(sides) == 1 else zip(*ascending)
    for r1, r2 in pairs:
        v1, v2 = exposed[sides[0]][r1][0], exposed[sides[-1]][r2][0]
        added.append((v1, v2) if v1 < v2 else (v2, v1))
        defic[r1] = defic[r2] = 0
        root, away = (r1, r2) if r1 < r2 else (r2, r1)
        gone.add(away)
        lowest[root] = min(lowest[root], lowest[away])
    stage_ends.append(len(added))

    # Stage 3: the remaining deficiency sits in a single component; match
    # its exposed vertices, the smallest ones (on a bipartite host, the
    # smallest of each side) first.
    deficient = [r for roots_of_class in (*ones, *multi, both) for r in roots_of_class if defic[r]]
    if len(deficient) > 1:
        raise InternalError("stages 1-2 left two deficient components")
    for r in deficient:
        for _ in range(defic[r] // 2):
            v1, v2 = heappop(exposed[sides[0]][r]), heappop(exposed[sides[-1]][r])
            added.append((v1, v2) if v1 < v2 else (v2, v1))
    stage_ends.append(len(added))

    # Stage 4: connect the perfectly matched components to the one holding
    # vertex 0, each through its smallest vertex on the side 0 may be joined
    # to; these edges stay out of the matching.
    added += [(0, lowest[r]) for r in roots[1:] if r not in gone]
    stage_ends.append(len(added))

    # The stage 1-3 edges, the first entries of ``added``, are exactly the
    # edges that joined the matching; they follow h's edges in augmented.
    # with_added_edges checks every added pair, new and inside 0..n-1.
    try:
        augmented = h.with_added_edges([(u, v, 0) for u, v in added])
    except BadEdgeError as exc:
        raise InternalError(f"greedy addition rejected: {exc}") from None
    joined = stage_ends[2]
    new_mate = list(mate)
    for u, v in added[:joined]:
        new_mate[u], new_mate[v] = v, u
    # The n / 2 pairs of m0 and stages 1-3 cover every vertex only if no
    # two of them share one.
    if 2 * (m0.size + joined) != n or None in new_mate:
        raise InternalError("matching did not become perfect")
    if len(added) != augmentation_optimum(profile):
        raise InternalError("greedy addition count disagrees with the closed-form optimum")
    matching = Matching(
        augmented, m0.edges.union(range(h.edge_count, h.edge_count + joined)), tuple(new_mate)
    )
    stage_added = tuple(b - a for a, b in zip([0, *stage_ends], stage_ends))
    return AugmentationResult(augmented, tuple(added), matching, stage_added)


@dataclass(frozen=True)
class MinPmstResult:
    """Minimum-weight tree-with-matching over a two-valued host.

    ``support_graph`` holds the light edges (weight a) plus the added host
    edges (weight b); ``tree`` indexes into it.
    """

    support_graph: WeightedGraph
    tree: EdgeSet
    total_weight: int
    heavy_count: int
    added_edges: tuple[tuple[int, int], ...]


def min_pmst_two_valued(
    host: HostKind,
    light: WeightedGraph,
    light_weight: int,
    heavy_weight: int,
) -> MinPmstResult:
    """Minimum-weight spanning tree containing a perfect matching, over a
    host whose edges weigh ``light_weight`` on the edges of ``light`` and
    ``heavy_weight`` elsewhere.  The weights of ``light`` are ignored, and
    ``light`` itself is left unchanged: g0, the light graph reweighted to
    ``light_weight`` by ``WeightedGraph.with_weight``, keeps its edge order
    and checks no edge again.  A light graph whose vertex count differs
    from the host's, or an edge that does not cross a bipartite host's
    sides, raises ``HostMismatchError`` from ``greedy_augment``'s host
    check.

    Every tree with a matching needs n - 1 edges, so only the number of
    heavy edges matters; that number is exactly the augmentation optimum
    of the light subgraph, achieved by ``greedy_augment``.  The tree is
    completed greedily over light edges first (ascending index), then the
    added edges.
    """
    if light_weight >= heavy_weight:
        raise WeightOrderError(f"need light < heavy, got {light_weight} >= {heavy_weight}")
    n = host.n
    if n % 2:
        raise OddVertexCountError(f"{n} vertices cannot be perfectly matched")
    g0 = light.with_weight(light_weight)
    aug = greedy_augment(g0, host)  # checks g0 against the host

    # Same edges in the same order as aug.graph, so its matching's edge
    # indices and mates carry over unchanged.
    support = g0.with_added_edges([(u, v, heavy_weight) for u, v in aug.added_edges])
    matching = Matching(support, aug.matching.edges, aug.matching.mate)
    tree = build_tree_containing_matching(support, matching)
    heavy = sum(1 for i in tree if support.edges[i][2] == heavy_weight)
    if heavy != aug.added_count:
        raise InternalError("spanning-tree completion used a non-added heavy edge")
    total = support.total_weight(tree)
    if total != light_weight * (n - 1 - heavy) + heavy_weight * heavy:
        raise InternalError("tree weight disagrees with its light and heavy edge counts")
    return MinPmstResult(support, tree, total, heavy, aug.added_edges)
