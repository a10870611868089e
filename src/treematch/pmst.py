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

The greedy keeps per-component heaps of exposed vertices, merged smaller
into larger, a counted deficiency per component, and heaps of component
roots, so apart from the maximum matching it runs in O(m + n log^2 n)
while keeping the tie rules of a plain scan over the components.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Sequence

from .errors import (
    DisconnectedError,
    HostMismatchError,
    Infeasible,
    OddVertexCountError,
    UnbalancedError,
    WeightOrderError,
)
from .graph import MINUS, PLUS, EdgeSet, WeightedGraph, connected_components, is_connected
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
    def kind(self) -> str:
        return "complete" if self.side is None else "complete-bipartite"

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


class _Bucket:
    """Live roots of one stage-1 class, smallest first.

    A root is filed once and dropped lazily: entries for which ``holds``
    has become false are popped only when they reach the top.
    """

    __slots__ = ("heap", "members", "holds")

    def __init__(self, holds: Callable[[int], bool]):
        self.heap: list[int] = []
        self.members: set[int] = set()
        self.holds = holds

    def file(self, r: int) -> None:
        if r not in self.members:
            self.members.add(r)
            heappush(self.heap, r)

    def _drop_stale(self) -> None:
        heap = self.heap
        while heap and not self.holds(heap[0]):
            self.members.discard(heappop(heap))

    def first(self, exclude: int = -1) -> int | None:
        """Smallest root in the class other than ``exclude``."""
        self._drop_stale()
        heap = self.heap
        if not heap or heap[0] != exclude:
            return heap[0] if heap else None
        top = heappop(heap)
        self._drop_stale()
        second = heap[0] if heap else None
        heappush(heap, top)
        return second


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

    A component is named by its smallest vertex, its union-find root.  Its
    exposed vertices sit in one min-heap per host side (a complete host
    uses side 0 only), and a join pushes the smaller heap into the larger,
    so each vertex moves O(log n) times.  ``defic[root]`` counts them: a
    matching edge takes one from each endpoint's root and a join adds the
    two counts, so no test of a deficiency walks the heaps.  One pass over
    each component of ``connected_components`` sets the parents, the
    ascending exposed lists (already heaps), the counts and the smallest
    vertex on the side stage 4 joins through; a join keeps the smaller of
    the two.  Stage 1 finds its pair through ``_Bucket`` heaps of roots
    with exposure on a side, and of those with deficiency at least two;
    stages 2-4 are single passes over the sorted live roots.  Beyond the
    maximum matching this costs O(m + n log^2 n).  On sparse inputs the
    time splits about evenly between the maximum matching, the set-up pass
    and stages 1 and 2, ahead of the checks of the augmented graph's new
    edges.
    """
    n = h.vertex_count
    if n % 2:
        raise OddVertexCountError(f"{n} vertices cannot be perfectly matched")
    host.validate_graph(h)
    bip = host.is_bipartite
    sides = (0, 1) if bip else (0,)
    partner = (1, 0) if bip else (0,)  # the side an exposed vertex may be joined to
    side = host.side or [0] * n

    m0 = maximum_matching(h)
    mate = m0.mate

    # Union-find over vertices; a root is its component's smallest vertex.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Per side, indexed by root: ascending heap of exposed vertices.
    exposed: list[list[list[int] | None]] = [[None] * n for _ in sides]
    # Indexed by root: the component's exposed vertex count, its deficiency.
    defic = [0] * n
    # Vertex 0 is always a root; stage 4 joins every other component to it
    # through the component's smallest vertex on side ``need``, kept here
    # indexed by root (n if there is none).
    need = partner[side[0]]
    lowest = [n] * n
    roots: list[int] = []
    for comp in connected_components(h):
        root = comp[0]
        roots.append(root)
        lists: list[list[int]] = [[] for _ in sides]
        for v in comp:
            parent[v] = root
            if mate[v] is None:
                lists[side[v]].append(v)
        for v in comp:
            if side[v] == need:
                lowest[root] = v
                break
        for s in sides:
            exposed[s][root] = lists[s]
            defic[root] += len(lists[s])
    initial_profile = DeficiencyProfile(tuple(defic[r] for r in roots))

    added: list[tuple[int, int]] = []

    def merge(r1: int, r2: int) -> None:
        root, other = (r1, r2) if r1 < r2 else (r2, r1)
        parent[other] = root
        defic[root] += defic[other]
        if lowest[other] < lowest[root]:
            lowest[root] = lowest[other]
        for s in sides:
            big, small = exposed[s][root], exposed[s][other]
            if len(big) < len(small):
                big, small = small, big
            for x in small:
                heappush(big, x)
            exposed[s][root] = big
            exposed[s][other] = None

    def add_matching_edge(v1: int, v2: int) -> None:
        u, v = min(v1, v2), max(v1, v2)
        if h.has_edge(u, v):
            raise AssertionError("matched pair is already adjacent")
        added.append((u, v))
        r1, r2 = find(v1), find(v2)
        # Each endpoint is the smallest exposed vertex of its side in its
        # own component, so it leaves its heap before the heaps merge.
        for x, r in ((v1, r1), (v2, r2)):
            if heappop(exposed[side[x]][r]) != x:
                raise AssertionError("matched vertex is not the smallest exposed one on its side")
            defic[r] -= 1
        if r1 != r2:
            merge(r1, r2)

    def pick_exposed_pair(r1: int, r2: int) -> tuple[int, int]:
        # Smallest-id exposed pair; on bipartite hosts only opposite-side
        # pairs are allowed.
        return min(
            (exposed[s][r1][0], exposed[partner[s]][r2][0])
            for s in sides
            if exposed[s][r1] and exposed[partner[s]][r2]
        )

    # Stage 1: a deficient component against one of deficiency >= 2.  The
    # first root r1 (by smallest vertex) with exposure on some side s such
    # that another root of deficiency >= 2 has exposure on partner[s] is
    # joined to the first such root r2.
    exposed_on = [_Bucket(lambda r, s=s: bool(exposed[s][r])) for s in sides]
    doubly_on = [_Bucket(lambda r, s=s: bool(exposed[s][r]) and defic[r] >= 2) for s in sides]

    def file(r: int) -> None:
        double = defic[r] >= 2
        for s in sides:
            if exposed[s][r]:
                exposed_on[s].file(r)
                if double:
                    doubly_on[s].file(r)

    for r in roots:
        file(r)
    while True:
        r1 = None
        for s in sides:
            c = exposed_on[s].first()
            partners = doubly_on[partner[s]]
            if c is not None and partners.first(exclude=c) is None:
                # Either no partner at all, or c is the only one; then the
                # next root of this class is joined to c.
                c = exposed_on[s].first(exclude=c) if partners.first() is not None else None
            if c is not None and (r1 is None or c < r1):
                r1 = c
        if r1 is None:
            # On a balanced bipartite host the exposed counts of the two
            # sides agree, so an opposite-side pair exists whenever the
            # stage guard does; failing this check would mean a bug.
            defs = [defic[r] for r in roots if parent[r] == r]
            if any(d >= 2 for d in defs) and sum(1 for d in defs if d >= 1) >= 2:
                raise AssertionError("stage 1: guard held but no admissible exposed pair")
            break
        r2 = None
        for s in sides:
            if exposed[s][r1]:
                c = doubly_on[partner[s]].first(exclude=r1)
                if c is not None and (r2 is None or c < r2):
                    r2 = c
        add_matching_edge(*pick_exposed_pair(r1, r2))
        file(find(r1))
    stage_ends = [len(added)]

    # Stage 2: pair up deficiency-one components, the smallest with the next
    # one it may be joined to.  On a complete host those are consecutive; on
    # a bipartite host the k-th one with plus exposure meets the k-th one
    # with minus exposure.
    roots = [r for r in roots if parent[r] == r]
    ones = [[r for r in roots if defic[r] == 1 and exposed[s][r]] for s in sides]
    if bip:
        steps = list(zip(ones[0], ones[1]))
        if abs(len(ones[0]) - len(ones[1])) >= 2:
            raise AssertionError("bipartite stage 2: no opposite-side exposed pair")
    else:
        steps = list(zip(ones[0][0::2], ones[0][1::2]))
    for r1, r2 in steps:
        add_matching_edge(*pick_exposed_pair(r1, r2))
    stage_ends.append(len(added))

    # Stage 3: the remaining deficiency sits in a single component; match
    # exposed pairs inside it.
    roots = [r for r in roots if parent[r] == r]
    deficient = [r for r in roots if defic[r] > 0]
    if len(deficient) > 1:
        raise AssertionError("stages 1-2 left two deficient components")
    for r in deficient:
        while defic[r]:
            if defic[r] % 2:
                raise AssertionError("stage 3: odd deficiency left in the last component")
            if bip:
                # The smallest exposed vertex of each side.
                plus, minus = exposed[0][r], exposed[1][r]
                if not (plus and minus):
                    raise AssertionError("bipartite stage 3: exposure is one-sided")
                add_matching_edge(plus[0], minus[0])
            else:
                # The two smallest exposed vertices.
                heap = exposed[0][r]
                add_matching_edge(heap[0], min(heap[1:3]))
    stage_ends.append(len(added))

    # Stage 4: connect the perfectly matched components to the one holding
    # vertex 0, each through its smallest vertex on the side 0 may be joined
    # to; these edges stay out of the matching.
    v1 = roots[0]
    for r in roots[1:]:
        v2 = lowest[r]
        if v2 == n:
            raise AssertionError("stage 4: component has no vertex on the needed side")
        u, v = min(v1, v2), max(v1, v2)
        if h.has_edge(u, v):
            raise AssertionError("stage 4: connector is already an edge")
        added.append((u, v))
    stage_ends.append(len(added))

    # The stage 1-3 edges, the first entries of ``added``, are exactly the
    # edges that joined the matching; they follow h's edges in augmented.
    augmented = h.with_added_edges([(u, v, 0) for u, v in added])
    joined = stage_ends[2]
    if 2 * (m0.size + joined) != n:
        raise AssertionError("matching did not become perfect")
    matching = Matching.from_edges(
        augmented, m0.edges.union(range(h.edge_count, h.edge_count + joined))
    )
    if len(added) != augmentation_optimum(initial_profile):
        raise AssertionError("greedy addition count disagrees with the closed-form optimum")
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
    light_edges: Iterable[Sequence[int]],
    light_weight: int,
    heavy_weight: int,
) -> MinPmstResult:
    """Minimum-weight spanning tree containing a perfect matching, over a
    host whose edges weigh ``light_weight`` on ``light_edges`` and
    ``heavy_weight`` elsewhere.  Only the first two entries of each light
    edge are read, so a graph's ``(u, v, w)`` edges can be passed as they
    are.  A malformed light edge or a self-loop raises ``BadEdgeError``
    (a ``ValueError``); one that does not cross a bipartite host's sides
    raises ``HostMismatchError`` from ``greedy_augment``'s host check.

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
    g0 = WeightedGraph(n, [(item[0], item[1], light_weight) for item in light_edges])
    aug = greedy_augment(g0, host)  # checks g0 against the host

    # Same edges in the same order as aug.graph, so its matching's edge
    # indices and mates carry over unchanged.
    support = g0.with_added_edges([(u, v, heavy_weight) for u, v in aug.added_edges])
    matching = Matching(support, aug.matching.edges, aug.matching.mate)
    tree = build_tree_containing_matching(support, matching)
    heavy = sum(1 for i in tree if support.edges[i][2] == heavy_weight)
    if heavy != aug.added_count:
        raise AssertionError("spanning-tree completion used a non-added heavy edge")
    total = support.total_weight(tree)
    if total != light_weight * (n - 1 - heavy) + heavy_weight * heavy:
        raise AssertionError("tree weight disagrees with its light and heavy edge counts")
    return MinPmstResult(support, tree, total, heavy, aug.added_edges)
