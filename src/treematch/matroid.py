"""Minimum-weight common independent sets of a graphic and a partition
matroid.

This is the matroid intersection behind ``min_sbst_bipartite``: spanning
trees are the bases of the graphic matroid, and a partition matroid caps
each plus vertex's star.  The solver grows a common independent set one
element at a time, each round augmenting along a minimum-cost
source-to-sink path in the exchange digraph (cheapest total cost, then
fewest arcs).  That path keeps the intermediate sets extreme, which is
what makes the greedy rounds globally optimal.

Exchange arcs come in two bundles per round.  For y outside I that the
graphic matroid cannot absorb directly, arcs run from each edge on the
tree path of I + y into y; the source has an arc to each y it can
absorb.  The partition matroid contributes the mirrored arcs out of y,
one to each member of y's part.  Arc costs charge +w(y) for entering the
set and -w(x) for leaving it, and every arc also counts one step for the
tie-break.

Every element also carries a potential pot, feasible on every arc:
pot[v] <= pot[u] + c for an arc u -> v of cost c, the source's potential
being 0.  So no element lies nearer the source than its potential.
This is Frank's weight splitting (1981) written on the nodes.  The
potentials start at the weights, which is exact for the empty set.
They let most rounds skip the search.  Let low be the least potential
of a sink, an element the second matroid can add, and let y be the
lightest (weight, id) element that both matroids can add.  If low >=
w(y), every sink lies at least w(y) from the source.  Every path other
than the single arc source -> y has three or more arcs, so the search
would take that arc.  Such a round adds y at once, in O(g) beyond the
two ``prepare`` calls; on the sbst-bipartite benchmark's inputs about
nine rounds in ten are of this kind.

The other rounds build the whole digraph and search it.  The cost part
of each distance, ``dist // scale``, is exact because the arc count lies
in 0..scale-1.  With cap the distance of the chosen sink minus low,
each element's potential becomes min(distance, potential + cap), where
an unreached element counts as infinitely far.  The new potentials are
feasible and tight along the chosen path and on its last arc to the
virtual sink, whose potential is low.  An element that the path toggles then shifts by
its old cost: -w when it enters I, +w when it leaves.  This keeps the
potentials feasible in the next round's digraph.  A reached element
that lies nearer than its potential means a bug, and the round raises.

The digraph leaves out the textbook arcs from I into each y the first
matroid can absorb, and from each sink into I.  A path to x in I costs
at least 0 over at least 2 arcs, I being extreme, so going on to such a
y never beats the arc source -> y.  Feasibility on the arc from the
least-potential sink into x gives pot[x] <= low - w(x), so a node
reached through a sink-to-I arc lies at least cap beyond its potential
and gets pot + cap, as if unreached; the chosen path cannot use one.

Shortest paths come from a label-correcting search: queue-based
Bellman-Ford (SPFA) over per-node out-arc lists.  Leaving-arc costs are
negative, and the tie rule needs every tight in-arc of a node, so a
reduced-cost Dijkstra would not save work while it still builds every
arc.  Each node keeps as its predecessor the smallest source id among
its tight in-arcs, so ties between equally short paths go to smaller
node ids.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Iterable, Sequence

from .errors import GroundSetMismatchError
from .graph import WeightedGraph


class GraphicMatroid:
    """Forests of a graph; ground elements are the graph's edge indices."""

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        self.ground_size = graph.edge_count

    def is_independent(self, selection: Iterable[int]) -> bool:
        parent = list(range(self.graph.vertex_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in selection:
            u, v, _ = self.graph.edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    def prepare(self, selection: Sequence[int]) -> "_ForestContext":
        return _ForestContext(self.graph, selection)


class _ForestContext:
    """Rooted-forest view of an independent edge set.

    The circuit of I + y is y plus the tree path between y's endpoints,
    found by walking parent pointers.
    """

    def __init__(self, graph: WeightedGraph, selection: Sequence[int]):
        self.graph = graph
        n = graph.vertex_count
        self.comp = [-1] * n
        self.parent_vertex = [-1] * n
        self.parent_edge = [-1] * n
        self.depth = [0] * n
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i in selection:
            u, v, _ = graph.edges[i]
            adj[u].append((v, i))
            adj[v].append((u, i))
        for r in range(n):
            if self.comp[r] != -1:
                continue
            self.comp[r] = r
            stack = [r]
            while stack:
                x = stack.pop()
                for y, e in adj[x]:
                    if self.comp[y] == -1:
                        self.comp[y] = r
                        self.parent_vertex[y] = x
                        self.parent_edge[y] = e
                        self.depth[y] = self.depth[x] + 1
                        stack.append(y)

    def addable(self, y: int) -> bool:
        u, v, _ = self.graph.edges[y]
        return self.comp[u] != self.comp[v]

    def swap_candidates(self, y: int) -> list[int]:
        u, v, _ = self.graph.edges[y]
        path = []
        while u != v:
            if self.depth[u] < self.depth[v]:
                u, v = v, u
            path.append(self.parent_edge[u])
            u = self.parent_vertex[u]
        return path


class PartitionMatroid:
    """At most ``capacities[i]`` elements from ``parts[i]``.

    The parts must partition the ground set exactly.
    """

    def __init__(self, parts: Sequence[Iterable[int]], capacities: Sequence[int]):
        self.parts = tuple(frozenset(p) for p in parts)
        self.capacities = tuple(int(c) for c in capacities)
        if len(self.parts) != len(self.capacities):
            raise ValueError("one capacity per part")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative")
        self.ground_size = sum(len(p) for p in self.parts)
        self.part_of: dict[int, int] = {}
        for i, p in enumerate(self.parts):
            for x in p:
                if x in self.part_of:
                    raise ValueError(f"element {x} appears in two parts")
                self.part_of[x] = i
        if set(self.part_of) != set(range(self.ground_size)):
            raise ValueError("parts must partition 0..ground_size-1")

    def is_independent(self, selection: Iterable[int]) -> bool:
        counts = [0] * len(self.parts)
        for x in selection:
            i = self.part_of[x]
            counts[i] += 1
            if counts[i] > self.capacities[i]:
                return False
        return True

    def prepare(self, selection: Sequence[int]) -> "_PartitionContext":
        return _PartitionContext(self, selection)


class _PartitionContext:
    def __init__(self, m: PartitionMatroid, selection: Sequence[int]):
        self.m = m
        self.counts = [0] * len(m.parts)
        self.members: list[list[int]] = [[] for _ in m.parts]
        for x in selection:
            i = m.part_of[x]
            self.counts[i] += 1
            self.members[i].append(x)

    def addable(self, y: int) -> bool:
        i = self.m.part_of[y]
        return self.counts[i] < self.m.capacities[i]

    def swap_candidates(self, y: int) -> list[int]:
        # The circuit of I + y is y plus I's elements in y's part.
        return self.members[self.m.part_of[y]]


def _shortest_paths(
    out: list[list[tuple[int, int]]], start: int
) -> tuple[list[float], list[int]]:
    """Shortest combined keys from ``start`` and, per node, the smallest
    source id among its tight in-arcs (-1 where there is none).

    Shortest keys are unique, so the predecessors do not depend on the
    order of the search.  The exchange digraph of an extreme selection
    has no negative-cost cycle, so no node is queued more than
    ``len(out)`` times; exceeding that means a bug, not a slow input.
    """
    node_count = len(out)
    dist: list[float] = [inf] * node_count
    pred = [-1] * node_count
    queued = [False] * node_count
    visits = [0] * node_count
    dist[start] = 0
    queue = deque([start])
    while queue:
        s = queue.popleft()
        queued[s] = False
        ds = dist[s]
        for d, key in out[s]:
            nd = ds + key
            if nd < dist[d]:
                dist[d] = nd
                pred[d] = s
                if not queued[d]:
                    visits[d] += 1
                    if visits[d] > node_count:
                        raise AssertionError("negative-cost cycle in exchange digraph")
                    queued[d] = True
                    queue.append(d)
            elif nd == dist[d] and s < pred[d]:
                pred[d] = s
    return dist, pred


def min_weight_common_base(
    m1: GraphicMatroid | PartitionMatroid,
    m2: GraphicMatroid | PartitionMatroid,
    weights: Sequence[int],
    k: int,
) -> frozenset[int] | None:
    """Minimum-weight set of size k independent in both matroids, or None
    when no common independent set reaches that size.

    k rounds of shortest augmenting paths.  A round whose potentials
    prove that the lightest element addable to both matroids is the
    shortest path adds it directly.  Every other round builds the
    exchange digraph, runs the label-correcting search and updates the
    potentials; see the module docstring.  Combined integer keys order
    paths by cost and then by arc count, and every node's predecessor is
    the smallest source id among its tight in-arcs, so the result is
    deterministic and does not depend on which rounds were direct.
    """
    if m1.ground_size != m2.ground_size:
        raise GroundSetMismatchError(
            f"ground sets of size {m1.ground_size} and {m2.ground_size}"
        )
    g = m1.ground_size
    if len(weights) != g:
        raise GroundSetMismatchError(f"{len(weights)} weights for {g} elements")
    if k < 0:
        raise ValueError("size must be nonnegative")
    if k > g:
        return None

    src_node = g
    node_count = g + 1
    scale = 2 * g + 4  # longer than any simple path's arc count
    in_set = [False] * g
    selection: list[int] = []
    pot = list(weights)  # the source's potential is 0

    for _ in range(k):
        ctx1 = m1.prepare(selection)
        ctx2 = m2.prepare(selection)
        low = inf  # least potential of a sink
        direct = -1  # lightest (weight, id) element addable in both
        for y in range(g):
            if in_set[y] or not ctx2.addable(y):
                continue
            if pot[y] < low:
                low = pot[y]
            if ctx1.addable(y) and (direct == -1 or weights[y] < weights[direct]):
                direct = y
        if direct != -1 and low >= weights[direct]:
            # Every sink lies at least its potential, so at least
            # w(direct), from the source, and any path but the one arc
            # src -> direct has three or more arcs: the search would
            # pick that arc.  The other potentials stay feasible as
            # they are.
            toggled = [direct]
        else:
            out: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
            sinks: list[int] = []
            for y in range(g):
                if in_set[y]:
                    continue
                enter = weights[y] * scale + 1
                if ctx1.addable(y):
                    out[src_node].append((y, enter))
                else:
                    for x in ctx1.swap_candidates(y):
                        out[x].append((y, enter))
                if ctx2.addable(y):
                    sinks.append(y)
                else:
                    for x in ctx2.swap_candidates(y):
                        out[y].append((x, -weights[x] * scale + 1))
            if not out[src_node] or not sinks:
                return None

            dist, pred = _shortest_paths(out, src_node)
            best_sink = -1
            for y in sinks:
                if dist[y] < inf and (best_sink == -1 or dist[y] < dist[best_sink]):
                    best_sink = y
            if best_sink == -1:
                return None

            # Combined keys make every predecessor walk a simple path.
            node = best_sink
            toggled = []
            while node != src_node:
                toggled.append(node)
                if pred[node] == -1:
                    raise AssertionError("shortest-path keys admit no predecessor")
                node = pred[node]

            # The arc count of a key lies in 0..scale-1, so floor division
            # recovers the path's weight exactly.  cap is measured from low,
            # the virtual sink's potential, not from the chosen sink's own:
            # then no sink ends below the chosen one, which the next round's
            # arcs into it need.
            cap = dist[best_sink] // scale - low
            for v in range(g):
                if dist[v] == inf:
                    pot[v] += cap
                    continue
                reduced = dist[v] // scale - pot[v]
                if reduced < 0:
                    raise AssertionError("potentials are not feasible")
                pot[v] += min(reduced, cap)
        for x in toggled:
            pot[x] += weights[x] if in_set[x] else -weights[x]
            in_set[x] = not in_set[x]
        selection = [x for x in range(g) if in_set[x]]

    if not (m1.is_independent(selection) and m2.is_independent(selection)):
        raise AssertionError("intersection result is not independent in both matroids")
    return frozenset(selection)
