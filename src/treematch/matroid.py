"""Minimum-weight common independent sets of a graphic and a partition
matroid.

This is the matroid intersection behind ``min_sbst_bipartite``: spanning
trees are the bases of the graphic matroid, and a partition matroid caps
each plus vertex's star.  ``min_weight_common_base`` takes exactly that
shape, the graphic matroid first and the partition matroid second, and
raises ``TypeError`` on any other pairing.  The solver grows a common
independent set one element at a time, each round augmenting along a
minimum-cost source-to-sink path in the exchange digraph (cheapest total
cost, then fewest arcs).  That path keeps the intermediate sets extreme,
which is what makes the greedy rounds globally optimal.

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
would take that arc.  Such a round adds y at once.  The two matroid
contexts, made once per solve, take y in place (``add``; the forest
re-roots the smaller of the two trees y links), and two heaps with lazy
deletion hold the elements both matroids can add by (weight, id) and
the sinks by (potential, id), so a direct round costs O(log g) beyond
that update.
On the sbst-bipartite benchmark's inputs about nine rounds in ten are
of this kind.

The other rounds run Dijkstra's algorithm on reduced keys.  An arc
u -> v with combined key c has the reduced key c + (pot[u] - pot[v]) *
scale, at least 1 when the potentials are feasible; a scanned arc below
1 raises.  The digraph is bipartite.  The source has an arc to each
element the first matroid can add, and x in I one to each element of
``entering(x)``, the elements outside I whose first-matroid circuit
passes through x; these are the arcs into elements outside I.  Such a
y has arcs only into I, to the rest of its second-matroid circuit, and
none when it is a sink.  So only the source and elements of I are
queued.  Whenever y's distance drops, y passes it on at once: a sink
offers itself as the best sink, any other y relaxes its circuit.  y may
pass on several distances in one round; the last is its least.  Nodes
of I leave the heap in order of reduced distance, so every tight
in-arc's tail holds its final distance before its head leaves, and
each node keeps as its predecessor the smallest tail id among its tight
in-arcs, on both hops: ties between equally short paths go to smaller
node ids.  A sink's distance is its reduced distance plus at least low,
so the search stops once the least reduced key left in the heap exceeds
the best sink's distance minus low, and an element reached beyond that
bound passes nothing on: no path through it can win.

The cost part of each distance, ``dist // scale``, is exact because the
arc count lies in 0..scale-1.  With cap the distance of the chosen sink
minus low, each element's potential becomes min(distance, potential +
cap), in one pass over the keys capped at cap * scale.  An element
reached beyond the stop bound lies at least cap beyond its potential,
as an unreached one does, and gets potential + cap.  The new potentials
are feasible and tight along the chosen path and on its last arc to the
virtual sink, whose potential is low.  An element that the path toggles
then shifts by its old cost: -w when it enters I, +w when it leaves.
This keeps the potentials feasible in the next round's digraph.

No round takes an element out of either matroid's span of I, so the
elements outside I that the first matroid can add, the sinks, and the
elements both can add only ever leave those sets.  A direct round adds
one element.  A full round's path P, from y0 to the sink yk, gives I' =
I with P toggled.  Every element P adds other than y0 lies in the first
matroid's span of I, having a circuit there, and every one other than
yk in the second's; I' is independent in both with |I| + 1 elements.
So span_1(I') = span_1(I + y0) and span_2(I') = span_2(I + yk), for any
two matroids.  The solver therefore keeps the three sets for the whole
solve: the first as a list filtered at each full round, the others as
the two heaps, whose stale entries are dropped as they surface.  Only
the sinks are re-keyed, over the live ones, once a full round has moved
the potentials.  It keeps the two contexts for the whole solve as well.
A full round first takes every element that P removes out of both
(``cut`` splits the forest at that edge, ``remove`` drops it from its
part), then puts every element that P adds in with ``add``.  Each set
in between lies inside I', so every ``add`` links two trees and fills
no part past its cap.  The filters, the heap clean-ups and the search
read the contexts' arrays directly: an edge is addable when its ends
have different ``comp`` roots, a part has room when its count is below
its capacity, and y's partition circuit is ``members[part_of[y]]``.

The digraph leaves out the textbook arcs from I into each y the first
matroid can absorb, and from each sink into I.  A path to x in I costs
at least 0 over at least 2 arcs, I being extreme, so going on to such a
y never beats the arc source -> y.  Feasibility on the arc from the
least-potential sink into x gives pot[x] <= low - w(x), so a node
reached through a sink-to-I arc lies at least cap beyond its potential
and gets pot + cap, as if unreached; the chosen path cannot use one.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Iterable, Sequence

from .errors import GroundSetMismatchError, InternalError
from .graph import WeightedGraph


class GraphicMatroid:
    """Forests of a graph; ground elements are the graph's edge indices."""

    def __init__(self, graph: WeightedGraph):
        self.graph = graph
        self.ground_size = graph.edge_count

    def is_independent(self, selection: Iterable[int]) -> bool:
        parent = list(range(self.graph.vertex_count))
        edges = self.graph.edges
        for i in selection:
            u, v, _ = edges[i]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                return False
            parent[u] = v
        return True

    def prepare(self, selection: Sequence[int]) -> "_ForestContext":
        return _ForestContext(self.graph, selection)


class _ForestContext:
    """Rooted-forest view of an independent edge set.

    The circuit of I + y is y plus the tree path between y's endpoints,
    so the edges whose circuit passes through tree edge x are those that
    cross the cut x makes in its tree.  ``comp[v]`` is the root of v's
    tree, so an edge is addable when its ends have different roots, and
    ``size`` counts a tree's vertices at its root.

    ``add(y)`` links two trees and ``cut(x)`` splits one, so the view
    follows I through a whole solve.  ``cut`` detaches the subtree below
    x's child end, which becomes a tree rooted at that end: its vertices
    are re-labelled, both sizes fixed and the preorder index dropped, in
    time proportional to that subtree.
    """

    def __init__(self, graph: WeightedGraph, selection: Sequence[int]):
        self.graph = graph
        n = graph.vertex_count
        self.comp = [-1] * n
        self.parent_vertex = [-1] * n
        self.size = [0] * n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self._preorder: tuple[list[int], list[int], list[int]] | None = None
        for i in selection:
            u, v, _ = graph.edges[i]
            self.adj[u].append(v)
            self.adj[v].append(u)
        for r in range(n):
            if self.comp[r] == -1:
                self.comp[r] = r
                self.size[r] = 1 + self._hang(r, r)

    def _hang(self, top: int, root: int) -> int:
        """Hang below ``top``, in the tree rooted at ``root``, every vertex
        that ``top`` reaches through vertices not yet in that tree; return
        how many there are."""
        comp, pv, adj = self.comp, self.parent_vertex, self.adj
        count = 0
        stack = [top]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if comp[y] != root:
                    comp[y] = root
                    pv[y] = x
                    stack.append(y)
                    count += 1
        return count

    def add(self, y: int) -> None:
        """Link the two trees that addable edge y joins: the smaller one
        is re-rooted at its endpoint of y and hung below the other."""
        u, v, _ = self.graph.edges[y]
        if self.size[self.comp[u]] > self.size[self.comp[v]]:
            u, v = v, u
        root = self.comp[v]
        self.size[root] += self.size[self.comp[u]]
        self.comp[u] = root
        self.parent_vertex[u] = v
        self._hang(u, root)
        self.adj[u].append(v)
        self.adj[v].append(u)
        self._preorder = None

    def cut(self, x: int) -> None:
        """Take tree edge x out: the child end's subtree becomes a tree
        of its own, rooted at that end."""
        a, b, _ = self.graph.edges[x]
        c, p = (a, b) if self.parent_vertex[a] == b else (b, a)
        self.adj[c].remove(p)
        self.adj[p].remove(c)
        self.comp[c] = c
        self.parent_vertex[c] = -1
        self.size[c] = 1 + self._hang(c, c)
        self.size[self.comp[p]] -= self.size[c]
        self._preorder = None

    def entering(self, x: int) -> list[int]:
        """The edges outside I whose circuit in I + y contains tree edge
        x: those crossing the cut that x makes in its tree, found from the
        smaller side of the cut."""
        if self._preorder is None:
            self._preorder = self._index()
        tin, tout, order = self._preorder
        a, b, _ = self.graph.edges[x]
        c = a if tin[a] > tin[b] else b  # the child end of x
        lo, hi = tin[c], tout[c]
        root = self.comp[c]
        first, last = tin[root], tout[root]
        below = 2 * (hi - lo) <= last - first
        adjacency = self.graph.adjacency
        if below:
            return [
                e for v in order[lo:hi] for e, w in adjacency[v]
                if not lo <= tin[w] < hi and first <= tin[w] < last and e != x
            ]
        return [
            e for v in order[first:lo] + order[hi:last] for e, w in adjacency[v]
            if lo <= tin[w] < hi and e != x
        ]

    def _index(self) -> tuple[list[int], list[int], list[int]]:
        """Preorder of the forest: ``order[tin[v]:tout[v]]`` is v's
        subtree, and each tree is one block of ``order``."""
        n = self.graph.vertex_count
        pv, adj = self.parent_vertex, self.adj
        order: list[int] = []
        for r in range(n):
            if pv[r] != -1:
                continue
            stack = [r]
            while stack:
                x = stack.pop()
                order.append(x)
                for y in adj[x]:
                    if pv[y] == x:
                        stack.append(y)
        tin = [0] * n
        for i, v in enumerate(order):
            tin[v] = i
        tout = [i + 1 for i in tin]
        for v in reversed(order):
            p = pv[v]
            if p != -1 and tout[v] > tout[p]:
                tout[p] = tout[v]
        return tin, tout, order


class PartitionMatroid:
    """At most ``capacities[i]`` elements from ``parts[i]``.

    The parts must partition the ground set 0..ground_size-1 exactly;
    ``part_of[x]`` is the part holding x.
    """

    def __init__(self, parts: Sequence[Iterable[int]], capacities: Sequence[int]):
        parts = [list(p) for p in parts]
        self.capacities = tuple(int(c) for c in capacities)
        if len(parts) != len(self.capacities):
            raise ValueError("one capacity per part")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative")
        self.ground_size = g = sum(len(p) for p in parts)
        self.part_of = [-1] * g
        for i, p in enumerate(parts):
            for x in p:
                # Checked before indexing: -1 would wrap to the last slot.
                if not isinstance(x, int) or not 0 <= x < g:
                    raise ValueError("parts must partition 0..ground_size-1")
                if self.part_of[x] != -1:
                    raise ValueError(f"element {x} appears in two parts")
                self.part_of[x] = i

    def is_independent(self, selection: Iterable[int]) -> bool:
        counts = [0] * len(self.capacities)
        for x in selection:
            i = self.part_of[x]
            counts[i] += 1
            if counts[i] > self.capacities[i]:
                return False
        return True

    def prepare(self, selection: Sequence[int]) -> "_PartitionContext":
        return _PartitionContext(self, selection)


class _PartitionContext:
    """Per-part view of an independent set: part i holds ``counts[i]``
    elements of I, listed in ``members[i]``.  y outside I is addable when
    its part's count is below its capacity; otherwise the circuit of
    I + y, less y, is ``members[part_of[y]]``.  ``add`` and ``remove``
    keep both up to date."""

    def __init__(self, m: PartitionMatroid, selection: Sequence[int]):
        self.part_of = m.part_of
        self.capacities = m.capacities
        self.counts = [0] * len(m.capacities)
        self.members: list[list[int]] = [[] for _ in m.capacities]
        for x in selection:
            self.add(x)

    def add(self, y: int) -> None:
        i = self.part_of[y]
        self.counts[i] += 1
        self.members[i].append(y)

    def remove(self, x: int) -> None:
        i = self.part_of[x]
        self.counts[i] -= 1
        self.members[i].remove(x)


def min_weight_common_base(
    m1: GraphicMatroid,
    m2: PartitionMatroid,
    weights: Sequence[int],
    k: int,
) -> frozenset[int] | None:
    """Minimum-weight set of size k independent in both matroids, or None
    when no common independent set reaches that size.

    ``m1`` must be a ``GraphicMatroid`` and ``m2`` a ``PartitionMatroid``;
    any other pairing raises ``TypeError``.

    k rounds of shortest augmenting paths.  A round whose potentials
    prove that the lightest element addable to both matroids is the
    shortest path adds it directly.  Every other round searches the
    exchange digraph with Dijkstra on reduced keys and updates the
    potentials; see the module docstring.  Combined integer keys order
    paths by cost and then by arc count, and every node's predecessor is
    the smallest source id among its tight in-arcs, so the result is
    deterministic and does not depend on which rounds were direct.

    Each matroid's context is made once, by ``prepare``, and follows I
    in place.  A direct round ``add``s its element to both.  A full round
    first takes out each element that leaves I (``cut`` in the forest,
    ``remove`` in the partition), then ``add``s each one that enters, so
    every set in between lies inside the new I and no part passes its
    cap.
    """
    if not (isinstance(m1, GraphicMatroid) and isinstance(m2, PartitionMatroid)):
        raise TypeError(
            f"expected a GraphicMatroid and then a PartitionMatroid, got "
            f"{type(m1).__name__} and {type(m2).__name__}"
        )
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

    scale = 2 * g + 4  # longer than any simple path's arc count
    in_set = [False] * g
    pot = list(weights)  # the source's potential is 0
    ctx1 = m1.prepare(())
    ctx2 = m2.prepare(())
    # Both contexts are updated in place for the whole solve; the loops
    # read their arrays.  An edge whose ends lie in two trees is outside I.
    comp = ctx1.comp
    end_u = [u for u, _, _ in m1.graph.edges]
    end_v = [v for _, v, _ in m1.graph.edges]
    part_of, counts, caps = ctx2.part_of, ctx2.counts, ctx2.capacities
    # No round takes an element out of either matroid's span of I, so
    # the elements outside I that the first matroid can add (free), the
    # sinks and the elements both can add are only ever filtered.
    free = list(range(g))
    sinks = [(p, y) for y, p in enumerate(pot) if caps[part_of[y]]]
    heapify(sinks)
    both = [(w, y) for y, w in enumerate(weights)]
    heapify(both)

    for _ in range(k):
        # Sinks keep their potentials until a full round, so stale heap
        # entries are dropped when they surface.
        while sinks:
            y = sinks[0][1]
            i = part_of[y]
            if not in_set[y] and counts[i] < caps[i]:
                break
            heappop(sinks)
        else:
            return None
        while both:
            y = both[0][1]
            i = part_of[y]
            if comp[end_u[y]] != comp[end_v[y]] and counts[i] < caps[i]:
                break
            heappop(both)
        low = sinks[0][0]  # least potential of a sink
        if both and low >= both[0][0]:
            # Every sink lies at least its potential, so at least w(y),
            # from the source, and any path but the one arc src -> y has
            # three or more arcs: the search would pick that arc.  The
            # other potentials stay feasible as they are.
            y = heappop(both)[1]
            ctx1.add(y)
            ctx2.add(y)
            in_set[y] = True
            pot[y] -= weights[y]
            continue

        free = [y for y in free if comp[end_u[y]] != comp[end_v[y]]]
        path = _cheapest_path(ctx1, ctx2, weights, pot, in_set, free, low, scale)
        if path is None:
            return None
        # Cutting every leaving element first keeps each intermediate set
        # inside I', so every add links two trees and fills no full part.
        for x in path:
            if in_set[x]:
                ctx1.cut(x)
                ctx2.remove(x)
        for x in path:
            if in_set[x]:
                pot[x] += weights[x]
            else:
                ctx1.add(x)
                ctx2.add(x)
                pot[x] -= weights[x]
            in_set[x] = not in_set[x]
        sinks = [
            (pot[y], y) for _, y in sinks
            if not in_set[y] and counts[part_of[y]] < caps[part_of[y]]
        ]
        heapify(sinks)

    selection = [y for y in range(g) if in_set[y]]
    if not (m1.is_independent(selection) and m2.is_independent(selection)):
        raise InternalError("intersection result is not independent in both matroids")
    return frozenset(selection)


def _cheapest_path(
    ctx1: _ForestContext,
    ctx2: _PartitionContext,
    weights: Sequence[int],
    pot: list[int],
    in_set: list[bool],
    free: list[int],
    low: int,
    scale: int,
) -> list[int] | None:
    """One full round: the shortest path from the source to a sink, its
    nodes listed from the sink back, or None when no sink is reachable.
    ``free`` lists the elements outside I that the first matroid can
    add; the sinks are read from ``ctx2``'s counts.
    Moves ``pot`` to the round's distances capped as the module
    docstring says; toggling the path is left to the caller."""
    g = len(weights)
    src = g
    # An arc into d costs +w(d) when d enters I and -w(d) when it leaves,
    # so its reduced key, less pot[u] * scale for its tail u, depends on d
    # alone.
    into = [
        ((-w if i else w) - p) * scale + 1 for w, p, i in zip(weights, pot, in_set)
    ]
    dist = [inf] * (g + 1)  # reduced keys
    pred = [-1] * (g + 1)
    dist[src] = 0
    heap = [(0, src)]  # the source and elements of I only
    entering = ctx1.entering
    part_of, counts, caps, members = ctx2.part_of, ctx2.counts, ctx2.capacities, ctx2.members
    best, best_dist = -1, inf  # best_dist is unreduced
    bound = inf  # no sink beats best through a node keyed past this
    while heap and heap[0][0] <= bound:
        ds, s = heappop(heap)
        if ds > dist[s]:
            continue
        if s == src:
            heads, base = free, 0
        else:
            heads, base = entering(s), ds + pot[s] * scale
        for y in heads:
            ny = base + into[y]
            if ny <= ds:
                raise InternalError("potentials are not feasible")
            if ny < dist[y]:
                dist[y] = ny
                pred[y] = s
                if ny > bound:
                    continue
                full = ny + pot[y] * scale
                i = part_of[y]
                if counts[i] < caps[i]:  # y is a sink
                    if full < best_dist or (full == best_dist and y < best):
                        best, best_dist = y, full
                        bound = full - low * scale
                    continue
                # y passes its new distance straight on to its circuit.
                for x in members[i]:
                    nx = full + into[x]
                    if nx <= ny:
                        raise InternalError("potentials are not feasible")
                    if nx < dist[x]:
                        dist[x] = nx
                        pred[x] = y
                        heappush(heap, (nx, x))
                    elif nx == dist[x] and y < pred[x]:
                        pred[x] = y
            elif ny == dist[y] and s < pred[y]:
                pred[y] = s
    if best == -1:
        return None

    # Combined keys make every predecessor walk a simple path.
    node = best
    path = []
    while node != src:
        path.append(node)
        if pred[node] == -1:
            raise InternalError("shortest-path keys admit no predecessor")
        node = pred[node]

    # The arc count of a key lies in 0..scale-1, so floor division
    # recovers the reduced weight exactly.  cap is measured from low, the
    # virtual sink's potential, not from the chosen sink's own: then no
    # sink ends below the chosen one, which the next round's arcs into it
    # need.  A key past lim, or none, moves its element by cap.
    if min(dist) < 0:
        raise InternalError("potentials are not feasible")
    lim = (best_dist // scale - low) * scale
    pot[:] = [p + (d if d < lim else lim) // scale for p, d in zip(pot, dist)]
    return path
