"""Core graph types: weighted simple graphs, edge subsets, 2-colorings,
and spanning-tree views.

All types are immutable value objects.  Vertices are the integers
``0 .. vertex_count - 1``.  An edge's identity is its index into
``WeightedGraph.edges``; subsets of edges are plain ``frozenset[int]``
values over those indices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import (
    GraphFormatError,
    InternalError,
    NotATreeError,
    NotBipartiteError,
)

# Subset of edge indices of some host WeightedGraph.
EdgeSet = frozenset[int]

# A cycle written as a sequence of distinct vertices; consecutive entries
# (cyclically) must be adjacent in the host graph.
VertexCycle = tuple[int, ...]

# A proper 2-coloring is a tuple with ``side[v]`` PLUS or MINUS per vertex.
PLUS = 0
MINUS = 1


class BadEdgeError(ValueError):
    """``WeightedGraph`` rejected one entry of its edge list; ``position``
    is that entry's 0-based index in the list."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(message)


@dataclass(frozen=True)
class WeightedGraph:
    """A simple undirected graph with integer edge weights.

    Edges are normalized to ``(u, v, weight)`` with ``u < v`` and kept in
    construction order.  The constructor's check loop, ``_fill``, is the
    one place where an edge list is checked; ``with_added_edges`` runs it
    over the appended entries only, and ``with_weight`` reweights a
    checked graph's edges without checking them again.  An entry that is
    not ``(u, v)`` or ``(u, v, w)`` over integers, a self-loop, a vertex
    outside ``0 .. vertex_count - 1`` and a parallel edge each raise
    ``BadEdgeError`` (a ``ValueError``) naming the entry's position.  The
    ``(u, v) -> index`` map built while rejecting parallel edges serves
    ``edge_index`` and ``has_edge``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]
    _index: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = ()):
        if not isinstance(vertex_count, int) or vertex_count < 1:
            raise ValueError(f"vertex count must be a positive integer, got {vertex_count!r}")
        self._fill(vertex_count, [], {}, edges)

    def _fill(self, vertex_count: int, normalized: list, index: dict, items: Iterable) -> None:
        # Check each of ``items``, append it to the already checked
        # ``normalized`` and ``index``, and make those the fields.
        for pos, item in enumerate(items, len(normalized)):
            if len(item) == 3:
                u, v, w = item  # type: ignore[misc]
            elif len(item) == 2:
                u, v = item  # type: ignore[misc]
                w = 0
            else:
                raise BadEdgeError(f"edge must be (u, v) or (u, v, w), got {item!r}", pos)
            if not (isinstance(u, int) and isinstance(v, int) and isinstance(w, int)):
                raise BadEdgeError(f"edge entries must be integers, got {item!r}", pos)
            if u == v:
                raise BadEdgeError(f"self-loop at vertex {u} is not allowed", pos)
            if u > v:
                u, v = v, u
            if u < 0 or v >= vertex_count:
                raise BadEdgeError(
                    f"edge {{{u}, {v}}} uses a vertex outside 0..{vertex_count - 1}", pos
                )
            key = (u, v)
            if key in index:
                raise BadEdgeError(f"parallel edge {{{u}, {v}}}", pos)
            index[key] = pos
            normalized.append((u, v, w))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_index", index)

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: ``(edge_index, neighbor)`` pairs in ascending edge index."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v, _) in enumerate(self.edges):
            adj[u].append((i, v))
            adj[v].append((i, u))
        return tuple(tuple(a) for a in adj)

    def edge_index(self, u: int, v: int) -> int:
        """Index of the edge {u, v}; KeyError if absent."""
        return self._index[(u, v) if u < v else (v, u)]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._index

    def endpoints(self, edge: int) -> tuple[int, int]:
        u, v, _ = self.edges[edge]
        return u, v

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def total_weight(self, edge_set: Iterable[int]) -> int:
        return sum(self.edges[i][2] for i in edge_set)

    def edge_pairs(self, edge_set: Iterable[int]) -> list[tuple[int, int]]:
        """Endpoint pairs of an edge subset, sorted for stable output.  As
        u < v < n, the key u * n + v orders pairs as tuples do, and
        ``divmod(key, n)`` gives the pair back."""
        edges = self.edges
        n = self.vertex_count
        keys = [edges[i][0] * n + edges[i][1] for i in edge_set]
        keys.sort()
        return list(map(divmod, keys, repeat(n)))

    def with_added_edges(self, new_edges: Iterable[Sequence[int]]) -> "WeightedGraph":
        """A new graph with extra edges appended after the existing ones.
        Only the new entries are checked, with the constructor's rules;
        a rejected one's ``position`` counts the existing edges too."""
        g = object.__new__(WeightedGraph)
        g._fill(self.vertex_count, list(self.edges), dict(self._index), new_edges)
        return g

    def with_weight(self, weight: int) -> "WeightedGraph":
        """The same edges in the same order, each weighing ``weight``.

        Only the weight is checked: the endpoints were checked when this
        graph was made, so the new graph shares its ``(u, v) -> index``
        map, which no method mutates (``with_added_edges`` copies it).
        """
        if not isinstance(weight, int):
            raise ValueError(f"edge weight must be an integer, got {weight!r}")
        g = object.__new__(WeightedGraph)
        object.__setattr__(g, "vertex_count", self.vertex_count)
        object.__setattr__(g, "edges", tuple([(u, v, weight) for u, v, _ in self.edges]))
        object.__setattr__(g, "_index", self._index)
        return g


@dataclass(frozen=True)
class BipartitionedTree:
    """A spanning tree of its graph together with the tree's 2-coloring.

    ``side[v]`` is PLUS or MINUS, with vertex 0 on the PLUS side.
    ``degree[v]`` is the degree of v within the tree, and ``adjacency[v]``
    its tree-only ``(edge_index, neighbor)`` pairs in ascending edge index.
    """

    graph: WeightedGraph
    edges: EdgeSet
    side: tuple[int, ...]
    degree: tuple[int, ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, compare=False)

    @property
    def total_weight(self) -> int:
        return self.graph.total_weight(self.edges)


# -- operations ------------------------------------------------------------


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Vertex sets of the connected components.

    Components are ordered by their smallest vertex; vertices within a
    component are sorted ascending.

    Union-find over ``g.edges``, with no adjacency built and nothing
    sorted: every parent pointer goes to a smaller vertex, so a root is
    its component's smallest vertex, and finds halve the paths they walk.
    One ascending pass then points each vertex at its root (its parent's
    pointer is already final) and appends it to its root's list, which
    gives both orders.  This costs O(n + m log n), near linear in practice.
    """
    n = g.vertex_count
    parent = list(range(n))
    for u, v, _ in g.edges:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    comps: list[list[int]] = []
    members: list[list[int] | None] = [None] * n  # indexed by root
    for v in range(n):
        r = parent[v] = parent[parent[v]]
        if r == v:
            comp = [v]
            members[v] = comp
            comps.append(comp)
        else:
            members[r].append(v)  # type: ignore[union-attr]
    return comps


def is_connected(g: WeightedGraph) -> bool:
    return len(connected_components(g)) == 1


def _odd_cycle_witness(parent: list[int], u: int, v: int) -> VertexCycle:
    # u and v are BFS-adjacent on the same side, so at the same depth;
    # walk both up in step to their meeting point to close an odd cycle.
    pu, pv = [u], [v]
    a, b = u, v
    while a != b:
        a = parent[a]
        b = parent[b]
        pu.append(a)
        pv.append(b)
    # Both walks end at the common ancestor; keep it once.
    return tuple(list(reversed(pu)) + pv[:-1])


def bipartition_of(g: WeightedGraph) -> tuple[int, ...]:
    """Proper 2-coloring of g, ``side[v]`` PLUS or MINUS, with the
    smallest vertex of each component on PLUS.

    Raises NotBipartiteError carrying a witness odd cycle otherwise.
    """
    side = [-1] * g.vertex_count
    parent = [-1] * g.vertex_count
    for start in range(g.vertex_count):
        if side[start] != -1:
            continue
        side[start] = PLUS
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for _, y in g.adjacency[x]:
                if side[y] == -1:
                    side[y] = 1 - side[x]
                    parent[y] = x
                    queue.append(y)
                elif side[y] == side[x]:
                    raise NotBipartiteError(_odd_cycle_witness(parent, x, y))
    return tuple(side)


def as_bipartitioned_tree(g: WeightedGraph, tree_edges: Iterable[int]) -> BipartitionedTree:
    """View an edge subset as a spanning tree with its 2-coloring.

    Raises NotATreeError if the subset does not form a spanning tree.
    """
    edges = frozenset(tree_edges)
    n = g.vertex_count
    order = sorted(edges)
    for i in order[:1] + order[-1:]:  # only the ends of a sorted list can be out of range
        if not (0 <= i < g.edge_count):
            raise NotATreeError(f"edge index {i} out of range")
    if len(edges) != n - 1:
        raise NotATreeError(f"spanning tree needs {n - 1} edges, got {len(edges)}")
    ends = g.edges
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in order:
        u, v, _ = ends[i]
        adj[u].append((i, v))
        adj[v].append((i, u))
    side = [-1] * n
    side[0] = PLUS
    queue = deque([0])
    reached = 1
    while queue:
        x = queue.popleft()
        for _, y in adj[x]:
            if side[y] == -1:
                side[y] = 1 - side[x]
                reached += 1
                queue.append(y)
    if reached != n:
        # n-1 edges but not spanning: there is a cycle somewhere.
        raise NotATreeError("edge set does not span all vertices")
    return BipartitionedTree(
        g, edges, tuple(side), tuple(map(len, adj)), tuple(map(tuple, adj))
    )


def is_hamiltonian_cycle(g: WeightedGraph, cycle: Sequence[int]) -> bool:
    """True iff ``cycle`` lists every vertex once and consecutive entries
    (including last back to first) are adjacent in g."""
    n = g.vertex_count
    if n < 3 or len(cycle) != n:
        return False
    if len(set(cycle)) != n or not all(0 <= v < n for v in cycle):
        return False
    return all(g.has_edge(cycle[k - 1], cycle[k]) for k in range(n))


# -- text format -----------------------------------------------------------
#
#   c optional comments
#   p <vertex-count> <edge-count>
#   e <u> <v> [<weight>]        (weight omitted means 0)


def _tokenized_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, whitespace-split fields)`` of each line of a text
    file that is neither blank nor a ``c`` comment; numbers start at 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield lineno, line.split()


def parse_graph(text: str) -> WeightedGraph:
    """Read the graph format above.

    This function checks the lines and ``WeightedGraph`` checks the edges,
    so ``GraphFormatError`` reports, in this order: the first malformed
    line (a bad or second ``p`` line, a bad ``e`` line, an ``e`` line
    before the ``p`` line, an unknown line type) or a missing ``p`` line;
    then the first self-loop, out-of-range vertex or parallel edge, at its
    line; then an edge count that differs from the announced one.

    Each line is split once, in this loop: a line with no fields, or
    whose first field starts with ``c``, is skipped, which is the rule of
    ``_tokenized_lines``.  The common case, an ``e`` line after the ``p``
    line, is tested first and converted field by field, so it costs one
    ``split`` and the edge's tuple, and nothing records its line number.
    A rejected edge's line is found afterwards by counting ``e`` lines
    up to the edge's position (``_edge_line``).
    """
    n = -1
    m = -1
    edges: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        if head == "e" and n != -1:
            arity = len(parts)
            if arity != 4 and arity != 3:
                raise GraphFormatError("e line must be 'e <u> <v> [<w>]'", lineno)
            try:
                if arity == 4:
                    edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
                else:
                    edges.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise GraphFormatError("e line must hold integers", lineno) from None
        elif head[0] == "c":
            continue
        elif head == "p":
            if n != -1:
                raise GraphFormatError("duplicate p line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("p line must be 'p <n> <m>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("p line must be 'p <n> <m>'", lineno) from None
            if n < 1 or m < 0:
                raise GraphFormatError(f"bad sizes n={n} m={m}", lineno)
        elif head == "e":
            raise GraphFormatError("e line before p line", lineno)
        else:
            raise GraphFormatError(f"unknown line type {head!r}", lineno)
    if n == -1:
        raise GraphFormatError("missing p line")
    try:
        g = WeightedGraph(n, edges)
    except BadEdgeError as exc:
        raise GraphFormatError(str(exc), _edge_line(text, exc.position)) from None
    if g.edge_count != m:
        raise GraphFormatError(f"p line announced {m} edges, file holds {g.edge_count}")
    return g


def _edge_line(text: str, position: int) -> int:
    """Line number of the ``e`` line that gave edge ``position`` (0-based)
    of a text that ``parse_graph`` read without a malformed line.  Such a
    text has no ``e`` line before its ``p`` line, so every ``e`` line
    gave an edge, in file order."""
    seen = -1
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split(None, 1)
        if parts and parts[0] == "e":
            seen += 1
            if seen == position:
                return lineno
    raise InternalError(f"no e line gave edge {position}")


def format_graph(g: WeightedGraph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p {g.vertex_count} {g.edge_count}")
    for u, v, w in sorted(g.edges):
        lines.append(f"e {u} {v} {w}" if w != 0 else f"e {u} {v}")
    return "\n".join(lines) + "\n"
