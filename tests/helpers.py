"""Shared test utilities: mask-indexed small graphs, Prüfer decoding,
seeded random instance builders, the reference minimum-PMST, minimum-SBST,
matroid-intersection, blossom and component searches, graph parser, tree
completion, augmentation branch and bound and greedy augmentation used
across the suite, and three referees that only the tests need: a
spanning-tree enumerator, a Kirchhoff spanning-tree count and a subset-DP
maximum matching size."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations
from math import inf

from treematch import WeightedGraph, as_bipartitioned_tree, is_strongly_balanced
from treematch.errors import (
    DisconnectedError,
    GraphFormatError,
    OddVertexCountError,
    TooLargeError,
)
from treematch.graph import BadEdgeError, _tokenized_lines
from treematch.matching import Matching, maximum_matching


def pairs_of(n: int) -> list[tuple[int, int]]:
    """Vertex pairs of K_n in lexicographic order; bit b of a mask refers
    to pairs_of(n)[b] everywhere in the tests."""
    return list(combinations(range(n), 2))


def graph_from_mask(
    n: int, mask: int, pairs: list[tuple[int, int]] | None = None, weight: int = 1
) -> WeightedGraph:
    ps = pairs if pairs is not None else pairs_of(n)
    return WeightedGraph(
        n, [(u, v, weight) for b, (u, v) in enumerate(ps) if mask >> b & 1]
    )


def prufer_tree(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence (length n-2, entries in 0..n-1) into the
    edge list of the tree it encodes."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if deg[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        deg[leaf] = 0
        deg[x] -= 1
    u, v = (v for v in range(n) if deg[v] == 1)
    edges.append((u, v))
    return edges


def max_degree(g: WeightedGraph) -> int:
    return max((g.degree(v) for v in range(g.vertex_count)), default=0)


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return prufer_tree(tuple(rng.randrange(n) for _ in range(n - 2)), n)


def random_connected_bipartite(
    rng: random.Random, side: int, target_edges: int, wmax: int = 9
) -> WeightedGraph:
    """Connected balanced bipartite graph on 2*side vertices with about
    target_edges edges: a random spanning tree of K_{side,side} plus random
    crossing fill, weights uniform in 0..wmax."""
    n = 2 * side
    # Random spanning tree over the crossing pairs: attach each vertex
    # (in random order) to a random already-placed vertex of the other side.
    order = list(range(n))
    rng.shuffle(order)
    placed_by_side: tuple[list[int], list[int]] = ([], [])
    chosen: set[tuple[int, int]] = set()
    for v in order:
        s = 0 if v < side else 1
        other = placed_by_side[1 - s]
        if other:
            u = rng.choice(other)
            chosen.add((min(u, v), max(u, v)))
        placed_by_side[s].append(v)
    # The attachment loop can strand the first vertex of each side before
    # the other side has anyone; stitch remaining components together.
    crossing = [(u, side + v) for u in range(side) for v in range(side)]
    rng.shuffle(crossing)
    for u, v in crossing:
        if len(chosen) >= n - 1:
            break
        comp = _components_of(n, chosen)
        if comp[u] != comp[v]:
            chosen.add((u, v))
    for u, v in crossing:
        if len(chosen) >= target_edges:
            break
        chosen.add((u, v))
    return WeightedGraph(
        n, [(u, v, rng.randint(0, wmax)) for u, v in sorted(chosen)]
    )


def planted_sb_bipartite(
    rng: random.Random, side: int, target_edges: int, wmax: int = 9
) -> WeightedGraph:
    """Balanced bipartite graph on 2*side vertices (sides 0..side-1 and
    side..2*side-1) with about target_edges edges, holding a planted
    strongly balanced tree: a random path that alternates sides, plus
    random crossing fill, weights uniform in 0..wmax."""
    plus, minus = list(range(side)), list(range(side, 2 * side))
    rng.shuffle(plus)
    rng.shuffle(minus)
    path = [v for pair in zip(plus, minus) for v in pair]
    chosen = {(min(u, v), max(u, v)) for u, v in zip(path, path[1:])}
    while len(chosen) < target_edges:
        chosen.add((rng.randrange(side), rng.randrange(side, 2 * side)))
    return WeightedGraph(
        2 * side, [(u, v, rng.randint(0, wmax)) for u, v in sorted(chosen)]
    )


def _components_of(n: int, edge_pairs: set[tuple[int, int]]) -> list[int]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_pairs:
        parent[find(u)] = find(v)
    return [find(v) for v in range(n)]


def random_subcubic(rng: random.Random, n: int, tries: int = 60) -> WeightedGraph:
    """Random graph with maximum degree at most three (weights all 1)."""
    deg = [0] * n
    chosen: list[tuple[int, int]] = []
    pool = pairs_of(n)
    rng.shuffle(pool)
    for u, v in pool[:tries]:
        if deg[u] < 3 and deg[v] < 3:
            chosen.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return WeightedGraph(n, [(u, v, 1) for u, v in chosen])


def reference_common_bases(m1, m2, weights):
    """``min_weight_common_base`` as it was before direct augmentations and
    potentials: every round builds the whole exchange digraph and runs the
    label-correcting search.  Kept as the reference whose tie-breaks the
    solver must reproduce exactly.  Returns the set after each round,
    from the empty set up to the largest common independent set: entry k
    is what the solver must return for size k, and a size past the end
    has no common independent set.

    It shares no code with the solver: addability and circuits come from
    ``is_independent`` alone (x lies on the circuit of I + y iff
    I - x + y is independent), so it takes any two matroids in either
    order, while the solver takes only a ``GraphicMatroid`` first and a
    ``PartitionMatroid`` second."""
    g = m1.ground_size
    hub1, hub2, src_node = g, g + 1, g + 2
    node_count = g + 3
    scale = 2 * g + 4
    in_set = [False] * g
    selection: list[int] = []
    sets = [frozenset()]
    while True:
        out: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
        sinks: list[int] = []
        any_source = False
        for y in range(g):
            if in_set[y]:
                continue
            enter = weights[y] * scale + 1
            if m1.is_independent(selection + [y]):
                any_source = True
                out[src_node].append((y, enter))
                if selection:
                    out[hub1].append((y, enter))
            else:
                for x in reference_circuit(m1, selection, y):
                    out[x].append((y, enter))
            if m2.is_independent(selection + [y]):
                sinks.append(y)
                if selection:
                    out[y].append((hub2, 0))
            else:
                for x in reference_circuit(m2, selection, y):
                    out[y].append((x, -weights[x] * scale + 1))
        for x in selection:
            out[x].append((hub1, 0))
            out[hub2].append((x, -weights[x] * scale + 1))
        if not any_source or not sinks:
            return sets
        dist, pred = _reference_shortest_paths(out, src_node)
        best_sink = -1
        for y in sinks:
            if dist[y] < inf and (best_sink == -1 or dist[y] < dist[best_sink]):
                best_sink = y
        if best_sink == -1:
            return sets
        node = best_sink
        while node != src_node:
            if node < g:
                in_set[node] = not in_set[node]
            node = pred[node]
        selection = [x for x in range(g) if in_set[x]]
        sets.append(frozenset(selection))


def reference_circuit(m, selection, y):
    """The elements x of independent ``selection`` for which
    ``selection`` - x + y is independent in m: the circuit of
    ``selection`` + y, less y, when y is not addable.  Uses only
    ``m.is_independent``."""
    return [
        x for x in selection
        if m.is_independent([z for z in selection if z != x] + [y])
    ]


def _reference_shortest_paths(out, start):
    """Queue-based Bellman-Ford; each node's predecessor is the smallest
    source id among its tight in-arcs."""
    dist = [inf] * len(out)
    pred = [-1] * len(out)
    queued = [False] * len(out)
    dist[start] = 0
    queue = deque([start])
    while queue:
        s = queue.popleft()
        queued[s] = False
        for d, key in out[s]:
            nd = dist[s] + key
            if nd < dist[d]:
                dist[d] = nd
                pred[d] = s
                if not queued[d]:
                    queued[d] = True
                    queue.append(d)
            elif nd == dist[d] and s < pred[d]:
                pred[d] = s
    return dist, pred


def tree_has_perfect_matching(g: WeightedGraph, tree) -> bool:
    """Root the spanning tree at 0 and match bottom up: children come
    before their parent, and a vertex that no child took must take its
    parent.  A tree has a perfect matching exactly when no vertex finds
    its parent already taken and the root ends up matched."""
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in tree:
        u, v, _ = g.edges[i]
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    order = [0]  # breadth first, so each vertex comes after its parent
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)
    matched = [False] * n
    for x in reversed(order):
        if not matched[x]:
            p = parent[x]
            if p < 0 or matched[p]:
                return False
            matched[x] = matched[p] = True
    return True


def multigraph_spanning_trees(n: int, ends_u, ends_v):
    """Every spanning tree of the multigraph on ``0 .. n - 1`` whose edge i
    joins ``ends_u[i]`` and ``ends_v[i]``, as the ascending list of its
    edge indices, in lexicographic order; nothing when it is disconnected.
    The same list object is yielded each time and changes on resumption;
    copy what must outlive the step.

    Each descent takes, in index order, every edge that joins two
    components, until n - 2 edges leave two components; each later edge
    between those two then completes one tree, found by comparing the two
    component labels of its ends.  Backtracking drops the last chosen edge
    and resumes after it only when the chosen edges plus the later ones
    still span, so every descent ends in a tree."""
    m = len(ends_u)
    parent = list(range(n))
    size = [1] * n
    chosen: list[int] = []
    absorbed: list[int] = []  # the root each chosen edge hung below another

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def spans(j):
        # Do the chosen edges plus edges j, j + 1, ... span?
        trial = parent[:]
        comps = n - len(chosen)
        for k in range(j, m):
            if comps == 1:
                break
            a, b = ends_u[k], ends_v[k]
            while trial[a] != a:
                trial[a] = a = trial[trial[a]]
            while trial[b] != b:
                trial[b] = b = trial[trial[b]]
            if a != b:
                trial[a] = b
                comps -= 1
        return comps == 1

    if not spans(0):
        return
    if n == 1:
        yield chosen
        return
    i = 0
    while True:
        while len(chosen) < n - 2:
            ru, rv = find(ends_u[i]), find(ends_v[i])
            if ru != rv:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
                chosen.append(i)
                absorbed.append(rv)
            i += 1
        label = [find(x) for x in range(n)]
        for k in range(i, m):
            if label[ends_u[k]] != label[ends_v[k]]:
                chosen.append(k)
                yield chosen
                chosen.pop()
        while chosen:
            j = chosen.pop()
            rv = absorbed.pop()
            size[parent[rv]] -= size[rv]
            parent[rv] = rv
            if spans(j + 1):
                i = j + 1
                break
        else:
            return


def spanning_trees(g: WeightedGraph):
    """Every spanning tree of g, as the sorted tuple of its edge indices,
    in lexicographic order; nothing when g is disconnected."""
    ends_u = [u for u, _, _ in g.edges]
    ends_v = [v for _, v, _ in g.edges]
    return (tuple(t) for t in multigraph_spanning_trees(g.vertex_count, ends_u, ends_v))


def reference_min_pmst(g: WeightedGraph, accept=None):
    """``brute_force_min_pmst`` as full enumeration filtered by a tree
    matching test: the minimum over (weight, sorted edge-index tuple) of
    every spanning tree with a perfect matching that passes ``accept``
    (asked only about a tree that would improve the best key), and the
    number of trees with a perfect matching.  The tree is None when there
    is none."""
    best = None
    count = 0
    for tree in spanning_trees(g):
        if tree_has_perfect_matching(g, tree):
            count += 1
            key = (sum(g.edges[i][2] for i in tree), tree)
            if (best is None or key < best) and (accept is None or accept(tree)):
                best = key
    return (None if best is None else (frozenset(best[1]), best[0])), count


def strongly_balanced(g: WeightedGraph, tree) -> bool:
    """The production recognizer's verdict on a spanning tree of g."""
    return is_strongly_balanced(as_bipartitioned_tree(g, frozenset(tree))) is not None


def reference_min_sbst(g: WeightedGraph):
    """``brute_force_min_sbst`` on the same reference: the trees with a
    perfect matching, filtered by the production recognizer."""
    return reference_min_pmst(g, lambda tree: strongly_balanced(g, tree))


def spanning_tree_count_determinant(g: WeightedGraph) -> int:
    """Number of spanning trees via an exact integer determinant of a
    Laplacian minor (Bareiss elimination).  Cross-checks the enumerator."""
    n = g.vertex_count
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v, _ in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    k = n - 1
    prev = 1
    for col in range(k - 1):
        if a[col][col] == 0:
            swap = next((r for r in range(col + 1, k) if a[r][col] != 0), None)
            if swap is None:
                return 0
            a[col], a[swap] = a[swap], a[col]
            # A row swap flips the determinant's sign; negating one row
            # flips it back.
            a[swap] = [-x for x in a[swap]]
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return a[k - 1][k - 1]


def reference_connected_components(g: WeightedGraph) -> list[list[int]]:
    """``graph.connected_components`` as it was before union-find: a BFS
    over ``g.adjacency`` from each unseen vertex in ascending order, each
    component sorted.  Kept as the reference the union-find must agree
    with, list for list."""
    seen = [False] * g.vertex_count
    comps: list[list[int]] = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for _, y in g.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comp.sort()
        comps.append(comp)
    return comps


def reference_mates_by_blossom(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum matching as a mate array (-1 = exposed).

    ``matching._mates_by_blossom`` as it was before member lists: every
    contraction sweeps the whole search tree.  Kept as the reference the
    O(blossom) contraction must agree with, mate for mate.

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
        touched.clear()
        touched.append(root)
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and p[mate[to]] != -1):
                    # Odd cycle: shrink the blossom onto its base.  Every
                    # vertex it covers is in the search tree, and newly
                    # outer vertices join the queue in ascending id.
                    curbase = lca(v, to)
                    marked: list[int] = []
                    mark_path(v, curbase, to, marked)
                    mark_path(to, curbase, v, marked)
                    grown = []
                    for i in touched:
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                grown.append(i)
                    for x in marked:
                        blossom[x] = False
                    grown.sort()
                    queue.extend(grown)
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if mate[to] == -1:
                        # Augmenting path: flip matched edges back to the root.
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = mate[pv]
                            mate[u] = pv
                            mate[pv] = u
                            u = ppv
                        return
                    touched.append(mate[to])
                    used[mate[to]] = True
                    queue.append(mate[to])

    for v in range(n):
        if mate[v] == -1:
            augment_from(v)
    return mate


def max_matching_size_exhaustive(g: WeightedGraph) -> int:
    """Maximum matching size by subset DP; limited to 20 vertices."""
    n = g.vertex_count
    if n > 20:
        raise TooLargeError(f"{n} vertices is past the exhaustive limit of 20")
    nbr = [0] * n
    for u, v, _ in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    dp = bytearray(1 << n)
    for s in range(1, 1 << n):
        lb = s & -s
        v = lb.bit_length() - 1
        rest = s ^ lb
        best = dp[rest]
        cand = nbr[v] & rest
        while cand:
            ub = cand & -cand
            val = dp[rest ^ ub] + 1
            if val > best:
                best = val
            cand ^= ub
        dp[s] = best
    return dp[(1 << n) - 1]


def reference_parse_graph(text: str) -> WeightedGraph:
    """``graph.parse_graph`` as it was before it split each line once in
    its own loop: lines come from ``_tokenized_lines`` and an ``e`` line is
    converted with ``tuple(map(int, ...))``.  Kept as the reference the
    parser must agree with, graph for graph and error for error."""
    n = -1
    m = -1
    edges: list[tuple[int, ...]] = []
    edge_lines: list[int] = []
    for lineno, parts in _tokenized_lines(text):
        if parts[0] == "p":
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
        elif parts[0] == "e":
            if n == -1:
                raise GraphFormatError("e line before p line", lineno)
            if len(parts) not in (3, 4):
                raise GraphFormatError("e line must be 'e <u> <v> [<w>]'", lineno)
            try:
                edges.append(tuple(map(int, parts[1:])))
            except ValueError:
                raise GraphFormatError("e line must hold integers", lineno) from None
            edge_lines.append(lineno)
        else:
            raise GraphFormatError(f"unknown line type {parts[0]!r}", lineno)
    if n == -1:
        raise GraphFormatError("missing p line")
    try:
        g = WeightedGraph(n, edges)
    except BadEdgeError as exc:
        raise GraphFormatError(str(exc), edge_lines[exc.position]) from None
    if g.edge_count != m:
        raise GraphFormatError(f"p line announced {m} edges, file holds {g.edge_count}")
    return g


def reference_build_tree_containing_matching(
    g: WeightedGraph, matching: Matching
) -> frozenset[int]:
    """``pmst.build_tree_containing_matching`` as it was before its stable
    weight-keyed sort: a ``find`` closure and a sort keyed on
    ``(weight, index)``.  Kept as the reference the completion must agree
    with, tree for tree."""
    if matching.graph is not g:
        raise ValueError("matching belongs to a different graph")
    if not matching.is_perfect:
        raise ValueError("matching is not perfect")
    n = g.vertex_count
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set(matching.edges)
    for i in matching.edges:
        u, v, _ = g.edges[i]
        parent[find(u)] = find(v)
    order = sorted(
        (i for i in range(g.edge_count) if i not in tree),
        key=lambda i: (g.edges[i][2], i),
    )
    for i in order:
        if len(tree) == n - 1:
            break
        u, v, _ = g.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(i)
    if len(tree) != n - 1:
        raise DisconnectedError("graph is not connected")
    return frozenset(tree)


def reference_opt_aug(h: WeightedGraph, host) -> int:
    """``oracle.brute_force_opt_aug`` as it was before children were built
    lazily: every child's subset-DP matching numbers and component labels
    are built when it is pushed.  Kept as the reference the branch and
    bound must agree with, value for value and error for error."""
    n = h.vertex_count
    if n > 8:
        raise TooLargeError(f"{n} vertices is past the exhaustive limit of 8")
    if n % 2:
        raise OddVertexCountError(f"{n} vertices cannot be perfectly matched")
    host.validate_graph(h)
    full = (1 << n) - 1

    def add_edge(dp, comp, u, v):
        both = (1 << u) | (1 << v)
        others = full ^ both
        dp = bytearray(dp)
        rest = others
        while True:
            with_uv = dp[rest] + 1
            if with_uv > dp[rest | both]:
                dp[rest | both] = with_uv
            if not rest:
                break
            rest = (rest - 1) & others
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp = [cu if c == cv else c for c in comp]
        return dp, comp

    dp, comp = bytearray(1 << n), list(range(n))
    for u, v, _ in h.edges:
        dp, comp = add_edge(dp, comp, u, v)
    cands = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not h.has_edge(u, v) and host.admits_edge(u, v)
    ]
    best = n * n
    stack = [(0, 0, dp, comp)]
    while stack:
        pos, added, dp, comp = stack.pop()
        b = max(len(set(comp)) - 1, (n - 2 * dp[full]) // 2)
        if added + b >= best:
            continue
        if b == 0:
            best = added
            continue
        for i in range(len(cands) - 1, pos - 1, -1):
            stack.append((i + 1, added + 1, *add_edge(dp, comp, *cands[i])))
    return best


def reference_greedy_augment(h: WeightedGraph, host):
    """``pmst.greedy_augment``'s stage loops as they were before heaps:
    every step rescans the live components ordered by smallest vertex,
    O(c^2) per stage.  Starts from the same maximum matching and returns
    ``(added_edges, stage_added, matched_pairs)``, the last as
    ``res.graph.edge_pairs(res.matching.edges)`` lists them.  Kept as the
    reference whose tie rules the greedy must reproduce edge for edge."""
    n = h.vertex_count
    side = host.side or (0,) * n
    mate = list(maximum_matching(h).mate)
    # Per live root (its smallest vertex): smallest vertex of each host
    # side, and ascending exposed vertices of each side (a complete host
    # uses side 0 only).
    lowest: dict[int, list[int | None]] = {}
    exposed: dict[int, list[list[int]]] = {}
    root_of = list(range(n))
    for comp in reference_connected_components(h):
        r = comp[0]
        for v in comp:
            root_of[v] = r
        lowest[r] = [next((v for v in comp if side[v] == s), None) for s in (0, 1)]
        exposed[r] = [[v for v in comp if mate[v] is None and side[v] == s] for s in (0, 1)]

    def defic(r: int) -> int:
        return len(exposed[r][0]) + len(exposed[r][1])

    def merge(r1: int, r2: int) -> None:
        root, other = min(r1, r2), max(r1, r2)
        for v in range(n):
            if root_of[v] == other:
                root_of[v] = root
        lowest[root] = [
            min((x for x in (a, b) if x is not None), default=None)
            for a, b in zip(lowest[root], lowest.pop(other))
        ]
        exposed[root] = [sorted(a + b) for a, b in zip(exposed[root], exposed.pop(other))]

    added: list[tuple[int, int]] = []

    def add_matching_edge(v1: int, v2: int) -> None:
        added.append((min(v1, v2), max(v1, v2)))
        mate[v1], mate[v2] = v2, v1
        r1, r2 = root_of[v1], root_of[v2]
        if r1 != r2:
            merge(r1, r2)
        for x in (v1, v2):
            exposed[root_of[x]][side[x]].remove(x)

    def pick_exposed_pair(r1: int, r2: int):
        # Smallest-id pair; a bipartite host only allows opposite sides.
        if host.side is None:
            return exposed[r1][0][0], exposed[r2][0][0]
        combos = [
            (exposed[r1][s][0], exposed[r2][1 - s][0])
            for s in (0, 1)
            if exposed[r1][s] and exposed[r2][1 - s]
        ]
        return min(combos) if combos else None

    # Stage 1: a deficient component against one of deficiency >= 2.
    while True:
        roots = sorted(exposed)
        pair = None
        for r1 in roots:
            if defic(r1) < 1:
                continue
            for r2 in roots:
                if r2 != r1 and defic(r2) >= 2:
                    pair = pick_exposed_pair(r1, r2)
                    if pair is not None:
                        break
            if pair is not None:
                break
        if pair is None:
            break
        add_matching_edge(*pair)
    ends = [len(added)]

    # Stage 2: pair up deficiency-one components.
    while True:
        ones = [r for r in sorted(exposed) if defic(r) == 1]
        pair = None
        for i, r1 in enumerate(ones):
            for r2 in ones[i + 1 :]:
                pair = pick_exposed_pair(r1, r2)
                if pair is not None:
                    break
            if pair is not None:
                break
        if pair is None:
            break
        add_matching_edge(*pair)
    ends.append(len(added))

    # Stage 3: exposed pairs inside the one remaining deficient component,
    # the smallest exposed vertex first.
    for r in [r for r in sorted(exposed) if defic(r) > 0]:
        while defic(r):
            plus, minus = exposed[r]
            if host.side is None:
                add_matching_edge(plus[0], plus[1])
            else:
                add_matching_edge(plus[0], minus[0])
    ends.append(len(added))

    # Stage 4: connect the smallest component to every other one through
    # the other's smallest vertex on the side vertex 0 may be joined to.
    roots = sorted(exposed)
    need = 0 if host.side is None else 1 - side[roots[0]]
    for r in roots[1:]:
        added.append((roots[0], lowest[r][need]))
    ends.append(len(added))

    matched = sorted((v, mate[v]) for v in range(n) if mate[v] is not None and v < mate[v])
    stage_added = tuple(b - a for a, b in zip([0, *ends], ends))
    return tuple(added), stage_added, matched
