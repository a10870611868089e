"""Brute-force reference implementations.

Everything here is written for independence from the production solvers,
not for speed: minimum trees with a perfect matching are searched through
each perfect matching in turn, strongly balanced trees of subcubic graphs
by pruned backtracking, augmentation optima by iterative deepening over
candidate edge sets with subset-DP matching numbers, and SAT by
assignment scan.  Tests freeze values computed by these routines and
compare the fast paths against them.

Both minimum-tree oracles go matching first: a tree contains at most one
perfect matching M, so every candidate tree is reached exactly once,
through M, as a spanning tree of g/M (g with the edges of M contracted),
and trees without a perfect matching are never reached.  In both,
``cap`` counts the trees that contain a perfect matching, and among
trees of equal weight the one with the smallest sorted edge-index tuple
wins.  Both take the same search, which the SBST oracle runs with a
filter on the trees it keeps.

The search counts the trees through M by Kirchhoff's matrix-tree
theorem, a cofactor of the Laplacian of g/M in exact integers by
Bareiss elimination, after striking out the vertices on a single edge,
and adds that to ``cap``'s count before it builds any of them.  It skips
the count when comb(m, n - 1), the number of (n - 1)-edge subsets of g,
is within ``cap``, since the count could then never pass it.  It then
builds only the trees that can change the answer: an include/exclude
search over the edges of g/M, on a union-find that rolls back, cuts a
branch that cannot span or whose weight bound cannot beat the best tree.
Through one matching, trees of equal weight arrive in order of their
keys, so once one of them has been compared the bound also cuts the
later ones.

The augmentation optimum is found by iterative deepening on an
admissible bound: a depth-first search under a budget of added edges,
run for budgets from the bound at the root up, builds a node's state
only when it is popped, and the first budget that reaches a feasible
graph is the optimum.  The vertex subsets whose matching numbers adding
a pair updates are listed once per call and pair.

Graphs of maximum degree at most three go to ``sb_tree_search``, a
pruned backtracking search over edge in/out decisions.  Its pruning rules
only ever discard spanning trees that are not strongly balanced or, when
minimizing, cannot weigh less than the best tree found, so its optima are
those of a scan over every spanning tree.

No routine here recurses.  The pruned search and the augmentation
search are loops over an explicit stack, so their depth is not limited
by Python's recursion limit, and the pruned search rolls back through
one logged setter.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from itertools import accumulate
from math import comb, inf
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DisconnectedError,
    OddVertexCountError,
    TooLargeError,
    TruncatedError,
)
from .graph import EdgeSet, WeightedGraph, is_connected
from .pmst import HostKind

DEFAULT_TREE_CAP = 10_000_000
DEFAULT_NODE_CAP = 20_000_000


# ---------------------------------------------------------------------------
# Minimum-tree oracles


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"tree cap must be non-negative, got {cap}")


def _perfect_matchings(g: WeightedGraph) -> Iterator[list[int]]:
    """Every perfect matching of g, as the list of its edge indices in
    the order their lower ends ascend.  The smallest unmatched vertex takes
    each free neighbour in turn.  The same list object is yielded each
    time and changes on resumption."""
    n, adj, edges = g.vertex_count, g.adjacency, g.edges
    matched = [False] * n
    chosen: list[int] = []
    resume: list[int] = []  # per chosen edge: where its lower end's scan goes on
    v = k = 0
    while True:
        nbrs = adj[v]
        while k < len(nbrs) and matched[nbrs[k][1]]:
            k += 1
        if k < len(nbrs):
            e, w = nbrs[k]
            matched[v] = matched[w] = True
            chosen.append(e)
            resume.append(k + 1)
            while v < n and matched[v]:
                v += 1
            if v < n:
                k = 0
                continue
            yield chosen
        if not chosen:
            return
        v, w, _ = edges[chosen.pop()]
        matched[v] = matched[w] = False
        k = resume.pop()


def _tree_count(k: int, ends_a: Sequence[int], ends_b: Sequence[int]) -> int:
    """Number of spanning trees of the connected multigraph on
    ``0 .. k - 1`` whose edge i joins ``ends_a[i]`` and ``ends_b[i]``.

    A vertex on exactly one edge is in every tree through that edge, so
    such vertices are struck out, repeatedly, without changing the count;
    the Laplacian's diagonal holds the degrees, and a struck vertex's one
    neighbour is the -1 in its row.  A vertex joined to one neighbour by
    parallel edges has degree two or more and stays.  By Kirchhoff's
    matrix-tree theorem the count is then the determinant of the Laplacian
    of what is left with its first row and column struck out, here by
    Bareiss's fraction-free elimination, whose every division is exact.
    On a connected graph that minor is positive definite, so each pivot, a
    leading principal minor, is positive and no rows are swapped.
    """
    a = [[0] * k for _ in range(k)]
    for x, y in zip(ends_a, ends_b):
        ax, ay = a[x], a[y]
        ax[x] += 1
        ay[y] += 1
        ax[y] -= 1
        ay[x] -= 1
    leaves = [x for x in range(k) if a[x][x] == 1]
    if leaves:
        while leaves:
            x = leaves.pop()
            ax = a[x]
            if ax[x] == 1:  # else struck, or the last vertex left
                ax[x] = 0
                y = ax.index(-1)
                ay = a[y]
                ay[x] = 0
                ay[y] -= 1
                if ay[y] == 1:
                    leaves.append(y)
        keep = [x for x in range(k) if a[x][x]]
        a = [[a[r][c] for c in keep] for r in keep]
    size = len(a)
    prev = 1
    for p in range(1, size - 1):
        top, pivot = a[p], a[p][p]
        for r in range(p + 1, size):
            row = a[r]
            f = row[p]
            for c in range(p + 1, size):
                row[c] = (row[c] * pivot - f * top[c]) // prev
        prev = pivot
    return a[-1][-1] if size > 1 else 1


def _min_matched_tree(
    g: WeightedGraph, cap: int, accept: Callable[[tuple[int, ...]], bool]
) -> tuple[EdgeSet, int] | None:
    """Both minimum-tree oracles' search: the minimum over (weight, sorted
    edge-index tuple) of the spanning trees of the connected graph g that
    contain a perfect matching and pass ``accept``, or None.  Each
    spanning tree of g/M (the M-edges contracted, the other edges kept,
    parallel or not) is one tree of g through the perfect matching M, and
    no tree contains two.  The trees through M are counted by
    ``_tree_count`` before any is built; once the running count passes
    ``cap``, TruncatedError.  Every spanning tree of g is an (n - 1)-subset
    of its m edges, so when comb(m, n - 1) is within ``cap`` the count
    can never pass it and is not taken: TruncatedError comes on exactly
    the same inputs either way.

    The trees through M are then searched, include first, over ``rest``
    in index order, on a union-find that rolls back, so they come in
    lexicographic order of their indices into ``rest``.  Those ascend
    with g's indices, and M's edges are in every key, so of two trees
    through M of equal weight the earlier has the smaller key.  A branch
    is cut when its chosen edges plus the later ones cannot span, or when
    its weight plus the ``need`` lightest later weights, a lower bound on
    every tree below it, is above the best weight, or reaches it once a
    tree through M of the best weight has been compared, whether it
    became the best or lost on its key.  One that ``accept`` rejects
    settles nothing, so ``accept`` sees the trees it would see if every
    tree were built, and only those that would become the new best.
    """
    n, m, edges = g.vertex_count, g.edge_count, g.edges
    if n % 2:
        return None
    k = n // 2
    block = [0] * n  # the contracted vertex each vertex belongs to
    count = best_w = 0
    # A tree is n - 1 of the m edges, so at most comb(m, n - 1) trees can
    # ever be counted; when that is within the cap, none is.
    counted = comb(m, n - 1) > cap
    best: tuple[int, ...] | None = None
    bar = inf  # a tree is looked at only when its weight is below this

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def joined_later(j: int) -> bool:
        # Do the chosen edges plus rest[j + 1:] join the ends of rest[j]?
        trial = parent[:]
        a, b = find(ends_a[j]), find(ends_b[j])
        for t in range(j + 1, r):
            x, y = ends_a[t], ends_b[t]
            while trial[x] != x:
                trial[x] = x = trial[trial[x]]
            while trial[y] != y:
                trial[y] = y = trial[trial[y]]
            if x != y:
                trial[x] = y
                while trial[a] != a:
                    a = trial[a]
                while trial[b] != b:
                    b = trial[b]
                if a == b:
                    return True
        return False

    for matching in _perfect_matchings(g):
        for j, e in enumerate(matching):
            u, v, _ = edges[e]
            block[u] = block[v] = j
        taken = set(matching)
        rest = [i for i in range(m) if i not in taken]
        ends_a = [block[edges[i][0]] for i in rest]
        ends_b = [block[edges[i][1]] for i in rest]
        if counted:
            count += _tree_count(k, ends_a, ends_b)
            if count > cap:
                raise TruncatedError(
                    f"more than {cap} spanning trees contain a perfect matching"
                )
        rest_w = [edges[i][2] for i in rest]
        r = len(rest)
        # low[i][j]: the sum of the j lightest weights of rest[i:], j < k.
        low = [[0]] * (r + 1)
        lightest: list[int] = []
        for i in range(r - 1, -1, -1):
            insort(lightest, rest_w[i])
            del lightest[k - 1 :]
            low[i] = list(accumulate(lightest, initial=0))
        if best is not None:
            bar = best_w + 1  # nothing through M has been compared yet
        w = sum(edges[e][2] for e in matching)
        parent = list(range(k))
        size = [1] * k
        chosen: list[int] = []
        absorbed: list[int] = []  # the root each chosen edge hung below another

        # The loop stands at the node that has decided rest[:i] and kept
        # ``chosen``, of weight w, and descends while ``ok``: the node can
        # still span and its bound is below ``bar``.
        i = 0
        ok = w + low[0][k - 1] < bar
        while True:
            while ok:
                need = k - 1 - len(chosen)
                if not need:
                    key = tuple(sorted(matching + [rest[t] for t in chosen]))
                    if best is None or w < best_w or key < best:
                        if accept(key):
                            best_w, best = w, key
                            bar = w
                    else:
                        bar = w  # a tree of weight best_w lost on its key
                    break
                ru, rv = find(ends_a[i]), find(ends_b[i])
                wi = w + rest_w[i]
                i += 1
                if ru != rv and wi + low[i][need - 1] < bar:
                    if size[ru] < size[rv]:
                        ru, rv = rv, ru
                    parent[rv] = ru
                    size[ru] += size[rv]
                    chosen.append(i - 1)
                    absorbed.append(rv)
                    w = wi
                else:  # on without rest[i - 1]
                    ok = (
                        need < len(low[i])
                        and w + low[i][need] < bar
                        and (ru == rv or joined_later(i - 1))
                    )
            # Back to the last edge taken, and on without it.
            while chosen:
                j = chosen.pop()
                rv = absorbed.pop()
                size[parent[rv]] -= size[rv]
                parent[rv] = rv
                w -= rest_w[j]
                i = j + 1
                need = k - 1 - len(chosen)
                if need < len(low[i]) and w + low[i][need] < bar and joined_later(j):
                    ok = True
                    break
            else:
                break
    return None if best is None else (frozenset(best), best_w)


def brute_force_min_pmst(
    g: WeightedGraph, cap: int = DEFAULT_TREE_CAP
) -> tuple[EdgeSet, int] | None:
    """Minimum-weight spanning tree containing a perfect matching, or
    None when no tree has one.  Ties go to the smallest sorted edge-index
    tuple.

    The trees through each perfect matching M are counted by Kirchhoff's
    theorem, unless comb(m, n - 1) is within ``cap``, and searched under a
    weight bound in ``_min_matched_tree``, which here accepts every tree.

    ``cap`` counts every tree that contains a perfect matching; once the
    running count passes it, TruncatedError, and a negative cap raises
    ValueError.  Odd order and the absence of a perfect matching give None
    without building a tree; DisconnectedError when g has no spanning tree.
    """
    _check_cap(cap)
    if not is_connected(g):
        raise DisconnectedError("graph has no spanning tree")
    return _min_matched_tree(g, cap, lambda tree: True)


# ---------------------------------------------------------------------------
# Strongly balanced spanning tree oracle


class _SbSearch:
    """Backtracking over edge decisions with sound pruning.

    State per edge: undecided / in / out.  A DSU with parity tracks the
    forced 2-coloring of each partial component; per component and per
    color class it records whether the class can still be the plus side
    (no vertex of tree-degree three or more, at most one finalized leaf).
    Out-decisions trigger a bridge pass (bridges of the surviving graph
    are forced in, disconnection prunes); in-decisions that would close a
    cycle are forced out.  When one class of a component dies, vertices of
    the other class are capped at degree two.  Every leaf of the search is
    therefore a spanning tree, checked against the exact one-leaf rule.
    When minimizing, a node is cut once its in-weight plus the least
    undecided weight for each edge still missing reaches the best weight.

    The search is a loop over an explicit stack of open branchings, so its
    depth is not limited by Python's recursion limit.  Every state change
    goes through ``_set``, which logs the slot's old value, or ``_extend``,
    which logs the empty slice past the list's old length; ``_undo``
    restores the logged slots in reverse order.  Per-class data lives in
    flat lists at ``2 * root + cls``.
    """

    IN = 1
    OUT = 2

    def __init__(self, g: WeightedGraph, node_cap: int):
        self.g = g
        self.n = n = g.vertex_count
        self.m = g.edge_count
        self.node_cap = node_cap
        self.state = [0] * self.m
        self.inc = [0] * n
        self.und = [0] * n
        for u, v, _ in g.edges:
            self.und[u] += 1
            self.und[v] += 1
        self.parent = list(range(n))
        self.par = [0] * n  # parity relative to parent
        self.size = [1] * n
        self.dead = [False] * (2 * n)
        self.leaf_cnt = [0] * (2 * n)
        self.deg2: list[list[int]] = [[] for _ in range(2 * n)]  # degree-2 vertices
        self.tally = [0, 0]  # edges in, and their total weight
        self.trail: list[tuple] = []
        self.nodes = 0
        self.dirty = True
        self.queue: deque[tuple[int, int]] = deque()
        self.best_weight: int | None = None
        self.best_tree: EdgeSet | None = None

    # -- logged state changes --

    def _set(self, array: list, i: int, value: object) -> None:
        self.trail.append((array, i, array[i]))
        array[i] = value

    def _extend(self, items: list[int], more: Iterable[int]) -> None:
        # Logged as the slot past the old length, which was empty.
        self.trail.append((items, slice(len(items), None), ()))
        items.extend(more)

    def _undo(self, mark: int) -> None:
        trail = self.trail
        for array, i, old in reversed(trail[mark:]):
            array[i] = old
        del trail[mark:]

    # -- DSU with parity (no path compression; unions are rolled back) --

    def find(self, x: int) -> tuple[int, int]:
        p = 0
        while self.parent[x] != x:
            p ^= self.par[x]
            x = self.parent[x]
        return x, p

    def _union(self, u: int, v: int) -> bool:
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            return False  # cycle; caller treats as conflict
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
            pu, pv = pv, pu
        q = pu ^ pv ^ 1
        dead, leaf_cnt = self.dead, self.leaf_cnt
        self._set(self.parent, rv, ru)
        self._set(self.par, rv, q)
        self._set(self.size, ru, self.size[ru] + self.size[rv])
        for c in (0, 1):
            i, j = 2 * ru + (c ^ q), 2 * rv + c
            if dead[j] and not dead[i]:
                self._set(dead, i, True)
            if leaf_cnt[j]:
                self._set(leaf_cnt, i, leaf_cnt[i] + leaf_cnt[j])
            if self.deg2[j]:
                self._extend(self.deg2[i], self.deg2[j])
        i = 2 * ru
        if dead[i] and dead[i + 1]:
            return False
        if leaf_cnt[i] >= 2 and not self._mark_dead(i):
            return False
        if leaf_cnt[i + 1] >= 2 and not self._mark_dead(i + 1):
            return False
        if dead[i] != dead[i + 1]:
            self._saturate(i + 1 if dead[i] else i)
        return True

    def _mark_dead(self, i: int) -> bool:
        # Class i (= 2 * root + cls) can no longer be the plus side.
        if self.dead[i]:
            return True
        self._set(self.dead, i, True)
        if self.dead[i ^ 1]:
            return False
        self._saturate(i ^ 1)
        return True

    def _saturate(self, i: int) -> None:
        # Class i must become the plus side: its degree-2 vertices may
        # grow no further.
        for v in self.deg2[i]:
            if self.inc[v] == 2:
                self._cap(v)

    def _cap(self, v: int) -> None:
        # v may grow no further: every undecided edge at v goes out.
        for e, _ in self.g.adjacency[v]:
            if self.state[e] == 0:
                self.queue.append((e, self.OUT))

    # -- decision application --

    def _decide(self, e: int, val: int) -> bool:
        old = self.state[e]
        if old == val:
            return True
        if old != 0:
            return False
        u, v, w = self.g.edges[e]
        inc, und, tally = self.inc, self.und, self.tally
        self._set(self.state, e, val)
        self._set(und, u, und[u] - 1)
        self._set(und, v, und[v] - 1)
        if val == self.IN:
            self._set(tally, 0, tally[0] + 1)
            self._set(tally, 1, tally[1] + w)
            self._set(inc, u, inc[u] + 1)
            self._set(inc, v, inc[v] + 1)
            if not self._union(u, v):
                return False
            for x in (u, v):
                root, cls = self.find(x)
                i = 2 * root + cls
                if inc[x] >= 3:
                    if not self._mark_dead(i):
                        return False
                elif inc[x] == 2:
                    self._extend(self.deg2[i], (x,))
                    if self.dead[i ^ 1]:
                        self._cap(x)
        else:
            self.dirty = True
        for x in (u, v):
            if und[x] == 0:
                if inc[x] == 0:
                    return False  # isolated vertex
                if inc[x] == 1:
                    root, cls = self.find(x)
                    i = 2 * root + cls
                    self._set(self.leaf_cnt, i, self.leaf_cnt[i] + 1)
                    if self.leaf_cnt[i] >= 2 and not self._mark_dead(i):
                        return False
        return True

    def _bridge_pass(self) -> bool:
        # Bridges of the in-or-undecided graph must be in any spanning
        # tree; disconnection means no tree survives this branch.
        n, adj, state, out = self.n, self.g.adjacency, self.state, self.OUT
        disc = [-1] * n
        parent_of = [-1] * n
        pedge = [-1] * n
        order = [0]  # vertices in discovery order
        stack: list[tuple[int, int]] = [(0, 0)]
        disc[0] = 0
        while stack:
            x, it = stack.pop()
            while it < len(adj[x]):
                e, y = adj[x][it]
                it += 1
                if state[e] != out and disc[y] == -1:
                    disc[y] = len(order)
                    order.append(y)
                    parent_of[y] = x
                    pedge[y] = e
                    stack.append((x, it))
                    stack.append((y, 0))
                    break
        if len(order) != n:
            return False
        low = disc[:]
        for v in reversed(order):
            for e, y in adj[v]:
                if state[e] == out or e == pedge[v] or e == pedge[y]:
                    continue
                if disc[y] < low[v]:
                    low[v] = disc[y]
            p = parent_of[v]
            if p != -1:
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] > disc[p] and state[pedge[v]] == 0:
                    self.queue.append((pedge[v], self.IN))
        return True

    def _propagate(self) -> bool:
        while True:
            while self.queue:
                e, val = self.queue.popleft()
                if not self._decide(e, val):
                    return False
            # Undecided edges inside one component would close a cycle.
            swept = False
            for e in range(self.m):
                if self.state[e] == 0:
                    u, v, _ = self.g.edges[e]
                    if self.find(u)[0] == self.find(v)[0]:
                        self.queue.append((e, self.OUT))
                        swept = True
            if swept:
                continue
            if self.dirty:
                self.dirty = False
                if not self._bridge_pass():
                    return False
                if self.queue:
                    continue
            return True

    def _pick(self) -> tuple[int, int]:
        # The undecided edge to branch on (-1 when none is left) and the
        # least weight of an undecided edge.
        best, score, least = -1, -1, 0
        for e in range(self.m):
            if self.state[e] == 0:
                u, v, w = self.g.edges[e]
                if best == -1 or w < least:
                    least = w
                s = self.inc[u] + self.inc[v]
                if s > score:
                    best, score = e, s
        return best, least

    def _complete(self) -> bool:
        # In-edges never close a cycle, so n - 1 of them span.
        in_count, w = self.tally
        i = 2 * self.find(0)[0]
        if in_count != self.n - 1 or not any(
            not self.dead[c] and self.leaf_cnt[c] == 1 for c in (i, i + 1)
        ):
            return False
        if self.best_weight is None or w < self.best_weight:
            self.best_weight = w
            self.best_tree = frozenset(e for e in range(self.m) if self.state[e] == self.IN)
        return True

    def run(self, find_min: bool) -> tuple[EdgeSet, int] | None:
        """Search once; the state is left as it stands afterwards."""
        # On a disconnected graph the first bridge pass fails.
        if not self._propagate():
            return None
        # Open branchings, each [edge, trail mark, value tried]: IN is
        # tried first, then OUT, each from the state at the mark.
        stack: list[list[int]] = []
        entered = True
        while True:
            if entered:
                self.nodes += 1
                if self.nodes > self.node_cap:
                    raise TruncatedError(f"search exceeded {self.node_cap} nodes")
                e, least = self._pick()
                best = self.best_weight  # only ever set here when find_min
                in_count, in_weight = self.tally
                if e == -1:
                    if self._complete() and not find_min:
                        break
                # Every tree below needs n - 1 - in_count more undecided
                # edges, each weighing at least ``least``, whatever the signs.
                elif best is None or in_weight + (self.n - 1 - in_count) * least < best:
                    stack.append([e, len(self.trail), 0])
            while stack and stack[-1][2] == self.OUT:
                stack.pop()
            if not stack:
                break
            top = stack[-1]
            e, mark, tried = top
            if tried:
                self._undo(mark)
                self.dirty = True
            top[2] = val = self.OUT if tried else self.IN
            self.queue.clear()
            self.queue.append((e, val))
            entered = self._propagate()
        if self.best_tree is None:
            return None
        return self.best_tree, self.best_weight


def sb_tree_search(
    g: WeightedGraph, *, find_min: bool = True, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[EdgeSet, int] | None:
    """Pruned search for a (minimum-weight) strongly balanced spanning
    tree.  With find_min=False it stops at the first tree found."""
    return _SbSearch(g, node_cap).run(find_min)


def _matched_tree_is_strongly_balanced(g: WeightedGraph, tree: tuple[int, ...]) -> bool:
    """Strong balance of a spanning tree that contains a perfect matching.
    Each matching edge has one end on each side of the tree's bipartition,
    so each side has n/2 vertices whose tree-degrees sum to n - 1, and a
    side without a vertex of degree three or more has exactly one leaf."""
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in tree:
        u, v, _ = g.edges[i]
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    side[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if side[y] < 0:
                side[y] = side[x] ^ 1
                stack.append(y)
    return len({side[v] for v in range(n) if len(adj[v]) >= 3}) < 2


def brute_force_min_sbst(
    g: WeightedGraph, cap: int = DEFAULT_TREE_CAP
) -> tuple[EdgeSet, int] | None:
    """Minimum-weight strongly balanced spanning tree, or None.

    A strongly balanced tree contains a perfect matching, so the candidates
    are the trees through each perfect matching, counted by Kirchhoff's
    theorem unless comb(m, n - 1) is within ``cap``, and searched under a
    weight bound in ``_min_matched_tree``; one that would become the new
    best is kept when one side of its bipartition has no vertex of
    tree-degree three or more.  Ties go to the smallest sorted edge-index
    tuple.  ``cap`` counts every tree that contains a perfect matching, so
    K10 answers at ``cap=30_240_000`` and raises TruncatedError one below,
    at once either way.  Odd order gives
    None before either route runs, and the absence of a perfect matching
    gives None at once.

    Graphs of maximum degree at most three go to the pruned search
    instead, which reaches sizes where enumeration would be hopeless; it
    ignores ``cap`` and stops at its own node cap, ``DEFAULT_NODE_CAP``.
    Among trees of equal weight it returns the first one it reaches in its
    own branching order (``_SbSearch._pick``), which need not be the one
    with the smallest sorted edge-index tuple.
    """
    _check_cap(cap)
    if g.vertex_count % 2 or not is_connected(g):
        return None
    if max((g.degree(v) for v in range(g.vertex_count)), default=0) <= 3:
        return sb_tree_search(g, find_min=True)
    return _min_matched_tree(g, cap, lambda tree: _matched_tree_is_strongly_balanced(g, tree))


def brute_force_sbst_exists(
    g: WeightedGraph, node_cap: int = DEFAULT_NODE_CAP
) -> EdgeSet | None:
    """Some strongly balanced spanning tree, or None.  First hit wins, so
    this is much faster than the minimizing variant on feasible inputs.
    Odd order gives None at once."""
    if g.vertex_count % 2:
        return None
    hit = sb_tree_search(g, find_min=False, node_cap=node_cap)
    return None if hit is None else hit[0]


# ---------------------------------------------------------------------------
# Augmentation oracle (iterative deepening over candidate host edges)


def brute_force_opt_aug(h: WeightedGraph, host: HostKind) -> int:
    """Minimum number of host edges whose addition makes h connected with
    a perfect matching, by exhaustive iterative-deepening search.

    Admissible bound: at least components-1 edges are needed for
    connectivity and at least deficiency/2 for the matching, and one added
    edge improves each count by at most one.  For each budget from the
    bound of h up, a depth-first search over sets of candidate edges, in
    ascending order, cuts a node whose edges added plus bound exceed the
    budget, and the first node of bound 0 ends the call: no earlier budget
    reached one, so its edge count is the optimum.  Each node carries the
    matching number of every vertex subset and the component labels of its
    graph, built from its parent's when it is popped.  The vertex subsets
    that adding a pair updates are listed when the pair is first added and
    reused for the rest of the call, across budgets.  Limited to 8
    vertices.
    """
    n = h.vertex_count
    if n > 8:
        raise TooLargeError(f"{n} vertices is past the exhaustive limit of 8")
    if n % 2:
        raise OddVertexCountError(f"{n} vertices cannot be perfectly matched")
    host.validate_graph(h)
    full = (1 << n) - 1

    def walk(u: int, v: int) -> list[tuple[int, int]]:
        # Each subset s of the vertices other than u and v, descending,
        # paired with s plus u and v.
        both = (1 << u) | (1 << v)
        others = full ^ both
        pairs = []
        rest = others
        while True:
            pairs.append((rest, rest | both))
            if not rest:
                return pairs
            rest = (rest - 1) & others

    def add_edge(
        dp: bytearray, comp: list[int], u: int, v: int, pairs: list[tuple[int, int]]
    ) -> tuple[bytearray, list[int]]:
        # A best matching of a subset s holding both ends either leaves uv
        # out or is uv plus a best matching of s without u and v.  Subsets
        # without u and v are read here but never written.
        dp = bytearray(dp)
        for rest, with_uv in pairs:
            size = dp[rest] + 1
            if size > dp[with_uv]:
                dp[with_uv] = size
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp = [cu if c == cv else c for c in comp]
        return dp, comp

    dp, comp = bytearray(1 << n), list(range(n))
    for u, v, _ in h.edges:
        dp, comp = add_edge(dp, comp, u, v, walk(u, v))
    cands = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not h.has_edge(u, v) and host.admits_edge(u, v)
    ]
    walks: list[list[tuple[int, int]] | None] = [None] * len(cands)  # made on first use
    root = dp, comp
    # Iterative deepening: for each budget from the root's bound up, depth
    # first over (edges added, dp and comp, the candidate that makes the
    # node, -1 at the root); children go on in reverse, so candidates are
    # tried in ascending order, and a child's dp and comp are built when it
    # is popped.  A node is cut once the edges added plus its bound exceed
    # the budget.  One edge lowers the bound by at most one, so with the
    # optimum as budget every node on the way to an optimal edge set
    # passes, and the first budget that reaches bound 0 is the optimum.
    # Adding every candidate gives the whole host, connected with a
    # perfect matching, so some budget does.
    budget = max(len(set(comp)) - 1, (n - 2 * dp[full]) // 2)
    while True:
        stack = [(0, *root, -1)]
        while stack:
            added, dp, comp, c = stack.pop()
            if c >= 0:
                u, v = cands[c]
                if walks[c] is None:
                    walks[c] = walk(u, v)
                dp, comp = add_edge(dp, comp, u, v, walks[c])
            b = max(len(set(comp)) - 1, (n - 2 * dp[full]) // 2)
            if b == 0:
                return added
            if added + b > budget:
                continue
            for i in range(len(cands) - 1, c, -1):
                stack.append((added + 1, dp, comp, i))
        budget += 1


# ---------------------------------------------------------------------------
# SAT oracle


def brute_force_sat(
    num_vars: int, clauses: Iterable[Sequence[int]]
) -> tuple[int, ...] | None:
    """Lexicographically smallest satisfying assignment (tuple of 0/1), or
    None.  Limited to 20 variables."""
    if num_vars > 20:
        raise TooLargeError(f"{num_vars} variables is past the exhaustive limit of 20")
    clause_list = [tuple(cl) for cl in clauses]
    for bits in range(1 << num_vars):
        # bits counts up with variable 1 as the most significant digit, so
        # the first hit is lexicographically smallest as a tuple.
        a = tuple((bits >> (num_vars - 1 - i)) & 1 for i in range(num_vars))
        if all(any((lit > 0) == bool(a[abs(lit) - 1]) for lit in cl) for cl in clause_list):
            return a
    return None
