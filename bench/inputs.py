"""Seeded instance generators for the benchmark.

Every generator runs in O(n + m) and draws only from the ``random.Random``
it is given, so a seed fixes the inputs.  None of them uses
``treematch.generate``: a change to the package must not change the
workload inputs, and the package only ever sees the files written here.
"""

from __future__ import annotations

import heapq
import random

Edge = tuple[int, int]


def _fill(rng: random.Random, n: int, m: int, edges: set[Edge], plus: int | None) -> None:
    """Add distinct random edges until there are m; with ``plus`` set,
    every edge joins 0..plus-1 to plus..n-1."""
    while len(edges) < m:
        if plus is None:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
        else:
            u, v = rng.randrange(plus), rng.randrange(plus, n)
        edges.add((min(u, v), max(u, v)))


def _shuffled(rng: random.Random, edges: set[Edge]) -> list[Edge]:
    out = sorted(edges)
    rng.shuffle(out)
    return out


def sparse_graph(rng: random.Random, n: int, m: int, plus: int | None = None) -> list[Edge]:
    """m distinct edges drawn uniformly; bipartite across ``plus`` when given."""
    edges: set[Edge] = set()
    _fill(rng, n, m, edges, plus)
    return _shuffled(rng, edges)


def matchable_connected_graph(rng: random.Random, n: int, m: int) -> list[Edge]:
    """Connected graph on an even n with a perfect matching: a Hamiltonian
    path through a random vertex order, then random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    _fill(rng, n, m, edges, None)
    return _shuffled(rng, edges)


def strongly_balanced_tree(rng: random.Random, k: int, plus: list[int], minus: list[int]) -> set[Edge]:
    """A strongly balanced tree with plus side ``plus`` (k vertices): a
    random tree on the minus side whose edges are each subdivided by a
    plus vertex, plus one pendant plus vertex, the side's unique leaf."""
    edges: set[Edge] = set()
    for i in range(1, k):
        p, a, b = plus[i - 1], minus[i], minus[rng.randrange(i)]
        edges.add((min(p, a), max(p, a)))
        edges.add((min(p, b), max(p, b)))
    p, a = plus[k - 1], minus[rng.randrange(k)]
    edges.add((min(p, a), max(p, a)))
    return edges


def planted_sb_bipartite(rng: random.Random, k: int, m: int) -> list[Edge]:
    """Connected balanced bipartite graph on sides 0..k-1 and k..2k-1 that
    contains a strongly balanced spanning tree, with m edges in all."""
    plus, minus = list(range(k)), list(range(k, 2 * k))
    rng.shuffle(plus)
    rng.shuffle(minus)
    if rng.random() < 0.5:
        plus, minus = minus, plus
    edges = strongly_balanced_tree(rng, k, plus, minus)
    _fill(rng, 2 * k, m, edges, k)
    return _shuffled(rng, edges)


def prufer_tree(rng: random.Random, n: int) -> list[Edge]:
    """Uniform random labelled tree on n vertices, by Prüfer decoding."""
    if n == 1:
        return []
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def cubic_bipartite(rng: random.Random, k: int) -> list[Edge]:
    """Connected cubic bipartite graph on 2k vertices (k >= 3): left i
    meets right i, i+1 and i+b (mod k), under a random relabelling."""
    label = list(range(2 * k))
    rng.shuffle(label)
    b = rng.randrange(2, k)
    edges = {
        (min(label[i], label[k + (i + s) % k]), max(label[i], label[k + (i + s) % k]))
        for i in range(k)
        for s in (0, 1, b)
    }
    return _shuffled(rng, edges)


def cnf(rng: random.Random, num_vars: int, num_clauses: int) -> list[tuple[int, int, int]]:
    """Random 3-CNF clauses over variables 1..num_vars."""
    def lit() -> int:
        return rng.randint(1, num_vars) * rng.choice((1, -1))

    return [(lit(), lit(), lit()) for _ in range(num_clauses)]


def format_graph(n: int, edges: list[Edge], weights: list[int] | None = None) -> str:
    """Graph file text; every edge gets weight 1 unless weights are given."""
    ws = weights if weights is not None else [1] * len(edges)
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u} {v} {w}" for (u, v), w in zip(edges, ws))
    return "\n".join(lines) + "\n"


def format_cnf(num_vars: int, clauses: list[tuple[int, int, int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(f"{a} {b} {c} 0" for a, b, c in clauses)
    return "\n".join(lines) + "\n"
