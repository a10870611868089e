"""Instance generators: named small graphs and seeded random corpora.

Everything random takes an explicit seed and is deterministic for a
fixed seed, so generated corpora can be regenerated byte-identically.
"""

from __future__ import annotations

import random

from .graph import VertexCycle, WeightedGraph
from .reductions import CnfFormula, CnfLayout, RotationSystem, _clause_order_layout


def complete(n: int, weight: int = 1) -> WeightedGraph:
    """K_n with uniform edge weight."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return WeightedGraph(
        n, [(u, v, weight) for u in range(n) for v in range(u + 1, n)]
    )


def complete_bipartite(a: int, b: int, weight: int = 1) -> WeightedGraph:
    """K_{a,b}; vertices 0..a-1 on one side, a..a+b-1 on the other."""
    if a < 1 or b < 1:
        raise ValueError("need at least one vertex per side")
    return WeightedGraph(
        a + b, [(u, a + v, weight) for u in range(a) for v in range(b)]
    )


def cycle(n: int, weights: list[int] | None = None) -> WeightedGraph:
    """C_n; edge i joins vertex i to (i+1) mod n and gets weights[i]."""
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    if weights is None:
        weights = [1] * n
    if len(weights) != n:
        raise ValueError(f"{len(weights)} weights for {n} edges")
    return WeightedGraph(n, [(i, (i + 1) % n, weights[i]) for i in range(n)])


def cube() -> WeightedGraph:
    """Q3: vertices are the 3-bit numbers, edges join numbers one bit apart."""
    edges = [
        (u, u ^ (1 << b), 1)
        for u in range(8)
        for b in range(3)
        if u < u ^ (1 << b)
    ]
    return WeightedGraph(8, edges)


# One Hamiltonian cycle per named cubic host, for reduction tests.
CUBE_HAMILTONIAN_CYCLE: VertexCycle = (0, 1, 3, 2, 6, 7, 5, 4)


def petersen() -> WeightedGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i to i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5, 1))
        edges.append((i, i + 5, 1))
        edges.append((i + 5, (i + 2) % 5 + 5, 1))
    return WeightedGraph(10, edges)


def circular_ladder(k: int) -> WeightedGraph:
    """C_k x K_2 (the prism over a k-gon): outer cycle 0..k-1, inner cycle
    k..2k-1, spokes i to i+k.  Cubic; bipartite exactly when k is even."""
    if k < 3:
        raise ValueError("a ladder needs at least a triangle")
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k, 1))
        edges.append((k + i, k + (i + 1) % k, 1))
        edges.append((i, k + i, 1))
    return WeightedGraph(2 * k, edges)


def circular_ladder_hamiltonian_cycle(k: int) -> VertexCycle:
    # Around the outside, cross the last spoke, back around the inside.
    return tuple(range(k)) + tuple(range(2 * k - 1, k - 1, -1))


def complete_bipartite_hamiltonian_cycle(a: int) -> VertexCycle:
    """Zig-zag cycle through K_{a,a} as built by complete_bipartite."""
    out: list[int] = []
    for i in range(a):
        out.extend((i, a + i))
    return tuple(out)


def default_rotation(g: WeightedGraph) -> RotationSystem:
    """Rotation listing each vertex's incident edges in index order."""
    return RotationSystem(
        g, tuple(tuple(sorted(e for e, _ in g.adjacency[v])) for v in range(g.vertex_count))
    )


def random_graph(
    n: int,
    p: float,
    seed: int,
    weight_range: tuple[int, int] = (1, 1),
) -> WeightedGraph:
    """G(n, p) with weights drawn uniformly from weight_range (inclusive)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    lo, hi = weight_range
    if lo > hi:
        raise ValueError("empty weight range")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.randint(lo, hi)))
    return WeightedGraph(n, edges)


def random_bipartite(
    a: int,
    b: int,
    p: float,
    seed: int,
    weight_range: tuple[int, int] = (1, 1),
) -> WeightedGraph:
    """Random subgraph of K_{a,b}, sides laid out as in complete_bipartite."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    lo, hi = weight_range
    if lo > hi:
        raise ValueError("empty weight range")
    rng = random.Random(seed)
    edges = []
    for u in range(a):
        for v in range(b):
            if rng.random() < p:
                edges.append((u, a + v, rng.randint(lo, hi)))
    return WeightedGraph(a + b, edges)


def random_cnf_layout(num_vars: int, num_clauses: int, seed: int) -> CnfLayout:
    """Random 3-CNF plus a random layout.

    Clauses draw three distinct variables when possible (all on one
    variable otherwise) with independent random signs; each clause lands
    on a random cycle side, occurrences kept in clause-then-slot order.
    """
    if num_vars < 1 or num_clauses < 0:
        raise ValueError("need a positive variable count and nonnegative clauses")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        if num_vars >= 3:
            vs = rng.sample(range(1, num_vars + 1), 3)
        else:
            vs = [rng.randint(1, num_vars) for _ in range(3)]
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    formula = CnfFormula(num_vars, tuple(clauses))
    sides = tuple(rng.choice(("in", "out")) for _ in range(num_clauses))
    return _clause_order_layout(formula, sides, {})
