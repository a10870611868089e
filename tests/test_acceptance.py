"""Acceptance gate: the thirteen end-to-end checks the package must pass.

Every test here couples a production routine to an independent referee
(exhaustive enumeration, a closed formula checked elsewhere, or a second
algorithm with a different proof) over corpora large enough to leave no
room for coincidence: all labelled graphs up to six vertices, all trees up
to nine vertices, all tiny formulas, plus seeded random families at the
next size up.  The _criteria registry prints one PASS/FAIL line per
criterion at the end of the run.
"""

import itertools
import random
import time
from collections import Counter

import pytest

import helpers
from _criteria import criterion
from treematch.errors import Infeasible
from treematch.generate import (
    CUBE_HAMILTONIAN_CYCLE,
    circular_ladder,
    circular_ladder_hamiltonian_cycle,
    complete_bipartite,
    complete_bipartite_hamiltonian_cycle,
    cube,
    default_rotation,
    petersen,
    random_cnf_layout,
    random_graph,
)
from treematch.graph import (
    WeightedGraph,
    as_bipartitioned_tree,
    bipartition_of,
    connected_components,
)
from treematch.matching import deficiency_profile, maximum_matching
from treematch.matroid import GraphicMatroid, PartitionMatroid, min_weight_common_base
from treematch.oracle import (
    brute_force_min_pmst,
    brute_force_min_sbst,
    brute_force_opt_aug,
    brute_force_sat,
    brute_force_sbst_exists,
)
from treematch.pmst import (
    HostKind,
    augmentation_optimum,
    greedy_augment,
    min_pmst_two_valued,
)
from treematch.reductions import (
    CnfFormula,
    complete_with_weight_two,
    default_layout,
    extract_assignment_from_tree,
    map_assignment_to_sb_tree,
    map_hc_to_tree,
    reduce_hc_to_minpmst,
    reduce_sat_to_sbst,
    replace_leaves,
)
from treematch.sbst import (
    alternating_characterization,
    is_strongly_balanced,
    min_sbst_bipartite,
)


def pairs_of(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n, pairs, mask):
    return WeightedGraph(
        n, [(u, v, 0) for i, (u, v) in enumerate(pairs) if mask >> i & 1]
    )


def crossing_pairs(side):
    return [(u, side + v) for u in range(side) for v in range(side)]


@pytest.fixture(scope="module")
def even_corpus():
    """(n, mask) -> brute-force augmentation optimum, for every labelled
    graph on 2, 4, and 6 vertices.  Shared by criteria 1 and 2."""
    out = {}
    for n in (2, 4, 6):
        pairs = pairs_of(n)
        host = HostKind.complete(n)
        for mask in range(1 << len(pairs)):
            out[(n, mask)] = brute_force_opt_aug(graph_from_mask(n, pairs, mask), host)
    return out


@criterion(1, "closed-form augmentation optimum matches brute force on every even-order graph up to 6 vertices")
def test_01_augmentation_formula_exhaustive(even_corpus):
    for n in (2, 4, 6):
        pairs = pairs_of(n)
        for mask in range(1 << len(pairs)):
            g = graph_from_mask(n, pairs, mask)
            value = augmentation_optimum(deficiency_profile(g))
            assert value == even_corpus[(n, mask)], (n, mask)


@criterion(2, "greedy augmentation is optimal and repairing (exhaustive up to 6 vertices, 500 random at 8)")
def test_02_greedy_augment_optimal(even_corpus):
    for n in (2, 4, 6):
        pairs = pairs_of(n)
        host = HostKind.complete(n)
        for mask in range(1 << len(pairs)):
            g = graph_from_mask(n, pairs, mask)
            res = greedy_augment(g, host)
            assert res.added_count == even_corpus[(n, mask)], (n, mask)
            assert len(connected_components(res.graph)) == 1
            assert res.matching.is_perfect
    host8 = HostKind.complete(8)
    rng = random.Random(82)
    for trial in range(500):
        g = random_graph(8, rng.random() * 0.7, seed=rng.randrange(10**9))
        res = greedy_augment(g, host8)
        assert res.added_count == brute_force_opt_aug(g, host8), trial
        assert len(connected_components(res.graph)) == 1
        assert deficiency_profile(res.graph).deficiency == 0


@criterion(3, "bipartite greedy augmentation is optimal on all K33 subgraphs and 200 random K44 subgraphs")
def test_03_bipartite_greedy_optimal():
    def check(side, mask):
        host = HostKind.complete_bipartite(range(side), range(side, 2 * side))
        cross = crossing_pairs(side)
        g = WeightedGraph(
            2 * side,
            [(u, v, 0) for i, (u, v) in enumerate(cross) if mask >> i & 1],
        )
        res = greedy_augment(g, host)
        assert res.added_count == brute_force_opt_aug(g, host), (side, mask)
        # every repair edge must respect the host sides
        for u, v in res.added_edges:
            assert host.side_of(u) != host.side_of(v), (side, mask, (u, v))
        assert len(connected_components(res.graph)) == 1
        assert deficiency_profile(res.graph).deficiency == 0

    for mask in range(1 << 9):
        check(3, mask)
    rng = random.Random(83)
    for mask in rng.sample(range(1 << 16), 200):
        check(4, mask)


def matching_number_table(n, adj_masks):
    """dp[s] = maximum matching size of the subgraph induced on vertex set
    ``s`` (a bitmask).  Independent of the production matching code."""
    dp = [0] * (1 << n)
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        best = dp[rest]
        avail = adj_masks[v] & rest
        while avail:
            ub = avail & -avail
            avail ^= ub
            cand = 1 + dp[rest ^ ub]
            if cand > best:
                best = cand
        dp[s] = best
    return dp


@criterion(4, "every single-edge addition moves the deficiency profile by one of the four tabled transitions")
def test_04_profile_transitions_exhaustive():
    # The profile is only defined for even-order graphs, so the exhaustive
    # sweep covers every labelled graph on 2, 4, and 6 vertices and every
    # absent pair.  Case selection (same component / both endpoints
    # exposable / component deficiencies) is refereed by an independent
    # subset DP, never by the code under test.
    for n in (2, 4, 6):
        pairs = pairs_of(n)
        m = len(pairs)
        full = (1 << n) - 1
        profile_cache = {}

        def profile_of(mask):
            hit = profile_cache.get(mask)
            if hit is None:
                p = deficiency_profile(graph_from_mask(n, pairs, mask))
                hit = (p.half_deficiency, p.deficient_count, p.matched_count)
                profile_cache[mask] = hit
            return hit

        for mask in range(1 << m):
            half, deficient, matched = profile_of(mask)
            adj = [0] * n
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for idx, (u, v) in enumerate(pairs):
                if mask >> idx & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    parent[find(u)] = find(v)
            dp = matching_number_table(n, adj)
            comp_mask = {}
            for v in range(n):
                r = find(v)
                comp_mask[r] = comp_mask.get(r, 0) | 1 << v

            def deficiency_of(cmask):
                return cmask.bit_count() - 2 * dp[cmask]

            for idx, (u, v) in enumerate(pairs):
                if mask >> idx & 1:
                    continue
                got = profile_of(mask | 1 << idx)
                exposes_both = dp[full ^ 1 << u ^ 1 << v] == dp[full]
                ru, rv = find(u), find(v)
                if ru == rv:
                    dk = deficiency_of(comp_mask[ru])
                    if not exposes_both:
                        want = (half, deficient, matched)
                    elif dk == 2:
                        want = (half - 1, deficient - 1, matched + 1)
                    else:
                        assert dk > 2, (n, mask, idx)
                        want = (half - 1, deficient, matched)
                else:
                    d1 = deficiency_of(comp_mask[ru])
                    d2 = deficiency_of(comp_mask[rv])
                    if exposes_both:
                        if d1 == 1 and d2 == 1:
                            want = (half - 1, deficient - 2, matched + 1)
                        else:
                            want = (half - 1, deficient - 1, matched)
                    elif min(d1, d2) > 0:
                        want = (half, deficient - 1, matched)
                    else:
                        want = (half, deficient, matched - 1)
                assert got == want, (n, mask, (u, v), got, want)


@criterion(5, "two-valued minimum tree weight matches tree enumeration; heavy count equals the augmentation optimum")
def test_05_min_pmst_two_valued():
    cases = [
        (HostKind.complete(4), pairs_of(4)),
        (HostKind.complete(6), pairs_of(6)),
        (HostKind.complete(8), pairs_of(8)),
        (HostKind.complete_bipartite(range(2), range(2, 4)), crossing_pairs(2)),
        (HostKind.complete_bipartite(range(3), range(3, 6)), crossing_pairs(3)),
    ]
    rng = random.Random(85)
    for host, host_pairs in cases:
        n = host.n
        for trial in range(100):
            chosen = set(rng.sample(range(len(host_pairs)), rng.randint(0, len(host_pairs))))
            light_pairs = [host_pairs[i] for i in sorted(chosen)]
            a = rng.randint(0, 3)
            b = a + rng.randint(1, 5)
            res = min_pmst_two_valued(host, WeightedGraph(n, light_pairs), a, b)

            support = WeightedGraph(
                n,
                [(u, v, a if i in chosen else b) for i, (u, v) in enumerate(host_pairs)],
            )
            brute = brute_force_min_pmst(support)
            assert brute is not None
            assert res.total_weight == brute[1], (host.is_bipartite, n, trial)

            g0 = WeightedGraph(n, [(u, v, a) for u, v in light_pairs])
            if host.is_bipartite:
                opt = brute_force_opt_aug(g0, host)
            else:
                opt = augmentation_optimum(deficiency_profile(g0))
            assert res.heavy_count == opt, (host.is_bipartite, n, trial)
            assert res.total_weight == a * (n - 1 - opt) + b * opt


@criterion(6, "matching size equals exhaustive maximum on all graphs up to 6 vertices, 2000 random at 7-8, Petersen")
def test_06_matching_against_exhaustive():
    for n in range(1, 7):
        pairs = pairs_of(n)
        for mask in range(1 << len(pairs)):
            g = graph_from_mask(n, pairs, mask)
            assert maximum_matching(g).size == helpers.max_matching_size_exhaustive(g), (n, mask)
    rng = random.Random(86)
    for trial in range(2000):
        n = rng.choice((7, 8))
        g = random_graph(n, rng.random(), seed=rng.randrange(10**9))
        assert maximum_matching(g).size == helpers.max_matching_size_exhaustive(g), trial
    assert maximum_matching(petersen()).size == 5


def prufer_decode(seq, n):
    """The labelled tree on 0..n-1 encoded by a length n-2 sequence."""
    deg = [0] * n
    for x in seq:
        deg[x] += 1
    deg[n - 1] += 1  # reserved for the closing edge
    ptr = 0
    while deg[ptr]:
        ptr += 1
    leaf = ptr
    pairs = []
    for x in seq:
        pairs.append((leaf, x) if leaf < x else (x, leaf))
        deg[x] -= 1
        if deg[x] == 0 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr]:
                ptr += 1
            leaf = ptr
    pairs.append((leaf, n - 1))
    return pairs


@criterion(7, "the two strongly-balanced recognizers agree on every tree up to 9 vertices and 4000 random at 10")
def test_07_recognizers_agree_on_all_trees():
    def agree(n, pairs, context):
        t = as_bipartitioned_tree(
            WeightedGraph(n, [(u, v, 0) for u, v in pairs]), frozenset(range(n - 1))
        )
        a = is_strongly_balanced(t)
        b = alternating_characterization(t)
        assert (a is None) == (b is None), (context, pairs)

    agree(1, [], "single vertex")
    for n in range(2, 10):
        for seq in itertools.product(range(n), repeat=n - 2):
            agree(n, prufer_decode(seq, n), (n, seq))
    rng = random.Random(87)
    for trial in range(4000):
        seq = tuple(rng.randrange(10) for _ in range(8))
        agree(10, prufer_decode(seq, 10), (10, seq))


@criterion(8, "matroid-route minimum strongly balanced tree matches brute force on 300 random bipartite graphs")
def test_08_min_sbst_matches_brute():
    rng = random.Random(88)
    feasible = infeasible = 0
    for trial in range(300):
        side = rng.randint(2, 5)
        g = helpers.random_connected_bipartite(rng, side, rng.randint(2 * side - 1, 16))
        brute = brute_force_min_sbst(g)
        try:
            res = min_sbst_bipartite(g)
        except Infeasible:
            assert brute is None, trial
            infeasible += 1
            continue
        assert brute is not None, trial
        assert res.total_weight == brute[1], trial
        feasible += 1
    # both outcomes must actually occur in the corpus
    assert feasible >= 100 and infeasible >= 20, (feasible, infeasible)


@criterion(9, "weighted matroid intersection equals subset brute force on 300 random graphic/partition instances")
def test_09_intersection_engine_against_subsets():
    rng = random.Random(89)
    feasible = infeasible = 0
    for trial in range(300):
        nv = rng.randint(3, 7)
        all_pairs = pairs_of(nv)
        m = rng.randint(2, min(16, len(all_pairs)))
        g = WeightedGraph(
            nv, [(u, v, 1) for u, v in (all_pairs[i] for i in sorted(rng.sample(range(len(all_pairs)), m)))]
        )
        graphic = GraphicMatroid(g)
        order = list(range(m))
        rng.shuffle(order)
        part_count = rng.randint(1, min(5, m))
        cuts = sorted(rng.sample(range(1, m), part_count - 1))
        parts = [order[a:b] for a, b in zip([0] + cuts, cuts + [m])]
        caps = [rng.randint(0, 3) for _ in parts]
        partition = PartitionMatroid(parts, caps)
        weights = [rng.randint(-5, 9) for _ in range(m)]
        k = rng.randint(0, min(nv - 1, m, 6))

        got = min_weight_common_base(graphic, partition, weights, k)
        best = None
        for combo in itertools.combinations(range(m), k):
            if graphic.is_independent(combo) and partition.is_independent(combo):
                w = sum(weights[i] for i in combo)
                if best is None or w < best:
                    best = w
        if got is None:
            assert best is None, trial
            infeasible += 1
        else:
            assert best is not None, trial
            assert len(got) == k
            assert graphic.is_independent(got) and partition.is_independent(got)
            assert sum(weights[i] for i in got) == best, trial
            feasible += 1
    assert feasible >= 100 and infeasible >= 10, (feasible, infeasible)


def forced_tree_matching(n, pairs):
    """The perfect matching of a tree, or None.  Leaves are matched along
    their only edge and stripped; any conflict means no matching exists."""
    if n % 2:
        return None
    nbr = [set() for _ in range(n)]
    for u, v in pairs:
        nbr[u].add(v)
        nbr[v].add(u)
    leaves = [v for v in range(n) if len(nbr[v]) == 1]
    alive = [True] * n
    matched = []
    while leaves:
        u = leaves.pop()
        if not alive[u]:
            continue
        if not nbr[u]:
            return None
        v = next(iter(nbr[u]))
        matched.append((u, v))
        alive[u] = alive[v] = False
        for w in nbr[v]:
            if w == u:
                continue
            nbr[w].discard(v)
            if alive[w] and len(nbr[w]) == 1:
                leaves.append(w)
        nbr[u].clear()
        nbr[v].clear()
    return matched if 2 * len(matched) == n else None


@criterion(10, "cycle-to-tree mapping yields a spanning tree with a perfect matching of source-order weight")
def test_10_cycle_to_tree_structure():
    hosts = [
        (cube(), CUBE_HAMILTONIAN_CYCLE),
        (complete_bipartite(3, 3), complete_bipartite_hamiltonian_cycle(3)),
        (circular_ladder(4), circular_ladder_hamiltonian_cycle(4)),
    ]
    for g, cyc in hosts:
        nv, ne = g.vertex_count, g.edge_count
        base = reduce_hc_to_minpmst(g, default_rotation(g))
        for red in (base, complete_with_weight_two(base)):
            rg = red.graph
            assert rg.vertex_count == 4 * nv
            weight_counts = Counter(w for _, _, w in rg.edges)
            assert weight_counts[0] == 3 * nv
            assert weight_counts[1] == 2 * ne
            if rg.edge_count == 3 * nv + 2 * ne:  # before completion
                assert all(rg.degree(v) == 3 for v in range(rg.vertex_count))
                bipartition_of(rg)  # raises on an odd cycle
            tree = map_hc_to_tree(red, cyc)
            assert len(tree) == rg.vertex_count - 1
            tree_pairs = [(rg.edges[i][0], rg.edges[i][1]) for i in tree]
            skeleton = WeightedGraph(rg.vertex_count, [(u, v, 0) for u, v in tree_pairs])
            assert len(connected_components(skeleton)) == 1
            assert forced_tree_matching(rg.vertex_count, tree_pairs) is not None
            assert sum(rg.edges[i][2] for i in tree) == nv


def satisfying_assignments(formula):
    hits = []
    for bits in itertools.product((0, 1), repeat=formula.num_vars):
        if formula.satisfied_by(bits):
            hits.append(tuple(bits))
    return hits


@criterion(11, "reduction feasibility equals satisfiability on all small formulas; assignment round trip is the identity")
def test_11_sat_reduction_equivalence():
    # One fixed variable pattern per size; all sign patterns of it.  The
    # repeated-variable patterns are what make unsatisfiable instances
    # possible at one or two clauses.
    family = {
        (1, 1): ((1, 1, 1),),
        (1, 2): ((1, 1, 1), (1, 1, 1)),
        (2, 1): ((1, 2, 2),),
        (2, 2): ((1, 1, 1), (1, 2, 2)),
        (3, 1): ((1, 2, 3),),
        (3, 2): ((1, 2, 3), (1, 2, 3)),
    }
    unsat_seen = 0

    def check(layout):
        nonlocal unsat_seen
        red = reduce_sat_to_sbst(layout)
        formula = layout.formula
        tree_exists = brute_force_sbst_exists(red.graph) is not None
        hits = satisfying_assignments(formula)
        assert tree_exists == bool(hits), formula.clauses
        if not hits:
            unsat_seen += 1
        for a in hits:
            tree = map_assignment_to_sb_tree(red, a)
            t = as_bipartitioned_tree(red.graph, tree)
            assert is_strongly_balanced(t) is not None, (formula.clauses, a)
            assert extract_assignment_from_tree(red, tree) == a, (formula.clauses, a)

    for (num_vars, num_clauses), pattern in family.items():
        for signs in itertools.product((1, -1), repeat=3 * num_clauses):
            clauses = tuple(
                tuple(s * v for s, v in zip(signs[3 * c : 3 * c + 3], pattern[c]))
                for c in range(num_clauses)
            )
            check(default_layout(CnfFormula(num_vars, clauses)))

    rng = random.Random(90)
    for _ in range(50):
        check(random_cnf_layout(rng.randint(1, 3), rng.randint(1, 2), seed=rng.randrange(10**9)))
    assert unsat_seen >= 2, unsat_seen


@criterion(12, "performance smoke: 2000-vertex augmentation under 10s, 200-vertex balanced tree search under 60s")
def test_12_performance_smoke():
    g = random_graph(2000, 0.001, seed=2026)
    t0 = time.perf_counter()
    res = greedy_augment(g, HostKind.complete(2000))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0, f"augmentation took {elapsed:.1f}s"
    assert len(connected_components(res.graph)) == 1
    assert res.matching.is_perfect

    rng = random.Random(7)
    chosen = rng.sample(crossing_pairs(100), 1000)
    g2 = WeightedGraph(200, [(u, v, rng.randint(0, 9)) for u, v in sorted(chosen)])
    t0 = time.perf_counter()
    try:
        min_sbst_bipartite(g2)
    except Infeasible:
        pass  # a fast, definite negative also counts
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"tree search took {elapsed:.1f}s"


@criterion(13, "leaf replacement preserves strongly-balanced-tree existence on 100 random subcubic graphs")
def test_13_leaf_replacement_preserves_existence():
    rng = random.Random(91)
    for trial in range(100):
        g = helpers.random_subcubic(rng, rng.randint(2, 12))
        expanded = replace_leaves(g)
        before = brute_force_sbst_exists(g) is not None
        after = brute_force_sbst_exists(expanded) is not None
        if before != after:
            pytest.fail(
                "leaf replacement changed existence: "
                f"n={g.vertex_count} edges={[(u, v) for u, v, _ in g.edges]} "
                f"before={before} after={after}"
            )
