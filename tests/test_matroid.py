"""Matroid oracles and the weighted intersection engine."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from helpers import (
    graph_from_mask,
    pairs_of,
    planted_sb_bipartite,
    reference_circuit,
    reference_common_bases,
)
from treematch import (
    GraphicMatroid,
    GroundSetMismatchError,
    PartitionMatroid,
    WeightedGraph,
    min_weight_common_base,
)
from treematch.generate import complete, cycle
from treematch.sbst import min_sbst_bipartite


def free(n):
    """Every subset of range(n) independent: one part, capacity n."""
    return PartitionMatroid([range(n)], [n])


def forest(n):
    """Every subset of range(n) independent, as a graphic matroid: n
    disjoint edges."""
    return GraphicMatroid(WeightedGraph(2 * n, [(2 * i, 2 * i + 1, 1) for i in range(n)]))


def brute_min_common(m1, m2, weights, k):
    """Reference answer: scan every k-subset of the ground set."""
    best = None
    for sub in combinations(range(len(weights)), k):
        s = frozenset(sub)
        if m1.is_independent(s) and m2.is_independent(s):
            w = sum(weights[e] for e in sub)
            if best is None or w < best:
                best = w
    return best


class TestGraphicMatroid:
    def test_forest_independent_cycle_dependent(self):
        g = cycle(4)
        m = GraphicMatroid(g)
        assert m.is_independent(frozenset([0, 1, 2]))
        assert not m.is_independent(frozenset([0, 1, 2, 3]))

    def test_empty_always_independent(self):
        assert GraphicMatroid(cycle(3)).is_independent(frozenset())


class TestPartitionMatroid:
    def test_capacities(self):
        m = PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1])
        assert m.part_of == [0, 0, 0, 1, 1]
        assert m.is_independent(frozenset([0, 1, 3]))
        assert not m.is_independent(frozenset([0, 1, 2]))
        assert not m.is_independent(frozenset([3, 4]))

    def test_parts_must_partition_ground(self):
        with pytest.raises(ValueError):
            PartitionMatroid([[0, 1], [3]], [1, 1])
        with pytest.raises(ValueError):
            PartitionMatroid([[0, 1], [1, 2]], [1, 1])
        # -1 must not wrap around to the last element, 2.
        with pytest.raises(ValueError):
            PartitionMatroid([[-1], [0], [1]], [1, 1, 1])
        with pytest.raises(ValueError):
            PartitionMatroid([[0.0], [1]], [1, 1])

    def test_capacities_must_match_parts_and_be_nonnegative(self):
        with pytest.raises(ValueError, match="one capacity per part"):
            PartitionMatroid([[0, 1], [2]], [1])
        with pytest.raises(ValueError, match="capacities must be nonnegative"):
            PartitionMatroid([[0, 1], [2]], [1, -1])


class TestMatroidAxioms:
    """Property checks on sampled instances: hereditary + exchange."""

    def sample_matroids(self, rng):
        n = rng.randint(3, 6)
        g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))) or 1)
        yield GraphicMatroid(g), g.edge_count
        ground = rng.randint(2, 7)
        cuts = sorted(rng.sample(range(1, ground), rng.randint(0, min(2, ground - 1))))
        parts, lo = [], 0
        for hi in cuts + [ground]:
            parts.append(list(range(lo, hi)))
            lo = hi
        caps = [rng.randint(0, len(p)) for p in parts]
        yield PartitionMatroid(parts, caps), ground

    def test_hereditary_and_exchange(self):
        rng = random.Random(19)
        for _ in range(25):
            for m, ground in self.sample_matroids(rng):
                subsets = [
                    frozenset(s)
                    for r in range(ground + 1)
                    for s in combinations(range(ground), r)
                ]
                indep = [s for s in subsets if m.is_independent(s)]
                assert frozenset() in indep
                for s in indep:
                    for e in s:
                        assert m.is_independent(s - {e})
                for a in indep:
                    for b in indep:
                        if len(a) < len(b):
                            assert any(
                                m.is_independent(a | {e}) for e in b - a
                            ), (a, b)


def sparse_graph(rng, n):
    """Random graph on n vertices with edge density drawn per graph."""
    density = rng.random() * min(1.0, 6 / n)
    pairs = [p for p in pairs_of(n) if rng.random() < density]
    return WeightedGraph(n, [(u, v, 1) for u, v in pairs])


def component_size(g, selection, v):
    """How many vertices the edges ``selection`` connect to v."""
    adj = {}
    for i in selection:
        a, b, _ = g.edges[i]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = {v}
    stack = [v]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def star_partition(rng, g):
    """Partition matroid capping, for each vertex, the edges assigned to
    it (each edge goes to one endpoint picked by a random coloring)."""
    color = [rng.randint(0, 1) for _ in range(g.vertex_count)]
    parts = {}
    for e, (u, v, _) in enumerate(g.edges):
        parts.setdefault(u if color[u] == 0 else v, []).append(e)
    parts = list(parts.values())
    return PartitionMatroid(parts, [rng.randint(1, 3) for _ in parts])


class TestContexts:
    """Right after ``prepare`` and after every ``add``, ``cut`` or
    ``remove``, each context answer equals its definition through
    ``is_independent`` alone: y outside I is addable iff I + y is
    independent, and a non-addable y's circuit holds each x of I for
    which I - x + y is independent.  The answers are read from the
    context's arrays, as the solver reads them."""

    @staticmethod
    def addable(m, ctx, y):
        if isinstance(m, GraphicMatroid):
            u, v, _ = m.graph.edges[y]
            return ctx.comp[u] != ctx.comp[v]
        i = ctx.part_of[y]
        return ctx.counts[i] < ctx.capacities[i]

    def check(self, m, ctx, selection):
        outside = [y for y in range(m.ground_size) if y not in selection]
        addable = {y for y in outside if m.is_independent(selection + [y])}
        circuits = {
            y: set(reference_circuit(m, selection, y)) for y in outside if y not in addable
        }
        for y in outside:
            assert self.addable(m, ctx, y) == (y in addable), (selection, y)
        if isinstance(m, GraphicMatroid):
            for r in range(m.graph.vertex_count):
                if ctx.comp[r] == r:
                    assert ctx.size[r] == component_size(m.graph, selection, r), (selection, r)
            for x in selection:
                want = {y for y, circuit in circuits.items() if x in circuit}
                got = ctx.entering(x)
                assert len(got) == len(want) and set(got) == want, (selection, x)
        else:
            for y, want in circuits.items():
                got = ctx.members[ctx.part_of[y]]
                assert len(got) == len(want) and set(got) == want, (selection, y)

    def start(self, rng, m, order):
        """A prepared random independent set, checked."""
        selection = []
        for y in order[: rng.randint(0, len(order))]:
            if m.is_independent(selection + [y]):
                selection.append(y)
        ctx = m.prepare(selection)
        self.check(m, ctx, selection)
        return ctx, selection

    def grow(self, rng, m):
        """Add random addable elements one at a time, starting from a
        prepared random independent set, checking after every add."""
        order = list(range(m.ground_size))
        rng.shuffle(order)
        ctx, selection = self.start(rng, m, order)
        # Each check calls entering(), so each add must also drop the
        # index that call built.
        for y in order:
            if y not in selection and self.addable(m, ctx, y):
                ctx.add(y)
                selection.append(y)
                self.check(m, ctx, selection)

    def exchange(self, rng, m, sides):
        """From a prepared random independent set, take random members
        out (``cut`` or ``remove``) and put addable elements in, checking
        after every step; a member just taken out is sometimes put
        straight back.  Each check calls entering(), so every cut must
        drop the index that call built.  For a forest, ``sides`` counts
        the cuts whose child end's side was the smaller and the larger
        one."""
        graphic = isinstance(m, GraphicMatroid)
        order = list(range(m.ground_size))
        rng.shuffle(order)
        ctx, selection = self.start(rng, m, order)
        for _ in range(m.ground_size):
            if selection and rng.random() < 0.5:
                x = rng.choice(selection)
                selection.remove(x)
                if graphic:
                    a, b, _ = m.graph.edges[x]
                    child, other = (a, b) if ctx.parent_vertex[a] == b else (b, a)
                    sizes = [component_size(m.graph, selection, v) for v in (child, other)]
                    sides["smaller" if sizes[0] <= sizes[1] else "larger"] += 1
                    ctx.cut(x)
                else:
                    ctx.remove(x)
                self.check(m, ctx, selection)
                if rng.random() < 0.3:
                    ctx.add(x)
                    selection.append(x)
                    self.check(m, ctx, selection)
            else:
                addable = [y for y in order if y not in selection and self.addable(m, ctx, y)]
                if addable:
                    y = rng.choice(addable)
                    ctx.add(y)
                    selection.append(y)
                    self.check(m, ctx, selection)

    def test_forest_context(self):
        rng = random.Random("forest contexts")
        for _ in range(60):
            g = sparse_graph(rng, rng.randint(1, 30))
            self.grow(rng, GraphicMatroid(g))

    def test_forest_context_exchanges(self):
        rng = random.Random("forest exchanges")
        sides = Counter()
        for _ in range(40):
            g = sparse_graph(rng, rng.randint(1, 30))
            self.exchange(rng, GraphicMatroid(g), sides)
        assert sides["smaller"] > 20 and sides["larger"] > 20, sides

    def test_partition_context(self):
        rng = random.Random("partition contexts")
        for _ in range(60):
            g = sparse_graph(rng, rng.randint(2, 30))
            if g.edge_count:
                self.grow(rng, random_partition(rng, g.edge_count))
                self.grow(rng, star_partition(rng, g))

    def test_partition_context_exchanges(self):
        rng = random.Random("partition exchanges")
        for _ in range(40):
            g = sparse_graph(rng, rng.randint(2, 24))
            if g.edge_count:
                self.exchange(rng, random_partition(rng, g.edge_count), None)
                self.exchange(rng, star_partition(rng, g), None)


class TestMinWeightCommonBase:
    def test_free_free_picks_lightest(self):
        got = min_weight_common_base(forest(4), free(4), [5, 1, 3, 2], 2)
        assert got == frozenset([1, 3])

    def test_c4_with_per_side_stars(self):
        g = cycle(4, [1, 1, 1, 10])
        m1 = GraphicMatroid(g)
        # parts: edges at vertex 0 and edges at vertex 2 (one bipartition side)
        m2 = PartitionMatroid([[0, 3], [1, 2]], [2, 2])
        got = min_weight_common_base(m1, m2, [1, 1, 1, 10], 3)
        assert got == frozenset([0, 1, 2])

    def test_no_common_base(self):
        # one matroid forbids any pair, so size 2 is unreachable
        m2 = PartitionMatroid([range(3)], [1])
        assert min_weight_common_base(forest(3), m2, [1, 1, 1], 2) is None

    def test_k_larger_than_ground(self):
        assert min_weight_common_base(forest(2), free(2), [1, 1], 3) is None

    def test_k_zero_gives_empty(self):
        assert min_weight_common_base(forest(2), free(2), [1, 1], 0) == frozenset()

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="size must be nonnegative"):
            min_weight_common_base(forest(2), free(2), [1, 1], -1)

    def test_ground_mismatch_rejected(self):
        with pytest.raises(GroundSetMismatchError):
            min_weight_common_base(forest(2), free(3), [1, 1], 1)
        with pytest.raises(GroundSetMismatchError):
            min_weight_common_base(forest(2), free(2), [1, 1, 1], 1)

    @pytest.mark.parametrize(
        "first, second",
        [(free, forest), (free, free), (forest, forest)],
        ids=["partition, graphic", "partition, partition", "graphic, graphic"],
    )
    def test_other_pairings_rejected(self, first, second):
        with pytest.raises(TypeError, match="GraphicMatroid and then a PartitionMatroid"):
            min_weight_common_base(first(2), second(2), [1, 1], 1)

    def test_mst_via_graphic_and_free(self):
        # intersection with a free matroid degenerates to minimum spanning tree
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(3, 7)
            g = complete(n)
            weights = [rng.randint(-4, 9) for _ in range(g.edge_count)]
            got = min_weight_common_base(
                GraphicMatroid(g), free(g.edge_count), weights, n - 1
            )
            assert got is not None
            # Kruskal reference
            order = sorted(range(g.edge_count), key=lambda i: (weights[i], i))
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            total = 0
            for i in order:
                u, v, _ = g.edges[i]
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    total += weights[i]
            assert sum(weights[e] for e in got) == total

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(37)
        for _ in range(120):
            n = rng.randint(3, 5)
            mask = rng.getrandbits(len(pairs_of(n)))
            g = graph_from_mask(n, mask)
            ground = g.edge_count
            if ground == 0:
                continue
            cuts = sorted(rng.sample(range(1, ground), rng.randint(0, min(2, ground - 1))))
            parts, lo = [], 0
            for hi in cuts + [ground]:
                parts.append(list(range(lo, hi)))
                lo = hi
            caps = [rng.randint(0, len(p)) for p in parts]
            m1 = GraphicMatroid(g)
            m2 = PartitionMatroid(parts, caps)
            weights = [rng.randint(-5, 9) for _ in range(ground)]
            for k in range(ground + 1):
                got = min_weight_common_base(m1, m2, weights, k)
                want = brute_min_common(m1, m2, weights, k)
                if want is None:
                    assert got is None, (mask, parts, caps, weights, k)
                else:
                    assert got is not None and len(got) == k
                    assert m1.is_independent(got) and m2.is_independent(got)
                    assert sum(weights[e] for e in got) == want, (mask, parts, caps, weights, k)

    def test_constant_shift_moves_value_by_k_times_constant(self):
        rng = random.Random(53)
        g = complete(5)
        m1 = GraphicMatroid(g)
        m2 = PartitionMatroid([list(range(g.edge_count))], [4])
        weights = [rng.randint(0, 9) for _ in range(g.edge_count)]
        k = 4
        base = min_weight_common_base(m1, m2, weights, k)
        shifted = min_weight_common_base(m1, m2, [w + 7 for w in weights], k)
        assert base is not None and shifted is not None
        assert sum(weights[e] + 7 for e in shifted) == sum(weights[e] for e in base) + 7 * k


def random_partition(rng, ground):
    """Partition matroid on range(ground): up to four shuffled parts with
    random capacities."""
    order = list(range(ground))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, ground), min(rng.randint(0, 3), ground - 1)))
    bounds = [0] + cuts + [ground]
    parts = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return PartitionMatroid(parts, [rng.randint(0, len(p)) for p in parts])


class TestAgainstReference:
    """The solver's sets must equal, not just weigh the same as, those of
    the every-round exchange-graph search in ``helpers``: which optimal
    set comes out is part of the observable output."""

    WEIGHTS = {
        "mixed sign": lambda rng: rng.randint(-5, 9),
        "tied": lambda rng: rng.randint(0, 2),
        "all zero": lambda rng: 0,
    }

    @pytest.mark.parametrize("kind", sorted(WEIGHTS))
    def test_same_sets_at_every_k(self, kind):
        rng = random.Random(f"reference:{kind}")
        draw = self.WEIGHTS[kind]
        calls = 0
        while calls < 1500:
            n = rng.randint(3, 9)
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            ground = g.edge_count
            if ground < 2:
                continue
            weights = [draw(rng) for _ in range(ground)]
            graphic = GraphicMatroid(g)
            p1, p2 = random_partition(rng, ground), random_partition(rng, ground)
            for m1, m2 in ((graphic, p1), (graphic, p2)):
                sets = reference_common_bases(m1, m2, weights)
                for k in range(ground + 1):
                    want = sets[k] if k < len(sets) else None
                    assert min_weight_common_base(m1, m2, weights, k) == want, (
                        g.edges, weights, k,
                    )
                    calls += 1

    MEDIUM = {"mixed sign": WEIGHTS["mixed sign"], "tied": WEIGHTS["tied"]}

    @pytest.mark.parametrize("kind", sorted(MEDIUM))
    def test_same_sets_on_medium_graphs(self, kind):
        """n = 12-30: deep trees get re-rooted, and direct and full
        rounds alternate, which the small corpus rarely reaches.  k runs
        over the rank, one past it and two random sizes below it."""
        rng = random.Random(f"medium reference:{kind}")
        draw = self.MEDIUM[kind]
        for _ in range(45):
            g = sparse_graph(rng, rng.randint(12, 30))
            ground = g.edge_count
            if ground < 2:
                continue
            weights = [draw(rng) for _ in range(ground)]
            graphic = GraphicMatroid(g)
            stars = star_partition(rng, g)
            other = random_partition(rng, ground)
            for m1, m2 in ((graphic, stars), (graphic, other)):
                sets = reference_common_bases(m1, m2, weights)
                rank = len(sets) - 1
                sizes = {rank, rank + 1} | {rng.randint(1, rank) for _ in range(2) if rank}
                for k in sorted(sizes):
                    want = sets[k] if k <= rank else None
                    assert min_weight_common_base(m1, m2, weights, k) == want, (
                        g.edges, weights, k,
                    )

    def test_pinned_large_sbst_tree(self):
        """planted_sb_bipartite(random.Random(200), 100, 3000): n = 200,
        m = 3000, too large for the reference.  The digest of its minimum
        strongly balanced tree's sorted edge indices was taken from the
        label-correcting (SPFA) search that Dijkstra replaced."""
        g = planted_sb_bipartite(random.Random(200), 100, 3000)
        res = min_sbst_bipartite(g)
        assert res.total_weight == 24
        digest = hashlib.sha256(" ".join(map(str, sorted(res.tree))).encode())
        assert digest.hexdigest() == (
            "6a3fcae55424bdf8f6f0411dc9049e6945401df126ed59596d510e9afcd8ae49"
        )

    # Found by seeded searches for inputs on which the search's tie rules
    # decide the set: the early stop waiting for equally near sinks and
    # picking the smallest id among them ("sink ties"), and each node's
    # predecessor being its smallest tight in-arc source, on the hop into
    # an element outside I ("predecessor ties") and on the hop that an
    # element outside I passes on into I ("pass-through ties").  In the
    # "passed on again" case an element outside I reaches a smaller
    # distance after it has already passed one on, and its second pass
    # decides the set.  Each case fails when its own rule is taken out of
    # the solver, and the random corpora above miss the predecessor and
    # pass-through rules.  Each entry: vertex count, (u, v, weight) edges,
    # then the parts and capacities of the partition matroid that goes
    # second to the graph's graphic matroid.
    TIE_CASES = {
        "sink ties": (
            7,
            [(0, 1, 0), (0, 2, 2), (0, 3, 0), (0, 4, 2), (0, 5, 0), (0, 6, 0), (1, 2, 2),
             (1, 3, 0), (1, 5, 2), (2, 3, 2), (2, 5, 1), (3, 5, 1), (4, 5, 1), (4, 6, 1),
             (5, 6, 0)],
            [[3, 0, 5, 7], [12, 13, 11, 2, 8, 1, 14, 4], [6, 10, 9]],
            [1, 3, 3],
        ),
        "predecessor ties": (
            8,
            [(0, 2, 0), (0, 3, 1), (0, 4, 2), (0, 7, 2), (1, 3, 0), (1, 4, 0), (1, 6, 1),
             (1, 7, 0), (2, 4, 1), (2, 5, 1), (2, 7, 1), (3, 6, 2), (3, 7, 0), (4, 5, 2),
             (4, 7, 1), (5, 6, 0), (5, 7, 2)],
            [[12, 3], [8, 0, 14, 4], [7], [16, 2, 1, 11, 10], [5, 9, 13, 6], [15]],
            [1, 3, 1, 1, 2, 0],
        ),
        "pass-through ties, graphic first": (
            7,
            [(0, 1, 1), (0, 2, 1), (0, 3, 0), (0, 5, 0), (0, 6, 0), (1, 2, 0),
             (1, 6, 0), (2, 5, 0), (2, 6, 1), (3, 5, 0), (4, 5, 0), (5, 6, 0)],
            [[6, 7, 9, 4, 8], [11], [0, 1, 2, 5, 10], [3]],
            [2, 1, 2, 1],
        ),
        "passed on again": (
            13,
            [(0, 2, 2), (0, 3, 2), (0, 4, 2), (0, 6, 2), (1, 6, 2), (2, 4, 1), (2, 6, 1),
             (2, 7, 1), (2, 12, 2), (3, 6, 2), (3, 9, 1), (3, 10, 2), (4, 6, 1), (4, 7, 2),
             (5, 8, 0), (6, 10, 1), (7, 10, 1), (8, 9, 2), (9, 11, 1), (10, 11, 2)],
            [[2], [13, 6, 9, 5, 3, 17, 11, 7, 18, 15, 16], [12, 8, 14, 4, 10, 19], [1, 0]],
            [1, 5, 5, 1],
        ),
    }

    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    def test_same_sets_where_ties_decide(self, case):
        n, edges, parts, caps = self.TIE_CASES[case]
        g = WeightedGraph(n, edges)
        weights = [w for _, _, w in edges]
        m1, m2 = GraphicMatroid(g), PartitionMatroid(parts, caps)
        sets = reference_common_bases(m1, m2, weights)
        for k in range(g.edge_count + 1):
            want = sets[k] if k < len(sets) else None
            assert min_weight_common_base(m1, m2, weights, k) == want, k
