"""Graph type, traversals, 2-colorings, and the text file format."""

from __future__ import annotations

import random
import re

import pytest

from helpers import (
    graph_from_mask,
    pairs_of,
    reference_connected_components,
    reference_parse_graph,
)
from treematch import (
    GraphFormatError,
    NotATreeError,
    NotBipartiteError,
    TreematchError,
    WeightedGraph,
    as_bipartitioned_tree,
    bipartition_of,
    connected_components,
    format_graph,
    is_connected,
    is_hamiltonian_cycle,
    parse_graph,
)
from treematch.generate import cube, CUBE_HAMILTONIAN_CYCLE
from treematch.graph import BadEdgeError


def path(n, weights=None):
    ws = weights or [1] * (n - 1)
    return WeightedGraph(n, [(i, i + 1, ws[i]) for i in range(n - 1)])


class TestConstruction:
    def test_edges_normalized_to_ascending_endpoints(self):
        g = WeightedGraph(3, [(2, 0, 5), (1, 2, 7)])
        assert g.edges == ((0, 2, 5), (1, 2, 7))

    def test_two_tuple_edges_default_to_weight_zero(self):
        g = WeightedGraph(2, [(0, 1)])
        assert g.edges == ((0, 1, 0),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(2, [(1, 1, 0)])

    def test_rejects_parallel_edges_even_reversed(self):
        with pytest.raises(ValueError, match="parallel"):
            WeightedGraph(3, [(0, 1, 1), (1, 0, 2)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 2, 1)])

    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(ValueError):
            WeightedGraph(0)

    def test_accessors(self):
        g = WeightedGraph(4, [(0, 1, 3), (2, 1, 4)])
        assert g.vertex_count == 4 and g.edge_count == 2
        assert g.edge_index(1, 0) == 0
        assert g.has_edge(1, 2) and not g.has_edge(0, 3)
        assert g.endpoints(1) == (1, 2)
        assert g.edges[1][2] == 4
        assert g.degree(1) == 2 and g.degree(3) == 0
        assert g.total_weight([0, 1]) == 7
        assert g.edge_pairs([1, 0]) == [(0, 1), (1, 2)]

    def test_adjacency_lists_edge_index_and_neighbor(self):
        g = WeightedGraph(3, [(0, 1, 1), (0, 2, 1)])
        assert g.adjacency[0] == ((0, 1), (1, 2))
        assert g.adjacency[1] == ((0, 0),)

    def test_with_added_edges_appends(self):
        g = WeightedGraph(3, [(0, 1, 1)])
        h = g.with_added_edges([(1, 2, 9)])
        assert h.edges == ((0, 1, 1), (1, 2, 9))
        assert g.edge_count == 1  # original untouched
        assert h == WeightedGraph(3, [(0, 1, 1), (1, 2, 9)])
        assert h.edge_index(2, 1) == 1 and not h.has_edge(0, 2)
        assert h.adjacency == (((0, 1),), ((0, 0), (1, 2)), ((1, 1),))

    @pytest.mark.parametrize(
        "extra", [[(1, 2), (0, 1)], [(2, 2)], [(1, 3)], [(1, 2, "9")], [(1,)], [(1, 2), (2, 1)]]
    )
    def test_with_added_edges_rejects_as_the_constructor_does(self, extra):
        # Same error type, message and position as building the whole
        # edge list at once.
        old = [(0, 1, 1), (0, 2, 4)]
        with pytest.raises(BadEdgeError) as whole:
            WeightedGraph(3, old + extra)
        with pytest.raises(BadEdgeError) as added:
            WeightedGraph(3, old).with_added_edges(extra)
        assert str(added.value) == str(whole.value)
        assert added.value.position == whole.value.position >= len(old)

    def test_edge_pairs_sort_as_endpoint_tuples(self):
        rng = random.Random(29)
        for trial in range(300):
            n = 2 if trial < 20 else rng.randint(2, 40)
            pairs = pairs_of(n)
            g = WeightedGraph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 60))))
            m = g.edge_count
            for subset in ([], list(range(m)), rng.sample(range(m), rng.randint(0, m))):
                want = sorted(g.edges[i][:2] for i in subset)
                assert g.edge_pairs(subset) == want, (n, g.edges, subset)
                assert g.edge_pairs(frozenset(subset)) == want

    def test_with_weight_reweights_without_touching_the_original(self):
        g = WeightedGraph(4, [(3, 1, 5), (0, 2, -1), (1, 0)])
        h = g.with_weight(7)
        assert h.edges == ((1, 3, 7), (0, 2, 7), (0, 1, 7))
        assert h == WeightedGraph(4, [(1, 3, 7), (0, 2, 7), (0, 1, 7)])
        assert [h.edge_index(v, u) for u, v, _ in h.edges] == [0, 1, 2]
        # Edges added to the reweighted graph stay out of the original.
        k = h.with_added_edges([(2, 3, 9)])
        assert k.edge_index(3, 2) == 3 and not h.has_edge(2, 3) and not g.has_edge(2, 3)
        assert g.edges == ((1, 3, 5), (0, 2, -1), (0, 1, 0))
        assert WeightedGraph(1).with_weight(3).edges == ()
        with pytest.raises(ValueError, match="edge weight must be an integer"):
            g.with_weight(1.5)


class TestComponents:
    def test_no_edges(self):
        assert connected_components(WeightedGraph(3)) == [[0], [1], [2]]

    def test_path_is_one_component(self):
        assert connected_components(path(3)) == [[0, 1, 2]]

    def test_two_components_ordered_by_smallest_vertex(self):
        g = WeightedGraph(4, [(2, 3, 1), (0, 1, 1)])
        assert connected_components(g) == [[0, 1], [2, 3]]

    def test_cover_and_disjoint_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 9)
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            comps = connected_components(g)
            flat = sorted(v for c in comps for v in c)
            assert flat == list(range(n))

    def test_is_connected(self):
        assert is_connected(path(4))
        assert not is_connected(WeightedGraph(2))

    def test_union_find_matches_bfs_reference(self):
        # Shuffled edge order exercises every union order; edgeless graphs
        # and a path listed from its far end (the deepest parent chains
        # before halving) are included.
        rng = random.Random(15)
        graphs = [WeightedGraph(n) for n in (1, 2, 7)]
        graphs.append(WeightedGraph(60, [(v, v + 1) for v in reversed(range(59))]))
        for _ in range(1000):
            n = rng.randint(2, 60)
            all_pairs = pairs_of(n)
            chosen = rng.sample(all_pairs, min(rng.randint(0, 3 * n), len(all_pairs)))
            graphs.append(WeightedGraph(n, chosen))
        for g in graphs:
            assert connected_components(g) == reference_connected_components(g)

    def test_union_find_matches_bfs_reference_at_scale(self):
        rng = random.Random(20000)
        n = 20000
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 2)}
        g = WeightedGraph(n, sorted(pairs, key=lambda _: rng.random()))
        assert connected_components(g) == reference_connected_components(g)


class TestBipartition:
    def test_single_edge(self):
        assert bipartition_of(WeightedGraph(2, [(0, 1, 1)])) == (0, 1)

    def test_four_cycle(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        side = bipartition_of(g)
        assert side == (0, 1, 0, 1) and type(side) is tuple

    def test_triangle_rejected_with_odd_cycle_witness(self):
        g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with pytest.raises(NotBipartiteError) as ei:
            bipartition_of(g)
        cyc = ei.value.odd_cycle
        assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc)
        for i in range(len(cyc)):
            assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])

    def test_component_anchors_are_plus(self):
        g = WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
        assert bipartition_of(g) == (0, 1, 0, 1)

    def test_proper_coloring_is_rigid_on_connected_graphs(self):
        # flipping any one vertex breaks some edge
        g = cube()
        side = bipartition_of(g)
        for v in range(g.vertex_count):
            flipped = list(side)
            flipped[v] ^= 1
            assert any(flipped[u] == flipped[w] for u, w, _ in g.edges)

    def test_odd_cycle_witness_on_random_nonbipartite(self):
        rng = random.Random(81)
        found = 0
        while found < 25:
            n = rng.randint(3, 8)
            g = graph_from_mask(n, rng.getrandbits(len(pairs_of(n))))
            try:
                bipartition_of(g)
            except NotBipartiteError as exc:
                cyc = exc.odd_cycle
                assert len(cyc) % 2 == 1
                for i in range(len(cyc)):
                    assert g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
                found += 1


class TestBipartitionedTree:
    def test_path_sides(self):
        t = as_bipartitioned_tree(path(4), [0, 1, 2])
        assert t.side == (0, 1, 0, 1)
        assert t.degree == (1, 2, 2, 1)
        # Tree edges given out of index order, in a graph whose edge
        # indices do not follow the path: adjacency is by ascending index.
        g = WeightedGraph(5, [(2, 4, 1), (0, 3, 1), (1, 2, 1), (0, 4, 1), (0, 1, 1)])
        t = as_bipartitioned_tree(g, [4, 2, 0, 1])
        assert t.adjacency == (
            ((1, 3), (4, 1)),
            ((2, 2), (4, 0)),
            ((0, 4), (2, 1)),
            ((1, 0),),
            ((0, 2),),
        )
        assert t.degree == (2, 2, 2, 1, 1)
        assert t.side == (0, 1, 0, 1, 1)

    def test_star_sides(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        t = as_bipartitioned_tree(g, [0, 1, 2])
        assert t.side == (0, 1, 1, 1)

    def test_cycle_is_not_a_tree(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        with pytest.raises(NotATreeError):
            as_bipartitioned_tree(g, range(4))

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(NotATreeError):
            as_bipartitioned_tree(path(4), [0, 1])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_edge_index_out_of_range_rejected(self, bad):
        with pytest.raises(NotATreeError, match=f"edge index {bad} out of range"):
            as_bipartitioned_tree(path(4), [0, 1, bad])

    def test_disconnected_selection_rejected(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        # 3 edges but one repeated pair across a cycle: {0-1, 2-3, 0-3} is
        # actually a path; use {0-1, 0-3, 2-3} vs cyclic pick {0-1,1-2,0-3}
        with pytest.raises(NotATreeError):
            as_bipartitioned_tree(WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]), range(3))

    def test_degree_sums(self):
        rng = random.Random(3)
        from helpers import random_tree_edges

        for _ in range(40):
            n = rng.randint(2, 10)
            g = WeightedGraph(n, [(u, v, 1) for u, v in random_tree_edges(rng, n)])
            t = as_bipartitioned_tree(g, range(n - 1))
            assert sum(t.degree) == 2 * (n - 1)
            for side in (0, 1):
                assert sum(d for d, s in zip(t.degree, t.side) if s == side) == n - 1

    def test_total_weight(self):
        t = as_bipartitioned_tree(path(3, [5, 7]), [0, 1])
        assert t.total_weight == 12


class TestHamiltonianCycle:
    def test_four_cycle_true(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert is_hamiltonian_cycle(g, (0, 1, 2, 3))

    def test_missing_vertex_false(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert not is_hamiltonian_cycle(g, (0, 1, 2))

    def test_non_adjacent_step_false(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert not is_hamiltonian_cycle(g, (0, 2, 1, 3))

    def test_repeat_vertex_false(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert not is_hamiltonian_cycle(g, (0, 1, 2, 1))

    def test_cube_cycle(self):
        assert is_hamiltonian_cycle(cube(), CUBE_HAMILTONIAN_CYCLE)


class TestFileFormat:
    def test_parse_basic(self):
        g = parse_graph("c a comment\np 3 2\ne 0 1 5\ne 1 2\n")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1, 5), (1, 2, 0))

    def test_format_sorts_edges_and_omits_zero_weights(self):
        g = WeightedGraph(4, [(2, 3, 0), (0, 1, 7)])
        assert format_graph(g) == "p 4 2\ne 0 1 7\ne 2 3\n"

    def test_round_trip_preserves_graph(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 9)
            mask = rng.getrandbits(len(pairs_of(n)))
            g = graph_from_mask(n, mask, weight=rng.randint(-5, 5))
            h = parse_graph(format_graph(g))
            assert h.vertex_count == g.vertex_count
            assert sorted(h.edges) == sorted(g.edges)
            # a writer-produced file is a fixed point of write(read(.))
            assert format_graph(h) == format_graph(g)

    def test_comment_round_trip(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        text = format_graph(g, comment="hello\nworld")
        assert text.startswith("c hello\nc world\n")
        assert parse_graph(text).edges == g.edges

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p 3\n", 1),
            ("e 0 1\np 3 1\n", 1),
            ("p 2 1\ne 0 0\n", 2),
            ("p 2 1\ne 0 7\n", 2),
            ("p 2 2\ne 0 1\ne 1 0\n", 3),
            ("p 2 1\nx 0 1\n", 2),
            ("p 2 1\ne 0 one\n", 2),
            ("p 2 1\np 2 1\ne 0 1\n", 2),
            # Several faults: a malformed line wins over an earlier bad
            # edge, and the first bad edge wins over the edge count.
            ("p 3 9\ne 0 0\ne 1 2\ne 0 7\ne 1 x\n", 5),
            ("p 3 9\ne 1 2\ne 0 7\ne 0 0\n", 3),
            # The same, past comment, blank and indented lines.
            ("p 4 3\ne 0 1\nc note\n\n\te 1 0\n", 5),
            ("p 4 3\r\ne 0 0\r\nc x\r\n\r\n\te 1 2\r\ne 1 x\r\n", 6),
            ("c a\r\np 4 3\r\n\te 1 9\r\n\r\ne 1 2\r\n  q 1\r\n", 6),
            ("p 4 3\n\te 1 2\nc\ne 2 1\n\ne 0 1 2 3\n", 6),
        ],
    )
    def test_malformed_inputs_carry_line_numbers(self, text, line):
        with pytest.raises(GraphFormatError) as ei:
            parse_graph(text)
        assert ei.value.line == line

    @pytest.mark.parametrize("kind", ["self-loop", "out-of-range", "parallel"])
    def test_bad_edge_reports_its_own_line_among_other_lines(self, kind):
        # Comment, blank and whitespace-only lines, CRLF endings and
        # indented e lines sit between the edge lines; the bad edge is put
        # at every position from the first to the last.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        fillers = ["c note", "", "c", " \t ", "comment x"]
        rng = random.Random(kind)
        first = 1 if kind == "parallel" else 0  # a parallel edge repeats an earlier one
        for bad in range(first, len(edges)):
            u, v = {"self-loop": (2, 2), "out-of-range": (3, 5), "parallel": edges[bad - 1][::-1]}[kind]
            message = {
                "self-loop": "self-loop at vertex 2",
                "out-of-range": "edge {3, 5} uses a vertex outside 0..4",
                "parallel": f"parallel edge {{{v}, {u}}}",
            }[kind]
            lines = rng.sample(fillers, rng.randint(0, 2)) + [f"p 5 {len(edges)}"]
            for k, (a, b) in enumerate(edges):
                lines += rng.sample(fillers, rng.randint(0, 3))
                if k == bad:
                    a, b, at = u, v, len(lines) + 1
                lines.append(rng.choice(["", "\t", "  "]) + f"e {a} {b}" + rng.choice(["", " 4"]))
            lines += rng.sample(fillers, rng.randint(0, 2))
            text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
            with pytest.raises(GraphFormatError, match=re.escape(message)) as ei:
                parse_graph(text)
            assert ei.value.line == at, (bad, text)

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(GraphFormatError, match="announced"):
            parse_graph("p 3 2\ne 0 1\n")

    def test_missing_p_line_rejected(self):
        with pytest.raises(GraphFormatError, match="missing p line"):
            parse_graph("c nothing here\n")


# Line breaks that ``str.splitlines`` honours.  \x1c and \x85 are also
# whitespace to ``str.split``; as gaps inside a line they split it in two.
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85"]
GAPS = [" "] * 6 + ["  ", "\t", " \t ", "\x1c", "\x85"]
# Integer spellings ``int`` accepts (underscores, signs, non-ASCII
# digits, padding) and tokens it rejects.
NUMBERS = ["0", "1", "2", "3", "4", "5", "-1", "1_0", "+2", "\u0663", "007", "x", "1.0", "_1"]


def random_graph_text(rng: random.Random) -> str:
    """A text near the graph format: p, e and c lines in any order, with
    wrong arities, odd integer spellings, mixed line breaks and gaps."""
    n = rng.randint(1, 5)
    lines = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.62:
            head, fields = "e", rng.choices(NUMBERS[:6], k=3 if rng.random() < 0.5 else 2)
            if rng.random() < 0.1:
                fields = rng.choices(NUMBERS, k=rng.randint(0, 5))
        elif kind < 0.7:
            head, fields = "p", [str(n), str(rng.randint(0, 6))]
            if rng.random() < 0.2:
                fields = rng.choices(NUMBERS, k=rng.randint(1, 3))
        elif kind < 0.85:
            head, fields = rng.choice(["c", "cx", "c1", "comment"]), rng.choices(NUMBERS, k=rng.randint(0, 2))
        elif kind < 0.95:
            head, fields = "", []
        else:
            head, fields = rng.choice(["x", "E", "pe", "ec", "\u0663"]), rng.choices(NUMBERS, k=2)
        gap = rng.choice(GAPS)
        pad = rng.choice(["", "", " ", "\t", "\x85"])
        lines.append(pad + gap.join([head, *fields]) + rng.choice(["", "", " ", "\t"]))
    if lines and rng.random() < 0.75:
        # Put a p line first, announcing the e lines that follow, so that
        # many texts get past the line checks to the edge checks.
        lines.insert(0, f"p {n} {sum(1 for x in lines if x.split()[:1] == ['e'])}")
    return "".join(line + rng.choice(BREAKS) for line in lines)


def parse_outcome(parse, text):
    try:
        g = parse(text)
    except TreematchError as exc:
        return type(exc), str(exc)
    return g.vertex_count, g.edges


class TestParserAgainstReference:
    def test_same_graph_or_same_error(self):
        rng = random.Random(16)
        kinds = set()
        for _ in range(20_000):
            text = random_graph_text(rng)
            got = parse_outcome(parse_graph, text)
            assert got == parse_outcome(reference_parse_graph, text), repr(text)
            if got[0] is GraphFormatError:
                kinds.add(re.sub(r"-?\d+", "#", re.sub(r"^line \d+: ", "", got[1])))
            else:
                kinds.add("graph")
        # Every outcome was reached: a graph, and each message of the
        # parser and of ``WeightedGraph``'s checks.
        assert kinds >= {
            "graph",
            "missing p line",
            "duplicate p line",
            "p line must be 'p <n> <m>'",
            "bad sizes n=# m=#",
            "e line before p line",
            "e line must be 'e <u> <v> [<w>]'",
            "e line must hold integers",
            "unknown line type '#'",
            "unknown line type 'x'",
            "self-loop at vertex # is not allowed",
            "edge {#, #} uses a vertex outside #..#",
            "parallel edge {#, #}",
            "p line announced # edges, file holds #",
        }
