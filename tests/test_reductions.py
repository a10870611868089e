"""Hardness reductions and their witness maps."""

from dataclasses import replace

import pytest

from treematch import (
    BadLayoutError,
    BadRotationError,
    CnfFormula,
    CnfLayout,
    DisconnectedError,
    GraphFormatError,
    MalformedTreeError,
    NotBipartiteError,
    NotCubicError,
    NotHamiltonianError,
    NotSatisfyingError,
    NotStronglyBalancedError,
    RotationSystem,
    WeightedGraph,
    as_bipartitioned_tree,
    bipartition_of,
    complete_with_weight_two,
    default_layout,
    extract_assignment_from_tree,
    format_cnf_layout,
    format_rotation,
    is_strongly_balanced,
    map_assignment_to_sb_tree,
    map_hc_to_tree,
    parse_cnf_layout,
    parse_rotation,
    reduce_hc_to_minpmst,
    reduce_sat_to_sbst,
    replace_leaves,
    tree_perfect_matching,
)
from treematch.generate import (
    CUBE_HAMILTONIAN_CYCLE,
    circular_ladder,
    circular_ladder_hamiltonian_cycle,
    complete_bipartite,
    complete_bipartite_hamiltonian_cycle,
    cube,
    cycle,
    default_rotation,
    random_cnf_layout,
)
from treematch.oracle import brute_force_sat, brute_force_sbst_exists


class TestRotationSystem:
    def test_slot_is_one_based(self):
        g = cube()
        rot = default_rotation(g)
        first_edge = g.adjacency[0][0][0]
        assert rot.slot(0, first_edge) == 1

    def test_order_must_cover_all_vertices(self):
        g = cube()
        with pytest.raises(BadRotationError):
            RotationSystem(g, default_rotation(g).order[:-1])

    def test_order_must_permute_incident_edges(self):
        g = cube()
        order = list(default_rotation(g).order)
        order[0] = order[0][:2] + (order[0][0],)  # repeat one edge
        with pytest.raises(BadRotationError):
            RotationSystem(g, tuple(order))

    def test_slot_of_foreign_edge(self):
        g = cube()
        rot = default_rotation(g)
        far = g.adjacency[7][0][0]
        with pytest.raises(BadRotationError):
            rot.slot(0, far)

    def test_parse_and_format_round_trip(self):
        g = cube()
        rot = default_rotation(g)
        again = parse_rotation(format_rotation(rot), g)
        assert again.order == rot.order

    def test_parse_accepts_comments_and_blank_lines(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        rot = parse_rotation("c hello\n\nr 0 0\nr 1 0\n", g)
        assert rot.order == ((0,), (0,))

    def test_parse_rejects_unknown_line_kind(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        with pytest.raises(GraphFormatError) as info:
            parse_rotation("q 0 0\n", g)
        assert info.value.line == 1

    def test_parse_rejects_duplicate_vertex(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        with pytest.raises(BadRotationError):
            parse_rotation("r 0 0\nr 0 0\nr 1 0\n", g)

    def test_parse_rejects_missing_vertex(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        with pytest.raises(BadRotationError):
            parse_rotation("r 0 0\n", g)

    def test_parse_rejects_unknown_vertex(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        with pytest.raises(BadRotationError):
            parse_rotation("r 0 0\nr 1 0\nr 5 0\n", g)

    def test_parse_rejects_malformed_numbers(self):
        g = WeightedGraph(2, [(0, 1, 1)])
        with pytest.raises(GraphFormatError):
            parse_rotation("r zero 0\n", g)


class TestHcReduction:
    def setup_method(self):
        self.src = cube()
        self.red = reduce_hc_to_minpmst(self.src, default_rotation(self.src))

    def test_sizes(self):
        assert self.red.graph.vertex_count == 4 * 8
        assert self.red.graph.edge_count == 3 * 8 + 2 * 12

    def test_output_is_cubic_bipartite_connected(self):
        g = self.red.graph
        assert all(g.degree(v) == 3 for v in range(g.vertex_count))
        bipartition_of(g)  # raises if an odd cycle exists

    def test_threshold_is_source_order(self):
        assert self.red.threshold == 8

    def test_vertex_numbering_and_tags(self):
        assert self.red.hub(3) == 12
        assert self.red.port(3, 2) == 14
        assert self.red.tags[12] == "hub3"
        assert self.red.tags[14] == "port3.2"
        assert len(self.red.tags) == self.red.graph.vertex_count

    @pytest.mark.parametrize("slot", [0, 4])
    def test_port_slot_out_of_range(self, slot):
        with pytest.raises(ValueError, match="port slot"):
            self.red.port(3, slot)

    def test_edge_layout_and_origins(self):
        g = self.red.graph
        n, m = 8, 12
        for e in range(3 * n):
            assert g.edges[e][2] == 0
            assert self.red.edge_origin[e] is None
        for s in range(m):
            a, b = self.red.derived_pair(s)
            assert g.edges[a][2] == g.edges[b][2] == 1
            assert self.red.edge_origin[a] == self.red.edge_origin[s * 2 + 3 * n] == s

    def test_ports_touch_their_source_edges_endpoints(self):
        g = self.red.graph
        for s in range(12):
            u, v = self.src.endpoints(s)
            for e in self.red.derived_pair(s):
                a, b = g.endpoints(e)
                assert a // 4 == u and b // 4 == v

    def test_requires_cubic(self):
        g = cycle(4)
        with pytest.raises(NotCubicError):
            reduce_hc_to_minpmst(g, default_rotation(g))

    def test_requires_bipartite(self):
        k4 = WeightedGraph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
        with pytest.raises(NotBipartiteError):
            reduce_hc_to_minpmst(k4, default_rotation(k4))

    def test_requires_connected(self):
        q = cube()
        both = WeightedGraph(
            16,
            list(q.edges) + [(u + 8, v + 8, w) for u, v, w in q.edges],
        )
        with pytest.raises(DisconnectedError):
            reduce_hc_to_minpmst(both, default_rotation(both))

    def test_rotation_must_belong_to_the_same_object(self):
        other = cube()
        with pytest.raises(BadRotationError):
            reduce_hc_to_minpmst(self.src, default_rotation(other))

    def test_completion_fills_every_pair(self):
        done = complete_with_weight_two(self.red)
        n = done.graph.vertex_count
        assert done.graph.edge_count == n * (n - 1) // 2
        assert done.completed
        fillers = done.graph.edges[self.red.graph.edge_count :]
        assert all(w == 2 for _, _, w in fillers)
        assert all(
            o is None for o in done.edge_origin[self.red.graph.edge_count :]
        )

    def test_completion_is_idempotent(self):
        once = complete_with_weight_two(self.red)
        twice = complete_with_weight_two(once)
        assert twice.graph.edge_count == once.graph.edge_count
        assert twice.completed


class TestMapHcToTree:
    def check(self, red, cyc):
        tree = map_hc_to_tree(red, cyc)
        assert len(tree) == red.graph.vertex_count - 1
        t = as_bipartitioned_tree(red.graph, tree)
        assert tree_perfect_matching(t) is not None
        assert red.graph.total_weight(tree) == red.threshold
        return tree

    def test_cube(self):
        src = cube()
        red = reduce_hc_to_minpmst(src, default_rotation(src))
        self.check(red, CUBE_HAMILTONIAN_CYCLE)

    def test_cube_reversed_cycle(self):
        src = cube()
        red = reduce_hc_to_minpmst(src, default_rotation(src))
        self.check(red, tuple(reversed(CUBE_HAMILTONIAN_CYCLE)))

    def test_cube_rotated_start(self):
        src = cube()
        red = reduce_hc_to_minpmst(src, default_rotation(src))
        c = CUBE_HAMILTONIAN_CYCLE
        self.check(red, c[3:] + c[:3])

    def test_complete_bipartite_three_three(self):
        src = complete_bipartite(3, 3)
        red = reduce_hc_to_minpmst(src, default_rotation(src))
        self.check(red, complete_bipartite_hamiltonian_cycle(3))

    def test_circular_ladder(self):
        src = circular_ladder(6)
        red = reduce_hc_to_minpmst(src, default_rotation(src))
        self.check(red, circular_ladder_hamiltonian_cycle(6))

    def test_works_after_completion(self):
        src = cube()
        red = complete_with_weight_two(reduce_hc_to_minpmst(src, default_rotation(src)))
        self.check(red, CUBE_HAMILTONIAN_CYCLE)

    def test_rejects_non_cycle(self):
        src = cube()
        red = reduce_hc_to_minpmst(src, default_rotation(src))
        with pytest.raises(NotHamiltonianError):
            map_hc_to_tree(red, (0, 1, 3, 2, 6, 7, 4, 5))

    def test_rejects_short_sequence(self):
        src = cube()
        red = reduce_hc_to_minpmst(src, default_rotation(src))
        with pytest.raises(NotHamiltonianError):
            map_hc_to_tree(red, (0, 1, 3, 2))


class TestCnfFormula:
    def test_needs_a_variable(self):
        with pytest.raises(BadLayoutError):
            CnfFormula(0, ())

    def test_clauses_are_triples(self):
        with pytest.raises(BadLayoutError):
            CnfFormula(2, ((1, 2),))

    def test_no_zero_literal(self):
        with pytest.raises(BadLayoutError):
            CnfFormula(2, ((1, 0, 2),))

    def test_literals_stay_in_range(self):
        with pytest.raises(BadLayoutError):
            CnfFormula(2, ((1, 3, 2),))

    def test_satisfied_by(self):
        f = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
        assert f.satisfied_by((1, 1, 1))
        assert not f.satisfied_by((1, 0, 1))


class TestCnfLayout:
    def test_default_layout_places_everything_in(self):
        f = CnfFormula(2, ((1, -2, 1), (2, 2, -1)))
        lay = default_layout(f)
        assert lay.clause_side == ("in", "in")
        assert lay.in_occurrences == (((0, 0), (0, 2), (1, 2)), ((0, 1), (1, 0), (1, 1)))
        assert lay.out_occurrences == ((), ())

    def test_occurrence_position(self):
        f = CnfFormula(2, ((1, -2, 1), (2, 2, -1)))
        lay = default_layout(f)
        assert lay.occurrence_position(0, 0) == 1
        assert lay.occurrence_position(0, 2) == 2
        assert lay.occurrence_position(1, 2) == 3
        assert lay.occurrence_position(1, 0) == 2

    def test_side_count_must_match(self):
        f = CnfFormula(1, ((1, 1, 1),))
        with pytest.raises(BadLayoutError):
            CnfLayout(f, (), (((0, 0), (0, 1), (0, 2)),), ((),))

    def test_sides_are_in_or_out(self):
        f = CnfFormula(1, ((1, 1, 1),))
        with pytest.raises(BadLayoutError):
            CnfLayout(f, ("up",), (((0, 0), (0, 1), (0, 2)),), ((),))

    def test_every_occurrence_must_be_placed(self):
        f = CnfFormula(1, ((1, 1, 1),))
        with pytest.raises(BadLayoutError):
            CnfLayout(f, ("in",), (((0, 0), (0, 1)),), ((),))

    def test_no_duplicate_occurrences(self):
        f = CnfFormula(1, ((1, 1, 1),))
        with pytest.raises(BadLayoutError):
            CnfLayout(f, ("in",), (((0, 0), (0, 0), (0, 2)),), ((),))

    def test_occurrence_must_match_side(self):
        f = CnfFormula(1, ((1, 1, 1),))
        with pytest.raises(BadLayoutError):
            CnfLayout(f, ("out",), (((0, 0), (0, 1), (0, 2)),), ((),))

    def test_occurrence_must_mention_the_variable(self):
        f = CnfFormula(2, ((1, 1, 2),))
        with pytest.raises(BadLayoutError):
            CnfLayout(f, ("in",), (((0, 0), (0, 1), (0, 2)), ()), ((), ()))

    def test_one_list_per_variable_and_side(self):
        f = CnfFormula(1, ((1, 1, 1),))
        with pytest.raises(BadLayoutError, match="one occurrence list per variable"):
            CnfLayout(f, ("in",), (((0, 0), (0, 1), (0, 2)),), ())

    @pytest.mark.parametrize("bad", [(1, 0), (0, 3), (-1, 0)])
    def test_occurrence_in_range(self, bad):
        f = CnfFormula(1, ((1, 1, 1),))
        with pytest.raises(BadLayoutError, match=r"is out of range"):
            CnfLayout(f, ("in",), (((0, 0), (0, 1), (0, 2), bad),), ((),))


class TestCnfLayoutFiles:
    def test_parse_plain_dimacs(self):
        lay = parse_cnf_layout("c tiny\np cnf 2 1\n1 -2 1 0\n")
        assert lay.formula == CnfFormula(2, ((1, -2, 1),))
        assert lay.clause_side == ("in",)

    def test_parse_with_side_and_order_lines(self):
        text = (
            "p cnf 2 2\n"
            "1 -2 1 0\n"
            "2 2 -1 0\n"
            "l 2 out\n"
            "o 1 in 1:3 1:1\n"
        )
        lay = parse_cnf_layout(text)
        assert lay.clause_side == ("in", "out")
        assert lay.in_occurrences[0] == ((0, 2), (0, 0))
        assert lay.out_occurrences[0] == ((1, 2),)
        assert lay.out_occurrences[1] == ((1, 0), (1, 1))

    def test_round_trip_through_format(self):
        for seed in range(6):
            lay = random_cnf_layout(3, 4, seed)
            assert parse_cnf_layout(format_cnf_layout(lay)) == lay

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf 2 1\np cnf 2 1\n1 1 1 0\n",
            "p wrong 2 1\n1 1 1 0\n",
            "1 1 1 0\n",
            "p cnf 2 1\none two three 0\n",
            "p cnf 2 1\n1 1 1\n",
            "p cnf 2 1\n1 1 1 1 0\n",
            "p cnf 2 1\n1 1 1 0\nl 1 sideways\n",
            "p cnf 2 1\n1 1 1 0\no 1 in 1-1\n",
            "p cnf 2 2\n1 1 1 0\n",
        ],
    )
    def test_malformed_files(self, text):
        with pytest.raises(GraphFormatError):
            parse_cnf_layout(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p cnf x 1\n1 1 1 0\n", 1),
            ("p cnf 1 1\n1 1 1 0\nl x in\n", 3),
            ("p cnf 1 1\n1 1 1 0\nc note\no x in 1:1 1:2 1:3\n", 4),
        ],
    )
    def test_non_integer_fields_name_their_line(self, text, line):
        with pytest.raises(GraphFormatError) as ei:
            parse_cnf_layout(text)
        assert ei.value.line == line

    def test_side_line_for_unknown_clause(self):
        with pytest.raises(BadLayoutError):
            parse_cnf_layout("p cnf 1 1\n1 1 1 0\nl 2 out\n")

    def test_order_line_for_unknown_variable(self):
        with pytest.raises(BadLayoutError):
            parse_cnf_layout("p cnf 1 1\n1 1 1 0\no 2 in 1:1\n")

    def test_order_line_must_cover_the_right_set(self):
        with pytest.raises(BadLayoutError):
            parse_cnf_layout("p cnf 1 1\n1 1 1 0\no 1 in 1:1 1:2\n")


class TestSatReduction:
    def test_sizes(self):
        lay = default_layout(CnfFormula(2, ((1, -2, 1),)))
        red = reduce_sat_to_sbst(lay)
        assert red.graph.vertex_count == 10 * 2 + 14 * 1 + 8
        assert red.graph.edge_count == 13 * 2 + 17 * 1 + 7

    def test_output_shape(self):
        lay = default_layout(CnfFormula(3, ((1, 2, 3), (-1, -2, -3))))
        red = reduce_sat_to_sbst(lay)
        g = red.graph
        assert g.vertex_count % 2 == 0
        assert max(g.degree(v) for v in range(g.vertex_count)) <= 3
        from treematch import connected_components

        assert len(connected_components(g)) == 1
        with pytest.raises(NotBipartiteError):
            bipartition_of(g)
        assert all(w == 0 for _, _, w in g.edges)

    def test_tags_are_unique_and_addressable(self):
        lay = default_layout(CnfFormula(2, ((1, -2, 1),)))
        red = reduce_sat_to_sbst(lay)
        assert len(set(red.tags)) == len(red.tags) == red.graph.vertex_count
        assert red.vertex("x1") == 8
        assert red.tags[red.vertex("c1.mid12")] == "c1.mid12"
        red.edge_between("start.s1", "start.p0")
        with pytest.raises(KeyError):
            red.vertex("nonsense")

    def test_round_trip_on_every_satisfying_assignment(self):
        f = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
        red = reduce_sat_to_sbst(default_layout(f))
        hits = 0
        for bits in range(8):
            a = tuple((bits >> (2 - i)) & 1 for i in range(3))
            if not f.satisfied_by(a):
                continue
            hits += 1
            tree = map_assignment_to_sb_tree(red, a)
            t = as_bipartitioned_tree(red.graph, tree)
            assert is_strongly_balanced(t) is not None
            assert extract_assignment_from_tree(red, tree) == a
        assert hits == 6

    def test_round_trip_with_out_side_clauses(self):
        lay = parse_cnf_layout(
            "p cnf 2 2\n1 -2 2 0\n-1 -1 2 0\nl 1 out\n"
        )
        red = reduce_sat_to_sbst(lay)
        f = lay.formula
        for bits in range(4):
            a = (bits >> 1 & 1, bits & 1)
            if not f.satisfied_by(a):
                continue
            tree = map_assignment_to_sb_tree(red, a)
            assert extract_assignment_from_tree(red, tree) == a

    def test_rejects_non_satisfying_assignment(self):
        f = CnfFormula(1, ((1, 1, 1),))
        red = reduce_sat_to_sbst(default_layout(f))
        with pytest.raises(NotSatisfyingError):
            map_assignment_to_sb_tree(red, (0,))

    def test_rejects_malformed_assignment(self):
        f = CnfFormula(1, ((1, 1, 1),))
        red = reduce_sat_to_sbst(default_layout(f))
        with pytest.raises(ValueError):
            map_assignment_to_sb_tree(red, (1, 0))
        with pytest.raises(ValueError):
            map_assignment_to_sb_tree(red, (2,))

    def test_extract_rejects_non_tree(self):
        f = CnfFormula(1, ((1, 1, 1),))
        red = reduce_sat_to_sbst(default_layout(f))
        with pytest.raises(MalformedTreeError):
            extract_assignment_from_tree(red, range(red.graph.edge_count))

    def test_extract_rejects_unbalanced_tree(self):
        # First-fit spanning tree; breaks cycles arbitrarily, so the
        # degree pattern required of one side cannot survive.
        f = CnfFormula(1, ((1, 1, 1),))
        red = reduce_sat_to_sbst(default_layout(f))
        g = red.graph
        parent = list(range(g.vertex_count))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        tree = []
        for e, (u, v, _) in enumerate(g.edges):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                tree.append(e)
        t = as_bipartitioned_tree(g, frozenset(tree))
        assert is_strongly_balanced(t) is None  # guards the expectation below
        with pytest.raises(NotStronglyBalancedError):
            extract_assignment_from_tree(red, tree)

    def test_extract_rejects_anchor_keeping_both_cycle_edges(self):
        # A reduction whose tags disagree with its graph: the tag x1.in0
        # now names x1's neighbour on the start gadget, whose edge the
        # tree keeps along with the one to x1.out0.
        red = reduce_sat_to_sbst(default_layout(CnfFormula(1, ((1, 1, 1),))))
        tree = map_assignment_to_sb_tree(red, (1,))
        tags = list(red.tags)
        a, b = red.vertex("x1.in0"), red.vertex("start.p0")
        tags[a], tags[b] = tags[b], tags[a]
        with pytest.raises(MalformedTreeError, match="keeps both cycle edges"):
            extract_assignment_from_tree(replace(red, tags=tuple(tags)), tree)

    def test_extract_rejects_an_assignment_that_fails_the_formula(self):
        # The tree of x1 = 1 read against the formula (-x1): the layout
        # no longer matches the graph it was reduced to.
        red = reduce_sat_to_sbst(default_layout(CnfFormula(1, ((1, 1, 1),))))
        tree = map_assignment_to_sb_tree(red, (1,))
        other = replace(red, layout=default_layout(CnfFormula(1, ((-1, -1, -1),))))
        with pytest.raises(MalformedTreeError, match="does not satisfy the formula"):
            extract_assignment_from_tree(other, tree)

    def test_unsat_formula_has_no_tree(self):
        lay = default_layout(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
        red = reduce_sat_to_sbst(lay)
        assert brute_force_sbst_exists(red.graph) is None

    def test_agrees_with_sat_oracle_on_random_layouts(self):
        for seed in range(8):
            lay = random_cnf_layout(2, 2, seed)
            red = reduce_sat_to_sbst(lay)
            f = lay.formula
            want = brute_force_sat(f.num_vars, f.clauses)
            got = brute_force_sbst_exists(red.graph)
            assert (want is None) == (got is None)
            if got is not None:
                extracted = extract_assignment_from_tree(red, got)
                assert f.satisfied_by(extracted)


class TestReplaceLeaves:
    def test_star(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        out = replace_leaves(g)
        assert out.vertex_count == 4 + 4 * 3
        assert out.edge_count == 3 + 5 * 3
        assert all(out.degree(v) != 1 for v in range(out.vertex_count))
        assert out.edges[: g.edge_count] == g.edges

    def test_leafless_graph_unchanged(self):
        g = cycle(4)
        assert replace_leaves(g) is g

    def test_single_edge(self):
        out = replace_leaves(WeightedGraph(2, [(0, 1, 3)]))
        assert out.vertex_count == 10
        assert out.edge_count == 11
        assert out.degree(0) == out.degree(1) == 2

    def test_preserves_bipartite_and_parity(self):
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        out = replace_leaves(g)
        bipartition_of(out)
        assert out.vertex_count % 2 == 0

    def test_added_edges_carry_no_weight(self):
        g = WeightedGraph(2, [(0, 1, 3)])
        out = replace_leaves(g)
        assert all(w == 0 for _, _, w in out.edges[1:])
