"""Named instances and seeded random generators."""

import pytest

from treematch import bipartition_of, is_hamiltonian_cycle
from treematch.generate import (
    CUBE_HAMILTONIAN_CYCLE,
    circular_ladder,
    circular_ladder_hamiltonian_cycle,
    complete,
    complete_bipartite,
    complete_bipartite_hamiltonian_cycle,
    cube,
    cycle,
    default_rotation,
    petersen,
    random_bipartite,
    random_cnf_layout,
    random_graph,
)


class TestNamedGraphs:
    def test_complete(self):
        g = complete(5, weight=3)
        assert g.vertex_count == 5
        assert g.edge_count == 10
        assert all(w == 3 for _, _, w in g.edges)

    def test_complete_needs_a_vertex(self):
        with pytest.raises(ValueError):
            complete(0)

    def test_complete_bipartite_sides(self):
        g = complete_bipartite(2, 3)
        assert g.edge_count == 6
        assert bipartition_of(g) == (0, 0, 1, 1, 1)

    @pytest.mark.parametrize("a, b", [(0, 3), (3, 0)])
    def test_complete_bipartite_needs_both_sides(self, a, b):
        with pytest.raises(ValueError, match="at least one vertex per side"):
            complete_bipartite(a, b)

    def test_cycle_weights(self):
        g = cycle(4, [1, 2, 3, 4])
        assert g.edges[g.edge_index(3, 0)][2] == 4
        with pytest.raises(ValueError):
            cycle(4, [1, 2])
        with pytest.raises(ValueError):
            cycle(2)

    def test_cube_is_cubic_bipartite(self):
        g = cube()
        assert all(g.degree(v) == 3 for v in range(8))
        bipartition_of(g)
        assert is_hamiltonian_cycle(g, CUBE_HAMILTONIAN_CYCLE)

    def test_petersen_shape(self):
        g = petersen()
        assert g.vertex_count == 10
        assert g.edge_count == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_circular_ladder(self):
        g = circular_ladder(6)
        assert g.vertex_count == 12
        assert all(g.degree(v) == 3 for v in range(12))
        bipartition_of(g)
        assert is_hamiltonian_cycle(g, circular_ladder_hamiltonian_cycle(6))
        with pytest.raises(ValueError):
            circular_ladder(2)

    def test_complete_bipartite_cycle(self):
        g = complete_bipartite(4, 4)
        assert is_hamiltonian_cycle(g, complete_bipartite_hamiltonian_cycle(4))

    def test_default_rotation_is_sorted(self):
        rot = default_rotation(cube())
        assert all(list(row) == sorted(row) for row in rot.order)


class TestRandomGenerators:
    def test_random_graph_deterministic_per_seed(self):
        a = random_graph(12, 0.4, 9, weight_range=(1, 9))
        b = random_graph(12, 0.4, 9, weight_range=(1, 9))
        c = random_graph(12, 0.4, 10, weight_range=(1, 9))
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_random_graph_extremes(self):
        assert random_graph(6, 0.0, 1).edge_count == 0
        assert random_graph(6, 1.0, 1).edge_count == 15

    def test_random_graph_validation(self):
        with pytest.raises(ValueError):
            random_graph(5, 1.5, 0)
        with pytest.raises(ValueError):
            random_graph(5, 0.5, 0, weight_range=(3, 2))

    def test_random_bipartite_respects_sides(self):
        g = random_bipartite(4, 5, 0.7, 3)
        assert g.vertex_count == 9
        assert all(u < 4 <= v for u, v, _ in g.edges)
        assert random_bipartite(4, 5, 0.7, 3).edges == g.edges

    def test_random_bipartite_validation(self):
        with pytest.raises(ValueError, match="edge probability"):
            random_bipartite(2, 2, -0.1, 0)
        with pytest.raises(ValueError, match="empty weight range"):
            random_bipartite(2, 2, 0.5, 0, weight_range=(3, 2))

    def test_random_cnf_layout_deterministic_and_valid(self):
        a = random_cnf_layout(4, 5, 11)
        b = random_cnf_layout(4, 5, 11)
        assert a == b
        assert len(a.formula.clauses) == 5
        # Three distinct variables per clause once enough exist.
        for cl in a.formula.clauses:
            assert len({abs(l) for l in cl}) == 3

    def test_random_cnf_layout_small_variable_pool(self):
        lay = random_cnf_layout(1, 3, 2)
        assert all(abs(l) == 1 for cl in lay.formula.clauses for l in cl)

    def test_random_cnf_layout_validation(self):
        with pytest.raises(ValueError):
            random_cnf_layout(0, 3, 1)
