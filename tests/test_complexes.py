from itertools import product

import pytest

from graphconf import (
    BudgetExceeded,
    ModelError,
    build_abrams_oracle,
    build_model,
    betti_numbers,
    full_subgraph,
    make_cycle_graph,
    make_h_graph,
    make_path_graph,
    make_star,
    oracle_betti_numbers,
    subcomplex_supported_in,
    subdivide,
    Graph,
    Subgraph,
)


def brute_force_interval_conf2():
    """Independent enumeration of the two-particle interval model's 0-cells:
    each particle sits on a vertex (at most one per vertex) or on the edge,
    where occupants are ordered."""
    cells = set()
    for loc1, loc2 in product(("v0", "v1", "e"), repeat=2):
        if loc1 == loc2 == "e":
            cells.add(("e", (1, 2)))
            cells.add(("e", (2, 1)))
        elif loc1 != loc2:
            cells.add((loc1, loc2))
    return len(cells)


class TestModel:
    def test_figure_counts_with_sinks(self, interval):
        cx = build_model(interval, 2, sinks=(0, 1))
        assert cx.f_vector() == [10, 12, 2]
        assert cx.euler_characteristic() == 0

    def test_interval_two_particles(self, interval):
        assert brute_force_interval_conf2() == 8
        cx = build_model(interval, 2)
        assert cx.f_vector() == [8, 8, 2]
        assert cx.euler_characteristic() == 2

    def test_empty_configuration(self, star3):
        cx = build_model(star3, 0)
        assert cx.f_vector() == [1]
        assert cx.euler_characteristic() == 1

    def test_negative_particles_rejected(self, star3):
        with pytest.raises(ModelError):
            build_model(star3, -1)

    def test_loops_rejected(self):
        loop = Graph(vertices=(0,), edges=((0, 0),))
        with pytest.raises(ModelError):
            build_model(loop, 1)

    def test_cell_validation(self, star3):
        cx = build_model(star3, 2)
        for q in range(cx.top_dimension + 1):
            for cell in cx.cell_objects(q)[:25]:
                assert cell.validate(star3, 2, frozenset())

    def test_boundary_squares_to_zero(self, star3, h_graph):
        for g, n in ((star3, 2), (star3, 3), (h_graph, 2)):
            assert build_model(g, n).boundary_square_is_zero()

    def test_face_incidence_count(self, star3):
        cx = build_model(star3, 3)
        for q in range(1, cx.top_dimension + 1):
            mat = cx.boundary(q)
            for col in mat.columns():
                assert sum(abs(v) for v in col.values()) == 2 * q

    def test_sink_monotonicity(self, star3):
        small = build_model(star3, 2, sinks=(1,))
        big = build_model(star3, 2, sinks=(0, 1))
        for q in range(small.top_dimension + 1):
            assert set(small.cells[q]) <= set(big.cells[q])

    def test_budget(self, star3):
        with pytest.raises(BudgetExceeded):
            build_model(star3, 3, budget=10)


class TestOracle:
    def test_star3_betti(self, star3):
        cx = build_abrams_oracle(star3, 2)
        assert cx.kind == "abrams-oracle"
        assert betti_numbers(cx, 2) == [1, 1, 0]
        assert cx.boundary_square_is_zero()

    def test_interval_orderings(self, interval):
        cx = build_abrams_oracle(interval, 2)
        assert betti_numbers(cx, 1) == [2, 0]

    def test_cycle_two_particles(self, triangle):
        cx = build_abrams_oracle(triangle, 2)
        assert betti_numbers(cx, 1) == [1, 1]

    def test_streamed_matches_full(self, star3, interval):
        for g, n in ((star3, 2), (interval, 3)):
            full = betti_numbers(build_abrams_oracle(g, n), min(n, 2))
            assert oracle_betti_numbers(g, n, min(n, 2)) == full

    def test_cells_match_brute_force(self, star3, triangle, interval):
        # every n-tuple of locations whose closures are pairwise disjoint,
        # by dimension (edge slots), in sorted order
        for g, n in ((star3, 2), (triangle, 2), (interval, 3), (star3, 3)):
            cx = build_abrams_oracle(g, n)
            fine = cx.graph
            nv = fine.n_vertices
            vid = {v: i for i, v in enumerate(fine.vertices)}
            ends = [{vid[a], vid[b]} for a, b in fine.edges]
            by_dim = [[] for _ in range(n + 1)]
            for cell in product(range(nv + fine.n_edges), repeat=n):
                closures = [{loc} if loc < nv else ends[loc - nv] for loc in cell]
                if sum(map(len, closures)) == len(set().union(*closures)):
                    by_dim[sum(loc >= nv for loc in cell)].append(cell)
            while not by_dim[-1]:
                by_dim.pop()
            assert [list(cs) for cs in cx.cells] == by_dim

    def test_zero_particles(self, star3):
        cx = build_abrams_oracle(star3, 0)
        assert cx.f_vector() == [1]


class TestModelAgreement:
    @pytest.mark.parametrize("name,n", [
        ("interval", 2), ("star3", 2), ("cycle3", 2), ("h", 2),
        ("path2", 3), ("cycle4", 2),
    ])
    def test_betti_numbers_agree(self, name, n):
        graphs = {
            "interval": make_path_graph(1),
            "star3": make_star(3),
            "cycle3": make_cycle_graph(3),
            "cycle4": make_cycle_graph(4),
            "h": make_h_graph(),
            "path2": make_path_graph(2),
        }
        g = graphs[name]
        model = betti_numbers(build_model(g, n), min(n, 2))
        oracle = oracle_betti_numbers(g, n, min(n, 2))
        assert model == oracle

    def test_subdivision_invariance(self, star3, triangle):
        for g in (star3, triangle):
            b1 = betti_numbers(build_model(g, 2), 2)
            b2 = betti_numbers(build_model(subdivide(g, 2), 2), 2)
            assert b1 == b2


class TestSubcomplex:
    def test_whole_graph_identity(self, star3):
        cx = build_model(star3, 2)
        sub, inj = subcomplex_supported_in(cx, full_subgraph(star3))
        assert sub.f_vector() == cx.f_vector()
        for q, level in enumerate(inj):
            assert level == list(range(len(cx.cells[q])))

    def test_single_edge_support_is_interval_model(self, star3, interval):
        cx = build_model(star3, 2)
        sub_graph = Subgraph(star3, frozenset({0, 1}), frozenset({0}))
        sub, inj = subcomplex_supported_in(cx, sub_graph)
        assert sub.f_vector() == build_model(interval, 2).f_vector()
        assert sub.f_vector()[0] == 8
        # injection indexes real cells of the ambient complex
        for q, level in enumerate(inj):
            for i, amb in enumerate(level):
                assert cx.cells[q][amb] == sub.cells[q][i]

    def test_vertices_only_support(self, star3):
        cx = build_model(star3, 2)
        sub_graph = Subgraph(star3, frozenset({1, 2, 3}), frozenset())
        sub, _ = subcomplex_supported_in(cx, sub_graph)
        assert sub.top_dimension == 0
        assert sub.f_vector() == [6]

    def test_wrong_parent_rejected(self, star3, h_graph):
        cx = build_model(star3, 2)
        with pytest.raises(Exception):
            subcomplex_supported_in(cx, full_subgraph(h_graph))
