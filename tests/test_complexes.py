import time
from array import array
from itertools import combinations, product

import pytest

from graphconf import (
    BudgetExceeded,
    ModelError,
    build_abrams_oracle,
    build_model,
    betti_numbers,
    homology,
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
from graphconf.complexes import _code_store
from conftest import (
    boundary_square_is_zero,
    full_subgraph,
    is_zero,
    kept_boundaries,
    supported_reference,
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


def model_key_fault(key, graph, n, sinks):
    """Why a main-model cell key breaks the cell rules, or None: every
    particle is placed once, moves on one axis from its edge's extremal
    slot, and no non-sink vertex holds or receives more than one particle."""
    vertex_occupancy, edge_tuples, moves = key
    placed = [p for _, ps in vertex_occupancy + edge_tuples for p in ps]
    if sorted(placed) != list(range(1, n + 1)):
        return "a particle is missing or placed twice"
    movers = [p for p, _, _ in moves]
    if len(set(movers)) != len(movers):
        return "a particle moves along two axes"
    on_edge = dict(edge_tuples)
    crowd = {v: len(ps) for v, ps in vertex_occupancy}
    for p, e, end in moves:
        slots = on_edge.get(e, ())
        if not slots or slots[0 if end == 0 else -1] != p:
            return "a mover is not at its edge's extremal slot"
        target = graph.endpoint(e, end)
        crowd[target] = crowd.get(target, 0) + 1
    if any(k > 1 for v, k in crowd.items() if v not in sinks):
        return "a non-sink vertex is crowded"
    return None


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
        for n, sinks in ((2, ()), (3, ()), (3, (0,))):
            cx = build_model(star3, n, sinks=sinks)
            for q in range(cx.top_dimension + 1):
                for key in cx.cells[q]:
                    assert model_key_fault(key, star3, n, sinks) is None, key
        # the validator itself rejects each kind of bad key (star3, n = 2)
        good = (((1, (1,)),), ((1, (2,)),), ((2, 1, 0),))
        assert model_key_fault(good, star3, 2, ()) is None
        for bad in (
            (((1, (1,)),), ((1, (1,)),), ()),
            ((), ((0, (1,)), (1, (2,))), ((1, 0, 0), (1, 0, 1))),
            ((), ((0, (1, 2)),), ((1, 0, 1),)),
            (((1, (1, 2)),), (), ()),
            (((0, (1,)),), ((1, (2,)),), ((2, 1, 0),)),
        ):
            assert model_key_fault(bad, star3, 2, ()), bad
        crowded_sink = (((0, (1,)),), ((1, (2,)),), ((2, 1, 0),))
        assert model_key_fault(crowded_sink, star3, 2, (0,)) is None

    def test_boundary_squares_to_zero(self, star3, h_graph):
        for g, n in ((star3, 2), (star3, 3), (h_graph, 2)):
            assert boundary_square_is_zero(build_model(g, n))

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

    def test_budget_stops_the_zero_cell_count(self, star3):
        # star3 has 1,733,760 0-cells at n = 7: the budget must stop the
        # listing, not wait for it
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            build_model(star3, 7, budget=10)
        assert time.perf_counter() - started < 0.5


class TestCodeWidth:
    """Codes live in 64-bit arrays only when the largest possible code fits:
    ``budget << 2n`` in the model, L^n in the oracle."""

    def test_store_follows_the_largest_code(self):
        assert isinstance(_code_store(1 << 63), array)
        assert type(_code_store((1 << 63) + 1)) is list
        assert type(_code_store(None)) is list

    def test_raised_budget_keeps_wide_codes_in_lists(self, star3):
        narrow = build_model(star3, 2)
        wide = build_model(star3, 2, budget=1 << 62)
        assert all(isinstance(cs, array) for cs in narrow.codes)
        assert all(type(cs) is list for cs in wide.codes)
        assert wide.cells == narrow.cells
        for q in range(1, wide.top_dimension + 1):
            assert wide.boundary(q).columns() == narrow.boundary(q).columns()
        assert betti_numbers(build_model(star3, 2, budget=None)) == \
            betti_numbers(narrow) == [1, 1, 0]


class TestOracle:
    def test_star3_betti(self, star3):
        cx = build_abrams_oracle(star3, 2)
        assert cx.kind == "abrams-oracle"
        assert betti_numbers(cx, 2) == [1, 1, 0]
        assert boundary_square_is_zero(cx)

    def test_interval_orderings(self, interval):
        cx = build_abrams_oracle(interval, 2)
        assert betti_numbers(cx, 1) == [2, 0]

    def test_cycle_two_particles(self, triangle):
        cx = build_abrams_oracle(triangle, 2)
        assert betti_numbers(cx, 1) == [1, 1]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            oracle_betti_numbers(make_star(3), 3, budget=100)

    def test_disconnected_rejected(self):
        two_points = Graph(vertices=(0, 1), edges=())
        with pytest.raises(ModelError):
            oracle_betti_numbers(two_points, 2)

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


class TestBoundaryPath:
    """Both models assemble boundaries in ``CubeComplex.boundary``, afresh
    on every call; the Betti loop asks for each one without the previous
    pivot rows."""

    @pytest.mark.parametrize("build", [build_model, build_abrams_oracle])
    def test_dropped_rows_are_left_out(self, star3, build):
        cx = build(star3, 2)
        for q in range(1, cx.top_dimension + 1):
            full = cx.boundary(q)
            dropped = set(range(0, full.rows, 3))
            pruned = cx.boundary(q, dropped)
            assert (pruned.rows, pruned.cols) == (full.rows, full.cols)
            assert pruned.columns() == [
                {r: v for r, v in col.items() if r not in dropped}
                for col in full.columns()]
            again = cx.boundary(q)
            assert again is not full and again.columns() == full.columns()

    @pytest.mark.parametrize("build", [build_model, build_abrams_oracle])
    def test_selected_columns_are_served_or_assembled_unkept(self, star3, build):
        cx = build(star3, 2)
        for q in range(0, cx.top_dimension + 2):
            cells = list(range(len(cx.codes[q]) if q <= cx.top_dimension else 0))
            cells = cells[1::2] + cells[::2]
            part = cx.boundary(q, cells=cells)
            full = cx.boundary(q)
            assert (part.rows, part.cols) == (full.rows, len(cells))
            assert part.columns() == [full.columns()[j] for j in cells]
            again = cx.boundary(q, cells=iter(cells))
            assert again is not part and again.columns() == part.columns()

    @pytest.mark.parametrize("build", [build_model, build_abrams_oracle])
    def test_empty_boundaries_have_their_shapes(self, star3, build):
        cx = build(star3, 2)
        top = cx.top_dimension
        for q in (-1, 0, top + 1, top + 2):
            zero = cx.boundary(q)
            assert is_zero(zero) and cx.boundary(q) is not zero
        assert (cx.boundary(-1).rows, cx.boundary(-1).cols) == (0, 0)
        assert (cx.boundary(0).rows, cx.boundary(0).cols) == (0, len(cx.codes[0]))
        assert (cx.boundary(top + 1).rows, cx.boundary(top + 1).cols) == \
            (len(cx.codes[-1]), 0)
        assert (cx.boundary(top + 2).rows, cx.boundary(top + 2).cols) == (0, 0)

    @pytest.mark.parametrize("build", [build_model, build_abrams_oracle])
    def test_betti_loop_leaves_no_memo(self, h_graph, build):
        cx = build(h_graph, 2)
        assert betti_numbers(cx) == [1, 3, 0]
        assert boundary_square_is_zero(cx)
        assert not kept_boundaries(cx)


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

    @pytest.mark.parametrize("name,n,expected", [
        ("K5", 2, [1, 12, 1]), ("K5", 3, [1, 18, 167]),
        ("K33", 2, [1, 8, 1]), ("K33", 3, [1, 12, 41]),
    ])
    def test_nonplanar_graphs(self, name, n, expected):
        if name == "K5":
            g = Graph(vertices=tuple(range(5)),
                      edges=tuple(combinations(range(5), 2)))
        else:
            g = Graph(vertices=tuple(range(6)),
                      edges=tuple((i, j) for i in range(3) for j in range(3, 6)))
        cx = build_model(g, n)
        assert betti_numbers(cx, 2) == expected
        assert homology(cx, 1, basis=False).torsion == ()
        assert oracle_betti_numbers(g, n, 2) == expected

    def test_subdivision_invariance(self, star3, triangle):
        for g in (star3, triangle):
            b1 = betti_numbers(build_model(g, 2), 2)
            b2 = betti_numbers(build_model(subdivide(g, 2), 2), 2)
            assert b1 == b2


class TestSubcomplex:
    """A support is the injection of its cells' positions, degree by
    degree up to the last nonempty one."""

    def test_whole_graph_identity(self, star3):
        cx = build_model(star3, 2)
        inj = subcomplex_supported_in(cx, full_subgraph(star3))
        assert inj == [list(range(len(codes))) for codes in cx.codes]

    def test_single_edge_support_is_interval_model(self, star3, interval):
        cx = build_model(star3, 2)
        sub_graph = Subgraph(star3, frozenset({0, 1}), frozenset({0}))
        inj = subcomplex_supported_in(cx, sub_graph)
        assert [len(level) for level in inj] == build_model(interval, 2).f_vector()
        assert len(inj[0]) == 8
        # exactly the cells with every particle on vertex 0, 1 or edge 0
        for q, keys in enumerate(cx.cells):
            assert (inj[q] if q < len(inj) else []) == [
                i for i, (vocc, eocc, _) in enumerate(keys)
                if {v for v, _ in vocc} <= {0, 1} and {e for e, _ in eocc} <= {0}]
        # closed under faces: every face of a supported cell is supported
        assert boundary_square_is_zero(supported_reference(cx, inj))

    def test_vertices_only_support(self, star3):
        cx = build_model(star3, 2)
        sub_graph = Subgraph(star3, frozenset({1, 2, 3}), frozenset())
        inj = subcomplex_supported_in(cx, sub_graph)
        assert [len(level) for level in inj] == [6]

    def test_wrong_parent_rejected(self, star3, h_graph):
        cx = build_model(star3, 2)
        with pytest.raises(Exception):
            subcomplex_supported_in(cx, full_subgraph(h_graph))
