from itertools import product

import pytest

from graphconf import (
    BudgetExceeded,
    Graph,
    SparseIntMatrix,
    SummandSpec,
    StabilityError,
    build_model,
    dimension_polynomial_check,
    generated_check,
    generation_degree_check,
    h_cycle,
    homology,
    interval_family,
    make_cycle_graph,
    make_h_graph,
    make_path_graph,
    make_spider,
    make_star,
    product_cycle,
    realize_family,
    smith_normal_form,
    star_cycle,
    subcomplex_supported_in,
    support_subgraphs,
    verify_tree_generators,
    wedge_family,
)
from graphconf.graphs import support_orbits
from graphconf.linalg import rank_of_columns
from graphconf.stability import _degree_candidates, pushed_cycle_space


@pytest.fixture(scope="module")
def star3_model():
    return build_model(make_star(3), 2)


class TestStarCycle:
    def test_hexagon_generates(self, star3_model):
        cyc = star_cycle(star3_model, 0, (0, 1, 2), 1, 2)
        assert cyc.chain.is_cycle()
        assert len(cyc.chain.coeffs) == 12
        res = generated_check(star3_model, 1, [cyc.class_vector()])
        assert res.generates_over_Z

    def test_swapping_movers_negates(self, star3_model):
        pres = homology(star3_model, 1)
        a = star_cycle(star3_model, 0, (0, 1, 2), 1, 2)
        b = star_cycle(star3_model, 0, (0, 1, 2), 2, 1)
        ca = pres.project(a.class_vector())
        cb = pres.project(b.class_vector())
        assert ca == tuple(-v for v in cb)
        assert any(ca)

    def test_third_particle_parked(self):
        cx = build_model(make_star(3), 3)
        pres = homology(cx, 1)
        cyc = star_cycle(cx, 0, (0, 1, 2), 1, 2)
        assert cyc.chain.is_cycle()
        assert set(cyc.parking) == {3}
        assert any(pres.project(cyc.class_vector()))

    def test_low_valence_rejected(self, star3_model):
        with pytest.raises(StabilityError):
            star_cycle(star3_model, 1, (0, 1, 2), 1, 2)

    def test_occupied_parking_rejected(self):
        cx = build_model(make_star(3), 3)
        with pytest.raises(StabilityError):
            star_cycle(cx, 0, (0, 1, 2), 1, 2, parking={3: 0})


class TestHCycle:
    def test_h_graph_class_is_nonzero(self):
        cx = build_model(make_h_graph(), 2)
        pres = homology(cx, 1)
        cyc = h_cycle(cx, 0, 1, 1, 2)
        assert cyc.chain.is_cycle()
        assert any(pres.project(cyc.class_vector()))

    def test_independent_of_star_classes(self):
        cx = build_model(make_h_graph(), 2)
        pres = homology(cx, 1)
        sv = star_cycle(cx, 0, (0, 1, 2), 1, 2)
        sw = star_cycle(cx, 1, (0, 3, 4), 1, 2)
        hc = h_cycle(cx, 0, 1, 1, 2)
        cols = []
        for c in (sv, sw, hc):
            pr = pres.project(c.class_vector())
            cols.append({i: v for i, v in enumerate(pr) if v})
        assert rank_of_columns(cols) == 3 == pres.betti

    def test_long_middle_path(self):
        spider = make_spider(2, 2, 2)
        cx = build_model(spider, 2)
        pres = homology(cx, 1)
        centers = spider.essential_vertices()
        cyc = h_cycle(cx, centers[0], centers[1], 1, 2)
        assert cyc.chain.is_cycle()
        assert any(pres.project(cyc.class_vector()))

    def test_equal_vertices_rejected(self):
        cx = build_model(make_h_graph(), 2)
        with pytest.raises(StabilityError):
            h_cycle(cx, 0, 0, 1, 2)

    def test_swap_negates(self):
        cx = build_model(make_h_graph(), 2)
        pres = homology(cx, 1)
        a = h_cycle(cx, 0, 1, 1, 2)
        b = h_cycle(cx, 0, 1, 2, 1)
        assert pres.project(a.class_vector()) == tuple(
            -v for v in pres.project(b.class_vector()))


@pytest.fixture(scope="module")
def double_spider():
    graph = make_spider(2, 2, 3)
    return graph, build_model(graph, 4)


class TestProductCycle:
    def test_single_factor_is_identity(self, star3_model):
        cyc = star_cycle(star3_model, 0, (0, 1, 2), 1, 2)
        prod = product_cycle(star3_model, [cyc])
        assert prod.coeffs == cyc.chain.coeffs

    def test_two_disjoint_stars(self, double_spider):
        graph, cx = double_spider
        v, w = graph.essential_vertices()
        ev = tuple(e for e, _ in graph.incident(v))
        ew = tuple(e for e, _ in graph.incident(w))
        a = star_cycle(cx, v, ev, 1, 2, parking={3: 2, 4: 6})
        b = star_cycle(cx, w, ew, 3, 4, parking={1: 4, 2: 5})
        prod = product_cycle(cx, [a, b])
        assert prod.q == 2
        assert prod.is_cycle()
        assert len(prod.coeffs) == 144
        # the class is nonzero: appending it to the boundary raises the rank
        d3 = cx.boundary(3)
        cols = [dict(c) for c in d3.columns()]
        base_rank = rank_of_columns([dict(c) for c in cols])
        cols.append(dict(prod.coeffs))
        assert rank_of_columns(cols) == base_rank + 1

    def test_overlapping_supports_rejected(self, star3_model):
        a = star_cycle(star3_model, 0, (0, 1, 2), 1, 2)
        with pytest.raises(StabilityError):
            product_cycle(star3_model, [a, a])

    def test_parked_zero_factor(self, double_spider):
        graph, cx = double_spider
        v = graph.essential_vertices()[0]
        ev = tuple(e for e, _ in graph.incident(v))
        a = star_cycle(cx, v, ev, 1, 2, parking={3: 2, 4: 6})
        prod = product_cycle(cx, [a], parking={3: 2, 4: 6})
        assert prod.q == 1
        assert prod.coeffs == a.chain.coeffs


class TestTreeGenerators:
    @pytest.mark.parametrize("make,n,q", [
        (lambda: make_star(3), 2, 1),
        (lambda: make_star(3), 3, 1),
        (lambda: make_star(4), 2, 1),
        (lambda: make_h_graph(), 2, 1),
        (lambda: make_h_graph(), 3, 1),
        (lambda: make_spider(2, 3, 1), 3, 1),
    ])
    def test_generates(self, make, n, q):
        assert verify_tree_generators(make(), n, q)

    def test_interval_vacuous(self):
        assert verify_tree_generators(make_path_graph(1), 3, 1)

    def test_degree_two_vacuous_small(self):
        assert verify_tree_generators(make_star(3), 3, 2)

    def test_non_tree_rejected(self):
        with pytest.raises(StabilityError):
            verify_tree_generators(make_cycle_graph(3), 2, 1)


class TestGenerationDegree:
    def test_star_family_remark_bound(self, star_family):
        rep = generation_degree_check(star_family, 2, 1, 4, 5)
        assert rep.generates_over_Z and rep.generates_over_Q
        assert rep.d_min == 4
        assert rep.asserted_bound == 4    # all trees: 2n
        assert rep.passes_asserted_bound

    def test_star_family_prop_bound(self, star_family):
        rep = generation_degree_check(star_family, 2, 1, 5, 5,
                                      search_d_min=False)
        assert rep.generates_over_Z

    def test_monotone_in_degree(self, star_family):
        rep = generation_degree_check(star_family, 2, 1, 5, 5)
        passing = sorted(d for d, v in rep.per_degree.items()
                         if v.generates_over_Z)
        failing = [d for d, v in rep.per_degree.items()
                   if not v.generates_over_Z]
        if failing and passing:
            assert max(failing) < min(passing)

    def test_interval_family_linear_bound(self, triangle):
        rep = generation_degree_check(interval_family(triangle), 2, 1, 2, 4)
        assert rep.generates_over_Z
        assert rep.asserted_bound == 2
        assert rep.passes_asserted_bound

    def test_whole_window_trivially_generates(self, star_family):
        rep = generation_degree_check(star_family, 2, 1, 5, 5,
                                      search_d_min=False)
        assert rep.generates_over_Z

    def test_equivariance_of_candidates(self, star_family):
        # the candidate pool enumerates every copy subset, so pushing it
        # through a summand permutation cannot change the verdict
        from graphconf import (generated_check, homology,
                               permutation_action_map, support_subgraphs)
        from graphconf.stability import pushed_cycle_space
        inst = realize_family(star_family, (4,))
        model = build_model(inst.graph, 2)
        pres = homology(model, 1, basis=False)
        candidates = []
        for sub in support_subgraphs(inst, (2,)):
            candidates.extend(pushed_cycle_space(model, sub, 1))
        base = generated_check(model, 1, candidates, presentation=pres)
        vmap, emap = inst.summand_automorphism(1, {1: 3, 2: 1, 3: 4, 4: 2})
        cm = permutation_action_map(model, vmap, emap)
        permuted = [cm.apply(1, vec) for vec in candidates]
        moved = generated_check(model, 1, permuted, presentation=pres)
        assert base == moved

    def test_degree_above_window_rejected(self, star_family):
        with pytest.raises(StabilityError):
            generation_degree_check(star_family, 2, 1, 6, 5)

    def test_budget_exceeded(self, star_family):
        with pytest.raises(BudgetExceeded):
            generation_degree_check(star_family, 2, 1, 4, 5, budget=100)

    def test_report_serializes(self, star_family):
        rep = generation_degree_check(star_family, 2, 1, 4, 5)
        data = rep.to_dict()
        assert data["generates_over_Z"] is True
        assert data["f_vector"][0] > 0


def transport_family(name):
    point = Graph(vertices=(0,), edges=(), basepoint=0)
    segment = make_path_graph(1)
    if name == "star":
        return wedge_family(point, [SummandSpec(segment, (0,), (0,))])
    if name == "triangles":
        return wedge_family(point, [SummandSpec(make_cycle_graph(3), (0,), (0,))])
    if name == "pair":
        return wedge_family(point, [SummandSpec(segment, (0,), (0,)),
                                    SummandSpec(segment, (0,), (0,))])
    if name == "subtree":
        return wedge_family(make_path_graph(3), [
            SummandSpec(make_star(3), (0, 1), (1, 2), (0,), (1,))])
    return interval_family(make_cycle_graph(3))


class TestSupportOrbits:
    """Candidates carried from one support per orbit by automorphisms must
    be cycles on their own support, span each support's cycle lattice, and
    give the per-support kernels' span verdicts."""

    @pytest.mark.parametrize("name,n,sizes", [
        ("star", 2, (4,)), ("star", 3, (4,)), ("triangles", 2, (3,)),
        ("pair", 2, (2, 3)), ("subtree", 2, (3,)), ("interval", 2, (3,)),
    ])
    def test_transported_candidates(self, name, n, sizes):
        inst = realize_family(transport_family(name), sizes)
        model = build_model(inst.graph, n)
        pres = homology(model, 1, basis=False)
        verdicts = []
        for degrees in product(*(range(k + 1) for k in sizes)):
            supports = support_subgraphs(inst, degrees)
            orbits = support_orbits(inst, degrees)
            assert sum(1 + len(maps) for _, maps in orbits) == len(supports)
            assert len(orbits) == (len(supports) if name == "interval" else 1)
            moved = _degree_candidates(inst, model, 1, degrees)
            own = [pushed_cycle_space(model, sub, 1) for sub in supports]
            assert len(moved) == sum(len(b) for b in own)
            start = 0
            for sub, basis in zip(supports, own):
                chunk = moved[start:start + len(basis)]
                start += len(basis)
                subcx, inj = subcomplex_supported_in(model, sub)
                if not chunk:
                    continue
                back = {a: i for i, a in enumerate(inj[1])}
                for vec in chunk:
                    assert not model.boundary(1).apply(vec)
                    assert set(vec) <= set(back)
                sub_pres = homology(subcx, 1, basis=False)
                coords = [sub_pres.kernel_coords({back[a]: v for a, v in vec.items()})
                          for vec in chunk]
                divisors = smith_normal_form(
                    SparseIntMatrix.from_columns(sub_pres.cycle_rank, coords))
                assert divisors == [1] * sub_pres.cycle_rank
            got = generated_check(model, 1, moved, presentation=pres)
            want = generated_check(model, 1, [v for b in own for v in b],
                                   presentation=pres)
            assert got == want
            verdicts.append(got.generates_over_Z)
        assert True in verdicts and False in verdicts


class TestPolynomialFit:
    def test_constant_dimensions(self, star_family):
        result = dimension_polynomial_check(
            star_family, 1, 0, [2, 3, 4, 5], 1, 1,
            betti_values=[1, 1, 1, 1])
        assert result["fits"] and result["degree"] == 0

    def test_tree_has_no_loops(self, star_family):
        result = dimension_polynomial_check(
            star_family, 1, 1, [2, 3, 4, 5], 1, 1)
        assert result["fits"]
        assert result["betti"] == [0, 0, 0, 0]
        assert result["coefficients"] == ["0"]

    def test_quadratic_star_growth(self, star_family):
        result = dimension_polynomial_check(star_family, 2, 1,
                                            [3, 4, 5, 6, 7], 3, 1)
        assert result["fits"]
        assert result["degree"] == 2
        assert result["coefficients"] == ["1", "-3", "1"]

    def test_budget_exceeded(self, star_family):
        with pytest.raises(BudgetExceeded):
            dimension_polynomial_check(star_family, 2, 1, [3, 4, 5], 1, 1,
                                       budget=100)

    def test_window_too_short_rejected(self, star_family):
        with pytest.raises(StabilityError):
            dimension_polynomial_check(star_family, 2, 1, [3, 4], 3, 1)

    def test_holdout_mismatch_fails(self, star_family):
        result = dimension_polynomial_check(
            star_family, 2, 1, [1, 2, 3, 4], 1, 1,
            betti_values=[1, 2, 3, 5])
        assert not result["fits"]
