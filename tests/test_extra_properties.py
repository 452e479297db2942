"""Cross-cutting property checks beyond the per-module suites: randomized
model/oracle agreement, automorphisms that reverse edge orientations, sink
variants, and two-coordinate families."""

import random
from itertools import combinations, islice

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from graphconf import (
    Graph,
    ModelError,
    SummandSpec,
    betti_numbers,
    build_abrams_oracle,
    build_model,
    generation_degree_check,
    homology,
    make_cycle_graph,
    make_path_graph,
    make_star,
    normalize_loops,
    oracle_betti_numbers,
    permutation_action_map,
    realize_family,
    smooth,
    subdivide,
    wedge_family,
)
from graphconf.linalg import rank_of_columns

from conftest import (
    boundary_square_is_zero,
    commutes_with_boundary,
    homology_matrix,
    multiply,
    to_dense,
)


def random_connected_graph(rng, n_vertices, extra_edges):
    """Random tree plus a few extra edges (loops possible, then normalized)."""
    edges = []
    for v in range(1, n_vertices):
        edges.append((rng.randrange(v), v))
    for _ in range(extra_edges):
        a = rng.randrange(n_vertices)
        b = rng.randrange(n_vertices)
        edges.append((a, b))
    g = Graph(vertices=tuple(range(n_vertices)), edges=tuple(edges))
    return normalize_loops(g)


def random_simple_graph(rng, n_vertices):
    """Random tree plus random further edges, with no loop or repeated
    edge, each edge oriented at random."""
    edges = {(rng.randrange(v), v) for v in range(1, n_vertices)}
    edges |= {pair for pair in combinations(range(n_vertices), 2)
              if rng.random() < 0.3}
    edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in sorted(edges)]
    return Graph(vertices=tuple(range(n_vertices)), edges=tuple(edges))


class TestRandomizedAgreement:
    def test_random_graphs_agree_with_oracle(self):
        rng = random.Random(42)
        for trial in range(12):
            g = random_connected_graph(rng, rng.randint(2, 5),
                                       rng.randint(0, 2))
            n = rng.randint(1, 2)
            qmax = min(n, 2)
            model = betti_numbers(build_model(g, n), qmax)
            oracle = oracle_betti_numbers(g, n, qmax)
            assert model == oracle, (trial, g.edges, n, model, oracle)

    def test_random_graphs_satisfy_dd_zero(self):
        rng = random.Random(7)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(2, 5),
                                       rng.randint(0, 2))
            assert boundary_square_is_zero(build_model(g, 2))


def unpruned_betti(complex_, qmax):
    """f_q - rank d_q - rank d_(q+1) from the full boundary matrices."""
    top = complex_.top_dimension

    def rk(q):
        if not 1 <= q <= top:
            return 0
        return rank_of_columns([dict(c) for c in complex_.boundary(q).columns()])

    return [len(complex_.cells[q]) - rk(q) - rk(q + 1) if q <= top else 0
            for q in range(qmax + 1)]


class TestPrunedBetti:
    """The Betti loop drops the rows the previous boundary pivoted on; the
    answers must equal those of the unpruned ranks."""

    def test_random_graphs_match_unpruned_ranks(self):
        rng = random.Random(2026)
        for trial in range(30):
            g = random_connected_graph(rng, rng.randint(2, 5),
                                       rng.randint(0, 3))
            n = rng.randint(0, 2)
            qmax = rng.randint(0, n + 2)
            sinks = [v for v in g.vertices if rng.random() < 0.3]
            model = build_model(g, n, sinks)
            oracle = build_abrams_oracle(g, n)
            context = (trial, g.edges, n, qmax, sinks)
            assert betti_numbers(model, qmax) == unpruned_betti(model, qmax), context
            assert oracle_betti_numbers(g, n, qmax) == \
                unpruned_betti(oracle, qmax), context
            assert betti_numbers(model) == \
                unpruned_betti(model, model.top_dimension), context
            assert oracle_betti_numbers(g, n) == \
                unpruned_betti(oracle, oracle.top_dimension), context

    def test_qmax_beyond_top_dimension_pads_with_zeros(self):
        g = make_cycle_graph(3)
        model = build_model(g, 1)
        assert model.top_dimension == 1
        assert betti_numbers(model, 4) == [1, 1, 0, 0, 0]
        assert oracle_betti_numbers(g, 1, 4) == [1, 1, 0, 0, 0]

    def test_no_particles(self):
        g = make_star(3)
        assert betti_numbers(build_model(g, 0)) == [1]
        assert betti_numbers(build_model(g, 0), 2) == [1, 0, 0]
        assert oracle_betti_numbers(g, 0) == [1]
        assert oracle_betti_numbers(g, 0, 2) == [1, 0, 0]


class TestReversedEdgeAutomorphism:
    def test_triangle_reflection(self):
        cx = build_model(make_cycle_graph(3), 2)
        pres = homology(cx, 1)
        # the reflection fixing vertex 0 maps edge (0,1) onto edge (2,0)
        # against its stored orientation
        cm = permutation_action_map(cx, {0: 0, 1: 2, 2: 1})
        assert cm.reversed_edges
        assert commutes_with_boundary(cm)
        mat = homology_matrix(cm, pres)
        assert to_dense(multiply(mat, mat)) == [
            [1 if i == j else 0 for j in range(pres.betti)]
            for i in range(pres.betti)]

    def test_square_rotation_preserves_orientation(self):
        cx = build_model(make_cycle_graph(4), 2)
        cm = permutation_action_map(cx, {0: 1, 1: 2, 2: 3, 3: 0})
        assert not cm.reversed_edges
        assert commutes_with_boundary(cm)

    def test_reflection_action_has_unit_determinant_square(self):
        cx = build_model(make_cycle_graph(4), 2)
        pres = homology(cx, 1)
        cm = permutation_action_map(cx, {0: 0, 1: 3, 2: 2, 3: 1})
        assert commutes_with_boundary(cm)
        mat = homology_matrix(cm, pres)
        assert to_dense(multiply(mat, mat)) == [
            [1 if i == j else 0 for j in range(pres.betti)]
            for i in range(pres.betti)]


class TestNetworkxAutomorphisms:
    def test_chain_maps_commute_with_boundary(self):
        # up to 6 automorphisms of each graph, as networkx lists them
        rng = random.Random(11)
        for trial in range(60):
            g = random_simple_graph(rng, rng.randint(3, 6))
            cx = build_model(g, 2)
            nxg = nx.Graph(list(g.edges))
            for iso in islice(GraphMatcher(nxg, nxg).isomorphisms_iter(), 6):
                cm = permutation_action_map(cx, iso)
                assert commutes_with_boundary(cm), (trial, g.edges, iso)


class TestSinkVariants:
    def test_subdivision_and_smoothing_keep_betti_numbers(self):
        # qmax = n: without it the list runs to the model's top dimension,
        # which subdivision changes.  Graphs at n = 3 are kept smaller:
        # sinks and subdivision put about 90,000 cells in a model of a
        # 6-edge graph.
        rng = random.Random(31)
        for trial in range(150):
            n = rng.randint(1, 3)
            g = random_connected_graph(rng, rng.randint(2, 5 if n < 3 else 4),
                                       rng.randint(0, 2 if n < 3 else 1))
            sinks = [v for v in g.vertices if rng.random() < 0.3]
            want = betti_numbers(build_model(g, n, sinks), n)
            for other in (subdivide(g, 2), smooth(g, sinks)):
                assert betti_numbers(build_model(other, n, sinks), n) == want, \
                    (trial, g.edges, n, sinks)
    def test_one_sink_interval_is_contractible(self):
        cx = build_model(make_path_graph(1), 2, sinks=(0,))
        assert betti_numbers(cx) == [1, 0, 0]
        assert boundary_square_is_zero(cx)

    def test_one_sink_interval_three_particles(self):
        cx = build_model(make_path_graph(1), 3, sinks=(0,))
        assert betti_numbers(cx)[0] == 1
        assert boundary_square_is_zero(cx)

    def test_all_sinks_star(self):
        g = make_star(3)
        cx = build_model(g, 2, sinks=tuple(g.vertices))
        assert boundary_square_is_zero(cx)
        assert betti_numbers(cx)[0] == 1

    def test_circle_with_one_sink_connected(self):
        cx = build_model(make_cycle_graph(3), 2, sinks=(0,))
        b = betti_numbers(cx)
        assert b[0] == 1
        assert boundary_square_is_zero(cx)

    def test_sinks_never_remove_cells(self):
        g = make_star(3)
        plain = build_model(g, 2)
        sunk = build_model(g, 2, sinks=(0,))
        for q in range(plain.top_dimension + 1):
            assert set(plain.cells[q]) <= set(sunk.cells[q])


class TestErrors:
    def test_disconnected_graph_rejected(self):
        g = Graph(vertices=(0, 1, 2, 3), edges=((0, 1), (2, 3)))
        with pytest.raises(ModelError):
            build_model(g, 1)

    def test_sink_outside_graph_rejected(self):
        with pytest.raises(ModelError):
            build_model(make_star(3), 1, sinks=(9,))


@pytest.fixture(scope="module")
def two_leg_family():
    point = Graph(vertices=(0,), edges=(), basepoint=0)
    interval = make_path_graph(1)
    return wedge_family(point, [
        SummandSpec(interval, (0,), (0,)),
        SummandSpec(interval, (0,), (0,)),
    ])


@pytest.fixture(scope="module")
def reports():
    from graphconf import SummandSpec, character_report, homology, wedge_family
    point = Graph(vertices=(0,), edges=(), basepoint=0)
    fam = wedge_family(point, [SummandSpec(make_cycle_graph(3), (0,), (0,))])
    out = []
    for k in (3, 4, 5, 6):
        inst = realize_family(fam, (k,))
        cx = build_model(inst.graph, 2)
        out.append(character_report(cx, homology(cx, 1), inst))
    return fam, out


class TestTriangleWedgeStability:
    """Wedging triangles onto a point: a summand with a loop class, richer
    than the interval family.  Values frozen from exact runs."""

    def test_betti_growth_is_quadratic(self, reports):
        from graphconf import dimension_polynomial_check
        fam, reps = reports
        assert [r.betti for r in reps] == [19, 37, 61, 91]
        fit = dimension_polynomial_check(fam, 2, 1, [3, 4, 5, 6], 2,
                                         betti_values=[r.betti for r in reps])
        assert fit["fits"] and fit["coefficients"] == ["1", "-3", "3"]

    def test_multiplicities_stabilize_from_four(self, reports):
        from graphconf import stability_verdict
        _, reps = reports
        for rep in reps[1:]:
            assert dict(rep.multiplicities) == {
                (): 4, (1,): 6, (1, 1): 3, (2,): 3}
        verdict = stability_verdict(reps[1:])
        assert verdict["stable"]

    def test_unpaddable_row_is_excluded_not_failed(self, reports):
        from graphconf import stability_verdict
        _, reps = reports
        verdict = stability_verdict(reps[:3])   # window 3..5
        assert (2,) in verdict["excluded"]      # (k-2, 2) is no partition at k=3
        assert verdict["stable"]


class TestTwoCoordinateFamilies:
    def test_realization_is_a_star(self, two_leg_family):
        inst = realize_family(two_leg_family, (2, 3))
        assert inst.graph.valence(0) == 5
        assert set(inst.copies) == {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)}
        owned = [e for _, emap in inst.copies.values() for e in emap.values()]
        # each copy owns one edge, and together they own every edge
        assert all(len(emap) == 1 for _, emap in inst.copies.values())
        assert sorted(owned) == list(range(inst.graph.n_edges))

    def test_componentwise_generation(self, two_leg_family):
        rep = generation_degree_check(two_leg_family, 2, 1, 2, (3, 3),
                                      search_d_min=False)
        assert rep.degree == (2, 2)
        assert rep.generates_over_Z
        assert rep.asserted_bound == 4    # trees in every coordinate

    def test_low_degree_fails_componentwise(self, two_leg_family):
        rep = generation_degree_check(two_leg_family, 2, 1, 1, (3, 3),
                                      search_d_min=False)
        assert not rep.generates_over_Z

    def test_support_count_is_product_of_binomials(self, two_leg_family):
        from math import comb
        from graphconf import support_subgraphs
        inst = realize_family(two_leg_family, (2, 3))
        subs = support_subgraphs(inst, (1, 2))
        assert len(subs) == comb(2, 1) * comb(3, 2)
