import random

import pytest

from graphconf import (
    ChainMap,
    HomologyError,
    betti_numbers,
    build_model,
    full_subgraph,
    generated_check,
    homology,
    induced_inclusion_map,
    make_cycle_graph,
    make_path_graph,
    make_star,
    permutation_action_map,
    push_cycle,
    rank_of_columns,
    subcomplex_supported_in,
    wedge,
    Subgraph,
)
from graphconf.complexes import MODEL_KIND, CubeComplex
from graphconf.linalg import SparseIntMatrix


@pytest.fixture(scope="module")
def figure_complex():
    return build_model(make_path_graph(1), 2, sinks=(0, 1))


@pytest.fixture(scope="module")
def star3_model():
    return build_model(make_star(3), 2)


class TestHomology:
    def test_sink_circle(self, figure_complex):
        pres = homology(figure_complex, 1)
        assert pres.betti == 1
        assert pres.torsion == ()
        assert homology(figure_complex, 0).betti == 1

    def test_interval_components(self, interval):
        cx = build_model(interval, 3)
        assert homology(cx, 0).betti == 6

    def test_one_particle_is_the_graph(self, triangle):
        cx = build_model(triangle, 1)
        assert homology(cx, 1).betti == 1

    def test_above_top_dimension(self, star3_model):
        pres = homology(star3_model, 5)
        assert pres.betti == 0 and pres.torsion == ()

    def test_betti_alternating_sum_is_euler(self, star3_model, h_graph):
        for cx in (star3_model, build_model(h_graph, 2)):
            b = betti_numbers(cx)
            chi = sum((-1) ** q * v for q, v in enumerate(b))
            assert chi == cx.euler_characteristic()

    def test_presentation_betti_matches_rank_route(self, h_graph, triangle):
        # two independent eliminations: the plain rational-rank route and
        # the normal-form route behind the presentation must agree
        for g, n in ((h_graph, 2), (triangle, 2), (make_star(4), 2)):
            cx = build_model(g, n)
            by_rank = betti_numbers(cx)
            for q, expected in enumerate(by_rank):
                assert homology(cx, q, basis=False).betti == expected

    def test_cycle_basis_projects_to_units(self, star3_model):
        pres = homology(star3_model, 1)
        for i, vec in enumerate(pres.cycle_basis):
            coords = pres.project(vec)
            assert coords == tuple(1 if j == i else 0
                                   for j in range(pres.betti))

    def test_basis_vectors_are_cycles(self, star3_model):
        pres = homology(star3_model, 1)
        d1 = star3_model.boundary(1)
        for vec in pres.cycle_basis:
            assert not d1.apply(vec)


class TestProjection:
    def test_boundaries_project_to_zero(self, star3_model):
        pres = homology(star3_model, 1)
        d2 = star3_model.boundary(2)
        rng = random.Random(0)
        for _ in range(20):
            w = {rng.randrange(d2.cols): rng.randint(-2, 2) for _ in range(3)}
            z = d2.apply(w)
            assert pres.project(z) == (0,) * pres.betti

    def test_linearity(self, star3_model):
        pres = homology(star3_model, 1)
        d2 = star3_model.boundary(2)
        basis = pres.cycle_basis
        z = dict(basis[0])
        for k, v in d2.apply({0: 1, 3: -2}).items():
            z[k] = z.get(k, 0) + v
        z = {k: 2 * v for k, v in z.items() if v}
        assert pres.project(z) == (2,)

    def test_non_cycle_rejected(self, star3_model):
        pres = homology(star3_model, 1)
        with pytest.raises(HomologyError):
            pres.project({0: 1})

    def test_coordinate_is_one_entry_of_project(self, star3_model):
        rng = random.Random(3)
        for cx in (star3_model, build_model(make_star(4), 2)):
            pres = homology(cx, 1)
            d2 = cx.boundary(2)
            vectors = list(pres.cycle_basis)
            for _ in range(10):
                z = {}
                for vec in pres.cycle_basis:
                    c = rng.randint(-3, 3)
                    for cell, v in vec.items():
                        z[cell] = z.get(cell, 0) + c * v
                w = {rng.randrange(d2.cols): rng.randint(-2, 2) for _ in range(3)}
                for cell, v in d2.apply(w).items():
                    z[cell] = z.get(cell, 0) + v
                vectors.append({c: v for c, v in z.items() if v})
            for z in vectors:
                assert tuple(pres.coordinate(z, i)
                             for i in range(pres.betti)) == pres.project(z)

    def test_coordinate_non_cycle_rejected(self, star3_model):
        pres = homology(star3_model, 1)
        with pytest.raises(HomologyError):
            pres.coordinate({0: 1}, 0)

    def test_basis_free_presentation_guarded(self, star3_model):
        from graphconf import permutation_action_map
        pres = homology(star3_model, 1, basis=False)
        cm = permutation_action_map(
            star3_model, {v: v for v in star3_model.graph.vertices})
        with pytest.raises(HomologyError):
            cm.homology_trace(pres)


class TestGeneratedCheck:
    def test_basis_generates(self, star3_model):
        pres = homology(star3_model, 1)
        res = generated_check(star3_model, 1, pres.cycle_basis)
        assert res.generates_over_Q and res.generates_over_Z
        assert res.missing_rank == 0

    def test_empty_candidates(self, star3_model):
        res = generated_check(star3_model, 1, [])
        assert not res.generates_over_Q and not res.generates_over_Z
        assert res.missing_rank == 1

    def test_boundaries_only(self, star3_model):
        d2 = star3_model.boundary(2)
        cands = [d2.apply({j: 1}) for j in range(4)]
        res = generated_check(star3_model, 1, cands)
        assert not res.generates_over_Q
        assert res.missing_rank == 1

    def test_z_implies_q(self, star3_model, h_graph):
        pres = homology(star3_model, 1)
        res = generated_check(star3_model, 1, pres.cycle_basis)
        assert (not res.generates_over_Z) or res.generates_over_Q

    def test_doubled_basis_fails_over_z(self, star3_model):
        pres = homology(star3_model, 1)
        doubled = [{k: 2 * v for k, v in vec.items()}
                   for vec in pres.cycle_basis]
        res = generated_check(star3_model, 1, doubled)
        assert res.generates_over_Q and not res.generates_over_Z

    def test_non_cycle_rejected(self, star3_model):
        with pytest.raises(HomologyError):
            generated_check(star3_model, 1, [{0: 1}])


class TestInducedInclusion:
    def test_identity_inclusion(self, star3_model):
        sub, inj = subcomplex_supported_in(
            star3_model, full_subgraph(star3_model.graph))
        mat, pushed = induced_inclusion_map(sub, inj, star3_model, 1)
        assert mat.to_dense() == [[1]]

    def test_star3_into_star4_is_injective(self):
        amb_graph = wedge(make_star(3), make_path_graph(1))
        cx = build_model(amb_graph, 2)
        sub_graph = Subgraph(amb_graph, frozenset({0, 1, 2, 3}),
                             frozenset({0, 1, 2}))
        sub, inj = subcomplex_supported_in(cx, sub_graph)
        assert homology(sub, 1).betti == 1
        mat, pushed = induced_inclusion_map(sub, inj, cx, 1)
        assert rank_of_columns(mat.columns()) == 1
        assert len(pushed) == 1

    def test_zero_betti_subcomplex(self, star3_model):
        sub_graph = Subgraph(star3_model.graph, frozenset({0, 1}),
                             frozenset({0}))
        sub, inj = subcomplex_supported_in(star3_model, sub_graph)
        mat, pushed = induced_inclusion_map(sub, inj, star3_model, 1)
        assert mat.cols == 0 and pushed == []


class TestPermutationAction:
    def test_identity_automorphism(self, star3_model):
        cm = permutation_action_map(
            star3_model, {v: v for v in star3_model.graph.vertices})
        for q in range(star3_model.top_dimension + 1):
            mat = cm.matrix(q)
            assert mat.to_dense() == [
                [1 if i == j else 0 for j in range(len(star3_model.cells[q]))]
                for i in range(len(star3_model.cells[q]))]

    def test_commutes_with_boundary(self, star3_model):
        cm = permutation_action_map(star3_model, {0: 0, 1: 2, 2: 1, 3: 3})
        assert cm.commutes_with_boundary()

    def test_leaf_swap_involution_on_homology(self, star3_model):
        pres = homology(star3_model, 1)
        cm = permutation_action_map(star3_model, {0: 0, 1: 2, 2: 1, 3: 3})
        mat = cm.homology_matrix(pres)
        sq = mat.multiply(mat)
        assert sq.to_dense() == [[1]]

    def test_functoriality(self):
        cx = build_model(make_star(4), 2)
        pres = homology(cx, 1)
        sigma = {0: 0, 1: 2, 2: 3, 3: 1, 4: 4}
        tau = {0: 0, 1: 1, 2: 4, 3: 3, 4: 2}
        comp = {v: sigma[tau[v]] for v in sigma}
        m_sigma = permutation_action_map(cx, sigma).homology_matrix(pres)
        m_tau = permutation_action_map(cx, tau).homology_matrix(pres)
        m_comp = permutation_action_map(cx, comp).homology_matrix(pres)
        assert m_sigma.multiply(m_tau).to_dense() == m_comp.to_dense()

    def test_h0_action_trivial_on_connected(self):
        cx = build_model(make_star(2), 1)
        pres = homology(cx, 0)
        cm = permutation_action_map(cx, {0: 0, 1: 2, 2: 1})
        assert cm.homology_matrix(pres).to_dense() == [[1]]

    def test_non_automorphism_rejected(self, star3_model):
        with pytest.raises(HomologyError):
            permutation_action_map(star3_model, {0: 1, 1: 0, 2: 2, 3: 3})

    def test_sink_preservation_required(self):
        cx = build_model(make_path_graph(1), 2, sinks=(0,))
        with pytest.raises(HomologyError):
            permutation_action_map(cx, {0: 1, 1: 0})

    def test_image_tables_built_per_degree(self, star3_model):
        cm = permutation_action_map(star3_model, {0: 0, 1: 3, 2: 1, 3: 2})
        degrees = range(len(star3_model.cells))
        assert [len(t) for t in cm._images] == [0 for _ in degrees]
        cm.apply(1, {0: 1})
        assert [bool(t) for t in cm._images] == [q == 1 for q in degrees]
        assert cm._images[1] == cm.images(1, range(len(star3_model.cells[1])))
        assert cm.images(1, [4, 0]) == [cm._images[1][4], cm._images[1][0]]
        assert cm.commutes_with_boundary()
        assert all(len(t) == len(star3_model.cells[q])
                   for q, t in enumerate(cm._images))

    def test_missing_image_raises_on_first_use(self, star3_model):
        # centre and leaf swapped on the vertices only: a particle moving
        # to the centre now meets the particle parked there
        cm = ChainMap(star3_model, {0: 1, 1: 0, 2: 2, 3: 3},
                      {0: 0, 1: 1, 2: 2}, set())
        cm.apply(0, {0: 1})
        with pytest.raises(HomologyError):
            cm.matrix(1)

    def test_trace_maps_only_the_basis_support(self, star3_model):
        pres = homology(star3_model, 1)
        cm = permutation_action_map(star3_model, {0: 0, 1: 3, 2: 1, 3: 2})
        trace = cm.homology_trace(pres)
        assert not any(cm._images)
        assert trace == sum(cm.homology_matrix(pres).to_dense()[i][i]
                            for i in range(pres.betti))
        broken = ChainMap(star3_model, {0: 1, 1: 0, 2: 2, 3: 3},
                          {0: 0, 1: 1, 2: 2}, set())
        with pytest.raises(HomologyError):
            broken.homology_trace(pres)

    def test_chain_maps_push_cycles(self, star3_model):
        pres = homology(star3_model, 1)
        cm = permutation_action_map(star3_model, {0: 0, 1: 3, 2: 1, 3: 2})
        vec = pres.cycle_basis[0]
        pushed = cm.apply(1, vec)
        assert not star3_model.boundary(1).apply(pushed)
        assert any(pres.project(pushed))


def test_push_cycle_reindexes():
    assert push_cycle({0: 2, 3: -1}, [5, 6, 7, 8]) == {5: 2, 8: -1}


def test_oracle_model_independence_small():
    from graphconf import oracle_betti_numbers
    for g, n in ((make_path_graph(2), 2), (make_cycle_graph(4), 2)):
        assert betti_numbers(build_model(g, n), 2) == \
            oracle_betti_numbers(g, n, 2)


def torsion_complex(rng, diag, free, steps=15):
    """Chain complex Z^k -> Z^(k+free+1) -> Z, k = len(diag), whose H_1 is
    Z^free plus the cyclic groups Z/d, written in a basis of C_1 scrambled
    by random elementary operations (and C_2 by random column operations)."""
    k = len(diag)
    n1 = k + free + 1
    d2 = [[diag[j] if i == j else 0 for j in range(k)] for i in range(n1)]
    d1 = [[0] * (n1 - 1) + [1]]
    for _ in range(steps):
        c = rng.choice((-2, -1, 1, 2))
        i, j = rng.sample(range(n1), 2)
        # new C_1 basis: d2 <- E d2 and d1 <- d1 E^-1, E = I + c e_i e_j^T
        d2[i] = [a + c * b for a, b in zip(d2[i], d2[j])]
        d1[0][j] -= c * d1[0][i]
        a, b = rng.sample(range(k), 2)
        for row in d2:
            row[a] += c * row[b]
    cells = [[("v",)], [("e", i) for i in range(n1)], [("f", j) for j in range(k)]]
    cx = CubeComplex(make_path_graph(1), 1, (), MODEL_KIND, cells)
    cx._boundaries = {1: SparseIntMatrix.from_dense(d1),
                      2: SparseIntMatrix.from_dense(d2)}
    return cx


class TestTorsionPresentation:
    """Smith pivots mixing units and non-units: the free-row projector and
    the basis cycles must still invert each other and kill boundaries."""

    def test_projector_with_mixed_pivots(self):
        rng = random.Random(29)
        for _ in range(6):
            cx = torsion_complex(rng, (2, 1, 3, 1, 4, 6), free=2)
            assert cx.boundary(1).multiply(cx.boundary(2)).is_zero()
            pres = homology(cx, 1)
            assert (pres.betti, pres.torsion) == (2, (2, 6, 12))
            for i, vec in enumerate(pres.cycle_basis):
                assert pres.project(vec) == tuple(int(i == j) for j in range(2))
            for col in cx.boundary(2).columns():
                assert pres.project(col) == (0, 0)
            a = [rng.randint(-3, 3) for _ in range(2)]
            z = {}
            terms = list(zip(a, pres.cycle_basis)) + [
                (rng.randint(-3, 3), col) for col in cx.boundary(2).columns()]
            for coeff, vec in terms:
                for cell, v in vec.items():
                    z[cell] = z.get(cell, 0) + coeff * v
            z = {c: v for c, v in z.items() if v}
            assert pres.project(z) == tuple(a)
            for vec in pres.cycle_basis + [z]:
                assert tuple(pres.coordinate(vec, i) for i in range(2)) == \
                    pres.project(vec)
