import importlib
import random

import pytest

from graphconf import (
    ChainMap,
    HomologyError,
    betti_numbers,
    build_model,
    generated_check,
    homology,
    homology_generators,
    kernel_with_coords,
    lattice_coords,
    make_cycle_graph,
    make_path_graph,
    make_star,
    permutation_action_map,
    push_cycle,
    rank_of_columns,
    smith_normal_form,
    subcomplex_supported_in,
    wedge,
    Subgraph,
)
from graphconf.linalg import SparseIntMatrix, smith_diagonalize
from conftest import (
    PlantedComplex,
    chain_matrix,
    commutes_with_boundary,
    from_columns,
    full_subgraph,
    homology_matrix,
    is_zero,
    matvec,
    multiply,
    project,
    supported_reference,
    to_dense,
)
from test_cycle_coordinates import lattice_span_check

homology_module = importlib.import_module("graphconf.homology")


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
            coords = project(pres, vec)
            assert coords == tuple(1 if j == i else 0
                                   for j in range(pres.betti))

    def test_basis_vectors_are_cycles(self, star3_model):
        pres = homology(star3_model, 1)
        d1 = star3_model.boundary(1)
        for vec in pres.cycle_basis:
            assert not matvec(d1, vec)


class TestProjection:
    def test_boundaries_project_to_zero(self, star3_model):
        pres = homology(star3_model, 1)
        d2 = star3_model.boundary(2)
        rng = random.Random(0)
        for _ in range(20):
            w = {rng.randrange(d2.cols): rng.randint(-2, 2) for _ in range(3)}
            z = matvec(d2, w)
            assert project(pres, z) == (0,) * pres.betti

    def test_linearity(self, star3_model):
        pres = homology(star3_model, 1)
        d2 = star3_model.boundary(2)
        basis = pres.cycle_basis
        z = dict(basis[0])
        for k, v in matvec(d2, {0: 1, 3: -2}).items():
            z[k] = z.get(k, 0) + v
        z = {k: 2 * v for k, v in z.items() if v}
        assert project(pres, z) == (2,)

    def test_non_cycle_rejected(self, star3_model):
        pres = homology(star3_model, 1)
        with pytest.raises(HomologyError):
            project(pres, {0: 1})

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
        cands = [matvec(d2, {j: 1}) for j in range(4)]
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
    """H_1(support) -> H_1(ambient), read through the support's
    presentation: its basis cycles, projected into the ambient H_1."""

    @staticmethod
    def inclusion(cx, sub_graph):
        inj = subcomplex_supported_in(cx, sub_graph)
        sub_pres = homology(cx, 1, support=inj)
        pres = homology(cx, 1)
        cols = [{i: v for i, v in enumerate(project(pres, z)) if v}
                for z in sub_pres.cycle_basis]
        return sub_pres, from_columns(pres.betti, cols)

    def test_identity_inclusion(self, star3_model):
        _, mat = self.inclusion(star3_model, full_subgraph(star3_model.graph))
        assert to_dense(mat) == [[1]]

    def test_star3_into_star4_is_injective(self):
        amb_graph = wedge(make_star(3), make_path_graph(1))
        cx = build_model(amb_graph, 2)
        sub_graph = Subgraph(amb_graph, frozenset({0, 1, 2, 3}),
                             frozenset({0, 1, 2}))
        sub_pres, mat = self.inclusion(cx, sub_graph)
        assert sub_pres.betti == 1
        assert rank_of_columns(mat.columns()) == 1
        assert len(sub_pres.cycle_basis) == 1

    def test_zero_betti_subcomplex(self, star3_model):
        sub_graph = Subgraph(star3_model.graph, frozenset({0, 1}),
                             frozenset({0}))
        sub_pres, mat = self.inclusion(star3_model, sub_graph)
        assert mat.cols == 0 and sub_pres.cycle_basis == []

    def test_support_rejects_cycles_off_the_support(self):
        star4 = make_star(4)
        cx = build_model(star4, 2)
        three_edges = Subgraph(star4, frozenset({0, 1, 2, 3}),
                               frozenset({0, 1, 2}))
        inj = subcomplex_supported_in(cx, three_edges)
        support_pres = homology(cx, 1, support=inj)
        whole = homology(cx, 1)
        on = [z for z in whole.cycle_basis if set(z) <= set(inj[1])]
        off = [z for z in whole.cycle_basis if z not in on]
        assert (len(on), len(off)) == (1, 4)
        for z in off:
            with pytest.raises(HomologyError):
                project(support_pres, z)
        with pytest.raises(HomologyError):
            generated_check(cx, 1, whole.cycle_basis,
                            presentation=support_pres)
        assert project(support_pres, on[0]) == (1,)


class TestPermutationAction:
    def test_identity_automorphism(self, star3_model):
        cm = permutation_action_map(
            star3_model, {v: v for v in star3_model.graph.vertices})
        for q in range(star3_model.top_dimension + 1):
            mat = chain_matrix(cm, q)
            assert to_dense(mat) == [
                [1 if i == j else 0 for j in range(len(star3_model.cells[q]))]
                for i in range(len(star3_model.cells[q]))]

    def test_commutes_with_boundary(self, star3_model):
        cm = permutation_action_map(star3_model, {0: 0, 1: 2, 2: 1, 3: 3})
        assert commutes_with_boundary(cm)

    def test_leaf_swap_involution_on_homology(self, star3_model):
        pres = homology(star3_model, 1)
        cm = permutation_action_map(star3_model, {0: 0, 1: 2, 2: 1, 3: 3})
        mat = homology_matrix(cm, pres)
        sq = multiply(mat, mat)
        assert to_dense(sq) == [[1]]

    def test_functoriality(self):
        cx = build_model(make_star(4), 2)
        pres = homology(cx, 1)
        sigma = {0: 0, 1: 2, 2: 3, 3: 1, 4: 4}
        tau = {0: 0, 1: 1, 2: 4, 3: 3, 4: 2}
        comp = {v: sigma[tau[v]] for v in sigma}
        m_sigma = homology_matrix(permutation_action_map(cx, sigma), pres)
        m_tau = homology_matrix(permutation_action_map(cx, tau), pres)
        m_comp = homology_matrix(permutation_action_map(cx, comp), pres)
        assert to_dense(multiply(m_sigma, m_tau)) == to_dense(m_comp)

    def test_h0_action_trivial_on_connected(self):
        cx = build_model(make_star(2), 1)
        pres = homology(cx, 0)
        cm = permutation_action_map(cx, {0: 0, 1: 2, 2: 1})
        assert to_dense(homology_matrix(cm, pres)) == [[1]]

    def test_non_automorphism_rejected(self, star3_model):
        with pytest.raises(HomologyError):
            permutation_action_map(star3_model, {0: 1, 1: 0, 2: 2, 3: 3})

    def test_sink_preservation_required(self):
        cx = build_model(make_path_graph(1), 2, sinks=(0,))
        with pytest.raises(HomologyError):
            permutation_action_map(cx, {0: 1, 1: 0})

    def test_push_maps_images_per_call(self, star3_model):
        cm = permutation_action_map(star3_model, {0: 0, 1: 3, 2: 1, 3: 2})
        asked = []
        images = cm.images
        cm.images = lambda q, cells: asked.append((q, sorted(cells))) or \
            images(q, cells)
        a, b = images(1, [0, 4])
        assert cm.push(1, [{0: 1}, {4: 2, 0: -1}]) == [{a: 1}, {b: 2, a: -1}]
        assert asked == [(1, [0, 4])]
        f1 = len(star3_model.cells[1])
        assert cm.push(1, [{i: 1} for i in range(f1)]) == \
            [{j: 1} for j in images(1, range(f1))]
        assert asked[1:] == [(1, list(range(f1)))]
        assert cm.push(1, []) == [] and asked[2:] == []
        assert commutes_with_boundary(cm)

    def test_missing_image_raises_on_first_use(self, star3_model):
        # centre and leaf swapped on the vertices only: a particle moving
        # to the centre now meets the particle parked there
        cm = ChainMap(star3_model, {0: 1, 1: 0, 2: 2, 3: 3},
                      {0: 0, 1: 1, 2: 2}, set())
        cm.push(0, [{0: 1}])
        with pytest.raises(HomologyError):
            cm.push(1, [{i: 1} for i in range(len(star3_model.cells[1]))])
        with pytest.raises(HomologyError):
            chain_matrix(cm, 1)

    def test_trace_maps_only_the_basis_support(self, star3_model):
        pres = homology(star3_model, 1)
        cm = permutation_action_map(star3_model, {0: 0, 1: 3, 2: 1, 3: 2})
        asked = []
        images = cm.images
        cm.images = lambda q, cells: asked.append((q, set(cells))) or \
            images(q, cells)
        trace = cm.homology_trace(pres)
        used = {c for vec in pres.cycle_basis for c in vec}
        assert asked == [(1, used)]
        assert len(used) < len(star3_model.cells[1])
        assert trace == sum(to_dense(homology_matrix(cm, pres))[i][i]
                            for i in range(pres.betti))
        broken = ChainMap(star3_model, {0: 1, 1: 0, 2: 2, 3: 3},
                          {0: 0, 1: 1, 2: 2}, set())
        with pytest.raises(HomologyError):
            broken.homology_trace(pres)

    def test_chain_maps_push_cycles(self, star3_model):
        pres = homology(star3_model, 1)
        cm = permutation_action_map(star3_model, {0: 0, 1: 3, 2: 1, 3: 2})
        [pushed] = cm.push(1, pres.cycle_basis[:1])
        assert not matvec(star3_model.boundary(1), pushed)
        assert any(project(pres, pushed))


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
    return PlantedComplex(cells, [d1, d2])


class TestTorsionPresentation:
    """Smith pivots mixing units and non-units: the free-row projector and
    the basis cycles must still invert each other and kill boundaries."""

    def test_projector_with_mixed_pivots(self):
        rng = random.Random(29)
        for _ in range(6):
            cx = torsion_complex(rng, (2, 1, 3, 1, 4, 6), free=2)
            assert is_zero(multiply(cx.boundary(1), cx.boundary(2)))
            pres = homology(cx, 1)
            assert (pres.betti, pres.torsion) == (2, (2, 6, 12))
            for i, vec in enumerate(pres.cycle_basis):
                assert project(pres, vec) == tuple(int(i == j) for j in range(2))
            for col in cx.boundary(2).columns():
                assert project(pres, col) == (0, 0)
            a = [rng.randint(-3, 3) for _ in range(2)]
            z = {}
            terms = list(zip(a, pres.cycle_basis)) + [
                (rng.randint(-3, 3), col) for col in cx.boundary(2).columns()]
            for coeff, vec in terms:
                for cell, v in vec.items():
                    z[cell] = z.get(cell, 0) + coeff * v
            z = {c: v for c, v in z.items() if v}
            assert project(pres, z) == tuple(a)
            # the trace reads entry i of homology_coords
            for i, vec in enumerate(pres.cycle_basis):
                assert pres.homology_coords(vec) == {i: 1}
            coords = pres.homology_coords(z)
            assert tuple(coords.get(i, 0) for i in range(2)) == tuple(a)

    def test_support_presentation_reads_ambient_columns(self):
        # a support keeping some 2-cells presents the cokernel of their
        # columns alone, as does the complex built from those columns
        rng = random.Random(43)
        torsion_seen = set()
        for _ in range(6):
            cx = torsion_complex(rng, (2, 1, 3, 1, 4, 6), free=2)
            edges = list(range(len(cx.codes[1])))
            for kept in ([0, 1, 2, 3, 4, 5], [0, 2, 4, 5], [1, 3], []):
                support = [[0], edges, kept]
                pres = homology(cx, 1, support=support)
                want = homology(supported_reference(cx, support), 1)
                assert (pres.betti, pres.torsion, pres.cycle_rank) == \
                    (want.betti, want.torsion, want.cycle_rank)
                assert pres.generators == want.generators
                torsion_seen.add(pres.torsion)
            assert pres.betti == 8 and pres.torsion == ()
        assert len(torsion_seen) > 2

    def test_generators_keep_torsion_and_drop_units(self):
        # H_1 = Z^2 + Z/2 + Z/6 + Z/12 from divisors 2, 1, 3, 1, 4, 6:
        # the generators are the two free classes, then one class per
        # divisor above 1, and none at the unit divisors
        rng = random.Random(41)
        for _ in range(6):
            cx = torsion_complex(rng, (2, 1, 3, 1, 4, 6), free=2)
            _, basis, coords = kernel_with_coords(cx.boundary(1))
            image = [lattice_coords(coords, col)
                     for col in cx.boundary(2).columns()]
            pivots, _, uinv_cols = smith_diagonalize(
                SparseIntMatrix.view(len(basis), image), track_u=True)
            pivot_rows = {r for r, _, _ in pivots}
            rows = [r for r in range(len(basis)) if r not in pivot_rows]
            rows += [r for r, _, d in pivots if d > 1]
            gens = homology_generators(basis, rows, uinv_cols)
            assert len(gens) == 2 + 3
            pres = homology(cx, 1)
            assert gens == pres.generators
            assert gens[:2] == pres.cycle_basis
            y = [pres.kernel_coords(vec) for vec in gens]   # all cycles
            boundaries = [pres.kernel_coords(col)
                          for col in cx.boundary(2).columns()]

            def torsion_left(extra):
                divisors = smith_normal_form(from_columns(
                    pres.cycle_rank, boundaries + extra))
                return len(divisors), [d for d in divisors if d > 1]

            # each torsion generator is killed only by its own divisor
            for i, d in zip(range(2, 5), (2, 6, 12)):
                assert project(pres, gens[i]) == (0, 0)
                assert torsion_left([y[i]]) == (
                    pres.cycle_rank - 2, [t for t in (2, 6, 12) if t != d])
            assert torsion_left(y[2:]) == (pres.cycle_rank - 2, [])
            # generators plus boundaries give all of Z_1
            assert torsion_left(y) == (pres.cycle_rank, [])

    def test_span_check_in_homology_coordinates_keeps_the_lattice_verdict(self):
        # H_1 = Z^2 + Z/2 + Z/6 + Z/12: candidate sets that kill none, some
        # or all of the torsion get the verdict of [image | candidates] in
        # Z_1 coordinates, with and without a presentation handed in
        rng = random.Random(47)
        seen = set()
        for _ in range(6):
            cx = torsion_complex(rng, (2, 1, 3, 1, 4, 6), free=2)
            pres = homology(cx, 1)
            g = pres.generators
            boundaries = cx.boundary(2).columns()

            def combo(*terms):
                """An integer combination of cycles, plus random boundaries."""
                z = {}
                terms += tuple((rng.randint(-2, 2), col) for col in boundaries)
                for coeff, vec in terms:
                    for cell, v in vec.items():
                        z[cell] = z.get(cell, 0) + coeff * v
                return {c: v for c, v in z.items() if v}

            candidate_sets = [
                [], g[:2], g[:2] + [g[2]], g[:2] + g[3:],
                g[:2] + [combo((1, g[2]), (1, g[3])), g[4]],
                g[:2] + [g[2], g[3], combo((3, g[4]))],
                g[:2] + [g[2], g[3], combo((5, g[4]))],
                [combo((2, g[0])), g[1]] + g[2:],
                [combo((1, g[0]), (1, g[1])), combo((1, g[0]), (2, g[1]))] + g[2:],
                g, [combo(*((rng.randint(-3, 3), vec) for vec in g))
                    for _ in range(5)],
            ]
            for cands in candidate_sets:
                want = lattice_span_check(pres, cands)
                assert generated_check(cx, 1, cands, presentation=pres) == want
                assert generated_check(cx, 1, cands) == want
                seen.add((want.generates_over_Q, want.generates_over_Z))
            assert lattice_span_check(pres, g).generates_over_Z
        assert seen == {(False, False), (True, False), (True, True)}


def planted_complex(*boundaries):
    """A complex whose boundaries d_1, d_2, ... are the given dense
    matrices; C_0 has as many cells as d_1 has rows."""
    sizes = [len(boundaries[0])] + [len(d[0]) for d in boundaries]
    cells = [[("c", q, i) for i in range(size)] for q, size in enumerate(sizes)]
    return PlantedComplex(cells, boundaries)


class TestClearingOverZ:
    """Column i of d_(q+1) is left out of a presentation when a reduced
    column of d_(q+2) has its lowest entry +-1 at row i: it is then an
    integral combination of earlier columns, so the image lattice stays."""

    @staticmethod
    def smith_columns(monkeypatch):
        seen = []
        real = homology_module.smith_diagonalize
        monkeypatch.setattr(homology_module, "smith_diagonalize",
                            lambda m, **kw: seen.append(m.cols) or real(m, **kw))
        return seen

    def test_a_non_unit_lowest_entry_clears_nothing(self, monkeypatch):
        # d_2 = [2 1] kills H_1 = Z; d_3 = (-1, 2)^T reduces to its lowest
        # entry 2 at row 1, and leaving out the column 1 there would give Z/2
        cx = planted_complex([[0]], [[2, 1]], [[-1], [2]])
        seen = self.smith_columns(monkeypatch)
        for basis in (False, True):
            pres = homology(cx, 1, basis=basis)
            assert (pres.betti, pres.torsion, pres.cycle_rank) == (0, (), 1)
        assert seen == [2, 2]

    def test_a_unit_lowest_entry_clears_its_column(self, monkeypatch):
        # column 2 = column 0 + column 1 of d_2, and d_3 = (1, 1, -1)^T says
        # so with the unit -1 at row 2: H_1 = Z/2 from two image columns
        d1, d2 = [[0, 0]], [[1, 0, 1], [0, 2, 2]]
        cx = planted_complex(d1, d2, [[1], [1], [-1]])
        uncleared = planted_complex(d1, d2)
        seen = self.smith_columns(monkeypatch)
        for basis in (False, True):
            pres, want = homology(cx, 1, basis=basis), homology(uncleared, 1, basis=basis)
            assert (pres.betti, pres.torsion, pres.cycle_rank) == (0, (2,), 2)
            assert (want.betti, want.torsion, want.cycle_rank) == (0, (2,), 2)
            assert pres.generators == want.generators
            assert pres._projector == want._projector
            for col in cx.boundary(2).columns():
                assert pres.homology_coords(col) in ({}, {0: 2}, {0: -2})
        assert seen == [2, 3, 2, 3]
