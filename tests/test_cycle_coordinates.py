"""Cycle-lattice coordinates read by restriction to pivot rows, span
checks that push homology generators read off ambient boundary columns, and
tree supports pruned to the maximal ones."""

import copy
import random
from itertools import combinations

import pytest

from graphconf import (
    GeneratedCheck,
    Subgraph,
    build_model,
    generated_check,
    homology,
    kernel_with_coords,
    linalg,
    make_h_graph,
    make_spider,
    make_star,
    permutation_action_map,
    rank_of_columns,
    smith_normal_form,
    subcomplex_supported_in,
)
from graphconf.linalg import SparseIntMatrix
from graphconf.stability import (
    _generator_supports,
    _h_pieces,
    _maximal_supports,
    _star_pieces,
    pushed_cycle_space,
)

from conftest import (
    PlantedComplex,
    corpus_graphs,
    from_columns,
    project,
    supported_reference,
)
from test_extra_properties import random_connected_graph


def complexes():
    """Corpus models at n = 2 (and a few at n = 3), then seeded random
    multigraphs with random sinks at n = 2."""
    corpus = corpus_graphs()
    for name in ("star3", "star4", "h_graph", "cycle3", "cycle4",
                 "star3_wedge_interval", "interval_family_1",
                 "circle_family_1", "circle_family_2"):
        yield name, build_model(corpus[name], 2)
    for name in ("star3", "h_graph", "circle_family_1"):
        yield name + "@3", build_model(corpus[name], 3)
    rng = random.Random(1701)
    for i in range(12):
        g = random_connected_graph(rng, rng.randint(2, 5), rng.randint(0, 3))
        sinks = [v for v in g.vertices if rng.random() < 0.3]
        yield f"random{i}", build_model(g, 2, sinks=sinks)


def reference(cx, q):
    """Betti number and torsion of H_q from ranks and the Smith form of the
    whole d_(q+1): b_q = f_q - rk d_q - rk d_(q+1), and since C_q / Z_q is
    free, the torsion of Z_q / B_q is that of C_q / B_q."""
    rk = rank_of_columns(cx.boundary(q).columns())
    divisors = smith_normal_form(cx.boundary(q + 1))
    return (len(cx.codes[q]) - rk - len(divisors),
            tuple(d for d in divisors if d > 1))


class TestRestrictedCoordinates:
    def test_restriction_is_unimodular_and_agrees_with_reference(self):
        restricted = 0
        for name, cx in complexes():
            for q in range(min(cx.top_dimension, 2) + 1):
                d_q = cx.boundary(q)
                pivots, non_units = [], []
                rank_of_columns(d_q.columns(), pivots, non_units)
                _, basis, _ = kernel_with_coords(d_q)
                if not non_units:
                    restricted += 1
                    free = sorted(set(range(d_q.cols)) - set(pivots))
                    pos = {j: i for i, j in enumerate(free)}
                    square = from_columns(len(free), [
                        {pos[j]: v for j, v in vec.items() if j in pos}
                        for vec in basis])
                    assert smith_normal_form(square) == [1] * len(basis), (name, q)
                want = reference(cx, q)
                for flag in (False, True):
                    pres = homology(cx, q, basis=flag)
                    assert (pres.betti, pres.torsion) == want, (name, q, flag)
                pres = homology(cx, q)
                for i, vec in enumerate(pres.cycle_basis):
                    assert project(pres, vec) == tuple(
                        int(i == j) for j in range(pres.betti)), (name, q)
                for col in cx.boundary(q + 1).columns():
                    assert not any(project(pres, col)), (name, q)
        assert restricted >= 60

    def test_gcd_pivot_takes_the_fallback(self):
        # d_1 = [2 3]: the kernel's first pivot is 2 and a gcd step with the
        # 3 reports it as 1, yet the free column's basis vector (-3, 2) has
        # entry 2 there, so restriction is not the coordinate map.  With it,
        # the boundary (-6, 4) would read as 4 and H_1 as Z/4.
        cells = [[("v",)], [("e", 0), ("e", 1)], [("f",)]]
        cx = PlantedComplex(cells, [[[2, 3]], [[-6], [4]]])
        found = linalg._eliminate({0: {0: 2}, 1: {0: 3}},
                                  V={0: {0: 1}, 1: {1: 1}})
        assert [v for _, _, v in found] == [1]
        assert kernel_with_coords(cx.boundary(1))[2][1] is not None
        non_units = []
        rank_of_columns(cx.boundary(1).columns(), [], non_units)
        assert non_units == [2]
        for flag in (False, True):
            pres = homology(cx, 1, basis=flag)
            assert (pres.betti, pres.torsion) == (0, (2,))
            assert pres._coords[1] is not None, flag
            assert pres.kernel_coords({0: -3, 1: 2}) in ({0: 1}, {0: -1})


def unpruned_supports(tree, q):
    """Every union of q vertex-disjoint pieces, duplicates included."""
    pieces = _star_pieces(tree) + _h_pieces(tree)
    vertices = frozenset(tree.vertices)
    return [Subgraph(tree, vertices, frozenset().union(*(p.edges for p in combo)))
            for combo in combinations(pieces, q)
            if all(not (a.vertices & b.vertices)
                   for a, b in combinations(combo, 2))]


def span(model, q, supports, pres):
    candidates = []
    for sub in supports:
        candidates.extend(pushed_cycle_space(model, sub, q))
    return generated_check(model, q, candidates, presentation=pres)


def lattice_span_check(pres, candidates):
    """The span check by its definition in cycle-lattice coordinates: the
    candidates with im d_(q+1) generate Z_q over Q when [image | candidates]
    has full rank, and over Z when its Smith divisors are all 1 as well."""
    image = pres.complex.boundary(pres.q + 1).columns()
    cols = [pres.kernel_coords(z) for z in [*image, *candidates]]
    divisors = smith_normal_form(SparseIntMatrix.view(pres.cycle_rank, cols))
    missing = pres.cycle_rank - len(divisors)
    return GeneratedCheck(missing == 0,
                          missing == 0 and all(d == 1 for d in divisors),
                          missing)


def orbit_generators(model, q, orbits):
    """Each support's generators, orbit by orbit: the representative's
    own, then their push through each orbit map in turn."""
    per_support = []
    for rep, maps in orbits:
        gens = pushed_cycle_space(model, rep, q)
        per_support.append(gens)
        per_support += [permutation_action_map(model, vmap, emap).push(q, gens)
                        for vmap, emap in maps]
    return per_support


def whole_lattice(model, sub, q):
    """A basis of the support's cycle lattice Z_q, taken with
    ``kernel_with_coords`` on the support's own d_q (``supported_reference``)
    and pushed in."""
    inj = subcomplex_supported_in(model, sub)
    subcx = supported_reference(model, inj)
    if q > subcx.top_dimension or not subcx.cells[q]:
        return []
    return [{inj[q][i]: v for i, v in vec.items()}
            for vec in kernel_with_coords(subcx.boundary(q))[1]]


def check_generates_support(model, sub, q, pushed):
    """``pushed`` are cycles supported on ``sub``, one per nonzero class
    of the Smith form of the support's H_q (free and torsion, no unit
    divisor), and together with the support's own d_(q+1) columns
    (``supported_reference``) they have all-unit Smith divisors in its Z_q
    coordinates.  The presentation of the support read off the ambient
    columns has the reference's Betti number and torsion.  Returns rank
    Z_q."""
    inj = subcomplex_supported_in(model, sub)
    subcx = supported_reference(model, inj)
    pres = homology(model, q, support=inj)
    if q > subcx.top_dimension or not subcx.cells[q]:
        assert pushed == [] and pres.cycle_rank == 0
        return 0
    back = {a: i for i, a in enumerate(inj[q])}
    sub_pres = homology(subcx, q)
    assert (pres.betti, pres.torsion, pres.cycle_rank) == \
        (sub_pres.betti, sub_pres.torsion, sub_pres.cycle_rank)
    assert len(pres.generators) == len(sub_pres.generators)
    assert len(pushed) == sub_pres.betti + len(sub_pres.torsion)
    coords = [sub_pres.kernel_coords({back[a]: v for a, v in vec.items()})
              for vec in pushed]        # raises unless a supported cycle
    image = [sub_pres.kernel_coords(col)
             for col in subcx.boundary(q + 1).columns()]
    divisors = smith_normal_form(from_columns(
        sub_pres.cycle_rank, image + coords))
    assert divisors == [1] * sub_pres.cycle_rank
    return sub_pres.cycle_rank


class TestAmbientPush:
    @pytest.mark.parametrize("make,n,q", [
        (make_star(4), 2, 1), (make_h_graph(), 3, 1),
        (make_spider(2, 3, 1), 2, 1), (make_spider(3, 3, 2), 3, 2),
    ])
    def test_tree_supports(self, make, n, q):
        model = build_model(make, n)
        pres = homology(model, q, basis=False)
        supports = unpruned_supports(make, q)
        assert supports
        pushed, whole = [], []
        for sub in supports:
            pushed += self.check_same_lattice(model, sub, q)
            whole += whole_lattice(model, sub, q)
        got = generated_check(model, q, pushed, presentation=pres)
        assert got == generated_check(model, q, whole, presentation=pres)
        assert got.generates_over_Z

    def test_random_edge_subsets(self):
        rng = random.Random(4242)
        verdicts = []
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 5), rng.randint(0, 2))
            model = build_model(g, 2)
            for _ in range(3):
                edges = frozenset(e for e in range(g.n_edges) if rng.random() < 0.7)
                sub = Subgraph(g, frozenset(g.vertices), edges)
                for q in (1, 2):
                    pres = homology(model, q, basis=False)
                    got = generated_check(model, q,
                                          self.check_same_lattice(model, sub, q),
                                          presentation=pres)
                    assert got == generated_check(
                        model, q, whole_lattice(model, sub, q), presentation=pres)
                    verdicts.append(got.generates_over_Z)
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10

    @staticmethod
    def check_same_lattice(model, sub, q):
        """The ambient-column push generates the support's H_q, and its
        rank out-list reads rank Z_q.  Returns the pushed generators."""
        ranks = []
        pushed = pushed_cycle_space(model, sub, q, ranks)
        assert ranks == [check_generates_support(model, sub, q, pushed)]
        return pushed


class TestMaximalSupports:
    @pytest.mark.parametrize("make,n,q", [
        (make_star(4), 2, 1), (make_h_graph(), 2, 1), (make_h_graph(), 3, 1),
        (make_spider(2, 3, 1), 2, 1), (make_spider(2, 3, 1), 3, 1),
        (make_spider(3, 3, 2), 2, 1), (make_spider(3, 3, 2), 3, 2),
    ])
    def test_pruned_supports_same_verdict(self, make, n, q):
        model = build_model(make, n)
        pres = homology(model, q, basis=False)
        every = unpruned_supports(make, q)
        pruned = _generator_supports(make, q)
        assert len(pruned) < len(every)
        assert set(s.edges for s in pruned) == \
            set(s.edges for s in _maximal_supports(every))
        for a in pruned:
            assert not any(a.edges < b.edges for b in every)
        assert span(model, q, pruned, pres) == span(model, q, every, pres)

    def test_failing_set(self):
        # rotations through exactly three edges of star4 at n=2 span rank 3
        # of b_1 = 5; pruning duplicates leaves that verdict alone
        star4 = make_star(4)
        model = build_model(star4, 2)
        pres = homology(model, 1, basis=False)
        vertices = frozenset(star4.vertices)
        threes = [Subgraph(star4, vertices, p.edges)
                  for p in _star_pieces(star4) if len(p.edges) == 3]
        assert len(threes) == 4
        pruned = _maximal_supports(threes + threes[:2])
        assert sorted(s.edges for s in pruned) == sorted(s.edges for s in threes)
        want = span(model, 1, threes + threes[:2], pres)
        assert not want.generates_over_Q and want.missing_rank == 2
        assert span(model, 1, pruned, pres) == want


class TestSmithInputView:
    def test_repeated_checks_leave_image_columns_intact(self):
        # generated_check reads candidates through the presentation's
        # coordinate map and projector, and the lattice rule reads the
        # image columns through the same map; neither may be written to
        tree = make_spider(2, 3, 1)
        model = build_model(tree, 3)
        pres = homology(model, 1, basis=False)
        saved = copy.deepcopy(pres._coords)
        saved_projector = copy.deepcopy(pres._projector)
        assert saved[0]
        assert sum(map(len, saved_projector.values())) > len(saved_projector)
        supports = _generator_supports(tree, 1)
        first = span(model, 1, supports, pres)
        second = span(model, 1, supports, pres)
        assert first == second and first.generates_over_Z
        candidates = [v for sub in supports
                      for v in pushed_cycle_space(model, sub, 1)]
        assert lattice_span_check(pres, candidates) == first
        assert pres._coords == saved
        assert pres._projector == saved_projector
