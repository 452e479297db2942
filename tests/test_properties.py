"""Property checks on random connected multigraphs (at most 5 vertices
before loops are subdivided, parallel edges allowed) with n <= 3 particles
(n = 4 for Gal's Euler characteristic on small graphs), including the
arithmetic positions of the stored cells, on the exact
polynomial fit, on the copy permutations of random wedge family members,
on the span check that stops at a generating prefix of supports, on
graph walks against networkx, on the forest path that kernels and Smith
forms of incidence matrices take, on the left-to-right reduction of random
sparse integer matrices, and on two particles on random 3-connected
graphs.  Examples are derandomized, so every run checks the same inputs."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from graphconf import (
    Graph,
    SparseIntMatrix,
    Subgraph,
    SummandSpec,
    betti_numbers,
    build_abrams_oracle,
    build_model,
    class_representative,
    conf_euler,
    dimension_polynomial_check,
    generated_check,
    homology,
    homology_character,
    interval_family,
    kernel_with_coords,
    linalg,
    normalize_loops,
    partitions,
    permutation_action_map,
    pushed_cycle_space,
    realize_family,
    smith_normal_form,
    smooth,
    subcomplex_supported_in,
    support_subgraphs,
    wedge_family,
)
from graphconf.graphs import support_orbits
from graphconf.linalg import (lattice_coords, reduce_left_to_right,
                              smith_diagonalize)
from graphconf.stability import _orbit_span_check

from conftest import (
    from_columns,
    from_dense,
    is_zero,
    kept_boundaries,
    multiply,
    project,
    to_dense,
)
from test_cycle_coordinates import (lattice_span_check, orbit_generators,
                                    whole_lattice)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=100)


@st.composite
def connected_multigraphs(draw, max_vertices=5, max_extra_edges=2):
    """A random tree plus a few extra edges, which may repeat an edge or be
    loops; loops are then subdivided once."""
    nv = draw(st.integers(1, max_vertices))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    vertex = st.integers(0, nv - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=max_extra_edges))
    return normalize_loops(Graph(vertices=tuple(range(nv)), edges=tuple(edges)))


@PROPERTY_SETTINGS
@given(connected_multigraphs(), st.integers(0, 3))
def test_model_and_oracle_agree_integrally(g, n):
    """Both models have the same integral homology, and the Betti loop of
    each gives its presentations' Betti numbers in every degree.  The
    model's presentation with a basis agrees with the basis-free one, its
    projector sends generator i to the unit vector i (free and torsion
    generators alike), and it sends every boundary to zero."""
    model, oracle = build_model(g, n), build_abrams_oracle(g, n)
    qtop = max(model.top_dimension, oracle.top_dimension)
    loops = betti_numbers(model, qtop), betti_numbers(oracle, qtop)
    for q in range(qtop + 1):
        mine = homology(model, q, basis=False)
        theirs = homology(oracle, q, basis=False)
        assert (mine.betti, mine.torsion) == (theirs.betti, theirs.torsion), q
        assert (loops[0][q], loops[1][q]) == (mine.betti, theirs.betti), q
        if q > min(n, 2):
            continue
        pres = homology(model, q)
        assert (pres.betti, pres.torsion) == (mine.betti, mine.torsion), q
        for i, vec in enumerate(pres.generators):
            assert pres.homology_coords(vec) == {i: 1}, q
        for col in model.boundary(q + 1).columns():
            assert project(pres, col) == (0,) * pres.betti, q


@PROPERTY_SETTINGS
@given(connected_multigraphs(), st.integers(0, 3), st.data())
def test_betti_numbers_ignore_vertex_labels(g, n, data):
    labels = data.draw(st.permutations(range(10, 10 + g.n_vertices)))
    rename = dict(zip(g.vertices, labels))
    order = data.draw(st.permutations(g.edges))
    relabelled = Graph(vertices=tuple(labels),
                       edges=tuple((rename[a], rename[b]) for a, b in order))
    assert betti_numbers(build_model(relabelled, n)) == \
        betti_numbers(build_model(g, n))


@PROPERTY_SETTINGS
@given(connected_multigraphs(), st.integers(0, 4))
def test_gal_formula_counts_the_cells_of_both_models(g, n):
    """Gal's χ(Conf_n) equals the alternating cell count of the model, at
    n = 4 on graphs with at most 5 edges, and of the oracle for n <= 3."""
    if n == 4 and g.n_edges > 5:
        n = 3
    assert conf_euler(g, n) == build_model(g, n).euler_characteristic()
    if n <= 3:
        assert conf_euler(g, n) == build_abrams_oracle(g, n).euler_characteristic()


def integral_homology(complex_, n):
    return [(pres.betti, pres.torsion) for pres in
            (homology(complex_, q, basis=False) for q in range(min(n, 2) + 1))]


@PROPERTY_SETTINGS
@given(connected_multigraphs(), st.integers(0, 3), st.data())
def test_smoothing_keeps_integral_homology(g, n, data):
    """Smoothing valence-2 vertices keeps the space, so both models on the
    smoothed graph agree with the model on the literal graph.  One drawn
    edge is bisected first, so every example has a vertex to smooth."""
    if g.n_edges:
        i = data.draw(st.integers(0, g.n_edges - 1))
        (a, b), mid = g.edges[i], max(g.vertices) + 1
        g = Graph(vertices=g.vertices + (mid,),
                  edges=g.edges[:i] + ((a, mid), (mid, b)) + g.edges[i + 1:])
    smoothed = smooth(g)
    literal = integral_homology(build_model(g, n), n)
    assert integral_homology(build_model(smoothed, n), n) == literal
    assert integral_homology(build_abrams_oracle(smoothed, n), n) == literal


@PROPERTY_SETTINGS
@given(connected_multigraphs(), st.integers(2, 3), st.sampled_from((1, 2)),
       st.data())
def test_generator_push_keeps_the_span_verdict(g, n, q, data):
    """Each support's homology generators, pushed in, give the span check
    of its whole pushed cycle lattice: the generators with the support's
    boundaries span its cycles, and im d_(q+1) holds those boundaries.
    Supports hold every vertex and a drawn subset of the edges."""
    model = build_model(g, n)
    pres = homology(model, q, basis=False)
    edge_sets = data.draw(st.lists(
        st.frozensets(st.integers(0, g.n_edges - 1)) if g.n_edges
        else st.just(frozenset()), min_size=1, max_size=3))
    supports = [Subgraph(g, frozenset(g.vertices), edges) for edges in edge_sets]
    pushed, whole = [], []
    for sub in supports:
        ranks = []
        pushed += pushed_cycle_space(model, sub, q, ranks)
        lattice = whole_lattice(model, sub, q)
        assert ranks == [len(lattice)]
        whole += lattice
    assert generated_check(model, q, pushed, presentation=pres) == \
        generated_check(model, q, whole, presentation=pres)


def smith_of_the_whole_image(model, q, cells_of):
    """(betti, torsion, cycle_rank) of H_q on the cells ``cells_of`` picks,
    from the Smith form of every d_(q+1) column in cycle coordinates."""
    cells = cells_of(q)
    rank, _, coords = kernel_with_coords(model.boundary(q, cells=cells))
    where = {c: j for j, c in enumerate(cells)}
    image = [lattice_coords(coords, {where[c]: v for c, v in col.items()})
             for col in model.boundary(q + 1, cells=cells_of(q + 1)).columns()]
    z = len(cells) - rank
    divisors = smith_normal_form(SparseIntMatrix.view(z, image))
    return z - len(divisors), tuple(d for d in divisors if d > 1), z


def test_cleared_presentations_keep_the_smith_form_of_the_whole_image():
    """Presentations leave out the columns of d_(q+1) at unit lowest rows
    of d_(q+2)'s reduction; on random multigraph models with sinks, in
    every degree, of the ambient complex and of one support, with and
    without a basis, they keep the Smith form of the whole image.  Some
    examples clear columns."""
    cleared = set()

    @PROPERTY_SETTINGS
    @given(connected_multigraphs(), st.integers(1, 3), st.data())
    def check(g, n, data):
        sinks = data.draw(st.frozensets(st.sampled_from(g.vertices)))
        model = build_model(g, n, sinks=sorted(sinks))
        edges = data.draw(st.frozensets(st.integers(0, g.n_edges - 1))
                          if g.n_edges else st.just(frozenset()))
        support = subcomplex_supported_in(
            model, Subgraph(g, frozenset(g.vertices), edges))
        ambient = [range(len(cells)) for cells in model.codes]
        top = model.top_dimension
        for q in range(top + 1):
            for cells, given_support in ((ambient, None), (support, support)):
                got = {(pres.betti, pres.torsion, pres.cycle_rank)
                       for pres in (homology(model, q, basis, given_support)
                                    for basis in (False, True))}
                assert not kept_boundaries(model)

                def cells_of(k):
                    return cells[k] if k < len(cells) else []
                assert got == {smith_of_the_whole_image(model, q, cells_of)}, q
                non_units = []
                lowest = reduce_left_to_right(model.boundary(
                    q + 2, cells=cells_of(q + 2)).columns(), non_units)
                cleared.add(q > 0 and len(lowest) > len(non_units))

    check()
    assert cleared == {False, True}


@PROPERTY_SETTINGS
@given(connected_multigraphs(), st.integers(0, 3), st.data())
def test_cell_positions_are_arithmetic(g, n, data):
    """A main-model cell's position, its 0-cell's offset plus its mask's
    rank, is its index in ``codes[q]``, in a model with random sinks: the
    identity automorphism's chain map sends every cell to its own
    position.  A mask of a 0-cell's candidates that is not admissible is
    missing from the 0-cell's rank table.  The oracle's codes come in
    increasing order, as do their location tuples."""
    sinks = data.draw(st.frozensets(st.sampled_from(g.vertices)))
    model = build_model(g, n, sinks=sorted(sinks))
    identity = permutation_action_map(model, {v: v for v in g.vertices},
                                      edge_map=list(range(g.n_edges)))
    for q, codes in enumerate(model.codes):
        assert identity.images(q, range(len(codes))) == list(range(len(codes)))
    cells = {c for codes in model.codes for c in codes}
    tables = model.tables
    for z, moves in enumerate(tables.moves):
        for mask in range(1 << len(moves)):
            code = z << tables.shift | mask
            assert (mask in tables.rank[z]) == (code in cells)
    oracle = build_abrams_oracle(g, n)
    for q, codes in enumerate(oracle.codes):
        keys = oracle.cells[q]
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert all(a < b for a, b in zip(keys, keys[1:]))


def binomial_polynomial(j):
    """Monomial coefficients of binom(x, j) = x (x - 1) ... (x - j + 1) / j!."""
    poly = [Fraction(1)]
    for i in range(j):
        poly = [lo - i * hi for lo, hi in zip([0] + poly, poly + [0])]
    return [c / factorial(j) for c in poly]


@PROPERTY_SETTINGS
@example(weights=[0, 0, 1], start=3, degree_bound=4, holdout=1, shift=1)
@given(weights=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       start=st.integers(0, 30), degree_bound=st.integers(0, 4),
       holdout=st.integers(1, 2),
       shift=st.integers(-5, 5).filter(bool))
def test_fit_recovers_integer_valued_polynomials(weights, start, degree_bound,
                                                 holdout, shift):
    """An integer-valued polynomial of degree <= 4 is an integer
    combination of binom(k, j), j <= 4, so its monomial coefficients may be
    fractions.  Fitted on a consecutive window, its exact coefficients come
    back and every held-out value is predicted; a changed holdout value is
    not."""
    weights = weights[:degree_bound + 1]
    expected = [Fraction(0)] * len(weights)
    for j, w in enumerate(weights):
        for i, c in enumerate(binomial_polynomial(j)):
            expected[i] += w * c
    while len(expected) > 1 and expected[-1] == 0:
        expected.pop()
    window = list(range(start, start + degree_bound + 1 + holdout))
    values = [int(sum(c * k ** i for i, c in enumerate(expected)))
              for k in window]
    result = dimension_polynomial_check(None, 2, 1, window, degree_bound,
                                        betti_values=values)
    assert result["fits"]
    assert result["coefficients"] == [str(c) for c in expected]
    assert result["degree"] == len(expected) - 1
    values[degree_bound + 1] += shift
    assert not dimension_polynomial_check(
        None, 2, 1, window, degree_bound,
        betti_values=values)["fits"]


@st.composite
def wedge_members(draw):
    """A member of a wedge family with one or two coordinates at sizes up to
    3: each summand glues at one vertex or along one edge of the base."""
    base = draw(connected_multigraphs(max_vertices=4))
    specs = []
    for _ in range(draw(st.integers(1, 2))):
        h = draw(connected_multigraphs(max_vertices=4))
        if base.n_edges and h.n_edges and draw(st.booleans()):
            se = draw(st.integers(0, h.n_edges - 1))
            be = draw(st.integers(0, base.n_edges - 1))
            specs.append(SummandSpec(h, h.edges[se], base.edges[be], (se,), (be,)))
        else:
            specs.append(SummandSpec(h, (draw(st.sampled_from(h.vertices)),),
                                     (draw(st.sampled_from(base.vertices)),)))
    sizes = tuple(draw(st.integers(0, 3)) for _ in specs)
    return realize_family(wedge_family(base, specs), sizes)


@PROPERTY_SETTINGS
@given(wedge_members(), st.data())
def test_copy_automorphism_is_a_graph_automorphism(inst, data):
    """A permutation of the copies within each coordinate moves the graph
    onto itself, fixes the base part and carries copy (i, m) onto copy
    perm[i, m]."""
    perm = {}
    for i, k in enumerate(inst.sizes, start=1):
        image = data.draw(st.permutations(range(1, k + 1)))
        perm.update({(i, m): (i, c) for m, c in enumerate(image, start=1)})
    vmap, emap = inst.copy_automorphism(perm)
    g = inst.graph
    assert sorted(vmap) == sorted(vmap.values()) == sorted(g.vertices)
    assert sorted(emap) == sorted(emap.values()) == list(range(g.n_edges))
    for e, (a, b) in enumerate(g.edges):
        assert g.edges[emap[e]] == (vmap[a], vmap[b])
    base_v, base_e = inst.base_part
    assert all(vmap[v] == v for v in base_v)
    assert all(emap[e] == e for e in base_e)
    for src, dst in perm.items():
        (src_v, src_e), (dst_v, dst_e) = inst.copies[src], inst.copies[dst]
        assert all(vmap[src_v[x]] == dst_v[x] for x in src_v)
        assert all(emap[src_e[x]] == dst_e[x] for x in src_e)


@PROPERTY_SETTINGS
@given(wedge_members(), st.data())
def test_support_orbit_maps_reach_every_support(inst, data):
    """The orbit maps carry the representative onto each further support,
    in the order support_subgraphs lists them."""
    degrees = tuple(data.draw(st.integers(0, k)) for k in inst.sizes)
    supports = support_subgraphs(inst, degrees)
    [(rep, maps)] = support_orbits(inst, degrees)
    assert rep == supports[0] and len(maps) == len(supports) - 1
    for (vmap, emap), sub in zip(maps, supports[1:]):
        assert {vmap[v] for v in rep.vertices} == sub.vertices
        assert {emap[e] for e in rep.edges} == sub.edges


def test_lefschetz_numbers_are_euler_characteristics():
    """A permutation g of the k <= 3 copies of a random summand wedged at a
    point onto a random base, at n <= 2: the alternating sum of its traces
    on H_i over every degree 0..top is the Lefschetz number, the Euler
    characteristic of Conf_n of the part g fixes, the member with m_1(g)
    copies (Gal's formula).  H_0 is traced like any degree; some examples
    have a disconnected configuration space."""
    seen = set()

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(connected_multigraphs(max_vertices=3), connected_multigraphs(max_vertices=3),
           st.integers(0, 2), st.integers(1, 3), st.data())
    def check(base, summand, n, k, data):
        family = wedge_family(base, [SummandSpec(
            summand, (data.draw(st.sampled_from(summand.vertices)),),
            (data.draw(st.sampled_from(base.vertices)),))])
        inst = realize_family(family, (k,))
        model = build_model(inst.graph, n)
        presentations = [homology(model, q) for q in range(model.top_dimension + 1)]
        for mu in partitions(k):
            g = class_representative(mu)
            lefschetz = sum((-1) ** q * homology_character(model, pres, inst, g)
                            for q, pres in enumerate(presentations))
            fixed = realize_family(family, (mu.count(1),)).graph
            assert lefschetz == conf_euler(fixed, n), mu
        seen.add(bool(presentations) and presentations[0].betti > 1)

    check()
    assert seen == {False, True}


@st.composite
def interval_members(draw):
    """A member of an interval family at size 1 to 3, its summand a random
    multigraph glued at a drawn vertex of valence at least 2."""
    h = draw(connected_multigraphs(max_vertices=3))
    ends = [v for edge in h.edges for v in edge]
    glue = [v for v in h.vertices if ends.count(v) >= 2]
    assume(glue)
    h = Graph(vertices=h.vertices, edges=h.edges,
              basepoint=draw(st.sampled_from(glue)))
    return realize_family(interval_family(h), (draw(st.integers(1, 3)),))


@pytest.mark.parametrize("members", [wedge_members(), interval_members()],
                         ids=["wedge", "interval"])
def test_stop_early_span_check_keeps_the_lattice_verdict(members):
    """At n = 2, q = 1 and every degree up to the sizes, the span check
    that stops at the first generating prefix of supports gives the
    verdict of all the supports' generators in cycle-lattice coordinates,
    and counts every support's cycle rank and generators.  Both verdicts
    occur."""
    seen = set()

    @settings(PROPERTY_SETTINGS, max_examples=30)
    @given(members)
    def check(inst):
        model = build_model(inst.graph, 2)
        pres = homology(model, 1, basis=False)
        for degrees in product(*(range(k + 1) for k in inst.sizes)):
            orbits = support_orbits(inst, degrees)
            every = [vec for gens in orbit_generators(model, 1, orbits)
                     for vec in gens]
            want = lattice_span_check(pres, every)
            candidates = sum(len(whole_lattice(model, sub, 1))
                             for sub in support_subgraphs(inst, degrees))
            assert _orbit_span_check(model, 1, orbits, pres) == \
                (want, candidates, len(every)), degrees
            seen.add(want.generates_over_Z)

    check()
    assert seen == {True, False}
    # K_2,4 is planar but only 2-connected: b_1 = 11, not 2 * 3 + 1
    k24 = Graph(vertices=tuple(range(6)),
                edges=tuple((i, j) for i in range(2) for j in range(2, 6)))
    assert betti_numbers(build_model(k24, 2))[1] == 11


def to_networkx(g):
    nxg = nx.MultiGraph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    return nxg


@PROPERTY_SETTINGS
@given(st.integers(1, 6).flatmap(lambda nv: st.lists(
    st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=7)
    .map(lambda edges: Graph(vertices=tuple(range(nv)), edges=tuple(edges)))))
def test_connectivity_agrees_with_networkx(g):
    """On multigraphs with loops, connected or not."""
    assert g.is_connected() == nx.is_connected(to_networkx(g))
    assert g.is_tree() == nx.is_tree(to_networkx(g))


@PROPERTY_SETTINGS
@given(connected_multigraphs(max_vertices=8, max_extra_edges=0), st.data())
def test_tree_path_is_the_networkx_shortest_path(tree, data):
    """Edges stored in a drawn order and orientation."""
    order = data.draw(st.permutations(tree.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(order),
                               max_size=len(order)))
    tree = Graph(vertices=tree.vertices, edges=tuple(
        (b, a) if flip else (a, b) for (a, b), flip in zip(order, flips)))
    u, w = (data.draw(st.sampled_from(tree.vertices)) for _ in range(2))
    path = nx.shortest_path(to_networkx(tree), u, w)
    edge_id = {frozenset(e): i for i, e in enumerate(tree.edges)}
    assert tree.tree_path(u, w) == [edge_id[frozenset(step)]
                                    for step in zip(path, path[1:])]


@st.composite
def incidence_matrices(draw, max_vertices=8, max_edges=12):
    """A random networkx multigraph, with isolated vertices, several
    components and parallel edges allowed, and its incidence matrix with a
    random sign on each column; a loop gives a zero column."""
    nv = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from((1, -1))),
                          max_size=max_edges))
    g = nx.MultiGraph()
    g.add_nodes_from(range(nv))
    g.add_edges_from((a, b) for a, b, _ in edges)
    columns = [{a: s, b: -s} if a != b else {} for a, b, s in edges]
    return g, from_columns(nv, columns)


def engine_kernel(matrix):
    """``kernel_with_coords`` by the elimination engine with V tracked.  On
    an incidence matrix the basis restricted to the non-pivot columns is
    their unit vectors, so no triangular block is needed."""
    ncols = matrix.cols
    V = {j: {j: 1} for j in range(ncols)}
    found = linalg._eliminate(
        {j: col for j, col in enumerate(matrix.columns()) if col}, V)
    pivot_cols = {j for _, j, _ in found}
    free = [j for j in range(ncols) if j not in pivot_cols]
    assert all(V[j].get(j) == 1 and all(k == j or k in pivot_cols for k in V[j])
               for j in free)
    return len(found), [V[j] for j in free], ({j: i for i, j in enumerate(free)}, None)


def test_incidence_kernel_is_the_engine_kernel():
    seen = set()

    @PROPERTY_SETTINGS
    @given(incidence_matrices())
    def check(case):
        g, m = case
        assert kernel_with_coords(m) == engine_kernel(m)
        seen.update(feature for feature, present in (
            ("zero column", any(not col for col in m.columns())),
            ("isolated vertex", any(d == 0 for _, d in g.degree())),
            ("components", nx.number_connected_components(g) > 1),
            ("parallel edges", any(g.number_of_edges(a, b) > 1
                                   for a, b in g.edges() if a != b)),
        ) if present)

    check()
    assert seen == {"zero column", "isolated vertex", "components", "parallel edges"}


@PROPERTY_SETTINGS
@given(incidence_matrices())
def test_incidence_smith_form_is_read_off_the_forest(case):
    g, m = case
    pivots, u_rows, uinv_cols = smith_diagonalize(m, track_u=True)
    assert all(d == 1 for *_, d in pivots)
    assert len(pivots) == m.rows - nx.number_connected_components(g)
    for i in range(m.rows):
        row = u_rows.get(i, {i: 1})
        for j in range(m.rows):
            col = uinv_cols.get(j, {j: 1})
            assert sum(v * col.get(k, 0) for k, v in row.items()) == (i == j)
    pivot_rows = {r for r, _, _ in pivots}
    for r in set(range(m.rows)) - pivot_rows:
        row = u_rows.get(r, {r: 1})
        assert all(sum(v * col.get(k, 0) for k, v in row.items()) == 0
                   for col in m.columns())


@PROPERTY_SETTINGS
@given(connected_multigraphs(), st.integers(0, 3))
def test_h0_coordinates_name_the_component(g, n):
    """b_0 counts the components of the model's 1-skeleton, and a 0-cell's
    class is the unit vector of its component: one component when the
    graph has an essential vertex."""
    model = build_model(g, n)
    pres = homology(model, 0)
    skeleton = nx.MultiGraph()
    skeleton.add_nodes_from(range(len(model.codes[0]) if model.codes else 0))
    skeleton.add_edges_from(tuple(col) for col in model.boundary(1).columns())
    components = list(nx.connected_components(skeleton))
    assert pres.betti == len(components) and pres.torsion == ()
    unit = {}
    for i, component in enumerate(components):
        for z in component:
            coords = pres.homology_coords({z: 1})
            assert list(coords.values()) == [1]
            unit.setdefault(i, coords)
            assert coords == unit[i]
    assert len({tuple(c) for c in unit.values()}) == len(components)
    valence = Counter(v for e in g.edges for v in e)
    if max(valence.values(), default=0) >= 3:
        assert pres.betti == 1


sparse_entries = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def sparse_matrices(draw, max_rows=7, max_cols=7):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return from_dense(
        draw(st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)))


@PROPERTY_SETTINGS
@given(sparse_matrices())
def test_left_to_right_rank_is_the_smith_rank(m):
    columns = m.columns()
    saved = [dict(col) for col in columns]
    pivot_rows = reduce_left_to_right(columns)
    assert len(pivot_rows) == len(set(pivot_rows)) == len(smith_normal_form(m))
    assert set(pivot_rows) <= set(range(m.rows))
    assert columns == saved


@PROPERTY_SETTINGS
@given(sparse_matrices(), st.data())
def test_clearing_by_pivot_rows_keeps_the_rank(b, data):
    """A has rows in the left kernel of B, so A B = 0: the columns of A at
    B's pivot rows are dropped without changing A's rank."""
    _, left_kernel, _ = kernel_with_coords(from_dense(
        [list(row) for row in zip(*to_dense(b))]))
    assume(left_kernel)
    a = from_dense([
        [sum(c * y.get(i, 0) for c, y in zip(coeffs, left_kernel))
         for i in range(b.rows)]
        for coeffs in data.draw(st.lists(
            st.lists(sparse_entries, min_size=len(left_kernel),
                     max_size=len(left_kernel)), min_size=1, max_size=6))])
    assert is_zero(multiply(a, b))
    pivot_rows = set(reduce_left_to_right(b.columns()))
    kept = [col for j, col in enumerate(a.columns()) if j not in pivot_rows]
    assert len(reduce_left_to_right(kept)) == len(smith_normal_form(a))


@st.composite
def three_connected_graphs(draw):
    """K_4..K_7 with edges removed, in a drawn order, whenever the graph
    stays 3-connected: random 3-connected simple graphs, planar and not."""
    g = nx.complete_graph(draw(st.integers(4, 7)))
    for e in draw(st.permutations(sorted(g.edges()))):
        g.remove_edge(*e)
        if nx.node_connectivity(g) < 3:
            g.add_edge(*e)
    return g


def test_two_particles_on_3_connected_graphs():
    """b_1(Conf_2 G) = 2 b_1(G) + [G planar] and b_2 = chi - 1 + b_1, with
    b_0 = 1, as measured on 3-connected graphs."""
    seen = set()

    @PROPERTY_SETTINGS
    @given(three_connected_graphs())
    def check(nxg):
        planar = nx.check_planarity(nxg)[0]
        seen.add(planar)
        g = Graph(vertices=tuple(nxg.nodes()), edges=tuple(nxg.edges()))
        b1 = g.n_edges - g.n_vertices + 1
        b = betti_numbers(build_model(g, 2))
        assert b == [1, 2 * b1 + planar, conf_euler(g, 2) - 1 + 2 * b1 + planar]

    check()
    assert seen == {True, False}
    # K_2,4 is planar but only 2-connected: b_1 = 11, not 2 * 5 + 1
    k24 = Graph(vertices=tuple(range(6)),
                edges=tuple((i, j) for i in range(2) for j in range(2, 6)))
    assert betti_numbers(build_model(k24, 2))[1] == 11
