"""Property checks on random connected multigraphs (at most 5 vertices
before loops are subdivided, parallel edges allowed) with n <= 3 particles
(n = 4 for Gal's Euler characteristic on small graphs), and on the exact
polynomial fit.  Examples are derandomized, so every run checks the same
inputs."""

from fractions import Fraction
from math import factorial

from hypothesis import example, given, settings, strategies as st

from graphconf import (
    Graph,
    Subgraph,
    betti_numbers,
    build_abrams_oracle,
    build_model,
    conf_euler,
    dimension_polynomial_check,
    generated_check,
    homology,
    normalize_loops,
    pushed_cycle_space,
    smooth,
)

from test_cycle_coordinates import whole_lattice

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
    model, oracle = build_model(g, n), build_abrams_oracle(g, n)
    for q in range(min(n, 2) + 1):
        mine = homology(model, q, basis=False)
        theirs = homology(oracle, q, basis=False)
        assert (mine.betti, mine.torsion) == (theirs.betti, theirs.torsion), q


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
