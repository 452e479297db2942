"""The discretized oracle's subdivision: the Prue-Scrimshaw rule, the
conditions it guarantees, agreement with Abrams' n+1 subdivision, and the
integral cross-check against the combinatorial model."""

import random

import networkx as nx
import pytest

from graphconf import (
    Graph,
    betti_numbers,
    build_abrams_oracle,
    build_model,
    homology,
    make_star,
    normalize_loops,
    oracle_betti_numbers,
    subdivide,
)
from graphconf.complexes import (ORACLE_KIND, CubeComplex,
                                 _oracle_cells_by_dim, oracle_subdivision)

from conftest import corpus_graphs
from test_extra_properties import random_connected_graph


PARALLEL = Graph(vertices=(0, 1, 2), edges=((0, 1), (1, 0), (1, 2)))
LOOP = Graph(vertices=(0, 1), edges=((0, 1), (1, 1)))
TWO_CYCLE = Graph(vertices=(0, 1), edges=((0, 1), (0, 1)))


def discretized_betti(graph, n, pieces, qmax):
    """Betti numbers of the discretized model with every edge of ``graph``
    cut into ``pieces`` edges."""
    fine = subdivide(graph, pieces)
    cx = CubeComplex(fine, n, frozenset(), ORACLE_KIND,
                     _oracle_cells_by_dim(fine, n))
    return betti_numbers(cx, qmax)


def random_multigraphs(seed, count):
    """Seeded connected graphs with parallel edges; loops normalized."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_connected_graph(rng, rng.randint(2, 4), rng.randint(1, 3))
        ends = {frozenset(e) for e in g.edges}
        if len(ends) < g.n_edges <= 6:
            out.append(g)
    return out


def shortest_cycle(mg):
    """Edges in the shortest cycle of a networkx multigraph (None if a
    forest): one edge plus the shortest path joining its ends without it."""
    best = None
    for u, v, key in list(mg.edges(keys=True)):
        if u == v:
            return 1
        mg.remove_edge(u, v, key)
        try:
            length = 1 + nx.shortest_path_length(mg, u, v)
        except nx.NetworkXNoPath:
            length = None
        mg.add_edge(u, v, key)
        if length is not None and (best is None or length < best):
            best = length
    return best


def essential_distance(mg):
    """Fewest edges on a path between distinct vertices of degree != 2."""
    essential = [v for v in mg if mg.degree(v) != 2]
    best = None
    for v in essential:
        dist = nx.single_source_shortest_path_length(mg, v)
        for w in essential:
            if w != v and w in dist and (best is None or dist[w] < best):
                best = dist[w]
    return best


class TestSubdivisionRule:
    @pytest.mark.parametrize("graph,expected", [
        (make_star(3), [1, 1, 1, 2, 3, 4]),
        (PARALLEL, [1, 1, 2, 2, 3, 4]),
        (LOOP, [1, 2, 3, 4, 5, 6]),
    ], ids=["simple", "parallel", "loop"])
    def test_pinned_values(self, graph, expected):
        assert [oracle_subdivision(graph, n) for n in range(6)] == expected

    def test_oracle_uses_the_rule(self):
        for g, n in ((make_star(3), 3), (PARALLEL, 2), (LOOP, 1)):
            fine = build_abrams_oracle(g, n).graph
            assert fine == subdivide(g, oracle_subdivision(g, n))

    def test_fine_graphs_meet_prue_scrimshaw_conditions(self):
        for name, g in corpus_graphs().items():
            for n in (1, 2, 3):
                fine = subdivide(g, oracle_subdivision(g, n))
                mg = nx.MultiGraph()
                mg.add_nodes_from(fine.vertices)
                mg.add_edges_from(fine.edges)
                girth = shortest_cycle(mg)
                assert girth is None or girth >= n + 1, (name, n, girth)
                apart = essential_distance(mg)
                assert apart is None or apart >= n - 1, (name, n, apart)


class TestAgainstAbramsSubdivision:
    """The n+1 subdivision of Abrams' theorem gives the same Betti numbers."""

    @pytest.mark.parametrize("name", ["star3", "h_graph", "cycle3",
                                      "circle_family_2"])
    def test_named_graphs(self, name):
        graph = corpus_graphs()[name]
        for n in (1, 2, 3):
            qmax = min(n, 2)
            assert oracle_betti_numbers(graph, n, qmax) == \
                discretized_betti(graph, n, n + 1, qmax), (name, n)

    def test_random_multigraphs(self):
        for trial, g in enumerate(random_multigraphs(509, 8)):
            for n in (1, 2, 3):
                qmax = min(n, 2)
                assert oracle_betti_numbers(g, n, qmax) == \
                    discretized_betti(g, n, n + 1, qmax), (trial, g.edges, n)

    def test_loop_graph_matches_normalized_model(self):
        for n in (1, 2):
            model = betti_numbers(build_model(normalize_loops(LOOP), n), n)
            assert oracle_betti_numbers(LOOP, n, n) == model
            assert discretized_betti(LOOP, n, n + 1, n) == model


class TestTooCoarseDisagrees:
    """One piece per edge is too coarse; the cross-check must notice."""

    def test_star3_three_particles(self):
        model = betti_numbers(build_model(make_star(3), 3), 2)
        coarse = discretized_betti(make_star(3), 3, 1, 2)
        assert model == [1, 13, 0]
        assert coarse != model

    def test_two_cycle_two_particles(self):
        model = betti_numbers(build_model(TWO_CYCLE, 2), 2)
        assert model == [1, 1, 0]
        assert discretized_betti(TWO_CYCLE, 2, 1, 2) != model
        assert oracle_betti_numbers(TWO_CYCLE, 2, 2) == model


INTEGRAL_CORPUS = ("star3", "h_graph", "cycle3", "star3_wedge_interval",
                   "interval_family_1", "circle_family_1", "circle_family_2")


@pytest.mark.parametrize("name", INTEGRAL_CORPUS)
def test_integral_homology_matches_oracle(name):
    """Betti number and torsion of H_q agree between the two models."""
    graph = corpus_graphs()[name]
    for n in (2, 3):
        model = build_model(graph, n)
        oracle = build_abrams_oracle(graph, n)
        for q in range(min(n, 2) + 1):
            a = homology(model, q, basis=False)
            b = homology(oracle, q, basis=False)
            assert (a.betti, a.torsion) == (b.betti, b.torsion), (name, n, q)
