import json
from math import comb

import pytest

from graphconf import (
    Graph,
    GraphError,
    SummandSpec,
    circle_family,
    conf_euler,
    glue,
    interval_family,
    make_cycle_graph,
    make_h_graph,
    make_path_graph,
    make_star,
    normalize_loops,
    realize_family,
    smooth,
    subdivide,
    support_subgraphs,
    wedge,
    wedge_family,
)
from conftest import identify_vertices


class TestConstructions:
    def test_star_basic(self):
        g = make_star(3)
        assert g.n_vertices == 4 and g.n_edges == 3
        assert g.valence(0) == 3
        assert g.basepoint == 0

    def test_star_is_interval_for_one_leaf(self):
        g = make_star(1)
        assert g.n_vertices == 2 and g.n_edges == 1

    def test_star_euler_characteristic(self):
        assert make_star(5).euler_characteristic() == 1

    def test_star_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            make_star(0)

    def test_h_graph_valences(self):
        h = make_h_graph()
        assert sorted(h.valence(v) for v in h.vertices) == [1, 1, 1, 1, 3, 3]
        assert h.euler_characteristic() == 1
        assert len(h.essential_vertices()) == 2

    def test_cycle_and_path(self):
        c = make_cycle_graph(3)
        assert c.euler_characteristic() == 0
        assert make_path_graph(1).n_edges == 1
        c4 = make_cycle_graph(4)
        assert (c4.n_vertices, c4.n_edges) == (4, 4)
        with pytest.raises(GraphError):
            make_cycle_graph(2)


class TestGlue:
    def test_wedge_of_intervals_is_star(self):
        g = Graph(vertices=(0,), edges=(), basepoint=0)
        for _ in range(4):
            g = glue(g, make_path_graph(1), {0: 0})
        assert g.n_vertices == 5 and g.n_edges == 4
        assert g.valence(0) == 4

    def test_interval_endpoint_glue(self):
        a = make_path_graph(1)
        b = make_path_graph(1)
        g = glue(a, b, {0: 1})
        assert (g.n_vertices, g.n_edges) == (3, 2)

    def test_counts(self):
        a = make_star(3)
        b = make_star(2)
        g = glue(a, b, {0: 1})
        assert g.n_vertices == a.n_vertices + b.n_vertices - 1
        assert g.n_edges == a.n_edges + b.n_edges

    def test_subtree_glue(self):
        # identify a marked edge of a tripod with the middle edge of a path
        base = make_path_graph(3)
        tripod = make_star(3)
        g = glue(base, tripod, {0: 1, 1: 2}, {0: 1})
        assert g.n_vertices == base.n_vertices + tripod.n_vertices - 2
        assert g.n_edges == base.n_edges + tripod.n_edges - 1
        assert g.is_tree()

    def test_general_subgraph_glue_rejected(self):
        square = make_cycle_graph(4)
        with pytest.raises(GraphError):
            glue(square, make_cycle_graph(4),
                 {0: 0, 1: 1, 2: 2, 3: 3}, {0: 0, 1: 1, 2: 2, 3: 3})

    def test_two_vertex_glue_without_edge_rejected(self):
        with pytest.raises(GraphError):
            glue(make_path_graph(2), make_path_graph(2), {0: 0, 2: 2})

    def test_wedge_uses_basepoints(self):
        g = wedge(make_star(3), make_path_graph(1))
        assert g.valence(0) == 4

    def test_self_glue_closes_a_path_into_a_circle(self):
        g = identify_vertices(make_path_graph(2), 0, 2)
        assert (g.n_vertices, g.n_edges) == (2, 2)
        assert not g.has_loops()
        # homeomorphic to the circle: one particle sees b0 = b1 = 1
        from graphconf import betti_numbers, build_model
        assert betti_numbers(build_model(g, 1), 1) == [1, 1]

    def test_self_glue_of_adjacent_vertices_normalizes(self):
        g = identify_vertices(make_path_graph(1), 0, 1)
        assert g.has_loops()
        assert not normalize_loops(g).has_loops()


class TestSurgery:
    def test_subdivide_interval(self):
        g = subdivide(make_path_graph(1), 2)
        assert (g.n_vertices, g.n_edges) == (3, 2)

    def test_subdivide_star(self):
        g = subdivide(make_star(3), 3)
        assert (g.n_vertices, g.n_edges) == (10, 9)

    def test_subdivide_identity(self):
        g = Graph(vertices=(0, 1, 2, 3), edges=((0, 1), (0, 2), (0, 3)),
                  basepoint=0, vertex_labels=((1, (1, 1)),),
                  edge_labels=((0, (1, 1)),))
        for s in (subdivide(g, 1), subdivide(g, 3, set())):
            assert (s.vertices, s.edges, s.basepoint) == \
                (g.vertices, g.edges, g.basepoint)
            assert not s.vertex_labels and not s.edge_labels

    def test_subdivide_preserves_euler(self):
        for g in (make_star(4), make_cycle_graph(5), make_h_graph()):
            assert subdivide(g, 3).euler_characteristic() == \
                g.euler_characteristic()

    def test_normalize_loops(self):
        loop = Graph(vertices=(0,), edges=((0, 0),))
        g = normalize_loops(loop)
        assert not g.has_loops()
        assert (g.n_vertices, g.n_edges) == (2, 2)
        # parallel edges stay
        par = Graph(vertices=(0, 1), edges=((0, 1), (1, 0)), basepoint=1,
                    vertex_labels=((1, (1, 1)),), edge_labels=((1, (1, 1)),))
        g = normalize_loops(par)
        assert (g.vertices, g.edges, g.basepoint) == \
            (par.vertices, par.edges, par.basepoint)
        assert not g.vertex_labels and not g.edge_labels


class TestSmooth:
    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_cycle_becomes_a_two_gon(self, m):
        g = smooth(make_cycle_graph(m))
        assert (g.n_vertices, g.n_edges) == (2, 2)
        assert {frozenset(e) for e in g.edges} == {frozenset(g.vertices)}

    def test_path_becomes_one_edge(self):
        g = smooth(make_path_graph(3))
        assert (g.vertices, g.edges) == ((0, 3), ((0, 3),))

    def test_loop_midpoint_is_kept(self):
        loop = normalize_loops(Graph(vertices=(0, 1), edges=((0, 1), (1, 1))))
        g = smooth(loop)
        assert (g.vertices, g.edges) == (loop.vertices, loop.edges)
        bouquet = normalize_loops(Graph(vertices=(0,), edges=((0, 0), (0, 0))))
        assert smooth(bouquet).edges == bouquet.edges

    def test_keep_is_kept(self):
        g = smooth(make_path_graph(3), keep=(2,))
        assert (g.vertices, g.edges) == ((0, 2, 3), ((0, 2), (2, 3)))
        c4 = make_cycle_graph(4)
        assert smooth(c4, keep=c4.vertices).edges == c4.edges

    @pytest.mark.parametrize("g", [make_star(3), make_star(5), make_h_graph(),
                                   make_path_graph(1)],
                             ids=["star3", "star5", "h_graph", "interval"])
    def test_graphs_without_valence_two_are_unchanged(self, g):
        s = smooth(g)
        assert (s.vertices, s.edges) == (g.vertices, g.edges)
        assert s.basepoint is None and not s.vertex_labels and not s.edge_labels

    def test_idempotent_and_homeomorphic(self, triangle):
        graphs = [make_cycle_graph(5), make_path_graph(4),
                  subdivide(make_h_graph(), 3),
                  realize_family(interval_family(triangle), (3,)).graph,
                  realize_family(circle_family(triangle), (3,)).graph,
                  normalize_loops(Graph(vertices=(0, 1, 2),
                                        edges=((0, 1), (1, 2), (2, 2))))]
        for g in graphs:
            s = smooth(g)
            assert smooth(s) == s
            assert s.euler_characteristic() == g.euler_characteristic()
            assert s.is_connected()
            assert sorted(s.valence(v) for v in s.essential_vertices()) == \
                sorted(g.valence(v) for v in g.essential_vertices())

    def test_family_members_shrink(self, triangle):
        member = realize_family(circle_family(triangle), (3,)).graph
        s = smooth(member)
        assert (member.n_vertices, member.n_edges) == (9, 12)
        assert (s.n_vertices, s.n_edges) == (6, 9)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        g = realize_family(
            interval_family(make_cycle_graph(3)), (2,)).graph
        text = g.to_json()
        assert Graph.from_json(text) == g
        assert Graph.from_json(text).to_json() == text

    def test_plain_graph_round_trip(self):
        g = make_h_graph()
        assert Graph.from_json(g.to_json()) == g

    @pytest.mark.parametrize("payload", [
        {"vertices": [0, 1], "edges": [[0, 1]],
         "labels": {"vertices": {"0": 5}}},
        {"vertices": [0, 1], "edges": [[0, 1]], "labels": {"edges": {"0": "ab"}}},
        {"vertices": [[0], 1], "edges": []},
        {"vertices": [0, 1], "edges": [[0, [1]]]},
        {"vertices": [0, 1], "edges": [[0, 1]], "basepoint": [0]},
        {"vertices": [0, 1], "edges": [5]},
        {"edges": []},
    ])
    def test_malformed_payload_raises_graph_error(self, payload):
        with pytest.raises(GraphError):
            Graph.from_json(json.dumps(payload))

    @pytest.mark.parametrize("vertices", [("a", "b"), (0, 1.5), (True, 2)])
    def test_vertex_ids_must_be_integers(self, vertices):
        with pytest.raises(GraphError):
            Graph(vertices=vertices, edges=(vertices,))


class TestFamilies:
    def test_star_family_realizes_stars(self, star_family):
        inst = realize_family(star_family, (4,))
        g = inst.graph
        assert (g.n_vertices, g.n_edges) == (5, 4)
        assert g.valence(0) == 4
        # 4 copies, each owning one edge of its own
        assert sorted(inst.copies) == [(1, 1), (1, 2), (1, 3), (1, 4)]
        assert all(len(emap) == 1 for _, emap in inst.copies.values())
        assert sorted(e for _, emap in inst.copies.values()
                      for e in emap.values()) == [0, 1, 2, 3]

    def test_member_on_a_realized_base_has_no_labels(self, star_family,
                                                     interval):
        # member 2 of the star family as a base; copies are recorded in
        # ``copies`` only, so the base's copies do not reappear as labels
        base = realize_family(star_family, (2,)).graph
        fam = wedge_family(base, [SummandSpec(interval, (0,), (0,))])
        inst = realize_family(fam, (2,))
        g = inst.graph
        assert g.vertex_labels == () and g.edge_labels == ()
        assert json.loads(g.to_json())["labels"] == {"vertices": {},
                                                     "edges": {}}
        new_v = set(g.vertices) - set(base.vertices)
        new_e = set(range(g.n_edges)) - set(range(base.n_edges))
        v_images = [set(vmap.values()) for vmap, _ in inst.copies.values()]
        e_images = [set(emap.values()) for _, emap in inst.copies.values()]
        for v in new_v:
            assert sum(v in image for image in v_images) == 1
        for e in new_e:
            assert sum(e in image for image in e_images) == 1
        assert set().union(*v_images) - set(base.vertices) == new_v
        assert set().union(*e_images) == new_e

    def test_wedge_edge_count_formula(self, triangle):
        fam = wedge_family(triangle, [SummandSpec(make_star(2), (0,), (0,))])
        inst = realize_family(fam, (3,))
        base_e, summand_e, glued_e = 3, 2, 0
        assert inst.graph.n_edges == base_e + 3 * (summand_e - glued_e)

    def test_interval_family_zero_size_is_bare_path(self, triangle):
        inst = realize_family(interval_family(triangle), (0,))
        assert inst.graph.n_edges == 1
        assert inst.graph.is_tree()

    def test_interval_family_counts(self, triangle):
        inst = realize_family(interval_family(triangle), (3,))
        # backbone path with 4 edges plus 3 triangles wedged at interior vertices
        assert inst.graph.n_vertices == 5 + 3 * 2
        assert inst.graph.n_edges == 4 + 3 * 3

    def test_circle_family_euler(self, triangle):
        inst = realize_family(circle_family(triangle), (2,))
        g = inst.graph
        assert (g.n_vertices, g.n_edges) == (6, 8)
        assert g.euler_characteristic() == -2

    def test_circle_family_backbone_edges(self, triangle):
        for k in (3, 4, 5):
            inst = realize_family(circle_family(triangle), (k,))
            base_v, base_e = inst.base_part
            assert len(base_e) == k

    def test_conf_euler_closed_cases(self):
        # a point holds one particle; Conf_n of an interval is n! points;
        # Conf_n of a circle is (n - 1)! circles up to homotopy
        point = Graph(vertices=(0,), edges=())
        assert [conf_euler(point, n) for n in range(4)] == [1, 1, 0, 0]
        assert [conf_euler(make_path_graph(1), n) for n in range(4)] == \
            [1, 1, 2, 6]
        assert [conf_euler(make_cycle_graph(3), n) for n in range(4)] == \
            [1, 0, 0, 0]

    def test_family_requires_based_summand_valence(self):
        with pytest.raises(GraphError):
            interval_family(make_path_graph(2))  # basepoint has valence 1

    def test_summand_automorphism_permutes_copies(self, star_family):
        inst = realize_family(star_family, (3,))
        vmap, emap = inst.copy_automorphism(
            {(1, 1): (1, 2), (1, 2): (1, 1), (1, 3): (1, 3)})
        assert vmap[0] == 0
        moved = {v for v, w in vmap.items() if v != w}
        assert len(moved) == 2

    def test_summand_automorphism_rejects_non_permutation(self, star_family):
        inst = realize_family(star_family, (3,))
        with pytest.raises(GraphError):
            inst.copy_automorphism({(1, 1): (1, 1), (1, 2): (1, 2), (1, 3): (1, 2)})
        with pytest.raises(GraphError):     # a copy that does not exist
            inst.copy_automorphism({(1, 1): (1, 4), (1, 4): (1, 1)})


class TestSupports:
    def test_wedge_support_count(self, star_family):
        sups = support_subgraphs(realize_family(star_family, (4,)), (2,))
        assert len(sups) == comb(4, 2)

    def test_interval_full_degree_single_support(self, triangle):
        fam = interval_family(triangle)
        sups = support_subgraphs(realize_family(fam, (3,)), (3,))
        assert len(sups) == 1
        assert sups[0].is_whole_graph()

    def test_circle_support_count(self, triangle):
        fam = circle_family(triangle)
        sups = support_subgraphs(realize_family(fam, (5,)), (1,))
        assert len(sups) == 5

    def test_support_counts_binomial(self, triangle):
        fam = interval_family(triangle)
        for k in (3, 4):
            for d in range(k + 1):
                sups = support_subgraphs(realize_family(fam, (k,)), (d,))
                assert len(sups) == comb(k, d)

    def test_supports_connected_and_contain_backbone(self, triangle):
        fam = circle_family(triangle)
        inst = realize_family(fam, (4,))
        base_v, base_e = inst.base_part
        for sub in support_subgraphs(inst, (2,)):
            assert base_v <= sub.vertices and base_e <= sub.edges
            sg = Graph(vertices=tuple(sorted(sub.vertices)),
                       edges=tuple(inst.graph.edges[e] for e in sorted(sub.edges)))
            assert sg.is_connected()

    def test_labelled_base_is_the_base_part(self, star_family, interval):
        base = realize_family(star_family, (2,)).graph
        fam = wedge_family(base, [SummandSpec(interval, (0,), (0,))])
        inst = realize_family(fam, (3,))
        assert inst.base_part == (frozenset(base.vertices),
                                    frozenset(range(base.n_edges)))
        for sub in support_subgraphs(inst, (1,)):
            assert len(sub.vertices) == 4 and len(sub.edges) == 3

    def test_degree_above_size_rejected(self, star_family):
        with pytest.raises(GraphError):
            support_subgraphs(realize_family(star_family, (4,)), (5,))
