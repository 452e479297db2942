import random
from itertools import product

import pytest

from graphconf import (
    BudgetExceeded,
    GeneratedCheck,
    Graph,
    SparseIntMatrix,
    SummandSpec,
    StabilityError,
    build_model,
    dimension_polynomial_check,
    generated_check,
    generation_degree_check,
    homology,
    interval_family,
    make_cycle_graph,
    make_h_graph,
    make_path_graph,
    make_spider,
    make_star,
    permutation_action_map,
    realize_family,
    smith_normal_form,
    smooth,
    subcomplex_supported_in,
    support_subgraphs,
    verify_tree_generators,
    wedge_family,
)
from graphconf import stability
from graphconf.graphs import support_orbits
from graphconf.stability import _orbit_span_check, pushed_cycle_space

from test_cycle_coordinates import (check_generates_support,
                                    lattice_span_check, orbit_generators,
                                    whole_lattice)
from test_homology import torsion_complex
from conftest import kept_boundaries, matvec


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
        assert verify_tree_generators(make(), n, q)[0].generates_over_Z

    def test_interval_vacuous(self):
        result, supports = verify_tree_generators(make_path_graph(1), 3, 1)
        assert result.generates_over_Z and not supports

    def test_degree_two_vacuous_small(self):
        result, supports = verify_tree_generators(make_star(3), 3, 2)
        assert result.generates_over_Z and not supports

    def test_non_tree_rejected(self):
        with pytest.raises(StabilityError):
            verify_tree_generators(make_cycle_graph(3), 2, 1)


class TestGenerationDegree:
    def test_candidate_and_generator_counts(self, star_family):
        # four degree-3 supports in the star with 4 leaves, each a star3:
        # at n = 2 its Z_1 has rank 25 and its H_1 is Z
        rep = generation_degree_check(star_family, 2, 1, 3, 4,
                                      search_d_min=False)
        assert (rep.candidate_count, rep.generator_count) == (100, 4)
        assert (rep.betti, rep.missing_rank) == (5, 2)
        assert rep.to_dict()["generator_count"] == 4

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
        vmap, emap = inst.copy_automorphism(
            {(1, 1): (1, 3), (1, 2): (1, 1), (1, 3): (1, 4), (1, 4): (1, 2)})
        cm = permutation_action_map(model, vmap, emap)
        permuted = cm.push(1, candidates)
        moved = generated_check(model, 1, permuted, presentation=pres)
        assert base == moved

    def test_degree_above_window_rejected(self, star_family):
        with pytest.raises(StabilityError):
            generation_degree_check(star_family, 2, 1, 6, 5)

    def test_negative_degree_rejected_before_any_model(self, star_family,
                                                       monkeypatch):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built for a negative degree")

        monkeypatch.setattr(stability, "build_model", no_model)
        with pytest.raises(StabilityError):
            generation_degree_check(star_family, 2, 1, -1, 3)

    def test_copy_labels_on_the_base_change_nothing(self, interval):
        # a realized member carries copy labels; used as a base, its
        # labelled vertices and edges stay in every support
        path = make_path_graph(2)
        labelled = Graph(path.vertices, path.edges, path.basepoint,
                         vertex_labels=((1, (1, 1)), (2, (1, 2))),
                         edge_labels=((0, (1, 1)), (1, (1, 2))))
        reports = [generation_degree_check(
            wedge_family(base, [SummandSpec(interval, (0,), (0,))]),
            2, 1, 2, 4, search_d_min=False) for base in (path, labelled)]
        for rep in reports:
            assert (rep.missing_rank, rep.candidate_count) == (5, 294)

    def test_budget_exceeded(self, star_family):
        with pytest.raises(BudgetExceeded):
            generation_degree_check(star_family, 2, 1, 4, 5, budget=100)

    def test_report_serializes(self, star_family):
        rep = generation_degree_check(star_family, 2, 1, 4, 5)
        data = rep.to_dict()
        assert data["generates_over_Z"] is True
        assert data["f_vector"][0] > 0


class TestDegreeBookkeeping:
    """On the star family at n = 2 and K = 5 (asserted bound 2n = 4), with
    the span check scripted to pass at the degrees in ``passing``: every
    degree asked is reported in ``per_degree`` and asked once, the d_min
    search walks down until a degree fails, and a degree already checked
    settles the bound when it can."""

    @pytest.mark.parametrize("d,search,passing,asked,d_min,passes", [
        (4, True, {2, 3, 4, 5}, [4, 3, 2, 1], 2, True),
        (4, False, {2, 3, 4, 5}, [4], 4, True),
        (5, True, set(), [5], None, False),
        (3, True, {4, 5}, [3, 4], None, True),
    ])
    def test_degrees_asked(self, star_family, monkeypatch, d, search,
                           passing, asked, d_min, passes):
        seen = []

        def scripted(model, q, orbits, pres):
            [(rep, _)] = orbits
            seen.append(len(rep.edges))     # a degree-k support has k edges
            ok = seen[-1] in passing
            return GeneratedCheck(ok, ok, 0 if ok else 1), 0, 0

        monkeypatch.setattr(stability, "_orbit_span_check", scripted)
        rep = generation_degree_check(star_family, 2, 1, d, 5,
                                      search_d_min=search)
        assert seen == asked
        assert set(seen) == set(rep.per_degree)
        assert (rep.asserted_bound, rep.bound_clamped) == (4, 4)
        assert (rep.d_min, rep.passes_asserted_bound) == (d_min, passes)


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
    """Generators carried from one support per orbit by automorphisms must
    be cycles on their own support, generate each support's H_q, and give
    the span verdicts of the supports' whole cycle lattices."""

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
            ranks = []
            per_support = orbit_generators(model, 1, orbits)
            moved = [vec for gens in per_support for vec in gens]
            own = [pushed_cycle_space(model, sub, 1, ranks) for sub in supports]
            whole = [whole_lattice(model, sub, 1) for sub in supports]
            assert ranks == [len(b) for b in whole]
            for sub, basis, chunk in zip(supports, own, per_support):
                assert len(chunk) == len(basis)
                for vec in chunk:
                    assert not matvec(model.boundary(1), vec)
                check_generates_support(model, sub, 1, chunk)
            got = generated_check(model, 1, moved, presentation=pres)
            assert got == generated_check(model, 1, [v for b in whole for v in b],
                                          presentation=pres)
            assert _orbit_span_check(model, 1, orbits, pres) == \
                (got, sum(ranks), len(moved))
            verdicts.append(got.generates_over_Z)
        assert True in verdicts and False in verdicts

    def test_span_check_stops_at_a_generating_prefix(self, star_family,
                                                     monkeypatch):
        # on the star with 6 leaves at n = 2, the generators of 8 of the 15
        # degree-4 supports already generate H_1 (b_1 = 19)
        inst = realize_family(star_family, (6,))
        model = build_model(inst.graph, 2)
        pres = homology(model, 1, basis=False)
        orbits = support_orbits(inst, (4,))
        [(rep, maps)] = orbits
        every = [vec for gens in orbit_generators(model, 1, orbits)
                 for vec in gens]
        want = lattice_span_check(pres, every)
        assert want.generates_over_Z
        candidates = (1 + len(maps)) * len(whole_lattice(model, rep, 1))
        pushed = []

        def counting(*args):
            pushed.append(args)
            return permutation_action_map(*args)

        monkeypatch.setattr(stability, "permutation_action_map", counting)
        assert _orbit_span_check(model, 1, orbits, pres) == \
            (want, candidates, len(every))
        assert 0 < len(pushed) < len(maps)

    def test_checks_project_each_pushed_generator_once(self, star_family,
                                                       monkeypatch):
        # on the star with 6 leaves at n = 2, the 20 generators of the
        # degree-3 supports miss H_1 (b_1 = 19), checked at 19 and at 20
        inst = realize_family(star_family, (6,))
        model = build_model(inst.graph, 2)
        pres = homology(model, 1, basis=False)
        orbits = support_orbits(inst, (3,))
        every = [vec for gens in orbit_generators(model, 1, orbits)
                 for vec in gens]
        projected, checked = [], []
        real_coords, real_check = pres.homology_coords, stability.generated_check
        monkeypatch.setattr(pres, "homology_coords",
                            lambda zvec, *rest: projected.append(zvec)
                            or real_coords(zvec, *rest))
        monkeypatch.setattr(stability, "generated_check",
                            lambda *args, **kw: checked.append(len(args[2]))
                            or real_check(*args, **kw))
        verdict, _, generators = _orbit_span_check(model, 1, orbits, pres)
        assert not verdict.generates_over_Z
        assert projected == every and generators == 20
        assert checked == [19, 1]     # each check hands over new candidates

    def test_presentations_and_checks_leave_no_memo(self, star_family):
        inst = realize_family(star_family, (4,))
        model = build_model(inst.graph, 2)
        pres = homology(model, 1, basis=False)
        orbits = support_orbits(inst, (4,))
        pushed_cycle_space(model, orbits[0][0], 1)
        assert _orbit_span_check(model, 1, orbits, pres)[0].generates_over_Z
        assert not kept_boundaries(model)

    def test_a_prefix_generating_only_over_q_settles_nothing(self,
                                                               monkeypatch):
        # H_1 = Z^2 + Z/2 + Z/6 + Z/12; the first support's generators reach
        # b_1 + t = 5 and span over Q, but miss the Z/12 generator by a
        # factor 3, which the second support carries
        cx = torsion_complex(random.Random(47), (2, 1, 3, 1, 4, 6), free=2)
        pres = homology(cx, 1)
        g = pres.generators
        chunks = {"first": g[:4] + [{c: 3 * v for c, v in g[4].items()}],
                  "second": [g[4]]}

        def presented(model, sub, q, ranks):
            ranks.append(pres.cycle_rank)
            return chunks[sub]

        monkeypatch.setattr(stability, "pushed_cycle_space", presented)
        prefix = lattice_span_check(pres, chunks["first"])
        assert prefix.generates_over_Q and not prefix.generates_over_Z
        got = _orbit_span_check(cx, 1, [("first", []), ("second", [])], pres)
        assert got == (lattice_span_check(pres, g), 2 * pres.cycle_rank, 6)
        assert got[0].generates_over_Z


class TestPolynomialFit:
    def test_constant_dimensions(self, star_family):
        result = dimension_polynomial_check(
            star_family, 1, 0, [2, 3, 4, 5], 1,
            betti_values=[1, 1, 1, 1])
        assert result["fits"] and result["degree"] == 0

    def test_tree_has_no_loops(self, star_family):
        result = dimension_polynomial_check(
            star_family, 1, 1, [2, 3, 4, 5], 1)
        assert result["fits"]
        assert result["betti"] == [0, 0, 0, 0]
        assert result["coefficients"] == ["0"]

    def test_quadratic_star_growth(self, star_family):
        result = dimension_polynomial_check(star_family, 2, 1,
                                            [3, 4, 5, 6, 7], 3)
        assert result["fits"]
        assert result["degree"] == 2
        assert result["coefficients"] == ["1", "-3", "1"]

    def test_budget_exceeded(self, star_family):
        with pytest.raises(BudgetExceeded):
            dimension_polynomial_check(star_family, 2, 1, [3, 4, 5], 1,
                                       budget=100)

    def test_window_must_be_consecutive(self, star_family):
        with pytest.raises(StabilityError):
            dimension_polynomial_check(star_family, 2, 1, [3, 4, 6, 7], 1,
                                       betti_values=[1, 5, 19, 29])

    def test_members_are_smoothed(self, monkeypatch, triangle):
        import graphconf.stability as stability
        built = []

        def recording_build_model(graph, *args, **kwargs):
            built.append(graph)
            return build_model(graph, *args, **kwargs)

        monkeypatch.setattr(stability, "build_model", recording_build_model)
        family, window = interval_family(triangle), [1, 2, 3, 4, 5]
        result = dimension_polynomial_check(family, 2, 1, window, 3)
        members = [realize_family(family, (k,)).graph for k in window]
        assert built == [smooth(g) for g in members]
        assert result["betti"] == [
            homology(build_model(g, 2), 1, basis=False).betti for g in members]
        assert result["fits"] and result["coefficients"] == ["-1", "8"]

    def test_window_too_short_rejected(self, star_family):
        with pytest.raises(StabilityError):
            dimension_polynomial_check(star_family, 2, 1, [3, 4], 3)

    def test_holdout_mismatch_fails(self, star_family):
        result = dimension_polynomial_check(
            star_family, 2, 1, [1, 2, 3, 4], 1,
            betti_values=[1, 2, 3, 5])
        assert not result["fits"]
