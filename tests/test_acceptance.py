"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  All arithmetic is exact; every comparison is equality (tolerance 0).
"""

import time
from math import factorial

import pytest

from graphconf import (
    SummandSpec,
    Subgraph,
    build_model,
    betti_numbers,
    character_report,
    circle_family,
    decompose,
    class_size,
    dimension_polynomial_check,
    generation_degree_check,
    homology,
    hook_length_dimension,
    induced_inclusion_map,
    interval_family,
    make_cycle_graph,
    make_h_graph,
    make_path_graph,
    make_spider,
    make_star,
    mn_character,
    oracle_betti_numbers,
    partitions,
    rank_of_columns,
    realize_family,
    stability_verdict,
    subcomplex_supported_in,
    subdivide,
    verify_tree_generators,
    wedge,
    wedge_family,
    Graph,
)

import conftest
from conftest import corpus_graphs


def report(number, ok, text):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {status} {text}"
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {number}: {text}"


_MODELS = {}


def corpus_model(name, graph, n):
    key = (name, n)
    if key not in _MODELS:
        _MODELS[key] = build_model(graph, n)
    return _MODELS[key]


@pytest.fixture(scope="module")
def corpus():
    return corpus_graphs()


@pytest.fixture(scope="module")
def star_family_descriptor():
    point = Graph(vertices=(0,), edges=(), basepoint=0)
    return wedge_family(point, [SummandSpec(make_path_graph(1), (0,), (0,))])


def test_criterion_01_chain_complex_soundness(corpus):
    t0 = time.time()
    checked = 0
    for name, graph in corpus.items():
        for n in (1, 2, 3):
            cx = corpus_model(name, graph, n)
            assert cx.boundary_square_is_zero(), (name, n)
            checked += 1
    elapsed = time.time() - t0
    report(1, elapsed < 300,
           f"dd = 0 on {checked} corpus complexes (n <= 3) in "
           f"{elapsed:.1f}s (target < 300s)")


def test_criterion_02_two_sink_interval_counts():
    cx = build_model(make_path_graph(1), 2, sinks=(0, 1))
    pres0 = homology(cx, 0)
    pres1 = homology(cx, 1)
    ok = (cx.f_vector() == [10, 12, 2]
          and cx.euler_characteristic() == 0
          and pres0.betti == 1 and pres1.betti == 1
          and pres0.torsion == () and pres1.torsion == ())
    report(2, ok,
           f"two-sink interval model: f={cx.f_vector()}, chi=0, "
           f"b0={pres0.betti}, b1={pres1.betti}, torsion free")


def test_criterion_03_oracle_equivalence(corpus):
    t0 = time.time()
    pairs = 0
    for name, graph in corpus.items():
        for n in (1, 2, 3):
            qmax = min(n, 2)
            model = betti_numbers(corpus_model(name, graph, n), qmax)
            oracle = oracle_betti_numbers(graph, n, qmax)
            assert model == oracle, (name, n, model, oracle)
            pairs += 1
    report(3, True,
           f"model and discretized-oracle Betti numbers agree on {pairs} "
           f"pairs (q <= 2) in {time.time() - t0:.1f}s")


def test_criterion_04_interval_and_circle_sanity():
    interval = make_path_graph(1)
    for n in range(1, 5):
        cx = build_model(interval, n)
        model = betti_numbers(cx)
        oracle = oracle_betti_numbers(interval, n)
        expected = [factorial(n)] + [0] * (len(model) - 1)
        assert model == expected, (n, model)
        assert oracle[: len(model)] == expected[: len(oracle)] or \
            model[: min(n, 2) + 1] == oracle[: min(n, 2) + 1]
    for cycle_len in (3, 4):
        cyc = make_cycle_graph(cycle_len)
        for n in range(1, 4):
            model = betti_numbers(build_model(cyc, n), min(n, 2))
            oracle = oracle_betti_numbers(cyc, n, min(n, 2))
            assert model == oracle, (cycle_len, n)
            fct = factorial(n - 1)
            assert model[0] == fct and model[1] == fct, (cycle_len, n, model)
            if n >= 2:
                assert model[2] == 0
    report(4, True,
           "b0(Conf_n(interval)) = n! (n <= 4) and b0 = b1 = (n-1)! on "
           "cycle graphs (n <= 3); both models agree")


def test_criterion_05_subdivision_invariance(corpus):
    t0 = time.time()
    checked = 0
    for name, graph in corpus.items():
        for n in (1, 2):
            qmax = min(n, 2)
            base = betti_numbers(corpus_model(name, graph, n), qmax)
            fine = betti_numbers(build_model(subdivide(graph, 2), n), qmax)
            assert base == fine, (name, n, base, fine)
            checked += 1
    report(5, True,
           f"Betti numbers invariant under edge bisection on {checked} "
           f"corpus pairs in {time.time() - t0:.1f}s")


def test_criterion_06_tree_generating_theorem():
    t0 = time.time()
    trees = {
        "star3": make_star(3),
        "star4": make_star(4),
        "star5": make_star(5),
        "h_graph": make_h_graph(),
        "spider": make_spider(2, 3, 1),
    }
    checked = 0
    for name, tree in trees.items():
        for n in (1, 2, 3):
            for q in (0, 1, 2):
                ok = verify_tree_generators(tree, n, q)
                assert ok, (name, n, q)
                checked += 1
    report(6, True,
           f"products of basic classes generate H_q over Z on {checked} "
           f"(tree, n <= 3, q <= 2) cases in {time.time() - t0:.1f}s")


def test_criterion_07_star_generation_degrees(star_family_descriptor):
    results = {}
    for K in (5, 6):
        at4 = generation_degree_check(star_family_descriptor, 2, 1, 4, K,
                                      search_d_min=False)
        at5 = generation_degree_check(star_family_descriptor, 2, 1, 5, K,
                                      search_d_min=False)
        results[K] = (at4.generates_over_Z, at5.generates_over_Z)
        assert at4.generates_over_Z, f"degree 4 must generate at K={K}"
        assert at5.generates_over_Z, f"degree 5 must generate at K={K}"
    report(7, True,
           f"star family (n=2, q=1) generated in degree 4 = n+2 and "
           f"5 = n+3 at K in (5, 6): {results}")


def test_criterion_08_wedge_bound_on_cycle_base():
    fam = wedge_family(make_cycle_graph(3),
                       [SummandSpec(make_path_graph(1), (0,), (0,))])
    rep = generation_degree_check(fam, 2, 1, 6, 6)
    ok = rep.generates_over_Z and rep.d_min is not None and rep.d_min <= 6
    assert rep.asserted_bound == 6       # point glueing, non-tree base: 3n
    report(8, ok,
           f"one-point glueing onto a cycle (n=2, q=1, K=6): generated at "
           f"d=6=3n, witnessed d_min={rep.d_min} <= 6")


def test_criterion_09_subtree_glue_bound():
    fam = wedge_family(make_path_graph(3), [
        SummandSpec(make_star(3), (0, 1), (1, 2), (0,), (1,))])
    rep = generation_degree_check(fam, 2, 1, 4, 5, search_d_min=False)
    assert rep.asserted_bound == 4       # all trees: 2n
    report(9, rep.generates_over_Z,
           f"trees glued along a marked edge (n=2, q=1, K=5): generated at "
           f"d=4=2n (missing rank {rep.missing_rank})")


def test_criterion_10_interval_family_bound():
    fam = interval_family(make_cycle_graph(3))
    rep = generation_degree_check(fam, 2, 1, 2, 4, search_d_min=False)
    assert rep.asserted_bound == 2
    report(10, rep.generates_over_Z,
           f"interval family of triangles (n=2, q=1, K=4): generated at "
           f"d=2=n (betti {rep.betti})")


def test_criterion_11_circle_family_bound():
    fam = circle_family(make_cycle_graph(3))
    rep = generation_degree_check(fam, 2, 1, 5, 5)
    ok = rep.generates_over_Z and rep.d_min is not None and rep.d_min <= 5
    assert rep.bound_clamped == 5     # 6n = 12 clamped to the window
    report(11, ok,
           f"circle family of triangles (n=2, q=1, K=5): witnessed "
           f"d_min={rep.d_min} <= min(6n, K)=5")


def test_criterion_12_inclusion_is_injective():
    ambient_graph = wedge(make_star(3), make_path_graph(1))
    cx = build_model(ambient_graph, 2)
    sub_graph = Subgraph(ambient_graph, frozenset({0, 1, 2, 3}),
                         frozenset({0, 1, 2}))
    sub, inj = subcomplex_supported_in(cx, sub_graph)
    sub_pres = homology(sub, 1)
    mat, _ = induced_inclusion_map(sub, inj, cx, 1, sub_presentation=sub_pres)
    rank_ = rank_of_columns(mat.columns())
    ok = sub_pres.betti == 1 and rank_ == 1
    report(12, ok,
           f"H_1(two-particle star model) -> H_1(star wedge interval) has "
           f"rank {rank_} = b1 = {sub_pres.betti} (injective)")


def test_criterion_13_representation_stability(star_family_descriptor):
    t0 = time.time()
    reports = []
    for k in (5, 6, 7):
        inst = realize_family(star_family_descriptor, (k,))
        cx = build_model(inst.graph, 2)
        pres = homology(cx, 1)
        rep = character_report(cx, pres, inst)   # integrity checks inside
        for _, c in rep.multiplicities:
            assert isinstance(c, int) and c >= 0
        total = sum(c * hook_length_dimension((k - sum(lam),) + lam)
                    for lam, c in rep.multiplicities)
        assert total == pres.betti
        reports.append(rep)
    verdict = stability_verdict(reports)
    elapsed = time.time() - t0
    ok = verdict["stable"] and elapsed < 900
    report(13, ok,
           f"star family (n=2, q=1) multiplicities stable over k=5..7: "
           f"{dict(verdict['table'])} in {elapsed:.1f}s (target < 900s)")


def test_criterion_14_polynomial_growth(star_family_descriptor):
    result = dimension_polynomial_check(star_family_descriptor, 2, 1,
                                        [3, 4, 5, 6, 7], 3, 1)
    ok = result["fits"] and result["degree"] <= 3
    report(14, ok,
           f"b1 over k=3..7 is {result['betti']}; exact fit of degree "
           f"{result['degree']} with coefficients {result['coefficients']}, "
           f"holdout exact")


def test_criterion_15_character_machinery():
    for k in range(1, 8):
        parts = partitions(k)
        fact = factorial(k)
        for l1 in parts:
            for l2 in parts:
                s = sum(class_size(mu) * mn_character(l1, mu) *
                        mn_character(l2, mu) for mu in parts)
                assert s == (fact if l1 == l2 else 0)
        for m1 in parts:
            for m2 in parts:
                s = sum(mn_character(lam, m1) * mn_character(lam, m2)
                        for lam in parts)
                assert s == (fact // class_size(m1) if m1 == m2 else 0)
    for k in (4, 5, 6):
        values = {mu: 0 for mu in partitions(k)}
        values[(1,) * k] = factorial(k)
        got = decompose(values, k)
        assert got == {lam: hook_length_dimension(lam)
                       for lam in partitions(k)}
    report(15, True,
           "character tables for k <= 7 satisfy both orthogonality "
           "relations; regular representation decomposes with hook-length "
           "multiplicities")
