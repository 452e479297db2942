import random
from math import factorial

import pytest

from graphconf import (
    CharacterError,
    CorruptedCharacterError,
    SummandSpec,
    build_model,
    character_report,
    class_representative,
    class_size,
    conf_euler,
    decompose,
    homology,
    homology_character,
    hook_length_dimension,
    make_cycle_graph,
    make_path_graph,
    mn_character,
    pad,
    pad_is_valid,
    partitions,
    permutation_action_map,
    realize_family,
    stability_verdict,
    unpad,
    wedge_family,
)
from graphconf.characters import (
    CharacterReport,
    fixed_point_values,
    fixed_points_apply,
    trace_values,
)
from graphconf.homology import betti_numbers

from conftest import homology_matrix, to_dense


def count_standard_tableaux(lam):
    """Independent dimension oracle: count standard fillings recursively."""
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            smaller = tuple(p - (1 if j == i else 0)
                            for j, p in enumerate(lam))
            smaller = tuple(p for p in smaller if p)
            total += count_standard_tableaux(smaller)
    return total


class TestPartitions:
    def test_counts(self):
        expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
        for k, count in expected.items():
            assert len(partitions(k)) == count

    def test_class_sizes_sum_to_group_order(self):
        for k in range(1, 8):
            assert sum(class_size(mu) for mu in partitions(k)) == factorial(k)

    def test_class_representative_cycle_type(self):
        rep = class_representative((3, 2))
        assert rep == {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}


class TestCharacters:
    def test_trivial_representation(self):
        for mu in partitions(5):
            assert mn_character((5,), mu) == 1

    def test_sign_representation(self):
        for k in (3, 5, 6):
            for mu in partitions(k):
                assert mn_character((1,) * k, mu) == (-1) ** (k - len(mu))

    def test_standard_times_sign_for_three(self):
        values = [mn_character((2, 1), mu) for mu in [(1, 1, 1), (2, 1), (3,)]]
        assert values == [2, 0, -1]

    def test_orthogonality_rows_and_columns(self):
        for k in range(2, 8):
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
                    expected = fact // class_size(m1) if m1 == m2 else 0
                    assert s == expected

    def test_dimension_against_tableaux_oracle(self):
        for k in range(1, 7):
            for lam in partitions(k):
                dim = hook_length_dimension(lam)
                assert dim == count_standard_tableaux(lam)
                assert dim == mn_character(lam, (1,) * k)

    def test_size_mismatch_rejected(self):
        with pytest.raises(CharacterError):
            mn_character((2, 1), (2, 2))


class TestDecompose:
    def test_natural_permutation_representation(self):
        values = {(1, 1, 1): 3, (2, 1): 1, (3,): 0}
        assert decompose(values, 3) == {(3,): 1, (2, 1): 1}

    def test_trivial_character(self):
        values = {mu: 1 for mu in partitions(6)}
        assert decompose(values, 6) == {(6,): 1}

    def test_regular_representation(self):
        for k in (3, 4, 5):
            values = {mu: 0 for mu in partitions(k)}
            values[(1,) * k] = factorial(k)
            expected = {lam: hook_length_dimension(lam)
                        for lam in partitions(k)}
            assert decompose(values, k) == expected

    def test_corrupted_character_raises(self):
        values = {(1, 1): 1, (2,): 0}
        with pytest.raises(CorruptedCharacterError):
            decompose(values, 2)


class TestPadding:
    def test_pad_examples(self):
        assert pad((2, 1), 7) == (4, 2, 1)
        assert pad((), 5) == (5,)
        assert unpad((4, 2, 1)) == (2, 1)

    def test_pad_validity(self):
        assert pad_is_valid((2,), 4)
        assert not pad_is_valid((3,), 5)
        with pytest.raises(CharacterError):
            pad((3,), 5)


@pytest.fixture(scope="module")
def star_family_pipeline(star_family):
    data = {}
    for k in (4, 5):
        inst = realize_family(star_family, (k,))
        cx = build_model(inst.graph, 2)
        pres = homology(cx, 1)
        data[k] = (inst, cx, pres)
    return data


class TestHomologyCharacters:
    def test_identity_is_betti(self, star_family_pipeline):
        inst, cx, pres = star_family_pipeline[4]
        ident = {m: m for m in range(1, 5)}
        assert homology_character(cx, pres, inst, ident) == pres.betti

    def test_h0_character_trivial(self, star_family):
        inst = realize_family(star_family, (3,))
        cx = build_model(inst.graph, 1)
        pres = homology(cx, 0)
        for mu in partitions(3):
            rep = class_representative(mu)
            assert homology_character(cx, pres, inst, rep) == 1

    def test_four_cycle_bounded_by_betti(self, star_family_pipeline):
        inst, cx, pres = star_family_pipeline[4]
        val = homology_character(cx, pres, inst, class_representative((4,)))
        assert isinstance(val, int)
        assert abs(val) <= pres.betti

    def test_class_function_on_conjugates(self, star_family_pipeline):
        inst, cx, pres = star_family_pipeline[4]
        rng = random.Random(1)
        base = class_representative((2, 1, 1))
        for _ in range(4):
            g = list(range(1, 5))
            rng.shuffle(g)
            gmap = {i + 1: g[i] for i in range(4)}
            ginv = {v: k for k, v in gmap.items()}
            conj = {x: gmap[base[ginv[x]]] for x in gmap.values()}
            assert homology_character(cx, pres, inst, conj) == \
                homology_character(cx, pres, inst, base)

    def test_inverse_has_equal_trace(self, star_family_pipeline):
        inst, cx, pres = star_family_pipeline[5]
        sigma = class_representative((3, 2))
        inverse = {v: k for k, v in sigma.items()}
        assert homology_character(cx, pres, inst, sigma) == \
            homology_character(cx, pres, inst, inverse)

    def test_character_report_consistency(self, star_family_pipeline):
        inst, cx, pres = star_family_pipeline[5]
        rep = character_report(cx, pres, inst)
        assert rep.betti == pres.betti
        assert rep.value((1,) * 5) == pres.betti
        total = sum(c * hook_length_dimension(pad(lam, 5))
                    for lam, c in rep.multiplicities)
        assert total == pres.betti


def _diagonal_sum(chain_map, presentation):
    """Trace through the full-projection path: the induced matrix's diagonal."""
    dense = to_dense(homology_matrix(chain_map, presentation))
    return sum(dense[i][i] for i in range(presentation.betti))


class TestTraceProjection:
    """``homology_trace`` maps only the basis cycles' cells and keeps one
    coordinate per cycle; it must equal the trace of the full matrix."""

    @pytest.mark.parametrize("summand,n,k", [
        ("segment", 2, 3), ("segment", 2, 4), ("segment", 2, 5),
        ("segment", 3, 3), ("segment", 3, 4), ("segment", 3, 5),
        ("triangle", 2, 2), ("triangle", 2, 3),
    ])
    def test_trace_equals_matrix_diagonal(self, point_graph, summand, n, k):
        piece = make_path_graph(1) if summand == "segment" else make_cycle_graph(3)
        inst = realize_family(
            wedge_family(point_graph, [SummandSpec(piece, (0,), (0,))]), (k,))
        cx = build_model(inst.graph, n)
        pres = homology(cx, 1)
        assert pres.betti > 0
        for mu in partitions(k):
            vmap, emap = inst.copy_automorphism(
                {(1, m): (1, c) for m, c in class_representative(mu).items()})
            cm = permutation_action_map(cx, vmap, emap)
            assert cm.homology_trace(pres) == _diagonal_sum(cm, pres)

    def test_product_trace_equals_matrix_diagonal(self, point_graph, interval):
        fam = wedge_family(point_graph, [
            SummandSpec(interval, (0,), (0,)),
            SummandSpec(interval, (0,), (0,)),
        ])
        inst = realize_family(fam, (2, 3))
        cx = build_model(inst.graph, 2)
        pres = homology(cx, 1)
        identity = (partitions(2)[-1], partitions(3)[-1])
        for mu1 in partitions(2):
            for mu2 in partitions(3):
                perm = {(i, m): (i, c)
                        for i, mu in ((1, mu1), (2, mu2))
                        for m, c in class_representative(mu).items()}
                cm = permutation_action_map(cx, *inst.copy_automorphism(perm))
                trace = cm.homology_trace(pres)
                assert trace == _diagonal_sum(cm, pres)
                if (mu1, mu2) == identity:
                    assert trace == pres.betti


class TestFixedPointRoute:
    """The Hopf trace formula on cellular chains against the trace route:
    a permutation of the copies fixing m₁ of them has Lefschetz number
    χ(Conf_n(G_m₁)), here from Gal's formula."""

    @staticmethod
    def _chis(family, n, k):
        return [conf_euler(realize_family(family, (m,)).graph, n)
                for m in range(k + 1)]

    def _agree(self, family, n, k):
        inst = realize_family(family, (k,))
        cx = build_model(inst.graph, n)
        applies = fixed_points_apply(betti_numbers(cx), 1)
        if applies:
            fixed = fixed_point_values(k, 1, self._chis(family, n, k))
            assert fixed == trace_values(cx, homology(cx, 1), inst)
        return applies

    def test_star_family(self, star_family):
        for n in (1, 2, 3):
            for k in range(1, 8):
                # Conf_n of an interval is disconnected for n >= 2
                assert self._agree(star_family, n, k) == (n == 1 or k >= 3)

    def test_triangle_wedge(self, point_graph, triangle):
        family = wedge_family(point_graph, [SummandSpec(triangle, (0,), (0,))])
        for k in range(1, 6):
            assert self._agree(family, 2, k)

    def test_identity_holds_in_every_degree_off_a_point_base(
            self, k4_interval_family):
        family = k4_interval_family
        for k, b2 in ((2, 41), (3, 65)):
            inst = realize_family(family, (k,))
            cx = build_model(inst.graph, 3)
            bettis = betti_numbers(cx)
            assert bettis[0] == 1 and bettis[2] == b2 and bettis[3:] == [0]
            assert not fixed_points_apply(bettis, 1)
            assert not fixed_points_apply(bettis, 2)
            h1 = trace_values(cx, homology(cx, 1), inst)
            h2 = trace_values(cx, homology(cx, 2), inst)
            chis = self._chis(family, 3, k)
            for mu in partitions(k):
                assert 1 - h1[mu] + h2[mu] == chis[mu.count(1)]

    def test_route_needs_connected_space_and_one_degree(self):
        assert fixed_points_apply([1, 5, 0, 0], 1)
        assert fixed_points_apply([1, 0, 7], 2)
        assert not fixed_points_apply([2, 5, 0], 1)
        assert not fixed_points_apply([1, 5, 1], 1)
        assert not fixed_points_apply([1, 0], 0)


class TestStabilityVerdict:
    def _report(self, k, mults, betti):
        return CharacterReport(k=k, q=1, n=2, betti=betti,
                               class_data=(), multiplicities=tuple(mults))

    def test_identical_windows_are_stable(self):
        reports = [self._report(k, [((1,), 1), ((), 2)], 3) for k in (4, 5, 6)]
        verdict = stability_verdict(reports)
        assert verdict["stable"]
        assert verdict["table"][(1,)] == (1, 1, 1)

    def test_changing_multiplicity_is_unstable(self):
        reports = [self._report(4, [((1,), 1)], 1),
                   self._report(5, [((1,), 2)], 2)]
        assert not stability_verdict(reports)["stable"]

    def test_invalid_padding_excluded(self):
        reports = [self._report(4, [((3, 1), 1)], 1),
                   self._report(5, [((3, 1), 1)], 1)]
        verdict = stability_verdict(reports)
        assert (3, 1) in verdict["excluded"]

    def test_window_must_be_consecutive(self):
        reports = [self._report(4, [], 0), self._report(6, [], 0)]
        with pytest.raises(CharacterError):
            stability_verdict(reports)
