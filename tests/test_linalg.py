import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from graphconf import (
    LinAlgError,
    SparseIntMatrix,
    kernel_with_coords,
    rank_of_columns,
    smith_normal_form,
)
from graphconf.linalg import smith_diagonalize


def minors_gcd_divisors(dense):
    """Independent Smith divisor oracle: d_1...d_k = gcd of all k x k minors."""
    rows = len(dense)
    cols = len(dense[0]) if rows else 0

    def det(rs, cs):
        sub = [[Fraction(dense[r][c]) for c in cs] for r in rs]
        size = len(sub)
        sign = 1
        for i in range(size):
            piv = next((r for r in range(i, size) if sub[r][i]), None)
            if piv is None:
                return 0
            if piv != i:
                sub[i], sub[piv] = sub[piv], sub[i]
                sign = -sign
            for r in range(i + 1, size):
                f = sub[r][i] / sub[i][i]
                sub[r] = [a - f * b for a, b in zip(sub[r], sub[i])]
        prod = Fraction(sign)
        for i in range(size):
            prod *= sub[i][i]
        assert prod.denominator == 1
        return int(prod)

    gcds = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det(rs, cs))
        if g == 0:
            break
        gcds.append(g)
    divisors = []
    prev = 1
    for g in gcds:
        divisors.append(g // prev)
        prev = g
    return divisors


def fraction_rank(dense):
    """Independent rank oracle: Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in dense]
    rank_ = 0
    col = 0
    rows = len(m)
    cols = len(m[0]) if rows else 0
    while rank_ < rows and col < cols:
        piv = next((r for r in range(rank_, rows) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        for r in range(rows):
            if r != rank_ and m[r][col]:
                f = m[r][col] / m[rank_][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank_])]
        rank_ += 1
        col += 1
    return rank_


def random_dense(rng, rows, cols, density=0.5, lo=-4, hi=4):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


class TestSparseMatrix:
    def test_triplet_round_trip(self):
        m = SparseIntMatrix.from_triplets(2, 3, [(0, 0, 2), (1, 2, -5)])
        assert sorted(m.entries()) == [(0, 0, 2), (1, 2, -5)]
        assert m.nnz == 2

    def test_duplicate_triplets_rejected(self):
        with pytest.raises(LinAlgError):
            SparseIntMatrix.from_triplets(2, 2, [(0, 0, 1), (0, 0, 2)])

    def test_multiply(self):
        a = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
        b = SparseIntMatrix.from_dense([[5, 6], [7, 8]])
        assert a.multiply(b).to_dense() == [[19, 22], [43, 50]]

    def test_transpose(self):
        a = SparseIntMatrix.from_dense([[1, 0, 2]])
        assert a.transpose().to_dense() == [[1], [0], [2]]

    def test_triplet_text_export(self):
        a = SparseIntMatrix.from_dense([[1, 0], [0, -2]])
        assert a.to_triplet_text() == "2 2\n0 0 1\n1 1 -2\n"


class TestSmith:
    def test_small_example(self):
        m = SparseIntMatrix.from_dense([[2, 4], [6, 8]])
        assert smith_normal_form(m) == [2, 4]

    def test_identity(self):
        m = SparseIntMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert smith_normal_form(m) == [1, 1, 1]

    def test_zero_matrix(self):
        m = SparseIntMatrix(3, 4)
        assert smith_normal_form(m) == []

    def test_divisor_chain_and_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            dense = random_dense(rng, rows, cols)
            divisors = smith_normal_form(SparseIntMatrix.from_dense(dense))
            for a, b in zip(divisors, divisors[1:]):
                assert b % a == 0
            assert divisors == minors_gcd_divisors(dense)

    def test_invariant_under_permutation(self):
        rng = random.Random(3)
        dense = random_dense(rng, 4, 5, density=0.8)
        base = smith_normal_form(SparseIntMatrix.from_dense(dense))
        for _ in range(5):
            rperm = rng.sample(range(4), 4)
            cperm = rng.sample(range(5), 5)
            sh = [[dense[r][c] for c in cperm] for r in rperm]
            assert smith_normal_form(SparseIntMatrix.from_dense(sh)) == base

    def test_transform_tracking(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            dense = random_dense(rng, rows, cols, density=0.7)
            m = SparseIntMatrix.from_dense(dense)
            pivots, u_rows, uinv_cols = smith_diagonalize(m, track_u=True)
            # U and its inverse really are mutually inverse
            for i in range(rows):
                row = u_rows.get(i, {i: 1})
                for j in range(rows):
                    col = uinv_cols.get(j, {j: 1})
                    dot = sum(v * col.get(k, 0) for k, v in row.items())
                    assert dot == (1 if i == j else 0)


def scrambled(rng, dense, steps=12):
    """``dense`` times random unimodular matrices on both sides."""
    m = [list(row) for row in dense]
    rows, cols = len(m), len(m[0])
    for _ in range(steps):
        c = rng.choice((-2, -1, 1, 2))
        i, j = rng.sample(range(rows), 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        i, j = rng.sample(range(cols), 2)
        for row in m:
            row[i] += c * row[j]
    return m


class TestSmithWithUnits:
    """The divisor chain is fixed over the non-unit pivots alone; the units
    must still land in front and the transforms stay inverse."""

    DIAG = (2, 1, 3, 1, 4, 6)

    def test_diagonal_and_scrambled(self):
        rng = random.Random(17)
        size = len(self.DIAG)
        diag = [[self.DIAG[i] if i == j else 0 for j in range(size)]
                for i in range(size)]
        cases = [diag] + [scrambled(rng, diag) for _ in range(8)]
        for dense in cases:
            divisors = smith_normal_form(SparseIntMatrix.from_dense(dense))
            assert divisors == minors_gcd_divisors(dense) == [1, 1, 1, 2, 6, 12]

    def test_random_mixed_pivots(self):
        rng = random.Random(19)
        for _ in range(30):
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            entries = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(min(rows, cols))]
            dense = [[entries[i] if i == j and i < len(entries) else 0
                      for j in range(cols)] for i in range(rows)]
            dense = scrambled(rng, dense, steps=rng.randint(0, 8))
            assert smith_normal_form(SparseIntMatrix.from_dense(dense)) == \
                minors_gcd_divisors(dense)

    def test_transforms_inverse(self):
        rng = random.Random(23)
        size = len(self.DIAG)
        diag = [[self.DIAG[i] if i == j else 0 for j in range(size)]
                for i in range(size)]
        for dense in [diag] + [scrambled(rng, diag) for _ in range(6)]:
            pivots, u_rows, uinv_cols = smith_diagonalize(
                SparseIntMatrix.from_dense(dense), track_u=True)
            assert [d for *_, d in pivots] == [1, 1, 1, 2, 6, 12]
            for i in range(size):
                row = u_rows.get(i, {i: 1})
                for j in range(size):
                    col = uinv_cols.get(j, {j: 1})
                    dot = sum(v * col.get(k, 0) for k, v in row.items())
                    assert dot == (1 if i == j else 0)


class TestRank:
    def test_matches_fraction_oracle(self):
        rng = random.Random(5)
        for _ in range(80):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            dense = random_dense(rng, rows, cols, density=0.6)
            m = SparseIntMatrix.from_dense(dense)
            assert rank_of_columns(m.columns()) == fraction_rank(dense)

    def test_incidence_fast_path(self):
        # star incidence: rank = vertices - 1
        cols = [{0: -1, i: 1} for i in range(1, 6)]
        assert rank_of_columns(cols) == 5
        # two components
        cols = [{0: -1, 1: 1}, {2: -1, 3: 1}]
        assert rank_of_columns(cols) == 2

    def test_zero(self):
        assert rank_of_columns(SparseIntMatrix(4, 4).columns()) == 0

    def test_pivot_columns_have_full_rank(self):
        rng = random.Random(11)
        for _ in range(80):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 7)
            dense = random_dense(rng, rows, cols, density=0.6)
            columns = [dict(c) for c in SparseIntMatrix.from_dense(dense).columns()]
            pivots = []
            rk = rank_of_columns(columns, pivots)
            assert rk == len(pivots) == len(set(pivots)) == fraction_rank(dense)
            assert rank_of_columns(columns) == rk
            assert fraction_rank([[row[j] for j in pivots] for row in dense]) == rk

    def test_input_columns_unchanged(self):
        # entries without units force the scaling branch; mixed ones the
        # divisible branch; e_i - e_j columns the incidence path
        rng = random.Random(13)
        for trial in range(90):
            rows = rng.randint(2, 7)
            cols = rng.randint(2, 8)
            if trial % 3 == 2:
                columns = [dict(zip(rng.sample(range(rows), 2), (-1, 1)))
                           for _ in range(cols)]
            else:
                values = (-1, 1, 2, -3) if trial % 3 else (2, -3, 4, 6, -9)
                columns = [{r: rng.choice(values) for r in range(rows)
                            if rng.random() < 0.7} for _ in range(cols)]
            saved = [dict(c) for c in columns]
            dense = [[c.get(r, 0) for c in columns] for r in range(rows)]
            assert rank_of_columns(columns, []) == fraction_rank(dense)
            assert columns == saved

    def test_incidence_pivots_are_a_spanning_forest(self):
        import networkx as nx

        rng = random.Random(12)
        for _ in range(60):
            nv = rng.randint(2, 9)
            edges = [tuple(rng.sample(range(nv), 2))
                     for _ in range(rng.randint(1, 12))]
            columns = [{a: -1, b: 1} for a, b in edges]
            pivots = []
            rk = rank_of_columns(columns, pivots)
            assert rk == len(pivots) == len(set(pivots))
            full = nx.Graph(edges)
            forest = nx.Graph([edges[j] for j in pivots])
            assert forest.number_of_edges() == rk
            assert nx.is_forest(forest)
            assert ({frozenset(c) for c in nx.connected_components(forest)}
                    == {frozenset(c) for c in nx.connected_components(full)})
            dense = [[col.get(r, 0) for col in columns] for r in range(nv)]
            assert fraction_rank([[row[j] for j in pivots] for row in dense]) == rk


class TestKernel:
    def test_kernel_vectors_are_kernel(self):
        rng = random.Random(9)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            dense = random_dense(rng, rows, cols, density=0.6)
            m = SparseIntMatrix.from_dense(dense)
            rk, basis, coords = kernel_with_coords(m)
            assert rk == fraction_rank(dense)
            assert len(basis) == cols - rk
            for vec in basis:
                assert not m.apply(vec)
            # coordinates really invert the basis
            for i, vec in enumerate(basis):
                for j, row in enumerate(coords):
                    dot = sum(v * row.get(k, 0) for k, v in vec.items())
                    assert dot == (1 if i == j else 0)

    def test_kernel_is_saturated(self):
        # the kernel basis generates the full integer kernel lattice: any
        # integer kernel vector must have integer coordinates
        rng = random.Random(13)
        for _ in range(30):
            dense = random_dense(rng, 3, 5, density=0.7)
            m = SparseIntMatrix.from_dense(dense)
            _, basis, coords = kernel_with_coords(m)
            if not basis:
                continue
            combo = {}
            for vec in basis:
                c = rng.randint(-3, 3)
                for k, v in vec.items():
                    combo[k] = combo.get(k, 0) + c * v
            combo = {k: v for k, v in combo.items() if v}
            assert not m.apply(combo)
            got = [sum(v * row.get(k, 0) for k, v in combo.items())
                   for row in coords]
            rebuilt = {}
            for c, vec in zip(got, basis):
                for k, v in vec.items():
                    rebuilt[k] = rebuilt.get(k, 0) + c * v
            rebuilt = {k: v for k, v in rebuilt.items() if v}
            assert rebuilt == combo
