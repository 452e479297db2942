import copy
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from graphconf import (
    LinAlgError,
    SparseIntMatrix,
    build_model,
    kernel_with_coords,
    lattice_coords,
    linalg,
    make_star,
    rank_of_columns,
    smith_normal_form,
)
from graphconf.linalg import reduce_left_to_right, smith_diagonalize

from conftest import from_columns, from_dense, matvec, multiply, to_dense


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
    def test_multiply(self):
        a = from_dense([[1, 2], [3, 4]])
        b = from_dense([[5, 6], [7, 8]])
        assert to_dense(multiply(a, b)) == [[19, 22], [43, 50]]


class TestSmith:
    def test_small_example(self):
        m = from_dense([[2, 4], [6, 8]])
        assert smith_normal_form(m) == [2, 4]

    def test_identity(self):
        m = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
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
            divisors = smith_normal_form(from_dense(dense))
            for a, b in zip(divisors, divisors[1:]):
                assert b % a == 0
            assert divisors == minors_gcd_divisors(dense)

    def test_invariant_under_permutation(self):
        rng = random.Random(3)
        dense = random_dense(rng, 4, 5, density=0.8)
        base = smith_normal_form(from_dense(dense))
        for _ in range(5):
            rperm = rng.sample(range(4), 4)
            cperm = rng.sample(range(5), 5)
            sh = [[dense[r][c] for c in cperm] for r in rperm]
            assert smith_normal_form(from_dense(sh)) == base

    def test_transform_tracking(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            dense = random_dense(rng, rows, cols, density=0.7)
            m = from_dense(dense)
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
            divisors = smith_normal_form(from_dense(dense))
            assert divisors == minors_gcd_divisors(dense) == [1, 1, 1, 2, 6, 12]

    def test_random_mixed_pivots(self):
        rng = random.Random(19)
        for _ in range(30):
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            entries = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(min(rows, cols))]
            dense = [[entries[i] if i == j and i < len(entries) else 0
                      for j in range(cols)] for i in range(rows)]
            dense = scrambled(rng, dense, steps=rng.randint(0, 8))
            assert smith_normal_form(from_dense(dense)) == \
                minors_gcd_divisors(dense)

    def test_transforms_inverse(self):
        rng = random.Random(23)
        size = len(self.DIAG)
        diag = [[self.DIAG[i] if i == j else 0 for j in range(size)]
                for i in range(size)]
        for dense in [diag] + [scrambled(rng, diag) for _ in range(6)]:
            pivots, u_rows, uinv_cols = smith_diagonalize(
                from_dense(dense), track_u=True)
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
            m = from_dense(dense)
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
        # the elimination meets 3 against 2 here: a unimodular step on the
        # pivot column would give the dependent pivot columns [5, 4, 1, 0]
        cases = [[[-4, 2, -6, -3, 0, 0], [0, 0, 5, -4, 2, 6],
                  [6, -6, 2, 0, -4, 0], [-4, 2, 4, 0, 0, 0]]]
        for _ in range(80):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 7)
            cases.append(random_dense(rng, rows, cols, density=0.6))
        for dense in cases:
            columns = [dict(c) for c in from_dense(dense).columns()]
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


class TestLeftToRightReduction:
    def test_reports_a_non_unit_pivot(self):
        # the second column reduces to 2 e_0, the third scales by 2 against
        # 3 and ends at its own lowest row 2 with a unit
        columns = [{0: 1, 1: 1}, {0: 1, 1: -1}, {1: 3, 2: 1}]
        non_units = []
        assert linalg.reduce_left_to_right(columns, non_units) == [1, 0, 2]
        assert non_units == [0]
        assert columns == [{0: 1, 1: 1}, {0: 1, 1: -1}, {1: 3, 2: 1}]

    def test_a_non_dividing_pivot_scales_the_column(self):
        # 3 against the pivot 2: the column becomes 2 c - 3 (2 e_1) = 2 e_0
        non_units = []
        assert linalg.reduce_left_to_right([{1: 2}, {0: 1, 1: 3}],
                                           non_units) == [1, 0]
        assert non_units == [1, 0]

    def test_unit_pivots_report_nothing(self):
        non_units = []
        columns = [{0: 1, 2: -1}, {1: 1, 2: 1}, {0: 1, 1: 1}, {0: -1}]
        assert linalg.reduce_left_to_right(columns, non_units) == [2, 1, 0]
        assert non_units == []


class TestKernel:
    """Kernel bases and their coordinates on random integer matrices with
    entries up to 6 in size: about half of them give a basis that is not
    its own unit vectors off the pivot columns, and those take the
    triangular block."""

    @staticmethod
    def kernels(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            rows, cols = rng.randint(1, 7), rng.randint(2, 8)
            dense = random_dense(rng, rows, cols, density=0.6, lo=-6, hi=6)
            m = from_dense(dense)
            yield rng, dense, m, kernel_with_coords(m)

    def test_kernel_vectors_are_kernel(self):
        unrestricted = off_diagonal = non_unit = 0
        for _, dense, m, (rk, basis, coords) in self.kernels(9, 400):
            assert rk == fraction_rank(dense)
            assert len(basis) == m.cols - rk
            for i, vec in enumerate(basis):
                assert not matvec(m, vec)
                assert lattice_coords(coords, vec) == {i: 1}
            pos, block = coords
            assert sorted(pos.values()) == list(range(len(basis)))
            if block is None:
                continue
            unrestricted += 1
            rows = sorted(pos, key=pos.get)
            for t, row in enumerate(block):
                assert max(row) == t                # lower-triangular
                off_diagonal += len(row) > 1
                if abs(row[t]) != 1:
                    non_unit += 1
                    # e_r at a non-unit diagonal has no integer coordinates
                    with pytest.raises(LinAlgError):
                        lattice_coords(coords, {rows[t]: 1})
        assert unrestricted >= 150 and off_diagonal >= 100 and non_unit >= 150

    def test_kernel_is_saturated(self):
        # the basis generates the full integer kernel lattice (all Smith
        # divisors of the basis are 1), and any lattice combination of it
        # reads back its own coefficients
        for rng, _, m, (_, basis, coords) in self.kernels(13, 300):
            if not basis:
                continue
            assert smith_normal_form(
                from_columns(m.cols, basis)) == [1] * len(basis)
            for _ in range(3):
                coeffs = {i: rng.randint(-5, 5) for i in range(len(basis))}
                combo = {}
                for i, c in coeffs.items():
                    linalg.vec_axpy(combo, basis[i], -c)
                assert not matvec(m, combo)
                assert lattice_coords(coords, combo) == \
                    {i: c for i, c in coeffs.items() if c}


class TestEngine:
    """Rank, kernel and Smith form run one elimination; entries up to 6 in
    size give it non-unit pivots and gcd (non-divisible) steps."""

    @staticmethod
    def matrices(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            yield random_dense(rng, rows, cols, density=0.6, lo=-6, hi=6)

    def test_rank_kernel_and_smith_agree(self, monkeypatch):
        gcd_steps = []
        real_xgcd = linalg._xgcd
        monkeypatch.setattr(linalg, "_xgcd",
                            lambda a, b: gcd_steps.append(1) or real_xgcd(a, b))
        non_unit = 0
        for dense in self.matrices(29, 150):
            m = from_dense(dense)
            rk = fraction_rank(dense)
            divisors = smith_normal_form(m)
            assert rank_of_columns(m.columns()) == rk
            assert kernel_with_coords(m)[0] == rk
            assert len(divisors) == rk
            non_unit += sum(d > 1 for d in divisors)
        assert gcd_steps and non_unit

    def test_inputs_unchanged(self):
        for dense in self.matrices(31, 120):
            m = from_dense(dense)
            saved = copy.deepcopy(m.columns())
            rank_of_columns(m.columns(), [])
            assert m.columns() == saved
            kernel_with_coords(m)
            assert m.columns() == saved
            smith_diagonalize(m, track_u=True)
            assert m.columns() == saved
            smith_normal_form(m)
            assert m.columns() == saved

    def test_assembled_boundaries_unchanged(self):
        # d_1 takes the incidence forest, d_2 the engine
        cx = build_model(make_star(4), 2)
        boundaries = [cx.boundary(q) for q in range(1, cx.top_dimension + 1)]
        saved = copy.deepcopy([d.columns() for d in boundaries])
        for d in boundaries:
            rank_of_columns(d.columns(), [], [])
            kernel_with_coords(d)
            smith_normal_form(d)
            reduce_left_to_right(d.columns(), [])
        assert [d.columns() for d in boundaries] == saved


class TestIncidenceForest:
    """Kernels and Smith forms of incidence matrices are read off the
    spanning forest that the rank path builds, without the engine."""

    # a triangle 0-1-2 with a pendant vertex 3, a parallel edge, a zero
    # column, and an isolated row 4
    COLUMNS = [{0: 1, 1: -1}, {1: 1, 2: -1}, {}, {2: -1, 0: 1},
               {3: 1, 1: -1}, {1: 1, 0: -1}]

    def test_fundamental_cycles(self):
        m = from_columns(5, self.COLUMNS)
        rank, basis, coords = kernel_with_coords(m)
        assert rank == 3
        assert basis == [{2: 1}, {3: 1, 0: -1, 1: -1}, {5: 1, 0: 1}]
        assert coords == ({2: 0, 3: 1, 5: 2}, None)
        for vec in basis:
            assert not matvec(m, vec)

    def test_smith_pivots_and_transforms(self):
        m = from_columns(5, self.COLUMNS)
        pivots, u_rows, uinv_cols = smith_diagonalize(m, track_u=True)
        assert sorted(pivots) == [(1, 0, 1), (2, 1, 1), (3, 4, 1)]
        assert u_rows == {0: {0: 1, 1: 1, 2: 1, 3: 1}}
        assert uinv_cols == {v: {v: 1, 0: -1} for v in (1, 2, 3)}
        assert smith_diagonalize(m)[0] == pivots

    def test_engine_and_rank_path_are_not_called(self, monkeypatch):
        calls = []
        for name in ("_eliminate", "_incidence_rank"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        m = from_columns(5, self.COLUMNS)
        kernel_with_coords(m)
        smith_diagonalize(m, track_u=True)
        smith_normal_form(m)
        assert calls == []
        assert rank_of_columns(m.columns()) == 3
        assert calls == ["_incidence_rank"]
