"""Exact sparse integer linear algebra.

Everything runs over arbitrary-precision Python integers; no floating point
and no modular shortcuts on any answer-bearing path.  Matrices are stored
column-wise as dicts row -> value with no explicit zeros.
"""

from __future__ import annotations

from math import gcd


class LinAlgError(ValueError):
    pass


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class SparseIntMatrix:
    """Sparse integer matrix, column-major."""

    __slots__ = ("rows", "cols", "_cols")

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols
        self._cols = [dict() for _ in range(cols)]

    @classmethod
    def from_columns(cls, rows, columns):
        m = cls(rows, len(columns))
        for j, col in enumerate(columns):
            for r, v in col.items():
                if not 0 <= r < rows:
                    raise LinAlgError("row index out of range")
                if v:
                    m._cols[j][r] = v
        return m

    @classmethod
    def from_triplets(cls, rows, cols, triplets):
        m = cls(rows, cols)
        seen = set()
        for r, c, v in triplets:
            if (r, c) in seen:
                raise LinAlgError("duplicate entry position")
            seen.add((r, c))
            if not (0 <= r < rows and 0 <= c < cols):
                raise LinAlgError("entry out of range")
            if v:
                m._cols[c][r] = v
        return m

    @classmethod
    def from_dense(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        m = cls(rows, cols)
        for r, row in enumerate(rows_list):
            for c, v in enumerate(row):
                if v:
                    m._cols[c][r] = v
        return m

    def column(self, j):
        return dict(self._cols[j])

    def columns(self):
        return self._cols

    def entries(self):
        for j, col in enumerate(self._cols):
            for r, v in col.items():
                yield r, j, v

    @property
    def nnz(self):
        return sum(len(c) for c in self._cols)

    def is_zero(self):
        return all(not c for c in self._cols)

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries():
            out[r][c] = v
        return out

    def transpose(self):
        m = SparseIntMatrix(self.cols, self.rows)
        for r, c, v in self.entries():
            m._cols[r][c] = v
        return m

    def multiply(self, other):
        """self @ other, both sparse."""
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in multiply")
        out = SparseIntMatrix(self.rows, other.cols)
        mine = self._cols
        for j, col in enumerate(other._cols):
            acc = {}
            for r, v in col.items():
                for i, w in mine[r].items():
                    acc[i] = acc.get(i, 0) + v * w
            out._cols[j] = {i: v for i, v in acc.items() if v}
        return out

    def apply(self, vec):
        """self @ vec for a sparse vector dict col -> value."""
        acc = {}
        mine = self._cols
        for c, v in vec.items():
            for r, w in mine[c].items():
                acc[r] = acc.get(r, 0) + v * w
        return {r: v for r, v in acc.items() if v}

    def to_triplet_text(self):
        """Coordinate-triplet export: one 'row col value' line per entry."""
        lines = [f"{self.rows} {self.cols}"]
        for r, c, v in sorted(self.entries(), key=lambda t: (t[1], t[0])):
            lines.append(f"{r} {c} {v}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._cols == other._cols


# -- vector helpers (dicts) ----------------------------------------------


def vec_axpy(target, source, q):
    """target -= q * source, in place."""
    if not q:
        return target
    for k, v in source.items():
        w = target.get(k, 0) - q * v
        if w:
            target[k] = w
        else:
            target.pop(k, None)
    return target


def vec_scale_add(a, sa, b, sb):
    """sa * a + sb * b as a new dict."""
    out = {}
    for k, v in a.items():
        w = sa * v
        if w:
            out[k] = w
    for k, v in b.items():
        w = out.get(k, 0) + sb * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


# -- rank ------------------------------------------------------------------


def _incidence_rank(columns, pivots):
    """Rank of a matrix whose every column is e_i - e_j: vertices minus
    components of the graph the columns {j: col} draw on the row indices.
    When ``pivots`` is a list, the spanning forest's edges are appended."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    rank = 0
    for j, col in columns.items():
        (r1, _), (r2, _) = col.items()
        for r in (r1, r2):
            if r not in parent:
                parent[r] = r
        a, b = find(r1), find(r2)
        if a != b:
            parent[a] = b
            rank += 1
            if pivots is not None:
                pivots.append(j)
    return rank


def _looks_like_incidence(columns):
    for col in columns:
        if len(col) != 2:
            return False
        v1, v2 = col.values()
        if v1 + v2 != 0 or abs(v1) != 1:
            return False
    return True


def rank_of_columns(columns, pivots=None):
    """Exact rank over the rationals of the matrix with the given columns.

    When ``pivots`` is a list, the indices of the pivot columns are appended
    to it: those columns alone have full rank.  The input columns are left
    unchanged: a column is copied when the elimination first updates it.
    """
    cols = {}
    for j, col in enumerate(columns):
        if col:
            cols[j] = col
    if _looks_like_incidence(cols.values()):
        return _incidence_rank(cols, pivots)

    owned = set()                      # columns copied or rebuilt here
    row_sup = {}
    for j, col in cols.items():
        for r in col:
            row_sup.setdefault(r, set()).add(j)

    import heapq
    heap = [(len(c), j) for j, c in cols.items()]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    rank = 0
    while heap:
        sz, j = pop(heap)
        col = cols.get(j)
        if col is None:
            continue
        if not col:
            del cols[j]
            continue
        if len(col) != sz:
            push(heap, (len(col), j))
            continue
        best = None
        for r, v in col.items():
            key = (abs(v) != 1, len(row_sup[r]), abs(v), r)
            if best is None or key < best[0]:
                best = (key, r, v)
        _, r, v = best
        for k in list(row_sup[r]):
            if k == j:
                continue
            other = cols[k]
            a = other[r]
            if a % v == 0:
                if k not in owned:     # the caller's columns stay unchanged
                    other = cols[k] = dict(other)
                    owned.add(k)
                q = a // v
                for rr, vv in col.items():
                    w = other.get(rr, 0) - q * vv
                    if w:
                        if rr not in other:
                            row_sup[rr].add(k)
                        other[rr] = w
                    elif rr in other:
                        del other[rr]
                        row_sup[rr].discard(k)
            else:
                # rank-only step: scaling a column is allowed
                new = {rr: v * vv for rr, vv in other.items()}
                for rr, vv in col.items():
                    w = new.get(rr, 0) - a * vv
                    if w:
                        new[rr] = w
                    else:
                        new.pop(rr, None)
                g = 0
                for vv in new.values():
                    g = gcd(g, vv)
                    if g == 1:
                        break
                if g > 1:
                    new = {rr: vv // g for rr, vv in new.items()}
                for rr in other:
                    if rr not in new:
                        row_sup[rr].discard(k)
                for rr in new:
                    if rr not in other:
                        row_sup[rr].add(k)
                cols[k] = new
                owned.add(k)
            nc = cols.get(k)
            if nc:
                push(heap, (len(nc), k))
            else:
                cols.pop(k, None)
        for rr in col:
            row_sup[rr].discard(j)
        del cols[j]
        rank += 1
        if pivots is not None:
            pivots.append(j)
    return rank


def rank(matrix):
    return rank_of_columns(matrix.columns())


# -- kernel with coordinate extractor --------------------------------------


def kernel_with_coords(matrix):
    """Integer kernel lattice of the matrix, with coordinates.

    Returns (rnk, basis, coord_rows): ``basis`` is a list of sparse vectors
    (dicts over column indices) forming a lattice basis of the kernel, and
    ``coord_rows`` are rows extracting the basis coordinates of any kernel
    vector: coords(z)[i] = sum_k coord_rows[i][k] * z[k].
    """
    ncols = matrix.cols
    cols = {}
    V = {}
    W = {}
    for j in range(ncols):
        col = {r: v for r, v in matrix.columns()[j].items()}
        cols[j] = col
        V[j] = {j: 1}
        W[j] = {j: 1}
    row_sup = {}
    for j, col in cols.items():
        for r in col:
            row_sup.setdefault(r, set()).add(j)

    import heapq
    heap = [(len(c), j) for j, c in cols.items() if c]
    heapq.heapify(heap)
    retired = set()
    pivots = 0
    while heap:
        sz, j = heapq.heappop(heap)
        col = cols[j]
        if j in retired or not col or len(col) != sz:
            if col and j not in retired:
                heapq.heappush(heap, (len(col), j))
            continue
        best = None
        for r, v in col.items():
            key = (abs(v) != 1, len(row_sup[r]), abs(v), r)
            if best is None or key < best[0]:
                best = (key, r, v)
        _, r, _ = best
        while True:
            v = col[r]
            touched = [k for k in row_sup[r] if k != j]
            if not touched:
                break
            for k in touched:
                other = cols[k]
                a = other.get(r)
                if a is None:
                    continue
                if a % v == 0:
                    q = a // v
                    for rr, vv in col.items():
                        w = other.get(rr, 0) - q * vv
                        if w:
                            if rr not in other:
                                row_sup[rr].add(k)
                            other[rr] = w
                        elif rr in other:
                            del other[rr]
                            row_sup[rr].discard(k)
                    vec_axpy(V[k], V[j], q)
                    vec_axpy(W[j], W[k], -q)
                else:
                    g, x, y = _xgcd(v, a)
                    vg, ag = v // g, a // g
                    new_j = vec_scale_add(col, x, other, y)
                    new_k = vec_scale_add(col, -ag, other, vg)
                    for rr in col:
                        if rr not in new_j:
                            row_sup[rr].discard(j)
                    for rr in new_j:
                        if rr not in col:
                            row_sup.setdefault(rr, set()).add(j)
                    for rr in other:
                        if rr not in new_k:
                            row_sup[rr].discard(k)
                    for rr in new_k:
                        if rr not in other:
                            row_sup.setdefault(rr, set()).add(k)
                    cols[j] = new_j
                    cols[k] = new_k
                    col = new_j
                    V[j], V[k] = (vec_scale_add(V[j], x, V[k], y),
                                  vec_scale_add(V[j], -ag, V[k], vg))
                    W[j], W[k] = (vec_scale_add(W[j], vg, W[k], ag),
                                  vec_scale_add(W[j], -y, W[k], x))
                    v = g
                nc = cols.get(k)
                if nc and k not in retired:
                    heapq.heappush(heap, (len(nc), k))
        # row r is now supported only on column j: retire the pivot
        for rr in col:
            row_sup[rr].discard(j)
        retired.add(j)
        pivots += 1

    basis = []
    coord_rows = []
    for j in range(ncols):
        if j not in retired:
            if cols[j]:
                raise LinAlgError("internal: unretired nonzero column")
            basis.append(V[j])
            coord_rows.append(W[j])
    return pivots, basis, coord_rows


# -- Smith normal form ------------------------------------------------------


def _chain_fix(pivots, u_rows, uinv_cols):
    """Enforce the divisibility chain on the recorded pivots in place.  A unit
    divides everything, so only non-unit pivots are paired up (by row
    operations on pivot rows alone); the final sort puts the units first."""

    def entry(table, r):
        if r not in table:
            table[r] = {r: 1}
        return table[r]

    slots = [i for i, (_, _, d) in enumerate(pivots) if d != 1]
    changed = True
    while changed:
        changed = False
        for a, i in enumerate(slots):
            for k in slots[a + 1:]:
                r1, c1, d1 = pivots[i]
                r2, c2, d2 = pivots[k]
                if d2 % d1 == 0:
                    continue
                changed = True
                g = gcd(d1, d2)
                lcm = d1 * d2 // g
                if u_rows is not None:
                    _, x, y = _xgcd(d1, d2)
                    m = y * (d2 // g)
                    # row r1 += row r2, then row r2 -= m * row r1
                    u_rows[r1] = vec_scale_add(entry(u_rows, r1), 1,
                                               entry(u_rows, r2), 1)
                    uinv_cols[r2] = vec_scale_add(entry(uinv_cols, r2), 1,
                                                  entry(uinv_cols, r1), -1)
                    u_rows[r2] = vec_scale_add(entry(u_rows, r2), 1,
                                               entry(u_rows, r1), -m)
                    uinv_cols[r1] = vec_scale_add(entry(uinv_cols, r1), 1,
                                                  entry(uinv_cols, r2), m)
                pivots[i] = (r1, c1, g)
                pivots[k] = (r2, c2, lcm)
    pivots.sort(key=lambda t: t[2])


def smith_diagonalize(matrix, track_u=False):
    """Diagonalize by unimodular row and column operations.

    Returns (pivots, u_rows, uinv_cols) where pivots is a list of
    (row, col, divisor) with the divisor chain d1 | d2 | ... enforced, and,
    when tracked, u_rows / uinv_cols hold the row transform U and its
    inverse (U @ M @ V is the diagonal; V is not kept).
    """
    cols = {}
    for j in range(matrix.cols):
        col = dict(matrix.columns()[j])
        if col:
            cols[j] = col
    row_sup = {}
    for j, col in cols.items():
        for r in col:
            row_sup.setdefault(r, set()).add(j)
    u_rows = {} if track_u else None
    uinv_cols = {} if track_u else None

    def urow(r):
        if r not in u_rows:
            u_rows[r] = {r: 1}
        return u_rows[r]

    def uinv(r):
        if r not in uinv_cols:
            uinv_cols[r] = {r: 1}
        return uinv_cols[r]

    import heapq
    heap = [(len(c), j) for j, c in cols.items()]
    heapq.heapify(heap)
    pivots = []

    def col_clear_row(j, r):
        """Clear row r from all columns except j, using column ops."""
        col = cols[j]
        while True:
            others = [k for k in row_sup[r] if k != j and k in cols]
            if not others:
                return cols[j][r]
            v = col[r]
            for k in others:
                other = cols.get(k)
                if other is None or r not in other:
                    continue
                a = other[r]
                if a % v == 0:
                    q = a // v
                    for rr, vv in col.items():
                        w = other.get(rr, 0) - q * vv
                        if w:
                            if rr not in other:
                                row_sup[rr].add(k)
                            other[rr] = w
                        elif rr in other:
                            del other[rr]
                            row_sup[rr].discard(k)
                else:
                    g, x, y = _xgcd(v, a)
                    vg, ag = v // g, a // g
                    new_j = vec_scale_add(col, x, other, y)
                    new_k = vec_scale_add(col, -ag, other, vg)
                    for rr in col:
                        if rr not in new_j:
                            row_sup[rr].discard(j)
                    for rr in new_j:
                        if rr not in col:
                            row_sup.setdefault(rr, set()).add(j)
                    for rr in other:
                        if rr not in new_k:
                            row_sup[rr].discard(k)
                    for rr in new_k:
                        if rr not in other:
                            row_sup.setdefault(rr, set()).add(k)
                    cols[j] = new_j
                    cols[k] = new_k
                    col = new_j
                    v = g
                if not cols.get(k):
                    cols.pop(k, None)
                elif k not in (j,):
                    heapq.heappush(heap, (len(cols[k]), k))

    def row_clear_col(j, r):
        """Clear column j below/above the pivot, using row ops."""
        col = cols[j]
        while True:
            others = [i for i in col if i != r]
            if not others:
                return
            v = col[r]
            for i in others:
                a = col.get(i)
                if a is None:
                    continue
                if a % v == 0:
                    q = a // v
                    # row_i -= q * row_r across all columns containing r
                    for k in list(row_sup.get(r, ())):
                        ck = cols.get(k)
                        if ck is None or r not in ck:
                            continue
                        w = ck.get(i, 0) - q * ck[r]
                        if w:
                            if i not in ck:
                                row_sup.setdefault(i, set()).add(k)
                            ck[i] = w
                        elif i in ck:
                            del ck[i]
                            row_sup[i].discard(k)
                    if track_u:
                        u_rows[i] = vec_scale_add(urow(i), 1, urow(r), -q)
                        uinv_cols[r] = vec_scale_add(uinv(r), 1, uinv(i), q)
                else:
                    g, x, y = _xgcd(v, a)
                    vg, ag = v // g, a // g
                    ks = set(row_sup.get(r, ())) | set(row_sup.get(i, ()))
                    for k in ks:
                        ck = cols.get(k)
                        if ck is None:
                            continue
                        vr = ck.get(r, 0)
                        vi = ck.get(i, 0)
                        nr = x * vr + y * vi
                        ni = -ag * vr + vg * vi
                        for row_id, val in ((r, nr), (i, ni)):
                            if val:
                                if row_id not in ck:
                                    row_sup.setdefault(row_id, set()).add(k)
                                ck[row_id] = val
                            elif row_id in ck:
                                del ck[row_id]
                                row_sup[row_id].discard(k)
                    if track_u:
                        new_r = vec_scale_add(urow(r), x, urow(i), y)
                        new_i = vec_scale_add(urow(r), -ag, urow(i), vg)
                        u_rows[r], u_rows[i] = new_r, new_i
                        new_ur = vec_scale_add(uinv(r), vg, uinv(i), ag)
                        new_ui = vec_scale_add(uinv(r), -y, uinv(i), x)
                        uinv_cols[r], uinv_cols[i] = new_ur, new_ui

    while heap:
        sz, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None:
            continue
        if not col:
            del cols[j]
            continue
        if len(col) != sz:
            heapq.heappush(heap, (len(col), j))
            continue
        best = None
        for r, v in col.items():
            key = (abs(v) != 1, len(row_sup[r]), abs(v), r)
            if best is None or key < best[0]:
                best = (key, r, v)
        _, r, _ = best
        while True:
            col_clear_row(j, r)
            row_clear_col(j, r)
            col = cols[j]
            if len(col) == 1 and len([k for k in row_sup[r] if k in cols]) == 1:
                break
        v = col[r]
        if v < 0:
            v = -v  # column negation, not tracked (V side)
        pivots.append((r, j, v))
        row_sup[r].discard(j)
        del cols[j]

    _chain_fix(pivots, u_rows, uinv_cols)
    return pivots, u_rows, uinv_cols


def smith_normal_form(matrix, transforms=False):
    """Divisor chain d1 | d2 | ... | dr of the matrix.

    With ``transforms`` the row transform and its inverse are returned as
    (divisors, u_rows, uinv_cols, pivot_rows); the column transform is not
    tracked.
    """
    pivots, u_rows, uinv_cols = smith_diagonalize(matrix, track_u=transforms)
    divisors = [d for _, _, d in pivots]
    if transforms:
        return divisors, u_rows, uinv_cols, [r for r, _, _ in pivots]
    return divisors
