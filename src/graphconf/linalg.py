"""Exact sparse integer linear algebra.

Everything runs over arbitrary-precision Python integers; no floating point
and no modular shortcuts on any answer-bearing path.  Matrices are stored
column-wise as dicts row -> value with no explicit zeros.

Rank, kernel and Smith form share one elimination engine, ``_eliminate``:
one pivot choice and one column update.  ``rank_of_columns`` calls it bare,
``kernel_with_coords`` tracks the column transform V, and
``smith_diagonalize`` also clears each pivot column by row operations,
tracking U and its inverse when asked, then fixes the divisor chain.  A
kernel vector's coordinates are read off its entries at a set of rows where
the basis is lower-triangular, by forward substitution (``lattice_coords``);
after a unimodular elimination with unit pivots those rows are the
non-pivot columns and the block is the identity.  All three skip the
engine on a graph's incidence matrix (every nonzero column e_i - e_j): one
union-find, ``_spanning_forest``, gives the forest the engine would pivot
on, and the rank, kernel and Smith form follow.

``reduce_left_to_right``, the standard persistence reduction at each
column's lowest row, ranks the Betti loop's d_q for q >= 2 and clears
presentations' image columns; lowest rows do not favour unit pivots, so
presentations keep the engine for their kernels.
"""

from __future__ import annotations

import heapq
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
    def view(cls, rows, columns):
        """A matrix over the given column dicts, which are neither copied nor
        checked: they must hold no zero and no row outside 0..rows-1, and
        nobody may write to them while the matrix is in use."""
        m = cls(rows, 0)
        m._cols = list(columns)
        m.cols = len(m._cols)
        return m

    def columns(self):
        return self._cols

    @property
    def nnz(self):
        return sum(len(c) for c in self._cols)


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


# -- the elimination engine ------------------------------------------------


def _row(table, r):
    """Row (or column) ``r`` of a transform stored sparsely: identity rows
    are left out of ``table`` until they are first updated."""
    vec = table.get(r)
    if vec is None:
        vec = table[r] = {r: 1}
    return vec


def _resupport(row_sup, j, old, new):
    """Move column ``j`` in the row supports from entries ``old`` to ``new``."""
    for rr in old:
        if rr not in new:
            row_sup[rr].discard(j)
    for rr in new:
        if rr not in old:
            row_sup[rr].add(j)


def _eliminate(cols, V=None, smith=False, U=None, Uinv=None):
    """Pivot the columns ``{index: column}`` (all nonzero) to a diagonal.

    Columns are taken shortest first; each one's pivot is its entry with the
    least key (non-unit, row count, |value|, row), and the pivot row is
    cleared from every other column by column operations.  Those are
    unimodular when V is given (it maps each column index j to a vector
    that takes the same column operations: column j of the transform when
    it starts as e_j) or with ``smith``.  In bare rank mode a non-divisible
    entry instead rescales the other column and leaves the pivot column as
    it is, so the pivot columns of the input stay linearly independent.  With ``smith`` the pivot column is also
    cleared by row operations, recorded in U (rows) and Uinv (columns) when
    given.  The caller's column dicts are never written: a column is copied
    the first time it is updated.  Returns the pivots as (row, column,
    |value|) in elimination order; ``cols`` is consumed.
    """
    unimodular = smith or V is not None
    owned = set()                      # columns copied or built here
    row_sup = {}
    for j, col in cols.items():
        for r in col:
            row_sup.setdefault(r, set()).add(j)
    heap = [(len(c), j) for j, c in cols.items()]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    pivots = []
    while heap:
        sz, j = pop(heap)
        col = cols.get(j)
        if col is None:
            continue
        if len(col) != sz:
            push(heap, (len(col), j))
            continue
        best = None
        for r, v in col.items():
            key = (abs(v) != 1, len(row_sup[r]), abs(v), r)
            if best is None or key < best[0]:
                best = (key, r)
        r = best[1]
        while True:
            # clear row r outside column j by column operations
            v = col[r]
            for k in [k for k in row_sup[r] if k != j]:
                other = cols[k]
                a = other[r]
                if a % v == 0:
                    if k not in owned:
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
                    if V is not None:
                        vec_axpy(V[k], V[j], q)
                else:
                    g, x, y = _xgcd(v, a)
                    vg, ag = v // g, a // g
                    new_k = vec_scale_add(col, -ag, other, vg)
                    _resupport(row_sup, k, other, new_k)
                    cols[k] = new_k
                    owned.add(k)
                    if unimodular:
                        new_j = vec_scale_add(col, x, other, y)
                        _resupport(row_sup, j, col, new_j)
                        cols[j] = col = new_j
                        owned.add(j)
                        v = g
                        if V is not None:
                            V[j], V[k] = (vec_scale_add(V[j], x, V[k], y),
                                          vec_scale_add(V[j], -ag, V[k], vg))
                if cols[k]:
                    push(heap, (len(cols[k]), k))
                else:
                    del cols[k]
            if not smith:
                break
            # clear column j outside row r by row operations
            for i in [i for i in col if i != r]:
                a = cols[j][i]
                if a % v == 0:
                    q = a // v
                    for k in row_sup[r]:       # row i -= q * row r
                        ck = cols[k]
                        if k not in owned:
                            ck = cols[k] = dict(ck)
                            owned.add(k)
                        w = ck.get(i, 0) - q * ck[r]
                        if w:
                            if i not in ck:
                                row_sup[i].add(k)
                            ck[i] = w
                        elif i in ck:
                            del ck[i]
                            row_sup[i].discard(k)
                    if U is not None:
                        vec_axpy(_row(U, i), _row(U, r), q)
                        vec_axpy(_row(Uinv, r), _row(Uinv, i), -q)
                else:
                    g, x, y = _xgcd(v, a)
                    vg, ag = v // g, a // g
                    for k in row_sup[r] | row_sup[i]:
                        ck = cols[k]
                        if k not in owned:
                            ck = cols[k] = dict(ck)
                            owned.add(k)
                        vr, vi = ck.get(r, 0), ck.get(i, 0)
                        for rr, w in ((r, x * vr + y * vi), (i, -ag * vr + vg * vi)):
                            if w:
                                if rr not in ck:
                                    row_sup[rr].add(k)
                                ck[rr] = w
                            elif rr in ck:
                                del ck[rr]
                                row_sup[rr].discard(k)
                    if U is not None:
                        ur, ui = _row(U, r), _row(U, i)
                        U[r], U[i] = (vec_scale_add(ur, x, ui, y),
                                      vec_scale_add(ur, -ag, ui, vg))
                        ur, ui = _row(Uinv, r), _row(Uinv, i)
                        Uinv[r], Uinv[i] = (vec_scale_add(ur, vg, ui, ag),
                                            vec_scale_add(ur, -y, ui, x))
                    v = g
            col = cols[j]
            if len(col) == 1 and len(row_sup[r]) == 1:
                break
        pivots.append((r, j, abs(col[r])))
        for rr in col:
            row_sup[rr].discard(j)
        del cols[j]
    return pivots


# -- rank ------------------------------------------------------------------


def _spanning_forest(columns):
    """Yield the columns of the spanning forest, greedy in column order, of
    the graph that the columns {j: col}, each e_i - e_j, draw on the row
    indices: the only union-find, shared by rank, kernel and Smith."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for j, col in columns.items():
        r1, r2 = col
        for r in (r1, r2):
            if r not in parent:
                parent[r] = r
        a, b = find(r1), find(r2)
        if a != b:
            parent[a] = b
            yield j


def _rooted_forest(columns, forest):
    """Root each tree of the forest by one walk over its own edges:
    {vertex: (parent vertex, parent column, depth, root)}, with parent and
    parent column None at a root."""
    adjacent = {}
    for j in forest:
        a, b = columns[j]
        adjacent.setdefault(a, []).append((b, j))
        adjacent.setdefault(b, []).append((a, j))
    tree = {}
    for root in adjacent:
        if root not in tree:
            tree[root] = (None, None, 0, root)
            walk = [root]
            for v in walk:
                for u, j in adjacent[v]:
                    if u not in tree:
                        tree[u] = (v, j, tree[v][2] + 1, root)
                        walk.append(u)
    return tree


def _incidence_rank(columns, pivots):
    """Rank of an incidence matrix {j: col}; when ``pivots`` is a list,
    the spanning forest's columns are appended."""
    found = pivots if pivots is not None else []
    size = len(found)
    found.extend(_spanning_forest(columns))
    return len(found) - size


def _looks_like_incidence(columns):
    for col in columns:
        if len(col) != 2:
            return False
        v1, v2 = col.values()
        if v1 + v2 != 0 or abs(v1) != 1:
            return False
    return True


def rank_of_columns(columns, pivots=None, non_units=None):
    """Exact rank over the rationals of the matrix with the given columns.

    When ``pivots`` is a list, the indices of the pivot columns are appended
    to it: those columns alone have full rank.  When ``non_units`` is a
    list, the absolute values of the pivots other than +-1 are appended to
    it; if there are none, the elimination (which takes no gcd step here)
    was unimodular.  The input columns are left unchanged.
    """
    cols = {j: col for j, col in enumerate(columns) if col}
    if _looks_like_incidence(cols.values()):
        return _incidence_rank(cols, pivots)     # totally unimodular
    found = _eliminate(cols)
    if pivots is not None:
        pivots.extend(j for _, j, _ in found)
    if non_units is not None:
        non_units.extend(v for _, _, v in found if v != 1)
    return len(found)


def reduce_left_to_right(columns, non_units=None):
    """Pivot rows of the standard (persistence) reduction, as many as the
    rank over Q.  Left to right, each column is reduced at its lowest
    (largest) row against the earlier reduced column with that lowest row,
    until its lowest row is new or it vanishes; a pivot that does not
    divide the entry scales the column by a cofactor first, so a reduced
    column is an integral combination of the input columns.  When
    ``non_units`` is a list, each lowest row whose entry is not +-1 is
    appended: if none is, every step was an integral column operation with
    a unit pivot.  The input columns are left unchanged."""
    reduced = {}                       # lowest row -> reduced column
    for col in columns:
        if not col:
            continue
        low, owned = max(col), False
        while low in reduced:
            other = reduced[low]
            v, a = other[low], col[low]
            if a % v:
                g = gcd(v, a)
                col = vec_scale_add(col, v // g, other, -(a // g))
            else:
                col = vec_axpy(col if owned else dict(col), other, a // v)
            owned = True
            if not col:
                break
            low = max(col)
        else:
            reduced[low] = col
            if non_units is not None and abs(col[low]) != 1:
                non_units.append(low)
    return list(reduced)


# -- kernel with coordinates ---------------------------------------------


def kernel_with_coords(matrix):
    """Integer kernel lattice of the matrix, with coordinates.

    Returns (rank, basis, coords): ``basis`` is a list of sparse vectors
    (dicts over column indices) forming a lattice basis of the kernel, and
    ``coords`` = (pos, block) gives any kernel vector's coordinates in that
    basis through ``lattice_coords``: its entries at the rows of ``pos``
    (row -> basis index), forward-substituted through the lower-triangular
    ``block`` unless that is None (the identity).

    The basis is V at the non-pivot columns F.  When each basis vector
    restricted to F is its own unit vector, restriction to F is the
    coordinate map.  Pivot values cannot decide this: a gcd step can turn a
    2 into a reported 1.  Otherwise the engine runs again on the basis
    vectors as columns, with V started at those vectors, so V ends at the
    new basis.  A pivot row is cleared from every column pivoted after it,
    so the new basis restricted to the pivot rows is lower-triangular in
    pivot order.

    On an incidence matrix the engine's columns keep length 2, so it takes
    them in index order and pivots on ``_spanning_forest``'s forest.  Its
    basis vector at a free column f, a 1 at f and otherwise on the forest,
    is unique: f's fundamental cycle, walked here on the rooted forest.
    """
    ncols = matrix.cols
    cols = {j: col for j, col in enumerate(matrix.columns()) if col}
    if _looks_like_incidence(cols.values()):
        forest = list(_spanning_forest(cols))
        tree, in_forest = _rooted_forest(cols, forest), set(forest)
        free = [j for j in range(ncols) if j not in in_forest]
        basis = []
        for f in free:
            basis.append(vec := {f: 1})
            if f in cols:      # a zero column's vector is its unit vector
                (a, s), (b, _) = cols[f].items()
                while a != b:  # what is left of column f is s (e_a - e_b)
                    if tree[a][2] < tree[b][2]:
                        a, b, s = b, a, -s
                    parent, j = tree[a][:2]    # a's parent column moves a up
                    vec[j] = -s * cols[j][a]
                    a = parent
        return len(forest), basis, ({j: i for i, j in enumerate(free)}, None)
    V = {j: {j: 1} for j in range(ncols)}
    found = _eliminate(cols, V)
    pivot_cols = {j for _, j, _ in found}
    free = [j for j in range(ncols) if j not in pivot_cols]
    basis = [V[j] for j in free]
    if all(V[j].get(j) == 1 and all(k == j or k in pivot_cols for k in V[j])
           for j in free):
        return len(found), basis, ({j: i for i, j in enumerate(free)}, None)
    V = {i: dict(vec) for i, vec in enumerate(basis)}
    order = _eliminate(dict(enumerate(basis)), V)
    basis = [V[i] for _, i, _ in order]
    rows = [r for r, _, _ in order]
    block = [{t: vec[r] for t, vec in enumerate(basis) if r in vec} for r in rows]
    return len(found), basis, ({r: t for t, r in enumerate(rows)}, block)


def lattice_coords(coords, vec):
    """Coordinates of a lattice vector in the basis that ``coords`` comes
    with (see ``kernel_with_coords``).  Raises LinAlgError when a division
    in the forward substitution is not exact: the vector is then not in the
    lattice."""
    pos, block = coords
    y = {pos[k]: v for k, v in vec.items() if k in pos}
    if block is None:
        return y
    x = {}
    for t, row in enumerate(block):
        acc = y.get(t, 0) - sum(a * x[s] for s, a in row.items() if s in x)
        if acc:
            c, rem = divmod(acc, row[t])
            if rem:
                raise LinAlgError("vector is not in the lattice")
            x[t] = c
    return x


# -- Smith normal form ------------------------------------------------------


def _chain_fix(pivots, u_rows, uinv_cols):
    """Enforce the divisibility chain on the recorded pivots in place.  A unit
    divides everything, so only non-unit pivots are paired up (by row
    operations on pivot rows alone); the final sort puts the units first."""
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
                    u_rows[r1] = vec_scale_add(_row(u_rows, r1), 1,
                                               _row(u_rows, r2), 1)
                    uinv_cols[r2] = vec_scale_add(_row(uinv_cols, r2), 1,
                                                  _row(uinv_cols, r1), -1)
                    u_rows[r2] = vec_scale_add(_row(u_rows, r2), 1,
                                               _row(u_rows, r1), -m)
                    uinv_cols[r1] = vec_scale_add(_row(uinv_cols, r1), 1,
                                                  _row(uinv_cols, r2), m)
                pivots[i] = (r1, c1, g)
                pivots[k] = (r2, c2, lcm)
    pivots.sort(key=lambda t: t[2])


def smith_diagonalize(matrix, track_u=False):
    """Diagonalize by unimodular row and column operations.

    Returns (pivots, u_rows, uinv_cols) where pivots is a list of
    (row, col, divisor) with the divisor chain d1 | d2 | ... enforced, and,
    when tracked, u_rows / uinv_cols hold the row transform U and its
    inverse (U @ M @ V is the diagonal; V is not kept).

    On an incidence matrix every divisor is 1, pivoted at (v, parent
    column of v) for each non-root v of the rooted spanning forest: by
    depth, those rows are triangular with a unit diagonal.  U's row at a
    root is its tree's indicator, which kills every column, and U^-1's
    column v is e_v - e_root.  A row in no column is a free unit row.
    """
    cols = {j: col for j, col in enumerate(matrix.columns()) if col}
    u_rows = {} if track_u else None
    uinv_cols = {} if track_u else None
    if _looks_like_incidence(cols.values()):
        tree = _rooted_forest(cols, _spanning_forest(cols))
        pivots = [(v, j, 1) for v, (_, j, _, _) in tree.items() if j is not None]
        if track_u:
            for v, (parent, _, _, root) in tree.items():
                u_rows.setdefault(root, {})[v] = 1
                if parent is not None:
                    uinv_cols[v] = {v: 1, root: -1}
        return pivots, u_rows, uinv_cols
    pivots = _eliminate(cols, smith=True, U=u_rows, Uinv=uinv_cols)
    _chain_fix(pivots, u_rows, uinv_cols)
    return pivots, u_rows, uinv_cols


def smith_normal_form(matrix):
    """Divisor chain d1 | d2 | ... | dr of the matrix."""
    return [d for _, _, d in smith_diagonalize(matrix)[0]]
