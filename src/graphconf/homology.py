"""Integral homology of the cube complexes: presentations with exact cycle
bases and solvers, span (generation) checks, and the maps induced by
subcomplex inclusions and graph automorphisms."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .complexes import (CubeComplex, _boundary_columns, _oracle_cells_by_dim,
                        _oracle_faces, oracle_subdivision)
from .graphs import subdivide
from .linalg import (
    SparseIntMatrix,
    kernel_with_coords,
    rank_of_columns,
    smith_diagonalize,
    smith_normal_form,
)


class HomologyError(ValueError):
    pass


def _rows_to_col_form(rows):
    """Transpose a list of sparse row dicts into {col: {row_i: v}}."""
    out = {}
    for i, row in enumerate(rows):
        for k, v in row.items():
            out.setdefault(k, {})[i] = v
    return out


def _dict_dot_block(col_form, vec):
    acc = {}
    for k, a in vec.items():
        block = col_form.get(k)
        if not block:
            continue
        for i, rv in block.items():
            w = acc.get(i, 0) + a * rv
            if w:
                acc[i] = w
            else:
                del acc[i]
    return acc


@dataclass
class HomologyPresentation:
    """H_q of a complex: Betti number, torsion, and an exact solver that
    expresses any q-cycle in free-part homology coordinates."""

    complex: CubeComplex
    q: int
    betti: int
    torsion: tuple
    cycle_basis: list
    cycle_rank: int                    # dim Z_q
    _coord_col_form: dict = field(repr=False, default_factory=dict)
    _image_cols: list = field(repr=False, default_factory=list)
    _u_rows: dict = field(repr=False, default_factory=dict)
    _free_rows: list = field(repr=False, default_factory=list)

    def is_cycle(self, zvec):
        return not self.complex.boundary(self.q).apply(zvec)

    def kernel_coords(self, zvec):
        """Coordinates of a cycle in the chosen basis of the cycle lattice."""
        if not self.is_cycle(zvec):
            raise HomologyError("vector is not a cycle")
        return _dict_dot_block(self._coord_col_form, zvec)

    def _free_coordinate(self, y, r):
        """Free row r of U applied to cycle-lattice coordinates y."""
        row = self._u_rows.get(r)
        if row is None:
            return y.get(r, 0)
        return sum(u * y[k] for k, u in row.items() if k in y)

    def project(self, zvec):
        """Free-part homology coordinates of a cycle (exact integers)."""
        y = self.kernel_coords(zvec)
        return tuple(self._free_coordinate(y, r) for r in self._free_rows)

    def coordinate(self, zvec, i):
        """Free-part homology coordinate i of a cycle: ``project(zvec)[i]``
        at the cost of one row of U."""
        return self._free_coordinate(self.kernel_coords(zvec),
                                     self._free_rows[i])

    def require_basis(self):
        if self.betti and not self.cycle_basis:
            raise HomologyError(
                "this presentation was built without basis cycles")
        return self


def homology(complex_, q, basis=True):
    """Integral homology H_q with torsion, basis cycles, and a projector."""
    if q < 0:
        raise HomologyError("degree must be nonnegative")
    f_q = len(complex_.cells[q]) if q <= complex_.top_dimension else 0
    if f_q == 0:
        return HomologyPresentation(complex_, q, 0, (), [], 0)
    d_q = complex_.boundary(q)
    d_q1 = complex_.boundary(q + 1)

    rk, kernel_basis, coord_rows = kernel_with_coords(d_q)
    z = f_q - rk
    coord_col_form = _rows_to_col_form(coord_rows)

    image_cols = [_dict_dot_block(coord_col_form, col) for col in d_q1.columns()]
    m = SparseIntMatrix.from_columns(z, image_cols)
    pivots, u_rows, uinv_cols = smith_diagonalize(m, track_u=True)
    pivot_rows = {r for r, _, _ in pivots}
    free_rows = [r for r in range(z) if r not in pivot_rows]
    torsion = tuple(d for _, _, d in pivots if d > 1)
    betti = z - len(pivots)

    basis_vecs = []
    if basis:
        for r in free_rows:
            ucol = uinv_cols.get(r, {r: 1})
            vec = {}
            for k, coeff in ucol.items():
                for cell, v in kernel_basis[k].items():
                    w = vec.get(cell, 0) + coeff * v
                    if w:
                        vec[cell] = w
                    else:
                        del vec[cell]
            basis_vecs.append(vec)

    return HomologyPresentation(
        complex_, q, betti, torsion, basis_vecs, z,
        _coord_col_form=coord_col_form,
        _image_cols=image_cols,
        _u_rows=u_rows or {},
        _free_rows=free_rows,
    )


def _betti_from_boundaries(f, columns_of, qmax):
    """Betti numbers b_0..b_qmax of a complex with f_q cells in degree q.

    ``columns_of(q, dropped)`` returns the columns of d_q without the rows
    in ``dropped``.  The loop runs bottom-up and drops from d_(q+1) the rows
    of the pivot columns P that the elimination of d_q found.  Those columns
    are linearly independent, so no nonzero q-cycle is supported on P, and
    deleting the coordinates in P is injective on Z_q.  The image of
    d_(q+1) lies in Z_q, so its rank is unchanged by the deletion.  For
    q = 1, P is the spanning forest of the 1-skeleton.
    """
    top = len(f) - 1
    if qmax is None:
        qmax = top
    ranks = [0] * (top + 2)            # ranks[q] = rank d_q; d_0 = 0
    pivots = []
    for q in range(1, min(top, qmax + 1) + 1):
        dropped = set(pivots)
        pivots = []
        ranks[q] = rank_of_columns(columns_of(q, dropped), pivots)
    return [f[q] - ranks[q] - ranks[q + 1] if q <= top else 0
            for q in range(qmax + 1)]


def betti_numbers(complex_, qmax=None):
    """Rational Betti numbers b_0..b_qmax via exact boundary ranks."""

    def columns_of(q, dropped):
        return [{r: v for r, v in col.items() if r not in dropped}
                for col in complex_.boundary(q).columns()]

    return _betti_from_boundaries(complex_.f_vector(), columns_of, qmax)


def oracle_betti_numbers(graph, n, qmax=None, budget=None):
    """Betti numbers of the discretized cross-check model, streamed so the
    boundary matrices are freed dimension by dimension."""
    fine = subdivide(graph, oracle_subdivision(graph, n))
    cells_by_dim = _oracle_cells_by_dim(fine, n, budget)
    f = [len(cs) for cs in cells_by_dim]
    while len(f) > 1 and not f[-1]:
        f.pop()
    vid = {v: i for i, v in enumerate(fine.vertices)}
    faces = partial(_oracle_faces, fine, vid=vid)

    def columns_of(q, dropped):
        index = {cell: i for i, cell in enumerate(cells_by_dim[q - 1])}
        return _boundary_columns(cells_by_dim[q], faces, index, dropped)

    return _betti_from_boundaries(f, columns_of, qmax)


# -- generation (span) checks ----------------------------------------------


@dataclass(frozen=True)
class GeneratedCheck:
    generates_over_Q: bool
    generates_over_Z: bool
    missing_rank: int


def generated_check(complex_, q, candidate_cycles, presentation=None):
    """Do the candidates' classes, together with the boundary image, span?

    Over Q: the classes span H_q tensor Q.  Over Z: candidates plus
    im d_(q+1) generate the full cycle lattice Z_q, checked through the
    Smith divisors of [image | candidates] in cycle-lattice coordinates
    (trivial cokernel).
    """
    pres = presentation or homology(complex_, q, basis=False)
    cols = list(pres._image_cols)
    for zvec in candidate_cycles:
        cols.append(pres.kernel_coords(zvec))   # validates the cycle condition
    divisors = smith_normal_form(
        SparseIntMatrix.from_columns(pres.cycle_rank, cols))
    rk = len(divisors)
    missing = pres.cycle_rank - rk
    over_q = missing == 0
    over_z = over_q and all(d == 1 for d in divisors)
    return GeneratedCheck(over_q, over_z, missing)


# -- induced maps ------------------------------------------------------------


def push_cycle(zvec, injection_q):
    return {injection_q[i]: v for i, v in zvec.items()}


def induced_inclusion_map(subcomplex, injection, complex_, q,
                          presentation=None, sub_presentation=None):
    """Matrix of H_q(sub) -> H_q(ambient) on free parts, plus the pushed
    basis cycles themselves (raw, for span checks)."""
    if len(injection) < min(q, subcomplex.top_dimension) + 1:
        raise HomologyError("injection does not cover the requested degree")
    if q <= subcomplex.top_dimension and subcomplex.cells[q]:
        inj = injection[q]
        sub_cells = subcomplex.cells[q]
        for i in (0, len(sub_cells) - 1):
            if complex_.cells[q][inj[i]] != sub_cells[i]:
                raise HomologyError("injection inconsistent with the ambient complex")
    pres_sub = (sub_presentation or homology(subcomplex, q)).require_basis()
    pres = presentation or homology(complex_, q)
    pushed = []
    cols = []
    for vec in pres_sub.cycle_basis:
        pz = push_cycle(vec, injection[q])
        pushed.append(pz)
        coords = pres.project(pz)
        cols.append({i: v for i, v in enumerate(coords) if v})
    matrix = SparseIntMatrix.from_columns(pres.betti, cols)
    return matrix, pushed


# -- chain maps from graph automorphisms ------------------------------------


class ChainMap:
    """Signed permutation chain map induced by a graph automorphism fixing
    the particle labels (all signs are +1 here: axes stay in label order)."""

    def __init__(self, complex_, vertex_map, edge_map, reversed_edges):
        self.complex = complex_
        self.vertex_map = vertex_map
        self.edge_map = edge_map
        self.reversed_edges = reversed_edges
        self._images = [[] for _ in complex_.cells]   # built on first use

    def images(self, q, indices):
        """Indices of the images of the degree-q cells numbered ``indices``."""
        cells, index = self.complex.cells[q], self.complex._index[q]
        try:
            return [index[self._map_cell(cells[i])] for i in indices]
        except KeyError as exc:
            raise HomologyError(
                "automorphism does not preserve the complex") from exc

    def _map_cell(self, cell):
        vkey, ekey, moves = cell
        vm, em, rev = self.vertex_map, self.edge_map, self.reversed_edges
        new_v = tuple(sorted((vm[v], parts) for v, parts in vkey))
        new_e = tuple(sorted(
            (em[e], parts[::-1] if em[e] in rev else parts)
            for e, parts in ekey))
        new_m = tuple(sorted(
            (p, em[e], (1 - end) if em[e] in rev else end)
            for p, e, end in moves))
        return (new_v, new_e, new_m)

    def matrix(self, q):
        if q > self.complex.top_dimension:
            return SparseIntMatrix(0, 0)
        f = len(self.complex.cells[q])
        return SparseIntMatrix.from_columns(
            f, [self.apply(q, {i: 1}) for i in range(f)])

    def apply(self, q, vec):
        if not self._images[q]:
            self._images[q] = self.images(q, range(len(self.complex.cells[q])))
        images = self._images[q]
        return {images[i]: v for i, v in vec.items()}

    def commutes_with_boundary(self):
        for q in range(1, self.complex.top_dimension + 1):
            d = self.complex.boundary(q)
            left = self.matrix(q - 1).multiply(d)
            right = d.multiply(self.matrix(q))
            if left != right:
                return False
        return True

    def homology_matrix(self, presentation):
        presentation.require_basis()
        q = presentation.q
        cols = []
        for vec in presentation.cycle_basis:
            coords = presentation.project(self.apply(q, vec))
            cols.append({i: v for i, v in enumerate(coords) if v})
        return SparseIntMatrix.from_columns(presentation.betti, cols)

    def homology_trace(self, presentation):
        """Trace on free homology: the sum over basis cycles z_i of
        coordinate i of the image of z_i.  Only the degree-q cells the basis
        uses are mapped."""
        basis = presentation.require_basis().cycle_basis
        if not basis:
            return 0
        cells = list({c for vec in basis for c in vec})
        image = dict(zip(cells, self.images(presentation.q, cells)))
        return sum(
            presentation.coordinate({image[c]: v for c, v in vec.items()}, i)
            for i, vec in enumerate(basis))


def permutation_action_map(complex_, vertex_map, edge_map=None):
    """Chain maps of the automorphism given by ``vertex_map`` (and, for
    multigraphs where images are ambiguous, an explicit ``edge_map``)."""
    g = complex_.graph
    verts = set(g.vertices)
    if set(vertex_map) != verts or set(vertex_map.values()) != verts:
        raise HomologyError("vertex map is not a bijection on the vertices")
    if {vertex_map[v] for v in complex_.sinks} != set(complex_.sinks):
        raise HomologyError("automorphism must preserve the sink set")
    emap = {}
    reversed_edges = set()
    for e, (a, b) in enumerate(g.edges):
        ga, gb = vertex_map[a], vertex_map[b]
        if edge_map is not None:
            img = edge_map[e]
            x, y = g.edges[img]
            if {x, y} != {ga, gb}:
                raise HomologyError("edge map inconsistent with vertex map")
        else:
            hits = [i for i, (x, y) in enumerate(g.edges) if {x, y} == {ga, gb}]
            if len(hits) != 1:
                raise HomologyError(
                    f"edge image of {e} ambiguous; pass an explicit edge map")
            img = hits[0]
        emap[e] = img
        if g.edges[img] == (gb, ga) and ga != gb:
            reversed_edges.add(img)
    if sorted(emap.values()) != list(range(g.n_edges)):
        raise HomologyError("edge map is not a bijection")
    return ChainMap(complex_, dict(vertex_map), emap, reversed_edges)
