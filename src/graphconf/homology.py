"""Integral homology of the cube complexes: presentations with exact cycle
bases and solvers, of whole complexes and of supports in them, span
(generation) checks, and the chain maps of graph automorphisms."""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import DEFAULT_CELL_BUDGET, CubeComplex, build_abrams_oracle
from .linalg import (
    SparseIntMatrix,
    kernel_with_coords,
    lattice_coords,
    rank_of_columns,
    reduce_left_to_right,
    smith_diagonalize,
    smith_normal_form,
    vec_axpy,
)


class HomologyError(ValueError):
    pass


@dataclass
class HomologyPresentation:
    """H_q of a complex or of a support in it: Betti number, torsion,
    generators, and an exact solver that expresses any q-cycle in
    homology coordinates.  The generators are free ones first, then one
    per torsion divisor, and the homology coordinates follow that order.
    A cycle's cycle-lattice coordinates are ``lattice_coords(_coords,
    cycle)``: its entries at the rows of ``_coords``, forward-substituted
    through the triangular block when there is one.  ``_projector`` maps
    each cycle-lattice coordinate k to the homology coordinates it feeds,
    {i: U[rows[i]][k]}, where U is the Smith row transform of the image
    columns and ``rows`` are the homology rows.  A support's presentation
    keeps its supported q-cells in ``_support`` and takes only cycles on
    them."""

    complex: CubeComplex
    q: int
    betti: int
    torsion: tuple
    generators: list
    cycle_rank: int                    # dim Z_q
    _coords: tuple = field(repr=False, default=({}, None))
    _projector: dict = field(repr=False, default_factory=dict)
    _support: frozenset | None = field(repr=False, default=None)

    @property
    def cycle_basis(self):
        """Cycles whose classes are a basis of the free part."""
        return self.generators[:self.betti]

    def boundary_columns(self, chains):
        """d_q's columns at the cells of the given chains, by cell."""
        cells = list({c for vec in chains for c in vec})
        return dict(zip(cells, self.complex.boundary(self.q, cells=cells).columns()))

    def kernel_coords(self, zvec, d_q=None):
        """Coordinates of a cycle in the chosen basis of the cycle lattice.
        ``d_q`` holds d_q's columns by cell, as ``boundary_columns`` gives them."""
        if self._support is not None and not self._support.issuperset(zvec):
            raise HomologyError("cycle is not supported on the support")
        d_q, image = d_q or self.boundary_columns([zvec]), {}
        for c, v in zvec.items():
            vec_axpy(image, d_q[c], -v)
        if image:
            raise HomologyError("vector is not a cycle")
        return lattice_coords(self._coords, zvec)

    def homology_coords(self, zvec, d_q=None):
        """Coordinates of a cycle's class: its cycle-lattice coordinates
        carried through ``_projector`` (the free part first; torsion
        entries are not reduced mod their divisors)."""
        out = {}
        for k, v in self.kernel_coords(zvec, d_q).items():
            for i, u in self._projector.get(k, {}).items():
                out[i] = out.get(i, 0) + u * v
        return {i: v for i, v in out.items() if v}

    def require_basis(self):
        if self.betti and not self.generators:
            raise HomologyError(
                "this presentation was built without basis cycles")
        return self


def homology(complex_, q, basis=True, support=None):
    """Integral homology H_q with torsion, generators, and a projector.

    Cycles are read in Z_q coordinates, and H_q is the cokernel of
    d_(q+1) read that way.  If d_q eliminates unimodularly with unit
    pivots, restriction to the non-pivot columns F is an isomorphism
    Z_q -> Z^F, so the coordinates are a cycle's entries on F and Smith
    runs on d_(q+1) without the pivot rows (as in the Betti loop).  Without
    a basis those pivots come from the rank path (for q = 1 the spanning
    forest); with a basis, or when the rank path reports a non-unit pivot,
    they come from ``kernel_with_coords``, which restricts to its own
    non-pivot columns when that is the coordinate map and otherwise
    forward-substitutes through a triangular block.

    Smith on the image columns, U M V = D, gives the homology rows: the
    rows without a pivot (the free part), then the rows whose divisor
    exceeds 1.  U's rows there carry cycle-lattice coordinates to
    homology coordinates; the projector holds them column by column,
    reading a row that U does not store as a unit row.  U^-1's columns
    there are the generators (``homology_generators``).

    Clearing over Z, for q >= 1 (at q = 0, d_1's Smith form is the forest
    walk): ``reduce_left_to_right`` on d_(q+2) gives columns d_(q+2) x
    with x integral, each with a distinct lowest row.  If one has the
    entry +-1 at its lowest row i, d_(q+1) applied to it is 0 and writes
    column i of d_(q+1) as an integral combination of the columns left of
    it; by induction on i, the columns at such rows add nothing to the
    image lattice and are left out.  Columns at non-unit lowest rows stay.
    Each boundary is assembled for the cells read and not kept.

    With ``support``, a per-degree cell injection as
    ``subcomplex_supported_in`` returns it, this is H_q of the cells it
    lists.  Supported cells are closed under faces, so the ambient d_q and
    d_(q+1) at them are the support's own boundaries up to the numbering
    of rows: those columns are read directly, and cycles, generators and
    coordinates stay in the ambient cell numbering.  Such a presentation
    rejects a cycle with an entry off the supported cells.
    """
    if q < 0:
        raise HomologyError("degree must be nonnegative")

    def cells_of(k):
        if support is None:
            return range(len(complex_.codes[k]) if k <= complex_.top_dimension else 0)
        return support[k] if k < len(support) else []

    cells = cells_of(q)
    f_q = len(cells)
    supported = None if support is None else frozenset(cells)
    if f_q == 0:
        return HomologyPresentation(complex_, q, 0, (), [], 0,
                                    _support=supported)
    d_q = complex_.boundary(q, cells=cells)
    coords = None
    if not basis:
        pivots, non_units = [], []
        rk = rank_of_columns(d_q.columns(), pivots, non_units)
        if not non_units:
            free = sorted(set(range(f_q)).difference(pivots))
            coords = ({j: i for i, j in enumerate(free)}, None)
    if coords is None:
        rk, kernel_basis, coords = kernel_with_coords(d_q)
    del d_q
    if support is not None:
        coords = ({cells[j]: i for j, i in coords[0].items()}, coords[1])
    up = cells_of(q + 1)
    if q:
        non_units = []
        cleared = set(reduce_left_to_right(complex_.boundary(
            q + 2, cells=cells_of(q + 2)).columns(), non_units))
        cleared.difference_update(non_units)
        up = [j for j in up if j not in cleared]
    z = f_q - rk
    m = SparseIntMatrix.view(z, [lattice_coords(coords, col) for col in
                                 complex_.boundary(q + 1, cells=up).columns()])
    pivots, u_rows, uinv_cols = smith_diagonalize(m, track_u=True)
    pivot_rows = {r for r, _, _ in pivots}
    rows = [r for r in range(z) if r not in pivot_rows]
    rows += [r for r, _, d in pivots if d > 1]
    torsion = tuple(d for _, _, d in pivots if d > 1)
    betti = z - len(pivots)
    projector = {}
    for i, r in enumerate(rows):
        for k, u in u_rows.get(r, {r: 1}).items():
            projector.setdefault(k, {})[i] = u

    generators = []
    if basis:
        generators = homology_generators(kernel_basis, rows, uinv_cols)
        if support is not None:
            generators = [push_cycle(vec, cells) for vec in generators]

    return HomologyPresentation(
        complex_, q, betti, torsion, generators, z,
        _coords=coords,
        _projector=projector,
        _support=supported,
    )


def homology_generators(kernel_basis, rows, uinv_cols):
    """Cycles whose classes generate H_q = Z_q / B_q, read off the Smith
    form U M V = D of d_(q+1) in the coordinates of ``kernel_basis``, with
    U^-1 tracked.  For each pivot (r, c, d), column c of M V = U^-1 D is d
    times U^-1's column r, so U^-1's columns at unit pivots lie in B_q,
    and the others generate Z_q modulo B_q.  The cycles are U^-1's columns
    at ``rows`` (the homology rows: those without a pivot, then those whose
    divisor exceeds 1), summed over the kernel basis."""
    cycles = []
    for r in rows:
        vec = {}
        for k, coeff in uinv_cols.get(r, {r: 1}).items():
            vec_axpy(vec, kernel_basis[k], -coeff)
        cycles.append(vec)
    return cycles


def betti_numbers(complex_, qmax=None):
    """Rational Betti numbers b_0..b_qmax via exact boundary ranks, by
    "clear and compress".  d_1 is ranked on the spanning forest F of the
    1-skeleton, then every d_q with q >= 2 from the top dimension down
    (also when ``qmax`` is smaller) by ``reduce_left_to_right``.  Clearing:
    a pivot row i of d_(q+1) is the lowest row of a cycle, so column i of
    d_q is a combination of the columns left of it, and is not assembled.
    Compression: d_2 is assembled without F's rows, which is injective on
    Z_1 since F's columns are independent.  Each boundary is assembled for
    the loop alone.  ``homology`` ranks d_q with the engine, which prefers
    unit pivots: the lowest-row rule meets a non-unit in d_2 of K_5 and
    K_3,3 at n = 3, where a presentation would then need a kernel basis.
    """
    f = complex_.f_vector()
    top = len(f) - 1
    if qmax is None:
        qmax = top
    ranks = [0] * (top + 2)            # ranks[q] = rank d_q; d_0 = 0
    forest, cleared = [], ()
    if top > 0:
        ranks[1] = rank_of_columns(complex_.boundary(1).columns(), forest)
    for q in range(top, 1, -1) if qmax else ():
        kept = (j for j in range(f[q]) if j not in cleared)
        cleared = set(reduce_left_to_right(complex_.boundary(
            q, set(forest) if q == 2 else (), kept).columns()))
        ranks[q] = len(cleared)
    return [f[q] - ranks[q] - ranks[q + 1] if q <= top else 0
            for q in range(qmax + 1)]


def oracle_betti_numbers(graph, n, qmax=None, budget=DEFAULT_CELL_BUDGET):
    """Betti numbers of the discretized cross-check model."""
    return betti_numbers(build_abrams_oracle(graph, n, budget), qmax)


# -- generation (span) checks ----------------------------------------------


@dataclass(frozen=True)
class GeneratedCheck:
    generates_over_Q: bool
    generates_over_Z: bool
    missing_rank: int


def generated_check(complex_, q, candidate_cycles, presentation=None,
                    columns=None):
    """Do the candidates' classes, together with the boundary image, span?

    Over Q: the classes span H_q tensor Q.  Over Z: they generate H_q =
    Z^b + sum of Z/d_i.  Checked in homology coordinates, through the Smith
    divisors of the candidates' coordinates beside one column d_i e_i per
    torsion divisor; U carries Z_q / B_q onto that group, so this is the
    verdict of [image | candidates] in cycle-lattice coordinates.  When
    ``columns`` is a list, the candidates' homology coordinates are
    appended to it and the check runs on the whole list: a caller that
    checks a growing set passes only the new candidates each time.
    """
    pres = presentation or homology(complex_, q, basis=False)
    columns = [] if columns is None else columns
    # homology_coords validates the cycle condition
    d_q = pres.boundary_columns(candidate_cycles)
    columns.extend(pres.homology_coords(zvec, d_q) for zvec in candidate_cycles)
    cols = columns + [{pres.betti + i: d} for i, d in enumerate(pres.torsion)]
    rows = pres.betti + len(pres.torsion)
    divisors = smith_normal_form(SparseIntMatrix.view(rows, cols))
    missing = rows - len(divisors)
    over_q = missing == 0
    over_z = over_q and all(d == 1 for d in divisors)
    return GeneratedCheck(over_q, over_z, missing)


def push_cycle(zvec, injection_q):
    return {injection_q[i]: v for i, v in zvec.items()}


# -- chain maps from graph automorphisms ------------------------------------


class ChainMap:
    """Signed permutation chain map induced by a graph automorphism fixing
    the particle labels (all signs are +1 here: axes stay in label order).
    It permutes the 0-cells and relabels their candidate moves."""

    def __init__(self, complex_, vertex_map, edge_map, reversed_edges):
        self.complex = complex_
        self.vertex_map = vertex_map
        self.edge_map = edge_map
        self.reversed_edges = reversed_edges
        self._cell_image = complex_.tables.cell_map(vertex_map, edge_map,
                                                    reversed_edges)

    def images(self, q, indices):
        """Positions of the images of the degree-q cells at ``indices``."""
        codes, image = self.complex.codes[q], self._cell_image
        try:
            return [image(codes[i]) for i in indices]
        except KeyError as exc:
            raise HomologyError(
                "automorphism does not preserve the complex") from exc

    def push(self, q, vectors):
        """Images of the degree-q chains ``vectors``.  Only the cells they
        use are mapped."""
        cells = list({c for vec in vectors for c in vec})
        image = dict(zip(cells, self.images(q, cells))) if cells else {}
        return [{image[c]: v for c, v in vec.items()} for vec in vectors]

    def homology_trace(self, presentation):
        """Trace on free homology: the sum over basis cycles z_i of
        coordinate i of the image of z_i."""
        images = self.push(presentation.q,
                           presentation.require_basis().cycle_basis)
        d_q = presentation.boundary_columns(images)
        return sum(presentation.homology_coords(vec, d_q).get(i, 0)
                   for i, vec in enumerate(images))


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
