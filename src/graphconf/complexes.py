"""Combinatorial cube-complex models of graph configuration spaces.

Two models are built.  The main model places, for each edge carrying l
particles, those particles at positions i/(l+1) along the edge; a q-cube is
a 0-cell plus q particles sweeping from an extremal edge slot to the
adjacent vertex, no two of them approaching the same non-sink vertex.  The
independent cross-check is the classical discretized model on a graph whose
edges are cut as finely as Prue & Scrimshaw (2014) require, into
``oracle_subdivision(graph, n)`` pieces each: a q-cell there is q pairwise
disjoint closed edges plus n-q distinct vertices, all closures disjoint.

Canonical cell keys:

  model cell   ((vertex occupancy), (edge tuples), (moves))
      vertex occupancy: sorted ((vertex, (particles, ...)), ...)
      edge tuples:      sorted ((edge, (particles in slot order)), ...)
      moves:            ((particle, edge, end), ...) sorted by particle
  oracle cell  (loc_1, ..., loc_n) with loc < V a vertex, V + e an edge.

Oracle cells are stored as their keys.  A main-model cell is stored as one
integer, ``z << 2n | mask``: the 0-cells are numbered in sorted key order,
each 0-cell's candidate moves are sorted by (particle, edge, end), and the
mask picks the cell's moves among them.  Move sets of one 0-cell come in
lexicographic order, so the cells keep the order of their keys.  Face
tables, made once per 0-cell and candidate, give the 0-cell a move lands
in and the bits the other candidates take there: a face costs a few
integer operations, and every lookup hashes an int.  Automorphisms act as
a permutation of the 0-cells plus a relabelling of candidates, and support
in a subgraph is decided once per 0-cell.  ``CubeComplex.cells`` decodes
the keys on first use, for reports and tests.

Both use the boundary convention, moves ordered by particle label,

  d C = sum_i (-1)^(i+1) (landed face_i - resting face_i),

and ``CubeComplex.boundary`` is the one place where either model's boundary
columns are assembled: from the face tables in the main model, and from
``_oracle_faces`` in the oracle.  Only a bare ``boundary(q)`` is memoized,
for chain maps and tests; the Betti loop's d_q without the rows and columns
settled before, and presentations' columns at their cells, are built for
the caller and not kept.
"""

from __future__ import annotations

from functools import partial

from .graphs import GraphError, Subgraph, subdivide
from .linalg import SparseIntMatrix


class BudgetExceeded(RuntimeError):
    """A complex would exceed the configured cell budget."""


class ModelError(ValueError):
    """Invalid model construction request."""


MODEL_KIND = "combinatorial-model"
ORACLE_KIND = "abrams-oracle"

DEFAULT_CELL_BUDGET = 5_000_000


class CubeComplex:
    """A finite cube complex with exact integer boundary matrices.

    ``codes[q]`` holds the stored q-cells in order: integer codes read
    through ``tables`` (a ``_ModelTables``) in the main model, location
    tuples in the oracle.  ``cells`` gives the canonical keys.
    """

    def __init__(self, graph, n, sinks, kind, cells_by_dim, tables=None):
        self.graph = graph
        self.n = n
        self.sinks = frozenset(sinks)
        self.kind = kind
        self.tables = tables
        self.codes = [tuple(cs) for cs in cells_by_dim]
        while self.codes and not self.codes[-1]:
            self.codes.pop()
        self._cells = None
        self._positions = {}
        self._boundaries = {}

    # -- structure -------------------------------------------------------

    @property
    def top_dimension(self):
        return len(self.codes) - 1

    def f_vector(self):
        return [len(cs) for cs in self.codes]

    @property
    def total_cells(self):
        return sum(len(cs) for cs in self.codes)

    def euler_characteristic(self):
        return sum((-1) ** q * len(cs) for q, cs in enumerate(self.codes))

    @property
    def cells(self):
        """Canonical cell keys per dimension, in the order of ``codes``;
        the main model decodes them on first use."""
        if self.tables is None:
            return self.codes
        if self._cells is None:
            key = self.tables.key
            self._cells = [tuple(map(key, cs)) for cs in self.codes]
        return self._cells

    def code_index(self, q):
        """Stored cell -> position in ``codes[q]``, built on first use."""
        if q not in self._positions:
            self._positions[q] = {c: i for i, c in enumerate(self.codes[q])}
        return self._positions[q]

    # -- boundary --------------------------------------------------------

    def boundary(self, q, dropped=None, cells=None):
        """Boundary matrix C_q -> C_(q-1); rows index (q-1)-cells.

        A bare ``boundary(q)`` is built once and memoized.  With q-cell
        positions ``cells``, read once, only those columns are returned, in
        that order: read off the memo when d_q is there, otherwise assembled
        for the caller and not kept.  With a set ``dropped`` the matrix is
        assembled afresh without those rows, and neither read from nor kept
        in the memo."""
        if q < 0:
            return SparseIntMatrix(0, 0)
        memo = self._boundaries.get(q) if dropped is None else None
        if memo is not None:
            return memo if cells is None else memo.select_columns(cells)
        kept = dropped is None and cells is None
        codes = self.codes[q] if q <= self.top_dimension else ()
        codes = codes if cells is None else [codes[j] for j in cells]
        if q == 0 or q > self.top_dimension:
            rows = len(self.codes[q - 1]) if 1 <= q <= self.top_dimension + 1 else 0
            mat = SparseIntMatrix(rows, len(codes))
            return self._boundaries.setdefault(q, mat) if kept else mat
        if self.tables is not None:
            faces = self.tables.faces
        else:
            vid = {v: i for i, v in enumerate(self.graph.vertices)}
            faces = partial(_oracle_faces, self.graph, vid=vid)
        index = self.code_index(q - 1)
        skip = dropped or ()
        cols = []
        for cell in codes:
            col = {}
            for sign, face0, face1 in faces(cell):
                i1 = index[face1]
                if i1 not in skip:
                    col[i1] = col.get(i1, 0) + sign
                    if not col[i1]:
                        del col[i1]
                i0 = index[face0]
                if i0 not in skip:
                    col[i0] = col.get(i0, 0) - sign
                    if not col[i0]:
                        del col[i0]
            cols.append(col)
        mat = SparseIntMatrix.view(len(self.codes[q - 1]), cols)
        if kept:
            self._boundaries[q] = mat
        return mat

    def boundary_square_is_zero(self):
        for q in range(2, self.top_dimension + 1):
            if not self.boundary(q - 1).multiply(self.boundary(q)).is_zero():
                return False
        return True


# -- main model ---------------------------------------------------------


def _freeze_state(vocc, eocc):
    vkey = tuple(sorted((v, tuple(sorted(ps))) for v, ps in vocc.items() if ps))
    ekey = tuple(sorted((e, tuple(ps)) for e, ps in eocc.items() if ps))
    return vkey, ekey


def _zero_cells(graph, n, sinks, budget=None):
    """Unsorted keys of the 0-cells; raises ``BudgetExceeded`` as soon as
    there are more than ``budget`` of them."""
    cells = []
    limit = float("inf") if budget is None else budget
    vocc = {}
    eocc = {}
    vertices = graph.vertices
    n_edges = graph.n_edges

    def place(p):
        if p > n:
            cells.append(_freeze_state(vocc, eocc))
            if len(cells) > limit:
                raise BudgetExceeded(
                    f"model of Conf_{n} exceeds the {budget}-cell budget")
            return
        for v in vertices:
            if v in sinks or not vocc.get(v):
                vocc.setdefault(v, []).append(p)
                place(p + 1)
                vocc[v].pop()
                if not vocc[v]:
                    del vocc[v]
        for e in range(n_edges):
            tup = eocc.setdefault(e, [])
            for pos in range(len(tup) + 1):
                tup.insert(pos, p)
                place(p + 1)
                tup.pop(pos)
            if not tup:
                del eocc[e]

    place(1)
    return cells


class _ModelTables:
    """Numbered 0-cells of the main model and their face tables.

    0-cell z has key ``zero[z]`` and candidate moves ``moves[z]``: the
    (particle, edge, end) slides from an extremal slot onto a sink or a
    free vertex, sorted.  A q-cell is the code ``z << shift | mask`` with a
    mask of q candidates that move distinct particles, no two onto one
    non-sink vertex (a particle has at most two candidates, so ``shift`` =
    2n bits suffice).  ``landed[z][b]`` is the code of the 0-cell that
    candidate b lands in, and ``renumber[z][b][c]`` the bit there of
    candidate c (0 if c cannot move together with b).  ``zero_index`` finds
    a 0-cell by its flat ``locations``.
    """

    def __init__(self, graph, n, zero):
        self.n = n
        self.vid = {v: i for i, v in enumerate(graph.vertices)}
        self.zero = zero
        self.zero_index = {tuple(self.locations(*key)): z
                           for z, key in enumerate(zero)}
        self.shift = 2 * n
        self.low = (1 << self.shift) - 1
        self.moves = []
        self.landed = []
        self.renumber = []
        self._bits = {}

    def locations(self, vkey, ekey):
        """Flat form of a 0-cell: per particle, the index of its vertex, or
        V + e n + s for slot s of edge e (V vertices)."""
        n, vid = self.n, self.vid
        where = [0] * n
        for v, ps in vkey:
            for p in ps:
                where[p - 1] = vid[v]
        for e, tup in ekey:
            for s, p in enumerate(tup, len(vid) + e * n):
                where[p - 1] = s
        return where

    def bits(self, mask):
        """Set bit positions of ``mask``, ascending."""
        out = self._bits.get(mask)
        if out is None:
            out = self._bits[mask] = tuple(
                b for b in range(mask.bit_length()) if mask >> b & 1)
        return out

    def key(self, code):
        """Canonical nested-tuple key of a cell code."""
        z = code >> self.shift
        moves = self.moves[z]
        return self.zero[z] + (tuple(moves[b] for b in self.bits(code & self.low)),)

    def faces(self, code):
        """(sign, resting face, landed face) per move axis, axes in particle
        order: the resting face drops the move's bit, the landed face reads
        the table."""
        z = code >> self.shift
        landed, renumber = self.landed[z], self.renumber[z]
        bits = self.bits(code & self.low)
        out = []
        sign = 1
        for b in bits:
            bit_of = renumber[b]
            face = landed[b]
            for c in bits:
                face |= bit_of[c]
            out.append((sign, code ^ (1 << b), face))
            sign = -sign
        return out

    def cell_map(self, vertex_map, edge_map, reversed_edges):
        """Code -> image code under a graph automorphism: a permutation of
        the 0-cells plus a relabelling of each one's candidates, worked out
        per 0-cell on first use.  Raises KeyError when a cell has no image."""
        shift, low, bits = self.shift, self.low, self.bits
        by_zero = {}

        def zero_image(z):
            vkey, ekey = self.zero[z]
            image = self.zero_index[tuple(self.locations(
                [(vertex_map[v], ps) for v, ps in vkey],
                [(edge_map[e], ps[::-1] if edge_map[e] in reversed_edges else ps)
                 for e, ps in ekey]))]
            bit_of = {mv: 1 << b for b, mv in enumerate(self.moves[image])}
            relabel = {}                 # a candidate without image has no key
            for b, (p, e, end) in enumerate(self.moves[z]):
                mv = (p, edge_map[e], 1 - end if edge_map[e] in reversed_edges else end)
                if mv in bit_of:
                    relabel[b] = bit_of[mv]
            by_zero[z] = found = (image << shift, relabel)
            return found

        def cell_image(code):
            z = code >> shift
            image, relabel = by_zero.get(z) or zero_image(z)
            for b in bits(code & low):
                image |= relabel[b]
            return image

        return cell_image


def _admissible_masks(clash, n):
    """Masks of the admissible move sets, by size and in lexicographic order
    of their bit positions, for candidates where ``clash[i]`` marks the
    later candidates that cannot move together with candidate i."""
    masks = [[] for _ in range(n + 1)]
    masks[0].append(0)

    def extend(mask, start, blocked, q):
        for i in range(start, len(clash)):
            if not blocked >> i & 1:
                masks[q].append(mask | 1 << i)
                extend(mask | 1 << i, i + 1, blocked | clash[i], q + 1)

    extend(0, 0, 0, 1)
    return masks


def build_model(graph, n, sinks=(), budget=DEFAULT_CELL_BUDGET):
    """Build the combinatorial model of the configuration space of ``graph``
    with ``n`` labelled particles and the given sink vertices.

    Cells come in the order of their canonical keys: 0-cells sorted, and
    each 0-cell's move sets in lexicographic order of sorted candidates.
    """
    if n < 0:
        raise ModelError("particle count must be nonnegative")
    if graph.has_loops():
        raise ModelError("loop edges must be normalized (subdivided) first")
    if not graph.is_connected():
        raise ModelError("the model is built for connected graphs")
    sinks = frozenset(sinks)
    if not sinks <= set(graph.vertices):
        raise ModelError("sinks must be vertices of the graph")

    zero = sorted(_zero_cells(graph, n, sinks, budget))
    tables = _ModelTables(graph, n, zero)
    shift = tables.shift
    edges = graph.edges
    intern = {}
    patterns = {}
    cells_by_dim = [[] for _ in range(n + 1)]
    total = 0
    for z, (vkey, ekey) in enumerate(tables.zero):
        occupied = {v for v, _ in vkey}
        cands = []
        for e, tup in ekey:
            a, b = edges[e]
            if a in sinks or a not in occupied:
                cands.append((tup[0], e, 0))
            if b in sinks or b not in occupied:
                cands.append((tup[-1], e, 1))
        cands.sort()
        tables.moves.append(tuple(intern.setdefault(c, c) for c in cands))
        # clash[i]: the later candidates that move the same particle as i,
        # or onto the same non-sink vertex
        by_particle, by_target = {}, {}
        for i, (p, e, end) in enumerate(cands):
            by_particle[p] = by_particle.get(p, 0) | 1 << i
            if edges[e][end] not in sinks:
                by_target[edges[e][end]] = by_target.get(edges[e][end], 0) | 1 << i
        clash = tuple((by_particle[p] | by_target.get(edges[e][end], 0)) >> (i + 1) << (i + 1)
                      for i, (p, e, end) in enumerate(cands))
        masks = patterns.get(clash)
        if masks is None:
            masks = patterns[clash] = _admissible_masks(clash, n)
        base = z << shift
        for q, ms in enumerate(masks):
            cells_by_dim[q].extend(map(base.__or__, ms))
            total += len(ms)
        if budget is not None and total > budget:
            raise BudgetExceeded(
                f"model of Conf_{n} exceeds the {budget}-cell budget")

    vid, zero_index = tables.vid, tables.zero_index
    for z, (vkey, ekey) in enumerate(tables.zero):
        cands = tables.moves[z]
        landed, renumber = [], []
        where = tables.locations(vkey, ekey)
        on_edge = dict(ekey)
        for p, e, end in cands:
            # p slides onto the vertex; at end 0 the others on e move up a slot
            there = where.copy()
            there[p - 1] = vid[edges[e][end]]
            if end == 0:
                for s, other in enumerate(on_edge[e][1:], len(vid) + e * n):
                    there[other - 1] = s
            there = zero_index[tuple(there)]
            moves = tables.moves[there]
            landed.append(there << shift)
            bit_of = tuple(1 << moves.index(c) if c in moves else 0 for c in cands)
            renumber.append(intern.setdefault(bit_of, bit_of))
        tables.landed.append(landed)
        tables.renumber.append(renumber)
    return CubeComplex(graph, n, sinks, MODEL_KIND, cells_by_dim, tables)


# -- discretized oracle ---------------------------------------------------


def _oracle_cells_by_dim(graph, n, budget=None):
    """Cells of the discretized model on an already subdivided graph."""
    n_vertices = graph.n_vertices
    vid = {v: i for i, v in enumerate(graph.vertices)}
    edge_ends = [(vid[a], vid[b]) for a, b in graph.edges]
    locations = list(range(n_vertices + graph.n_edges))
    cells_by_dim = [[] for _ in range(n + 1)]
    blocked = set()
    used_edges = set()
    assignment = []
    total = 0

    def place(p, dim):
        nonlocal total
        if p > n:
            cells_by_dim[dim].append(tuple(assignment))
            total += 1
            if budget is not None and total > budget:
                raise BudgetExceeded(
                    f"oracle complex of Conf_{n} exceeds the {budget}-cell budget")
            return
        for loc in locations:
            if loc < n_vertices:
                if loc in blocked:
                    continue
                blocked.add(loc)
                assignment.append(loc)
                place(p + 1, dim)
                assignment.pop()
                blocked.discard(loc)
            else:
                e = loc - n_vertices
                if e in used_edges:
                    continue
                a, b = edge_ends[e]
                if a in blocked or b in blocked:
                    continue
                used_edges.add(e)
                blocked.add(a)
                blocked.add(b)
                assignment.append(loc)
                place(p + 1, dim + 1)
                assignment.pop()
                blocked.discard(a)
                blocked.discard(b)
                used_edges.discard(e)

    place(1, 0)
    for q in range(len(cells_by_dim)):
        cells_by_dim[q].sort()
    return cells_by_dim


def _oracle_faces(graph, cell, vid):
    """Yield (sign, face0, face1) per edge slot of an oracle cell; ``vid``
    numbers the vertices of the graph."""
    n_vertices = len(vid)
    faces = []
    axis = 0
    for slot, loc in enumerate(cell):
        if loc < n_vertices:
            continue
        a, b = graph.edges[loc - n_vertices]
        face0 = cell[:slot] + (vid[a],) + cell[slot + 1:]
        face1 = cell[:slot] + (vid[b],) + cell[slot + 1:]
        sign = 1 if axis % 2 == 0 else -1
        faces.append((sign, face0, face1))
        axis += 1
    return faces


def oracle_subdivision(graph, n):
    """Pieces per edge for a discretized model homotopy equivalent to
    Conf_n(graph).  Abrams (thesis, 2000) cuts every edge into n+1 pieces;
    Prue & Scrimshaw (Topology Appl. 2014) need only every cycle to have at
    least n+1 edges and every path between distinct essential vertices at
    least n-1.  The shortest cycle has at least g edges: 1 with a loop, 2
    with parallel edges, 3 otherwise."""
    ends = {frozenset(e) for e in graph.edges}
    g = 1 if graph.has_loops() else 2 if len(ends) < graph.n_edges else 3
    return max(1, n - 1, -(-(n + 1) // g))


def build_abrams_oracle(graph, n, budget=DEFAULT_CELL_BUDGET):
    """Classical discretized model of Conf_n on the graph with every edge
    subdivided into ``oracle_subdivision(graph, n)`` pieces."""
    if n < 0:
        raise ModelError("particle count must be nonnegative")
    if not graph.is_connected():
        raise ModelError("the model is built for connected graphs")
    fine = subdivide(graph, oracle_subdivision(graph, n))
    cells_by_dim = _oracle_cells_by_dim(fine, n, budget)
    return CubeComplex(fine, n, frozenset(), ORACLE_KIND, cells_by_dim)


# -- subcomplexes ---------------------------------------------------------


def subcomplex_supported_in(complex_, sub):
    """Cells of ``complex_`` with every particle on ``sub``, plus the index
    injection into the ambient complex (one list per dimension).  Whether a
    cell is supported depends on its 0-cell only."""
    if complex_.kind != MODEL_KIND:
        raise ModelError("supports are taken in the main model")
    if not isinstance(sub, Subgraph) or sub.graph is not complex_.graph:
        raise GraphError("support must be a subgraph of the complex's graph")
    vset = sub.vertices
    eset = sub.edges
    tables = complex_.tables
    supported = [all(v in vset for v, _ in vkey) and all(e in eset for e, _ in ekey)
                 for vkey, ekey in tables.zero]
    shift = tables.shift
    injection = [[i for i, c in enumerate(codes) if supported[c >> shift]]
                 for codes in complex_.codes]
    cells_by_dim = [[codes[i] for i in inj]
                    for codes, inj in zip(complex_.codes, injection)]
    subcx = CubeComplex(complex_.graph, complex_.n, complex_.sinks,
                        MODEL_KIND, cells_by_dim, tables)
    return subcx, injection[: subcx.top_dimension + 1]
