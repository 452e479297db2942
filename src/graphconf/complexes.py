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

Both models store a cell as an integer code; ``codes[q]`` holds the
q-cells in key order, in an ``array('q')`` unless a code could exceed 63
bits, and each model's tables number them.  An oracle cell is the number
sum_i loc_i L^(n-i), L = V + E; the cells are enumerated in that order,
and ``_OracleTables`` finds positions in a dict built for each assembly.
A main-model 0-cell is the same kind of number of its flat particle
locations (``_ModelTables``), and the 0-cells are numbered in key order.  Each 0-cell's candidate moves are sorted by
(particle, edge, end), and the q-cell ``z << 2n | mask`` picks its moves
among them; move sets of one 0-cell come in lexicographic order, so a
cell's position is its 0-cell's offset, kept per degree, plus its mask's
rank in its clash pattern.  Face tables, made once per 0-cell and
candidate, give the 0-cell a move lands in and the bits the other
candidates take there.  Automorphisms act as a permutation of the 0-cells
plus a relabelling of candidates, and support in a subgraph is decided
once per 0-cell; a support is the per-degree list of its cells' positions.
``CubeComplex.cells`` decodes the keys on first use, for reports and tests.

Both use the boundary convention, moves ordered by particle label,

  d C = sum_i (-1)^(i+1) (landed face_i - resting face_i),

and ``CubeComplex.boundary`` is the one place where either model's boundary
columns are assembled, from its tables' ``face_rows``.  Every call builds
the columns its caller asks for and keeps nothing.
"""

from __future__ import annotations

from array import array
from itertools import combinations, permutations

from .graphs import GraphError, Subgraph, subdivide
from .linalg import SparseIntMatrix


class BudgetExceeded(RuntimeError):
    """A complex would exceed the configured cell budget."""


class ModelError(ValueError):
    """Invalid model construction request."""


MODEL_KIND = "combinatorial-model"
ORACLE_KIND = "abrams-oracle"

DEFAULT_CELL_BUDGET = 5_000_000


def _code_store(bound):
    """An empty store for integer codes below ``bound`` (None: no bound):
    an array of signed 64-bit integers when they fit, a list otherwise."""
    return array("q") if bound is not None and bound <= 1 << 63 else []


def _digits(code, radix, n):
    """The n base-``radix`` digits of ``code``, most significant first."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        code, out[i] = divmod(code, radix)
    return out


class CubeComplex:
    """A finite cube complex with exact integer boundary matrices.

    ``codes[q]`` holds the q-cells in order, as codes read through
    ``tables`` (``_ModelTables`` or ``_OracleTables``, which number them),
    or as keys in a complex built by hand.  ``cells`` gives the canonical
    keys.  No boundary is kept.
    """

    def __init__(self, graph, n, sinks, kind, cells_by_dim, tables=None):
        self.graph = graph
        self.n = n
        self.sinks = frozenset(sinks)
        self.kind = kind
        self.tables = tables
        self.codes = list(cells_by_dim)
        while self.codes and not self.codes[-1]:
            self.codes.pop()
        self._cells = None

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
        """Canonical cell keys per dimension, in the order of ``codes``,
        decoded on first use."""
        if self.tables is None:
            return self.codes
        if self._cells is None:
            key = self.tables.key
            self._cells = [tuple(map(key, cs)) for cs in self.codes]
        return self._cells

    # -- boundary --------------------------------------------------------

    def boundary(self, q, dropped=(), cells=None):
        """Boundary matrix C_q -> C_(q-1); rows index (q-1)-cells.

        Only the columns at the q-cell positions ``cells`` (read once; all
        q-cells by default) are assembled, in that order, without the rows
        in ``dropped``.  Each call returns a fresh matrix and keeps
        nothing.  Faces that coincide, as a loop edge's ends do in the
        oracle, cancel."""
        if q < 0:
            return SparseIntMatrix(0, 0)
        codes = self.codes[q] if q <= self.top_dimension else ()
        codes = codes if cells is None else [codes[j] for j in cells]
        rows = len(self.codes[q - 1]) if 1 <= q <= self.top_dimension + 1 else 0
        if q == 0 or not codes:
            return SparseIntMatrix(rows, len(codes))
        rows_of = self.tables.face_rows(q - 1)
        cols = []
        for cell in codes:
            col = {}
            for sign, i0, i1 in rows_of(cell):
                if i1 not in dropped:
                    col[i1] = col.get(i1, 0) + sign
                    if not col[i1]:
                        del col[i1]
                if i0 not in dropped:
                    col[i0] = col.get(i0, 0) - sign
                    if not col[i0]:
                        del col[i0]
            cols.append(col)
        return SparseIntMatrix.view(rows, cols)


# -- main model ---------------------------------------------------------


def _zero_locations(graph, n, sinks, budget=None):
    """Location numbers (``_ModelTables``) of the 0-cells in key order;
    raises ``BudgetExceeded`` as soon as there are more than ``budget``.  A
    key lists the occupied vertices by label, then the occupied edges, each
    with its particle tuple, so the keys that share a start come in one
    run: first the one that ends there, then each later place with each
    tuple in lexicographic order."""
    nv, n_edges = graph.n_vertices, graph.n_edges
    radix = nv + n_edges * n
    by_label = sorted(range(nv), key=graph.vertices.__getitem__)
    single = [v not in sinks for v in graph.vertices]
    limit = float("inf") if budget is None else budget
    out = []
    where = [0] * n

    def fill(j, rest):
        """Place ``rest`` from place j on: vertices by label, then edges."""
        if not rest:
            code = 0
            for loc in where:
                code = code * radix + loc
            out.append(code)
            if len(out) > limit:
                raise BudgetExceeded(
                    f"model of Conf_{n} exceeds the {budget}-cell budget")
            return
        if j < nv:
            fill(nv, rest)
        for k in range(j, nv if j < nv else nv + n_edges):
            on_edge = k >= nv
            sizes = range(1, 2 if not on_edge and single[by_label[k]] else len(rest) + 1)
            pick = permutations if on_edge else combinations
            for t in sorted(t for r in sizes for t in pick(rest, r)):
                for s, p in enumerate(t, nv + (k - nv) * n):
                    where[p] = s if on_edge else by_label[k]
                fill(k + 1, tuple(p for p in rest if p not in t))

    fill(0, tuple(range(n)))
    return out


class _ModelTables:
    """Numbered 0-cells of the main model and their face tables.

    0-cell z is stored as ``zero[z]``, the number sum_i loc_i R^(n-i) of
    its flat particle locations: a vertex's index, or V + e n + s for slot
    s of edge e (V vertices, R = V + E n).  ``_zero_locations`` lists them
    in key order without building keys; ``zero_key`` decodes one.  Its
    candidate moves ``moves[z]`` are the (particle, edge, end) slides from
    an extremal slot onto a sink or a free vertex, sorted.  A q-cell is the
    code ``z << shift | mask`` with a mask of q candidates that move
    distinct particles, no two onto one non-sink vertex (a particle has at
    most two candidates, so ``shift`` = 2n bits suffice).  ``rank[z]`` maps each
    such mask to its place among the masks of its size, and is shared by
    the 0-cells of one clash pattern; ``offsets[q][z]`` is the position of
    0-cell z's first q-cell.  ``landed[z][b]`` is the 0-cell that candidate
    b lands in, and ``renumber[z][b][c]`` the bit there of candidate c (0
    if c cannot move together with b).
    """

    def __init__(self, graph, n):
        self.n, self.vertices, self.n_vertices = n, graph.vertices, graph.n_vertices
        self.radix = graph.n_vertices + graph.n_edges * n
        self.zero = _code_store(self.radix ** n)
        self.shift = 2 * n
        self.low = (1 << self.shift) - 1
        self.moves, self.landed, self.renumber, self.rank = [], [], [], []
        self.offsets = [array("q", [0]) for _ in range(n + 1)]
        self._bits, self._zero_keys, self._zero_index = {}, {}, None

    def zero_key(self, code):
        """Canonical key (vertex occupancy, edge tuples) of a 0-cell's
        location number."""
        nv, n = self.n_vertices, self.n
        vocc, slots = {}, []
        for p, loc in enumerate(_digits(code, self.radix, n), 1):
            if loc < nv:
                vocc.setdefault(self.vertices[loc], []).append(p)
            else:
                slots.append((loc, p))
        eocc = {}
        for loc, p in sorted(slots):
            eocc.setdefault((loc - nv) // n, []).append(p)
        return (tuple(sorted((v, tuple(ps)) for v, ps in vocc.items())),
                tuple((e, tuple(ps)) for e, ps in eocc.items()))

    def bits(self, mask):
        """Set bit positions of ``mask``, ascending."""
        out = self._bits.get(mask)
        if out is None:
            out = self._bits[mask] = tuple(
                b for b in range(mask.bit_length()) if mask >> b & 1)
        return out

    def key(self, code):
        """Canonical nested-tuple key of a cell code; each 0-cell's key is
        decoded once and kept."""
        z = code >> self.shift
        if z not in self._zero_keys:
            self._zero_keys[z] = self.zero_key(self.zero[z])
        moves = self.moves[z]
        return self._zero_keys[z] + (tuple(moves[b] for b in self.bits(code & self.low)),)

    def face_rows(self, q):
        """(q+1)-cell code -> (sign, resting row, landed row) per move axis
        in particle order, rows at q-cell positions: the resting face drops
        the move's bit, the landed face reads the tables."""
        shift, low, bits, offsets = self.shift, self.low, self.bits, self.offsets[q]
        ranks, landed_of, renumber_of = self.rank, self.landed, self.renumber

        def rows(code):
            z, mask = code >> shift, code & low
            base, rank, landed, renumber = offsets[z], ranks[z], landed_of[z], renumber_of[z]
            ms = bits(mask)
            out = []
            sign = 1
            for b in ms:
                bit_of, there, face = renumber[b], landed[b], 0
                for c in ms:
                    face |= bit_of[c]
                out.append((sign, base + rank[mask ^ 1 << b],
                            offsets[there] + ranks[there][face]))
                sign = -sign
            return out
        return rows

    def cell_map(self, vertex_map, edge_map, reversed_edges):
        """Code -> position of its image under a graph automorphism, among
        the cells of its degree: the image 0-cell's offset plus the rank of
        the relabelled mask.  The automorphism permutes the 0-cells and
        relabels each one's candidates, worked out per 0-cell on first use.
        Raises KeyError when a cell has no image."""
        shift, low, bits, offsets = self.shift, self.low, self.bits, self.offsets
        n, nv, radix, vertices = self.n, self.n_vertices, self.radix, self.vertices
        vid = {v: i for i, v in enumerate(vertices)}
        if self._zero_index is None:     # dropped after the build
            self._zero_index = {c: z for z, c in enumerate(self.zero)}
        zero_index = self._zero_index
        by_zero = {}

        def zero_image(z):
            where = _digits(self.zero[z], radix, n)
            image = 0
            for loc in where:
                if loc < nv:
                    loc = vid[vertex_map[vertices[loc]]]
                else:
                    e, s = divmod(loc - nv, n)
                    f = edge_map[e]
                    if f in reversed_edges:     # count the slots of e from the end
                        first = nv + e * n
                        s = sum(first <= other < first + n for other in where) - 1 - s
                    loc = nv + f * n + s
                image = image * radix + loc
            image = zero_index[image]
            bit_of = {mv: 1 << b for b, mv in enumerate(self.moves[image])}
            relabel = {}                 # a candidate without image has no key
            for b, (p, e, end) in enumerate(self.moves[z]):
                mv = (p, edge_map[e], 1 - end if edge_map[e] in reversed_edges else end)
                if mv in bit_of:
                    relabel[b] = bit_of[mv]
            by_zero[z] = found = (image, self.rank[image], relabel)
            return found

        def cell_image(code):
            z = code >> shift
            image, rank, relabel = by_zero.get(z) or zero_image(z)
            ms, mask = bits(code & low), 0
            for b in ms:
                mask |= relabel[b]
            return offsets[len(ms)][image] + rank[mask]

        return cell_image


def _admissible_masks(clash, n):
    """Masks of the admissible move sets, by size and in lexicographic order
    of their bit positions, for candidates where ``clash[i]`` marks the
    later candidates that cannot move together with candidate i; and each
    mask's rank among those of its size."""
    masks = [[] for _ in range(n + 1)]
    masks[0].append(0)

    def extend(mask, start, blocked, q):
        for i in range(start, len(clash)):
            if not blocked >> i & 1:
                masks[q].append(mask | 1 << i)
                extend(mask | 1 << i, i + 1, blocked | clash[i], q + 1)

    extend(0, 0, 0, 1)
    return masks, {m: i for ms in masks for i, m in enumerate(ms)}


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

    tables = _ModelTables(graph, n)
    tables.zero.extend(_zero_locations(graph, n, sinks, budget))
    nv, radix, shift = tables.n_vertices, tables.radix, tables.shift
    weight = [radix ** (n - 1 - i) for i in range(n)]
    vid = {v: i for i, v in enumerate(graph.vertices)}
    ends = [(vid[a], vid[b]) for a, b in graph.edges]
    sink = [v in sinks for v in graph.vertices]
    intern, patterns = {}, {}
    cells_by_dim = [_code_store(None if budget is None else budget << shift)
                    for _ in range(n + 1)]
    total = 0
    for z, code in enumerate(tables.zero):
        where = _digits(code, radix, n)
        occupied = {loc for loc in where if loc < nv}
        on_edge = {}                     # edge -> particle indices by slot
        for i in sorted(range(n), key=where.__getitem__):
            if where[i] >= nv:
                on_edge.setdefault((where[i] - nv) // n, []).append(i)
        cands = []
        for e, tup in on_edge.items():
            a, b = ends[e]
            if sink[a] or a not in occupied:
                cands.append((tup[0] + 1, e, 0))
            if sink[b] or b not in occupied:
                cands.append((tup[-1] + 1, e, 1))
        cands.sort()
        tables.moves.append(tuple(intern.setdefault(c, c) for c in cands))
        # where each candidate lands: p slides onto the vertex; at end 0 the
        # others on e move down a slot
        tables.landed.append([code + (ends[e][end] - where[p - 1]) * weight[p - 1]
                              - (0 if end else sum(weight[i] for i in on_edge[e][1:]))
                              for p, e, end in cands])
        # clash[i]: the later candidates that move the same particle as i,
        # or onto the same non-sink vertex
        by_particle, by_target = {}, {}
        for i, (p, e, end) in enumerate(cands):
            by_particle[p] = by_particle.get(p, 0) | 1 << i
            if not sink[ends[e][end]]:
                by_target[ends[e][end]] = by_target.get(ends[e][end], 0) | 1 << i
        clash = tuple((by_particle[p] | by_target.get(ends[e][end], 0)) >> (i + 1) << (i + 1)
                      for i, (p, e, end) in enumerate(cands))
        if clash not in patterns:
            patterns[clash] = _admissible_masks(clash, n)
        masks, rank = patterns[clash]
        tables.rank.append(rank)
        base = z << shift
        for q, ms in enumerate(masks):
            cells_by_dim[q].extend(map(base.__or__, ms))
            tables.offsets[q].append(len(cells_by_dim[q]))
            total += len(ms)
        if budget is not None and total > budget:
            raise BudgetExceeded(
                f"model of Conf_{n} exceeds the {budget}-cell budget")

    zero_index = {c: z for z, c in enumerate(tables.zero)}
    for z, cands in enumerate(tables.moves):
        landed = tables.landed[z] = tuple(zero_index[c] for c in tables.landed[z])
        renumber = []
        for there in landed:
            moves = tables.moves[there]
            bit_of = tuple(1 << moves.index(c) if c in moves else 0 for c in cands)
            renumber.append(intern.setdefault(bit_of, bit_of))
        tables.renumber.append(tuple(renumber))
    return CubeComplex(graph, n, sinks, MODEL_KIND, cells_by_dim, tables)


# -- discretized oracle ---------------------------------------------------


class _OracleTables:
    """The discretized model's cell (loc_1, ..., loc_n) is the code
    sum_i loc_i L^(n-i), L = V + E locations of the subdivided graph;
    ``codes[q]`` holds the q-cells in order."""

    def __init__(self, graph, n, codes=()):
        self.n, self.n_vertices = n, graph.n_vertices
        self.radix = graph.n_vertices + graph.n_edges
        vid = {v: i for i, v in enumerate(graph.vertices)}
        self.ends = [(vid[a], vid[b]) for a, b in graph.edges]
        self.codes = codes

    def key(self, code):
        return tuple(_digits(code, self.radix, self.n))

    def face_rows(self, q):
        """(q+1)-cell code -> (sign, row of face0, row of face1) per edge
        slot in particle order, rows from a position dict of the q-cells
        built for the call: face0 puts the particle at the edge's first
        end, face1 at its second."""
        n_vertices, radix, ends = self.n_vertices, self.radix, self.ends
        index = {c: i for i, c in enumerate(self.codes[q])}.__getitem__
        weights = [radix ** (self.n - 1 - i) for i in range(self.n)]

        def rows(code):
            out = []
            sign = 1
            for w in weights:
                loc = code // w % radix
                if loc >= n_vertices:
                    a, b = ends[loc - n_vertices]
                    out.append((sign, index(code + (a - loc) * w),
                                index(code + (b - loc) * w)))
                    sign = -sign
            return out
        return rows


def _oracle_cells_by_dim(graph, n, budget=None):
    """Cell codes (``_OracleTables``) of the discretized model on an already
    subdivided graph, by dimension and in increasing order."""
    tables = _OracleTables(graph, n)
    n_vertices, radix, edge_ends = tables.n_vertices, tables.radix, tables.ends
    cells_by_dim = [_code_store(radix ** n) for _ in range(n + 1)]
    blocked = set()
    used_edges = set()
    total = 0

    def place(p, dim, code):
        nonlocal total
        if p > n:
            cells_by_dim[dim].append(code)
            total += 1
            if budget is not None and total > budget:
                raise BudgetExceeded(
                    f"oracle complex of Conf_{n} exceeds the {budget}-cell budget")
            return
        code *= radix
        for loc in range(radix):
            if loc < n_vertices:
                if loc in blocked:
                    continue
                blocked.add(loc)
                place(p + 1, dim, code + loc)
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
                place(p + 1, dim + 1, code + loc)
                blocked.discard(a)
                blocked.discard(b)
                used_edges.discard(e)

    place(1, 0, 0)
    return cells_by_dim


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
    cells = _oracle_cells_by_dim(fine, n, budget)
    return CubeComplex(fine, n, (), ORACLE_KIND, cells, _OracleTables(fine, n, cells))


# -- supports ------------------------------------------------------------


def subcomplex_supported_in(complex_, sub):
    """Positions of the cells of ``complex_`` with every particle on
    ``sub``, one ascending list per degree up to the last nonempty one:
    the cell injection of the support.  Whether a cell is supported
    depends on its 0-cell only, so a supported 0-cell keeps its block of
    cells in every degree, and the supported cells are closed under
    faces."""
    if complex_.kind != MODEL_KIND:
        raise ModelError("supports are taken in the main model")
    if not isinstance(sub, Subgraph) or sub.graph is not complex_.graph:
        raise GraphError("support must be a subgraph of the complex's graph")
    tables = complex_.tables
    allowed = [v in sub.vertices for v in complex_.graph.vertices]
    allowed += [e in sub.edges for e in range(complex_.graph.n_edges) for _ in range(tables.n)]
    supported = [z for z, code in enumerate(tables.zero) if all(
        map(allowed.__getitem__, _digits(code, tables.radix, tables.n)))]
    injection = [[i for z in supported for i in range(off[z], off[z + 1])]
                 for off in tables.offsets]
    while injection and not injection[-1]:
        injection.pop()
    return injection
