"""Combinatorial cube-complex models of graph configuration spaces.

Two models are built.  The main model places, for each edge carrying l
particles, those particles at positions i/(l+1) along the edge; a q-cube is
a 0-cell plus q particles sweeping from an extremal edge slot to the
adjacent vertex, no two of them approaching the same non-sink vertex.  The
independent cross-check is the classical discretized model on a graph whose
edges are cut as finely as Prue & Scrimshaw (2014) require, into
``oracle_subdivision(graph, n)`` pieces each: a q-cell there is q pairwise
disjoint closed edges plus n-q distinct vertices, all closures disjoint.

Cells are stored as canonical nested tuples:

  model cell   ((vertex occupancy), (edge tuples), (moves))
      vertex occupancy: sorted ((vertex, (particles, ...)), ...)
      edge tuples:      sorted ((edge, (particles in slot order)), ...)
      moves:            ((particle, edge, end), ...) sorted by particle
  oracle cell  (loc_1, ..., loc_n) with loc < V a vertex, V + e an edge.

Both use the boundary convention, moves ordered by particle label,

  d C = sum_i (-1)^(i+1) (landed face_i - resting face_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .graphs import Graph, GraphError, Subgraph, subdivide
from .linalg import SparseIntMatrix


class BudgetExceeded(RuntimeError):
    """A complex would exceed the configured cell budget."""


class ModelError(ValueError):
    """Invalid model construction request."""


MODEL_KIND = "combinatorial-model"
ORACLE_KIND = "abrams-oracle"

DEFAULT_CELL_BUDGET = 5_000_000


@dataclass(frozen=True)
class ModelCell:
    """One cube of the main model, wrapping the raw canonical key."""

    vertex_occupancy: tuple
    edge_tuples: tuple
    moves: tuple

    @property
    def dimension(self):
        return len(self.moves)

    @property
    def key(self):
        return (self.vertex_occupancy, self.edge_tuples, self.moves)

    @classmethod
    def from_key(cls, key):
        return cls(*key)

    def particles(self):
        out = []
        for _, parts in self.vertex_occupancy:
            out.extend(parts)
        for _, parts in self.edge_tuples:
            out.extend(parts)
        return sorted(out)

    def validate(self, graph, n, sinks):
        if self.particles() != list(range(1, n + 1)):
            raise ModelError("each particle must appear exactly once")
        occupied = {v: len(parts) for v, parts in self.vertex_occupancy}
        targets = {}
        seen_particles = set()
        for p, e, end in self.moves:
            if p in seen_particles:
                raise ModelError("a particle may move along one axis only")
            seen_particles.add(p)
            tup = dict(self.edge_tuples).get(e)
            if tup is None:
                raise ModelError("moving particle is not on its edge")
            slot = tup[0] if end == 0 else tup[-1]
            if slot != p:
                raise ModelError("moving particle must hold the extremal slot")
            t = graph.endpoint(e, end)
            targets[t] = targets.get(t, 0) + 1
        for v, k in occupied.items():
            if v in sinks:
                continue
            if k > 1 or (k == 1 and targets.get(v)):
                raise ModelError(f"non-sink vertex {v} is overcrowded")
        for t, k in targets.items():
            if t not in sinks and (k > 1 or occupied.get(t)):
                raise ModelError(f"two particles approach non-sink vertex {t}")
        return True


class CubeComplex:
    """A finite cube complex with exact integer boundary matrices."""

    def __init__(self, graph, n, sinks, kind, cells_by_dim):
        self.graph = graph
        self.n = n
        self.sinks = frozenset(sinks)
        self.kind = kind
        self.cells = [tuple(cs) for cs in cells_by_dim]
        while self.cells and not self.cells[-1]:
            self.cells.pop()
        self._index = {}
        self._boundaries = {}

    # -- structure -------------------------------------------------------

    @property
    def top_dimension(self):
        return len(self.cells) - 1

    def f_vector(self):
        return [len(cs) for cs in self.cells]

    @property
    def total_cells(self):
        return sum(len(cs) for cs in self.cells)

    def euler_characteristic(self):
        return sum((-1) ** q * len(cs) for q, cs in enumerate(self.cells))

    def index(self, q):
        """Cell -> position in ``cells[q]``, built on first use."""
        if q not in self._index:
            self._index[q] = {c: i for i, c in enumerate(self.cells[q])}
        return self._index[q]

    def cell_objects(self, q):
        if self.kind != MODEL_KIND:
            raise ModelError("typed cells exist for the main model only")
        return [ModelCell.from_key(c) for c in self.cells[q]]

    # -- boundary --------------------------------------------------------

    def boundary(self, q):
        """Boundary matrix C_q -> C_(q-1); rows index (q-1)-cells."""
        if q < 0:
            return SparseIntMatrix(0, 0)
        if q == 0 or q > self.top_dimension:
            rows = len(self.cells[q - 1]) if 1 <= q <= self.top_dimension + 1 else 0
            return SparseIntMatrix(rows, len(self.cells[q]) if q <= self.top_dimension else 0)
        if q in self._boundaries:
            return self._boundaries[q]
        if self.kind == MODEL_KIND:
            faces = partial(_model_faces, self.graph)
        else:
            vid = {v: i for i, v in enumerate(self.graph.vertices)}
            faces = partial(_oracle_faces, self.graph, vid=vid)
        cols = _boundary_columns(self.cells[q], faces, self.index(q - 1))
        mat = SparseIntMatrix.from_columns(len(self.cells[q - 1]), cols)
        self._boundaries[q] = mat
        return mat

    def boundary_square_is_zero(self):
        for q in range(2, self.top_dimension + 1):
            if not self.boundary(q - 1).multiply(self.boundary(q)).is_zero():
                return False
        return True


def _boundary_columns(cells, faces, index, dropped=()):
    """Signed boundary columns of ``cells``, with rows numbered by ``index``
    and the rows in ``dropped`` left out."""
    cols = []
    for cell in cells:
        col = {}
        for sign, face0, face1 in faces(cell):
            i1 = index[face1]
            if i1 not in dropped:
                col[i1] = col.get(i1, 0) + sign
                if not col[i1]:
                    del col[i1]
            i0 = index[face0]
            if i0 not in dropped:
                col[i0] = col.get(i0, 0) - sign
                if not col[i0]:
                    del col[i0]
        cols.append(col)
    return cols


# -- main model ---------------------------------------------------------


def _freeze_state(vocc, eocc):
    vkey = tuple(sorted((v, tuple(sorted(ps))) for v, ps in vocc.items() if ps))
    ekey = tuple(sorted((e, tuple(ps)) for e, ps in eocc.items() if ps))
    return vkey, ekey


def _zero_cells(graph, n, sinks):
    cells = []
    vocc = {}
    eocc = {}
    vertices = graph.vertices
    n_edges = graph.n_edges

    def place(p):
        if p > n:
            cells.append(_freeze_state(vocc, eocc))
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


def _move_candidates(graph, vkey, ekey):
    cands = []
    for e, tup in ekey:
        a, b = graph.edges[e]
        cands.append((tup[0], e, 0, a))
        cands.append((tup[-1], e, 1, b))
    return cands


def _admissible_move_sets(graph, sinks, vkey, ekey):
    """All nonempty admissible move sets on a 0-cell, as sorted tuples."""
    occupied = {v for v, _ in vkey}
    cands = _move_candidates(graph, vkey, ekey)
    out = []
    chosen = []
    used_particles = set()
    used_nonsink = set()

    def rec(i):
        if i == len(cands):
            if chosen:
                out.append(tuple(sorted((p, e, s) for p, e, s, _ in chosen)))
            return
        rec(i + 1)
        p, e, s, target = cands[i]
        if p in used_particles:
            return
        if target not in sinks:
            if target in occupied or target in used_nonsink:
                return
            used_nonsink.add(target)
        used_particles.add(p)
        chosen.append(cands[i])
        rec(i + 1)
        chosen.pop()
        used_particles.discard(p)
        used_nonsink.discard(target)

    rec(0)
    return out


def _model_faces(graph, cell):
    """Yield (sign, resting face, landed face) per move axis."""
    vkey, ekey, moves = cell
    faces = []
    for i, (p, e, end) in enumerate(moves):
        rest_moves = moves[:i] + moves[i + 1:]
        face0 = (vkey, ekey, rest_moves)
        emap = dict(ekey)
        tup = emap[e]
        new_tup = tup[1:] if end == 0 else tup[:-1]
        if new_tup:
            emap[e] = new_tup
        else:
            del emap[e]
        target = graph.endpoint(e, end)
        vmap = {v: ps for v, ps in vkey}
        vmap[target] = tuple(sorted(vmap.get(target, ()) + (p,)))
        new_vkey = tuple(sorted(vmap.items()))
        new_ekey = tuple(sorted(emap.items()))
        face1 = (new_vkey, new_ekey, rest_moves)
        sign = 1 if i % 2 == 0 else -1
        faces.append((sign, face0, face1))
    return faces


def build_model(graph, n, sinks=(), budget=DEFAULT_CELL_BUDGET):
    """Build the combinatorial model of the configuration space of ``graph``
    with ``n`` labelled particles and the given sink vertices."""
    if n < 0:
        raise ModelError("particle count must be nonnegative")
    if graph.has_loops():
        raise ModelError("loop edges must be normalized (subdivided) first")
    if not graph.is_connected():
        raise ModelError("the model is built for connected graphs")
    sinks = frozenset(sinks)
    if not sinks <= set(graph.vertices):
        raise ModelError("sinks must be vertices of the graph")
    if n == 0:
        return CubeComplex(graph, 0, sinks, MODEL_KIND, [[((), (), ())]])

    zero = _zero_cells(graph, n, sinks)
    cells_by_dim = [[] for _ in range(n + 1)]
    total = 0
    for vkey, ekey in zero:
        cells_by_dim[0].append((vkey, ekey, ()))
        total += 1
        for moves in _admissible_move_sets(graph, sinks, vkey, ekey):
            cells_by_dim[len(moves)].append((vkey, ekey, moves))
            total += 1
        if budget is not None and total > budget:
            raise BudgetExceeded(
                f"model of Conf_{n} exceeds the {budget}-cell budget")
    for q in range(len(cells_by_dim)):
        cells_by_dim[q].sort()
    return CubeComplex(graph, n, sinks, MODEL_KIND, cells_by_dim)


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
    if n == 0:
        return CubeComplex(fine, 0, frozenset(), ORACLE_KIND, [[()]])
    cells_by_dim = _oracle_cells_by_dim(fine, n, budget)
    return CubeComplex(fine, n, frozenset(), ORACLE_KIND, cells_by_dim)


# -- subcomplexes ---------------------------------------------------------


def _model_cell_supported(cell, vset, eset):
    vkey, ekey, moves = cell
    for v, _ in vkey:
        if v not in vset:
            return False
    for e, _ in ekey:
        if e not in eset:
            return False
    return True


def subcomplex_supported_in(complex_, sub):
    """Cells of ``complex_`` with every particle on ``sub``, plus the index
    injection into the ambient complex (one list per dimension)."""
    if complex_.kind != MODEL_KIND:
        raise ModelError("supports are taken in the main model")
    if not isinstance(sub, Subgraph) or sub.graph is not complex_.graph:
        raise GraphError("support must be a subgraph of the complex's graph")
    vset = sub.vertices
    eset = sub.edges
    cells_by_dim = []
    injection = []
    for q, cells in enumerate(complex_.cells):
        kept = []
        inj = []
        for i, cell in enumerate(cells):
            if _model_cell_supported(cell, vset, eset):
                kept.append(cell)
                inj.append(i)
        cells_by_dim.append(kept)
        injection.append(inj)
    subcx = CubeComplex(complex_.graph, complex_.n, complex_.sinks,
                        MODEL_KIND, cells_by_dim)
    return subcx, injection[: subcx.top_dimension + 1]
