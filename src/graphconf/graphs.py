"""Finite multigraphs and the stabilizing families built by glueing copies of a graph.

Vertices and edges carry dense integer ids in construction order.  Edge
orientation is fixed by storage order: edge ``(a, b)`` runs from end 0 at
``a`` to end 1 at ``b``.  Graphs are immutable; every operation returns a
new graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, factorial


class GraphError(ValueError):
    """Invalid graph construction or argument."""


def _json_labels(value):
    """A labels object of a graph file; absent or null reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise GraphError(f"labels must be JSON objects, not {value!r}")
    return value


def _labels_from_json(labels):
    """Labels keyed by the decimal strings of vertex or edge ids."""
    labels = _json_labels(labels)
    for key, value in labels.items():
        if not isinstance(value, list):
            raise GraphError(f"label {value!r} of {key} is not a list")
    try:
        return tuple(sorted((int(k), tuple(v)) for k, v in labels.items()))
    except ValueError as exc:
        raise GraphError(f"label keys must be integers: {exc}") from exc


def _check_labels(labels, ids, kind):
    for key, label in labels:
        if key not in ids:
            raise GraphError(f"label on missing {kind} {key}")
        if len(label) != 2 or not all(type(x) is int for x in label):
            raise GraphError(
                f"label {list(label)} of {kind} {key} is not a pair of integers")


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: tuple
    basepoint: int | None = None
    vertex_labels: tuple = ()   # sorted ((vertex, (coord, copy)), ...)
    edge_labels: tuple = ()     # sorted ((edge_index, (coord, copy)), ...)

    def __post_init__(self):
        for v in self.vertices:
            if type(v) is not int:
                raise GraphError(f"vertex id {v!r} is not an integer")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        for e in self.edges:
            if len(e) != 2:
                raise GraphError(f"edge {list(e)} is not a pair of vertices")
            a, b = e
            if not (type(a) is type(b) is int and a in vset and b in vset):
                raise GraphError(f"edge ({a}, {b}) references missing vertex")
        if self.basepoint is not None and not (
                type(self.basepoint) is int and self.basepoint in vset):
            raise GraphError("basepoint is not a vertex")
        _check_labels(self.vertex_labels, vset, "vertex")
        _check_labels(self.edge_labels, range(len(self.edges)), "edge")

    # -- basic queries -------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def endpoint(self, eidx, end):
        return self.edges[eidx][end]

    def incident(self, v):
        """(edge index, end) pairs at v; a loop contributes both ends."""
        out = []
        for i, (a, b) in enumerate(self.edges):
            if a == v:
                out.append((i, 0))
            if b == v:
                out.append((i, 1))
        return out

    def valence(self, v):
        return len(self.incident(v))

    def essential_vertices(self):
        return [v for v in self.vertices if self.valence(v) >= 3]

    def has_loops(self):
        return any(a == b for a, b in self.edges)

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges

    def adjacency(self):
        adj = {v: [] for v in self.vertices}
        for i, (a, b) in enumerate(self.edges):
            adj[a].append((b, i))
            adj[b].append((a, i))
        return adj

    def _bfs(self, u):
        """Breadth-first walk from u: each vertex reached, mapped to the
        (vertex, edge id) it was reached from (None at u)."""
        adj = self.adjacency()
        prev = {u: None}
        queue = [u]
        for x in queue:
            for y, e in adj[x]:
                if y not in prev:
                    prev[y] = x, e
                    queue.append(y)
        return prev

    def is_connected(self):
        return not self.vertices or \
            len(self._bfs(self.vertices[0])) == self.n_vertices

    def is_tree(self):
        return self.is_connected() and self.n_edges == self.n_vertices - 1

    def tree_path(self, u, w):
        """Edge ids of the BFS shortest path from u to w (unique in a tree)."""
        prev = self._bfs(u)
        if w not in prev:
            raise GraphError(f"no path from {u} to {w}")
        path = []
        while prev[w] is not None:
            w, e = prev[w]
            path.append(e)
        return path[::-1]

    # -- serialization ---------------------------------------------------

    def to_json(self):
        """Canonical JSON string; round-trips bit-exactly through from_json."""
        payload = {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "basepoint": self.basepoint,
            "labels": {
                "vertices": {str(v): list(l) for v, l in self.vertex_labels},
                "edges": {str(e): list(l) for e, l in self.edge_labels},
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise GraphError("a graph must be a JSON object")
        labels = _json_labels(data.get("labels"))
        vertices, edges = data.get("vertices"), data.get("edges")
        if not (isinstance(vertices, list) and isinstance(edges, list)
                and all(isinstance(e, list) for e in edges)):
            raise GraphError("vertices and edges must be JSON lists")
        return cls(
            vertices=tuple(vertices),
            edges=tuple(tuple(e) for e in edges),
            basepoint=data.get("basepoint"),
            vertex_labels=_labels_from_json(labels.get("vertices")),
            edge_labels=_labels_from_json(labels.get("edges")),
        )


# -- canonical constructions -------------------------------------------


def make_star(k):
    """Star with k leaves: one center (the basepoint), k edges."""
    if k < 1:
        raise GraphError("a star needs at least one leaf")
    return Graph(
        vertices=tuple(range(k + 1)),
        edges=tuple((0, i) for i in range(1, k + 1)),
        basepoint=0,
    )


def make_h_graph():
    """The tree with exactly two valence-3 vertices and four leaves."""
    return Graph(
        vertices=tuple(range(6)),
        edges=((0, 1), (0, 2), (0, 3), (1, 4), (1, 5)),
    )


def make_path_graph(m):
    """Path with m edges; vertex 0 (an endpoint) is the basepoint."""
    if m < 1:
        raise GraphError("a path needs at least one edge")
    return Graph(
        vertices=tuple(range(m + 1)),
        edges=tuple((i, i + 1) for i in range(m)),
        basepoint=0,
    )


def make_cycle_graph(m):
    """Cycle with m vertices and m edges, m >= 3."""
    if m < 3:
        raise GraphError("a cycle graph needs at least three vertices")
    return Graph(
        vertices=tuple(range(m)),
        edges=tuple((i, (i + 1) % m) for i in range(m)),
        basepoint=0,
    )


def make_spider(legs_a=2, legs_b=3, bridge=1):
    """Tree with two essential vertices joined by a path of ``bridge`` edges.

    Vertex 0 carries ``legs_a`` extra leaves, the far center carries
    ``legs_b``; with the bridge both centers have valence >= 3.
    """
    if legs_a < 2 or legs_b < 2 or bridge < 1:
        raise GraphError("each center needs two extra legs and a bridge edge")
    verts = [0]
    edges = []
    prev = 0
    for _ in range(bridge):
        nxt = len(verts)
        verts.append(nxt)
        edges.append((prev, nxt))
        prev = nxt
    far = prev
    for _ in range(legs_a):
        leaf = len(verts)
        verts.append(leaf)
        edges.append((0, leaf))
    for _ in range(legs_b):
        leaf = len(verts)
        verts.append(leaf)
        edges.append((far, leaf))
    return Graph(vertices=tuple(verts), edges=tuple(edges), basepoint=0)


# -- homeomorphism-preserving surgery ----------------------------------


def subdivide(g, t, edges=None):
    """Replace every edge, or each edge numbered in ``edges``, by a path of
    t edges.  The result is a new graph that keeps g's basepoint and
    carries no labels."""
    if t < 1:
        raise GraphError("subdivision factor must be >= 1")
    verts = list(g.vertices)
    next_id = max(verts) + 1 if verts else 0
    new_edges = []
    for i, (a, b) in enumerate(g.edges):
        pieces = t if edges is None or i in edges else 1
        chain = [a, *range(next_id, next_id + pieces - 1), b]
        verts.extend(chain[1:-1])
        next_id += pieces - 1
        new_edges.extend(zip(chain, chain[1:]))
    return Graph(vertices=tuple(verts), edges=tuple(new_edges),
                 basepoint=g.basepoint)


def normalize_loops(g):
    """Subdivide each loop edge once; parallel edges are kept as they are."""
    return subdivide(g, 2, {i for i, (a, b) in enumerate(g.edges) if a == b})


def smooth(g, keep=()):
    """Remove each valence-2 vertex not in ``keep`` and merge its two edges
    into one, unless the merged edge would be a loop.  The result is
    homeomorphic to g, so Conf_n of both is the same space.

    Vertices are visited in ascending order.  An edge keeps its index slot
    and orientation until it is merged; a merged edge takes the lower slot
    and runs from the far end of that edge to the far end of the other.
    Surviving vertices keep their ids, so ``keep`` (such as a sink set)
    names the same vertices afterwards.  The result has no labels and no
    basepoint."""
    keep = set(keep)
    edges = list(g.edges)
    ends = {v: [] for v in g.vertices}           # (edge index, end) at v
    for i, (a, b) in enumerate(edges):
        ends[a].append((i, 0))
        ends[b].append((i, 1))
    for v in sorted(g.vertices):
        if v in keep or len(ends[v]) != 2:
            continue
        (e, x), (f, y) = sorted(ends[v])
        a, b = edges[e][1 - x], edges[f][1 - y]
        if a == b:          # v is on a loop, or merging would make one
            continue
        edges[e], edges[f] = (a, b), None
        ends[a][ends[a].index((e, 1 - x))] = (e, 0)
        ends[b][ends[b].index((f, 1 - y))] = (e, 1)
        del ends[v]
    return Graph(vertices=tuple(v for v in g.vertices if v in ends),
                 edges=tuple(e for e in edges if e is not None))


def conf_euler(g, n):
    """χ(Conf_n(g)) of a graph without sinks by Gal's formula (Colloq. Math.
    2001): n! times the t^n coefficient of Π_v (1 + (1 − val v) t) times
    (1 − t)^(−|E|), whose t^j coefficient is binom(|E| + j − 1, j)."""
    poly = [1]
    for v in g.vertices:
        a = 1 - g.valence(v)
        poly = [lo + a * hi for lo, hi in zip(poly + [0], [0] + poly)]
    e = g.n_edges
    return factorial(n) * sum(
        c * (comb(e + n - i - 1, n - i) if e else int(i == n))
        for i, c in enumerate(poly[:n + 1]))


# -- glueing -------------------------------------------------------------


def _check_marked_subgraph(g, marked_vertices, marked_edges, side):
    vset = set(marked_vertices)
    if len(vset) != len(marked_vertices):
        raise GraphError(f"{side}: repeated vertices in glueing correspondence")
    for v in vset:
        if v not in set(g.vertices):
            raise GraphError(f"{side}: vertex {v} not in graph")
    eset = set(marked_edges)
    if len(eset) != len(marked_edges):
        raise GraphError(f"{side}: repeated edges in glueing correspondence")
    for e in eset:
        if not 0 <= e < g.n_edges:
            raise GraphError(f"{side}: edge index {e} out of range")
        a, b = g.edges[e]
        if a not in vset or b not in vset:
            raise GraphError(f"{side}: glued edge {e} has an endpoint off the marked vertices")
    # only single vertices and marked trees may be glued
    if marked_edges:
        sub = Graph(vertices=tuple(sorted(vset)),
                    edges=tuple(g.edges[e] for e in marked_edges))
        if not sub.is_tree():
            raise GraphError(f"{side}: glued subgraph must be a single vertex or a tree")
    elif len(vset) != 1:
        raise GraphError(f"{side}: vertex-only glueing must identify a single vertex")


def glue_with_maps(a, b, vertex_map, edge_map=None):
    """Glue b onto a along the correspondence b-subgraph -> a-subgraph.

    ``vertex_map`` maps marked b-vertices to a-vertices; ``edge_map`` maps
    marked b-edges to a-edges (empty for a point glueing).  Returns the new
    graph plus the embedding of all of b into it (vertex and edge maps).
    The new graph keeps a's ids and basepoint and carries no labels.
    """
    edge_map = dict(edge_map or {})
    vertex_map = dict(vertex_map)
    _check_marked_subgraph(b, list(vertex_map.keys()), list(edge_map.keys()), "summand side")
    _check_marked_subgraph(a, list(vertex_map.values()), list(edge_map.values()), "base side")
    for be, ae in edge_map.items():
        bu, bv = b.edges[be]
        au, av = a.edges[ae]
        if {vertex_map[bu], vertex_map[bv]} != {au, av}:
            raise GraphError("glueing correspondence does not respect edge endpoints")

    verts = list(a.vertices)
    next_id = max(verts) + 1 if verts else 0
    vmap = {}
    for v in b.vertices:
        if v in vertex_map:
            vmap[v] = vertex_map[v]
        else:
            vmap[v] = next_id
            verts.append(next_id)
            next_id += 1
    edges = list(a.edges)
    emap = {}
    for i, (u, v) in enumerate(b.edges):
        if i in edge_map:
            emap[i] = edge_map[i]
        else:
            emap[i] = len(edges)
            edges.append((vmap[u], vmap[v]))
    out = Graph(vertices=tuple(verts), edges=tuple(edges), basepoint=a.basepoint)
    return out, vmap, emap


def glue(a, b, vertex_map, edge_map=None):
    """Disjoint union of a and b with the marked subgraphs identified."""
    out, _, _ = glue_with_maps(a, b, vertex_map, edge_map)
    return out


def wedge(a, b, at_a=None, at_b=None):
    """One-point glueing; defaults to the two basepoints."""
    at_a = a.basepoint if at_a is None else at_a
    at_b = b.basepoint if at_b is None else at_b
    if at_a is None or at_b is None:
        raise GraphError("wedge needs basepoints on both sides")
    return glue(a, b, {at_b: at_a})


# -- subgraphs -----------------------------------------------------------


@dataclass(frozen=True)
class Subgraph:
    """Vertex/edge subset of a parent graph, closed under edge endpoints."""

    graph: Graph
    vertices: frozenset
    edges: frozenset

    def __post_init__(self):
        vs = set(self.graph.vertices)
        if not self.vertices <= vs:
            raise GraphError("subgraph vertices not in parent graph")
        for e in self.edges:
            a, b = self.graph.edges[e]
            if a not in self.vertices or b not in self.vertices:
                raise GraphError("subgraph edge with endpoint outside the subgraph")

    def is_whole_graph(self):
        return (len(self.vertices) == self.graph.n_vertices
                and len(self.edges) == self.graph.n_edges)


# -- families ------------------------------------------------------------

WEDGE_FI = "wedge_fi"
INTERVAL_DELTA = "interval_delta"
CIRCLE_LAMBDA = "circle_lambda"


@dataclass(frozen=True)
class SummandSpec:
    """One glueable coordinate: the summand graph and how it attaches."""

    graph: Graph
    summand_vertices: tuple = ()
    base_vertices: tuple = ()
    summand_edges: tuple = ()
    base_edges: tuple = ()


@dataclass(frozen=True)
class FamilyDescriptor:
    kind: str
    base: Graph | None
    summands: tuple

    def __post_init__(self):
        if self.kind not in (WEDGE_FI, INTERVAL_DELTA, CIRCLE_LAMBDA):
            raise GraphError(f"unknown family kind {self.kind!r}")
        if self.kind == WEDGE_FI:
            if self.base is None:
                raise GraphError("wedge family needs a base graph")
            if not self.summands:
                raise GraphError("wedge family needs at least one summand")
            for spec in self.summands:
                if spec.graph.has_loops() or self.base.has_loops():
                    raise GraphError("normalize loops before building a family")
                _check_marked_subgraph(spec.graph, spec.summand_vertices,
                                       spec.summand_edges, "summand side")
                _check_marked_subgraph(self.base, spec.base_vertices,
                                       spec.base_edges, "base side")
                if len(spec.summand_vertices) != len(spec.base_vertices) or \
                        len(spec.summand_edges) != len(spec.base_edges):
                    raise GraphError("glueing correspondence sides differ in size")
        else:
            if len(self.summands) != 1:
                raise GraphError("interval/circle families take exactly one summand")
            g = self.summands[0].graph
            if g.basepoint is None:
                raise GraphError("interval/circle summand needs a basepoint")
            if g.valence(g.basepoint) < 2:
                raise GraphError("summand basepoint must have valence >= 2")
            if g.has_loops():
                raise GraphError("normalize loops before building a family")

    @property
    def arity(self):
        return len(self.summands)

    def generation_bound(self, n):
        """Per-coordinate finite-generation degree asserted for this family:
        2n when base and summands are trees, 3n when every summand glues at
        a single vertex."""
        if self.kind == INTERVAL_DELTA:
            return n
        if self.kind == CIRCLE_LAMBDA:
            return 6 * n
        if self.base.is_tree() and all(s.graph.is_tree() for s in self.summands):
            return 2 * n
        if not any(s.summand_edges for s in self.summands):
            return 3 * n
        return None


def wedge_family(base, summands):
    return FamilyDescriptor(WEDGE_FI, base, tuple(summands))


def interval_family(summand):
    return FamilyDescriptor(INTERVAL_DELTA, None, (SummandSpec(summand),))


def circle_family(summand):
    return FamilyDescriptor(CIRCLE_LAMBDA, None, (SummandSpec(summand),))


def _backbone(kind, k):
    """The graph the k copies of an interval or circle member glue onto,
    and the vertex each copy glues at."""
    if kind == INTERVAL_DELTA:
        return make_path_graph(k + 1), tuple(range(1, k + 1))
    if k >= 3:
        return make_cycle_graph(k), tuple(range(k))
    # a 2-cycle; for k <= 1 it stands for a loop, normalized (one midpoint)
    g = Graph(vertices=(0, 1), edges=((0, 1), (1, 0)), basepoint=0)
    return g, (0, 1)[:k]


@dataclass(frozen=True)
class FamilyInstance:
    """A realized family member.  ``copies`` maps each (coord, copy) to the
    vertex map and edge map embedding that copy of the coordinate's summand
    in ``graph``; ``base_part`` holds the vertices and edges of the graph
    the copies glue onto, whose ids glueing keeps."""

    descriptor: FamilyDescriptor
    sizes: tuple
    graph: Graph
    copies: dict
    base_part: tuple    # (frozenset of vertices, frozenset of edge ids)

    def copy_automorphism(self, perm):
        """Vertex/edge maps of the graph automorphism carrying copy (i, m)
        onto copy ``perm[i, m]``; copies ``perm`` does not name stay put.
        ``perm`` must permute its keys within each coordinate."""
        if set(perm.values()) != set(perm) or not self.copies.keys() >= set(perm) \
                or any(i != j for (i, _), (j, _) in perm.items()):
            raise GraphError("not a permutation of the copies of each coordinate")
        vmap = {v: v for v in self.graph.vertices}
        emap = {e: e for e in range(self.graph.n_edges)}
        for src, dst in perm.items():
            (src_v, src_e), (dst_v, dst_e) = self.copies[src], self.copies[dst]
            for sv, gv in src_v.items():
                vmap[gv] = dst_v[sv]
            for se, ge in src_e.items():
                emap[ge] = dst_e[se]
        return vmap, emap


def realize_family(descriptor, sizes):
    """Assemble the family member at the given sizes, recording where each
    summand copy lands.  A wedge copy glues at its spec's marks onto the
    base; interval/circle copy m glues its basepoint at the m-th attaching
    vertex of the backbone."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != descriptor.arity:
        raise GraphError(f"expected {descriptor.arity} sizes, got {len(sizes)}")
    if any(s < 0 for s in sizes):
        raise GraphError("sizes must be nonnegative")
    if descriptor.kind == WEDGE_FI:
        g = descriptor.base
        glued = [((i, m), spec) for i, spec in enumerate(descriptor.summands, 1)
                 for m in range(1, sizes[i - 1] + 1)]
    else:
        g, attach = _backbone(descriptor.kind, sizes[0])
        h = descriptor.summands[0].graph
        glued = [((1, m), SummandSpec(h, (h.basepoint,), (v,)))
                 for m, v in enumerate(attach, 1)]
    base_part = frozenset(g.vertices), frozenset(range(g.n_edges))
    copies = {}
    for key, spec in glued:
        g, vmap, emap = glue_with_maps(
            g, spec.graph, dict(zip(spec.summand_vertices, spec.base_vertices)),
            dict(zip(spec.summand_edges, spec.base_edges)))
        copies[key] = vmap, emap
    return FamilyInstance(descriptor, sizes, g, copies, base_part)


def _copy_choices(instance, degrees):
    """The copies each degree-``degrees`` support takes, per coordinate."""
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != instance.descriptor.arity:
        raise GraphError("degree tuple arity mismatch")
    if not all(0 <= d <= k for d, k in zip(degrees, instance.sizes)):
        raise GraphError("degrees must satisfy 0 <= d <= size componentwise")
    return list(product(*(combinations(range(1, k + 1), d)
                          for d, k in zip(degrees, instance.sizes))))


def _support(instance, choice):
    """The base part plus the copies ``choice`` takes in each coordinate."""
    verts, edges = map(set, instance.base_part)
    for i, chosen in enumerate(choice, start=1):
        for m in chosen:
            vmap, emap = instance.copies[i, m]
            verts.update(vmap.values())
            edges.update(emap.values())
    return Subgraph(instance.graph, frozenset(verts), frozenset(edges))


def support_subgraphs(instance, degrees):
    """Images of all degree-``degrees`` morphisms into this family member.

    Injections from smaller objects factor through degree-d objects, so these
    supports are exactly the images that matter for span checks.
    """
    return [_support(instance, choice) for choice in _copy_choices(instance, degrees)]


def support_orbits(instance, degrees):
    """``support_subgraphs`` as orbits: (representative, [(vertex map, edge
    map) of an automorphism carrying it onto each further support]).  Wedge
    families permute the copies of each coordinate, so all supports form one
    orbit; in interval and circle members each support is its own orbit."""
    supports = support_subgraphs(instance, degrees)
    if instance.descriptor.kind != WEDGE_FI:
        return [(sub, []) for sub in supports]
    maps = []
    for choice in _copy_choices(instance, degrees)[1:]:
        perm = {}
        for i, (chosen, k) in enumerate(zip(choice, instance.sizes), 1):
            order = chosen + tuple(m for m in range(1, k + 1) if m not in chosen)
            perm.update({(i, m): (i, c) for m, c in enumerate(order, 1)})
        maps.append(instance.copy_automorphism(perm))
    return [(supports[0], maps)]
