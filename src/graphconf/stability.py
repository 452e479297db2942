"""Stabilization experiments: explicit basic cycles and their products, the
tree generating theorem as an exact span check, finite-generation degree
checks for the three family kinds, and eventual-polynomiality fits."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .complexes import (DEFAULT_CELL_BUDGET, _freeze_state, build_model,
                        subcomplex_supported_in)
from .graphs import (
    GraphError,
    Subgraph,
    realize_family,
    support_orbits,
)
from .homology import (
    betti_numbers,
    generated_check,
    homology,
    permutation_action_map,
    push_cycle,
)
from .linalg import kernel_with_coords


class StabilityError(ValueError):
    pass


# -- explicit chains ---------------------------------------------------------


def _walk_chain(graph, vocc, eocc, steps):
    """Compile a closed edge-vertex walk into a 1-chain of partial cells.

    Each step is (particle, edge, end, direction): 'off' slides the particle
    from the extremal slot at that end of the edge onto the vertex there,
    'on' slides it back onto the edge.  Returns {partial cell key: coeff}.
    The walk must return to its starting state.
    """
    vocc = {v: list(ps) for v, ps in vocc.items()}
    eocc = {e: list(ps) for e, ps in eocc.items()}
    start = _freeze_state(vocc, eocc)
    chain = {}
    for p, e, end, direction in steps:
        target = graph.endpoint(e, end)
        if direction == "off":
            tup = eocc.get(e, [])
            slot = 0 if end == 0 else len(tup) - 1
            if not tup or tup[slot] != p:
                raise StabilityError(
                    f"particle {p} is not at the extremal slot of edge {e}")
            if vocc.get(target):
                raise StabilityError(
                    f"vertex {target} is occupied; particle {p} cannot land")
            base = _freeze_state(vocc, eocc)
            cell = (base[0], base[1], ((p, e, end),))
            chain[cell] = chain.get(cell, 0) + 1
            tup.pop(slot)
            if not tup:
                eocc.pop(e, None)
            vocc.setdefault(target, []).append(p)
        elif direction == "on":
            if vocc.get(target) != [p]:
                raise StabilityError(
                    f"particle {p} is not alone on vertex {target}")
            vocc.pop(target)
            tup = eocc.setdefault(e, [])
            tup.insert(0 if end == 0 else len(tup), p)
            base = _freeze_state(vocc, eocc)
            cell = (base[0], base[1], ((p, e, end),))
            chain[cell] = chain.get(cell, 0) - 1
        else:
            raise StabilityError(f"unknown walk direction {direction!r}")
        if not chain.get(cell):
            chain.pop(cell, None)
    if _freeze_state(vocc, eocc) != start:
        raise StabilityError("walk did not return to its starting state")
    return chain


def _merge_cells(cell_a, cell_b):
    """Disjoint product of two partial cells, with the shuffle sign that
    orders the merged move axes by particle label."""
    va, ea, ma = cell_a
    vb, eb, mb = cell_b
    if {v for v, _ in va} & {v for v, _ in vb}:
        raise StabilityError("merged cells occupy a common vertex")
    if {e for e, _ in ea} & {e for e, _ in eb}:
        raise StabilityError("merged cells occupy a common edge")
    inv = 0
    for pa, _, _ in ma:
        for pb, _, _ in mb:
            if pb < pa:
                inv += 1
    sign = -1 if inv % 2 else 1
    return sign, (
        tuple(sorted(va + vb)),
        tuple(sorted(ea + eb)),
        tuple(sorted(ma + mb)),
    )


def _merge_chains(chain_a, chain_b):
    out = {}
    for ca, xa in chain_a.items():
        for cb, xb in chain_b.items():
            sign, cell = _merge_cells(ca, cb)
            w = out.get(cell, 0) + sign * xa * xb
            if w:
                out[cell] = w
            else:
                out.pop(cell, None)
    return out


@dataclass
class Chain:
    """Integer chain in a model, stored on cell indices of one dimension."""

    model: object
    q: int
    coeffs: dict

    def boundary(self):
        return self.model.boundary(self.q).apply(self.coeffs)

    def is_cycle(self):
        return not self.boundary()


def _chain_from_cells(model, cell_chain, q):
    index = model.index(q)
    out = {}
    for cell, coeff in cell_chain.items():
        try:
            out[index[cell]] = coeff
        except KeyError:
            raise StabilityError(
                "constructed cell is not in the model; placements collide "
                "with the moving particles") from None
    return Chain(model, q, out)


@dataclass
class BasicCycle:
    """An explicit star- or h-shaped 1-cycle in an ambient model."""

    kind: str
    support: Subgraph
    particles: frozenset
    chain: Chain
    parking: dict
    _partial: dict = field(repr=False, default_factory=dict)

    def class_vector(self):
        return dict(self.chain.coeffs)


def _parked_cell(parking):
    if not parking:
        return ((), (), ())
    by_vertex = {}
    for p, v in parking.items():
        by_vertex.setdefault(v, []).append(p)
    if any(len(ps) > 1 for ps in by_vertex.values()):
        raise StabilityError("two particles parked on one vertex")
    return (tuple(sorted((v, tuple(sorted(ps)))
                         for v, ps in by_vertex.items())), (), ())


def _walk_vertices(graph, chain):
    """Vertices occupied or targeted by a partial chain."""
    used = set()
    for (vkey, _, moves), _ in chain.items():
        for v, _ in vkey:
            used.add(v)
        for _, e, end in moves:
            used.add(graph.endpoint(e, end))
    return used


def canonical_parking(graph, support_vertices, blocked, particles):
    """Park particles on vertices farthest from the support, staying off the
    blocked ones, assigning in increasing label order."""
    dist = {v: None for v in graph.vertices}
    frontier = [v for v in support_vertices]
    for v in frontier:
        dist[v] = 0
    adj = graph.adjacency()
    d = 0
    while frontier:
        nxt = []
        d += 1
        for v in frontier:
            for w, _ in adj[v]:
                if dist[w] is None:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    free = [v for v in graph.vertices if v not in blocked]
    free.sort(key=lambda v: (-(dist[v] or 0), v))
    ps = sorted(particles)
    if len(free) < len(ps):
        raise StabilityError("not enough free vertices to park the spectators")
    return {p: free[i] for i, p in enumerate(ps)}


def _star_steps(graph, v, e1, e2, e3, p, q):
    """Rotation in which the pair shifts through e1 -> e2 -> e3 -> e1."""
    ends = {}
    for e in (e1, e2, e3):
        a, b = graph.edges[e]
        if a == v:
            ends[e] = 0
        elif b == v:
            ends[e] = 1
        else:
            raise StabilityError(f"edge {e} is not incident to vertex {v}")
    cyc = (e1, e2, e3)
    steps = []
    for turn in range(3):
        ea = cyc[turn % 3]
        eb = cyc[(turn + 1) % 3]
        ec = cyc[(turn + 2) % 3]
        # the pair sits on (ea, eb): q leads from eb into ec, p follows into eb
        steps.append((q, eb, ends[eb], "off"))
        steps.append((q, ec, ends[ec], "on"))
        steps.append((p, ea, ends[ea], "off"))
        steps.append((p, eb, ends[eb], "on"))
    return ends, steps


def star_cycle(model, v, edges, p, q, parking=None):
    """The rotation 1-cycle of particles p and q around an essential vertex,
    through three chosen edges; other particles sit parked on vertices.

    The argument order of the movers orients the rotation: transposing p
    and q yields the negative of the class.
    """
    graph = model.graph
    e1, e2, e3 = edges
    if len({e1, e2, e3}) != 3:
        raise StabilityError("the three rotation edges must be distinct")
    if graph.valence(v) < 3:
        raise StabilityError("rotations need a vertex of valence at least 3")
    if p == q:
        raise StabilityError("the two movers must differ")
    orient = 1
    if p > q:
        p, q = q, p
        orient = -1
    ends, steps = _star_steps(graph, v, e1, e2, e3, p, q)
    vocc = {}
    eocc = {e1: [p], e2: [q]}
    partial = _walk_chain(graph, vocc, eocc, steps)
    if orient < 0:
        partial = {c: -x for c, x in partial.items()}

    movers = frozenset((p, q))
    rest = frozenset(range(1, model.n + 1)) - movers
    if parking is None:
        support_vertices = {v} | {graph.endpoint(e, i)
                                  for e in (e1, e2, e3) for i in (0, 1)}
        parking = canonical_parking(graph, support_vertices,
                                    _walk_vertices(graph, partial), rest)
    if set(parking) != set(rest):
        raise StabilityError("parking must place exactly the non-moving particles")
    full = _merge_chains(partial, {_parked_cell(parking): 1})
    chain = _chain_from_cells(model, full, 1)
    support = Subgraph(
        graph,
        frozenset({v} | {graph.endpoint(e, i) for e in (e1, e2, e3)
                         for i in (0, 1)}),
        frozenset((e1, e2, e3)),
    )
    return BasicCycle("star", support, movers, chain, dict(parking),
                      _partial=partial)


def _h_steps(graph, path_vertices, path_edges, legs_v, legs_w, p, q):
    """The double swap: exchange at the v end through its two legs, walk the
    pair across, exchange back at the w end."""
    v = path_vertices[0]
    w = path_vertices[-1]
    a1, a2 = legs_v
    b1, b2 = legs_w

    def end_at(e, vertex):
        x, y = graph.edges[e]
        if x == vertex:
            return 0
        if y == vertex:
            return 1
        raise StabilityError(f"edge {e} is not incident to vertex {vertex}")

    first, last = path_edges[0], path_edges[-1]
    steps = []

    def walk(particle, from_idx, to_idx):
        # move along the path between edge indices, one edge at a time
        step = 1 if to_idx > from_idx else -1
        i = from_idx
        while i != to_idx:
            shared = path_vertices[i + 1] if step == 1 else path_vertices[i]
            steps.append((particle, path_edges[i], end_at(path_edges[i], shared), "off"))
            i += step
            steps.append((particle, path_edges[i], end_at(path_edges[i], shared), "on"))

    L = len(path_edges)
    # exchange at v: p out to a1, q gathers and goes to a2, p back first
    steps.append((p, first, end_at(first, v), "off"))
    steps.append((p, a1, end_at(a1, v), "on"))
    walk(q, L - 1, 0)
    steps.append((q, first, end_at(first, v), "off"))
    steps.append((q, a2, end_at(a2, v), "on"))
    steps.append((p, a1, end_at(a1, v), "off"))
    steps.append((p, first, end_at(first, v), "on"))
    walk(p, 0, L - 1)
    steps.append((q, a2, end_at(a2, v), "off"))
    steps.append((q, first, end_at(first, v), "on"))
    # exchange back at w: p out to b1, q gathers, p returns first
    steps.append((p, last, end_at(last, w), "off"))
    steps.append((p, b1, end_at(b1, w), "on"))
    walk(q, 0, L - 1)
    steps.append((q, last, end_at(last, w), "off"))
    steps.append((q, b2, end_at(b2, w), "on"))
    steps.append((p, b1, end_at(b1, w), "off"))
    steps.append((p, last, end_at(last, w), "on"))
    walk(p, L - 1, 0)
    steps.append((q, b2, end_at(b2, w), "off"))
    steps.append((q, last, end_at(last, w), "on"))
    return steps


def h_cycle(model, v, w, p, q, parking=None, legs=None):
    """The two-vertex exchange 1-cycle supported on an embedded h-shaped
    subtree with essential vertices v and w.

    As for star_cycle, transposing the movers negates the class.
    """
    graph = model.graph
    if v == w:
        raise StabilityError("the two essential vertices must differ")
    if graph.valence(v) < 3 or graph.valence(w) < 3:
        raise StabilityError("both vertices must have valence at least 3")
    if p == q:
        raise StabilityError("the two movers must differ")
    orient = 1
    if p > q:
        p, q = q, p
        orient = -1
    path_vertices = graph.tree_path(v, w)
    path_edges = [graph.edge_between(path_vertices[i], path_vertices[i + 1])
                  for i in range(len(path_vertices) - 1)]
    if legs is None:
        legs_v = [e for e, _ in graph.incident(v) if e not in path_edges][:2]
        legs_w = [e for e, _ in graph.incident(w) if e not in path_edges][:2]
        if len(legs_v) < 2 or len(legs_w) < 2:
            raise StabilityError("each end needs two legs off the connecting path")
        legs = (legs_v[0], legs_v[1], legs_w[0], legs_w[1])
    a1, a2, b1, b2 = legs

    steps = _h_steps(graph, path_vertices, path_edges, (a1, a2), (b1, b2), p, q)
    L = len(path_edges)
    vocc = {}
    if L == 1:
        e = path_edges[0]
        tup = [p, q] if graph.endpoint(e, 0) == v else [q, p]
        eocc = {e: tup}
    else:
        ev, ew = path_edges[0], path_edges[-1]
        eocc = {ev: [p], ew: [q]}
    partial = _walk_chain(graph, vocc, eocc, steps)
    if orient < 0:
        partial = {c: -x for c, x in partial.items()}

    support_edges = set(path_edges) | {a1, a2, b1, b2}
    support_vertices = set(path_vertices)
    for e in support_edges:
        support_vertices.update(graph.edges[e])
    movers = frozenset((p, q))
    rest = frozenset(range(1, model.n + 1)) - movers
    if parking is None:
        parking = canonical_parking(graph, support_vertices,
                                    _walk_vertices(graph, partial), rest)
    if set(parking) != set(rest):
        raise StabilityError("parking must place exactly the non-moving particles")
    full = _merge_chains(partial, {_parked_cell(parking): 1})
    chain = _chain_from_cells(model, full, 1)
    support = Subgraph(graph, frozenset(support_vertices),
                       frozenset(support_edges))
    return BasicCycle("h", support, movers, chain, dict(parking),
                      _partial=partial)


def product_cycle(model, cycles, parking=None):
    """Product of basic cycles with pairwise disjoint particle sets and
    supports; remaining particles sit parked off every support."""
    if not cycles:
        raise StabilityError("a product needs at least one factor")
    used = set()
    for c in cycles:
        if used & c.particles:
            raise StabilityError("factors must move disjoint particle sets")
        used |= c.particles
    for i, a in enumerate(cycles):
        for b in cycles[i + 1:]:
            if a.support.vertices & b.support.vertices or \
                    a.support.edges & b.support.edges:
                raise StabilityError("factor supports must be disjoint subgraphs")
    rest = frozenset(range(1, model.n + 1)) - used
    if parking is None:
        blocked = set()
        for c in cycles:
            blocked |= _walk_vertices(model.graph, c._partial)
        support_vertices = set()
        for c in cycles:
            support_vertices |= c.support.vertices
        parking = canonical_parking(model.graph, support_vertices, blocked, rest)
    if set(parking) != set(rest):
        raise StabilityError("parking must place exactly the unused particles")
    merged = {((), (), ()): 1}
    for c in cycles:
        merged = _merge_chains(merged, c._partial)
    merged = _merge_chains(merged, {_parked_cell(parking): 1})
    return _chain_from_cells(model, merged, len(cycles))


# -- tree generating theorem --------------------------------------------------


def _star_pieces(tree):
    """Star pieces of every valence from 3 up: rotations through exactly
    three edges span only rank 3 of b_1 = 5 on star4 at n = 2."""
    pieces = []
    for v in tree.essential_vertices():
        inc = [e for e, _ in tree.incident(v)]
        for size in range(3, len(inc) + 1):
            for subset in combinations(inc, size):
                verts = {v}
                for e in subset:
                    verts.update(tree.edges[e])
                pieces.append(Subgraph(tree, frozenset(verts), frozenset(subset)))
    return pieces


def _h_pieces(tree):
    pieces = []
    essential = tree.essential_vertices()
    ess = set(essential)
    for v, w in combinations(essential, 2):
        path = tree.tree_path(v, w)
        if any(u in ess for u in path[1:-1]):
            continue
        path_edges = [tree.edge_between(path[i], path[i + 1])
                      for i in range(len(path) - 1)]
        legs_v = [e for e, _ in tree.incident(v) if e not in path_edges]
        legs_w = [e for e, _ in tree.incident(w) if e not in path_edges]
        for la in combinations(legs_v, 2):
            for lb in combinations(legs_w, 2):
                edges = set(path_edges) | set(la) | set(lb)
                verts = set(path)
                for e in edges:
                    verts.update(tree.edges[e])
                pieces.append(Subgraph(tree, frozenset(verts), frozenset(edges)))
    return pieces


def _maximal_supports(supports):
    """The supports whose edge set is not properly contained in another's,
    one per edge set, for supports that all have the same vertices."""
    by_edges = {s.edges: s for s in supports}
    return [by_edges[edges] for edges in sorted(by_edges, key=sorted)
            if not any(edges < other for other in by_edges)]


def _generator_supports(tree, q):
    """Supports carrying the degree-q products of basic classes: q pairwise
    vertex-disjoint embedded star/h pieces, with every leftover vertex kept
    as an isolated parking spot.

    Only the maximal ones are kept, each once.  Every support has all the
    vertices, so one contained in another has a subset of its edges; its
    cells are then cells of the larger support, and so are its cycles:
    Z_q(A) is a sublattice of Z_q(B) when A is in B, and adds nothing to
    the span."""
    pieces = _star_pieces(tree) + _h_pieces(tree)
    all_vertices = frozenset(tree.vertices)
    return _maximal_supports(
        Subgraph(tree, all_vertices,
                 frozenset().union(*(piece.edges for piece in combo)))
        for combo in combinations(pieces, q)
        if all(not (a.vertices & b.vertices)
               for a, b in combinations(combo, 2)))


def pushed_cycle_space(model, sub, q):
    """Basis of the q-cycle lattice of the supported subcomplex, pushed into
    the ambient model's chain group.  Supported cells are closed under
    faces, so their columns of the ambient d_q are the subcomplex's d_q up
    to the numbering of rows; the kernel is taken on them directly."""
    _, inj = subcomplex_supported_in(model, sub)
    if q >= len(inj) or not inj[q]:
        return []
    cells = inj[q]
    _, basis, _ = kernel_with_coords(model.boundary(q).select_columns(cells))
    return [push_cycle(vec, cells) for vec in basis]


def verify_tree_generators(tree, n, q, model=None, presentation=None,
                           detailed=False):
    """Check that products of basic (star and h) classes generate H_q over
    the integers, as a span of cycle spaces supported on embedded pieces.
    With ``detailed``, returns the ``GeneratedCheck`` and the supports."""
    if not tree.is_tree():
        raise StabilityError("the generating theorem applies to trees")
    model = model or build_model(tree, n)
    pres = presentation or homology(model, q, basis=False)
    supports = _generator_supports(tree, q)
    candidates = []
    for sub in supports:
        candidates.extend(pushed_cycle_space(model, sub, q))
    result = generated_check(model, q, candidates, presentation=pres)
    return (result, supports) if detailed else result.generates_over_Z


# -- finite generation over the families --------------------------------------


@dataclass
class GenerationReport:
    family_kind: str
    n: int
    q: int
    sizes: tuple
    degree: tuple
    generates_over_Q: bool
    generates_over_Z: bool
    missing_rank: int
    d_min: int | None
    asserted_bound: int | None
    bound_clamped: int | None
    passes_asserted_bound: bool | None
    betti: int
    torsion: tuple
    f_vector: tuple
    candidate_count: int
    per_degree: dict
    elapsed_seconds: float

    def to_dict(self):
        return {
            "family_kind": self.family_kind,
            "n": self.n,
            "q": self.q,
            "sizes": list(self.sizes),
            "degree": list(self.degree),
            "generates_over_Q": self.generates_over_Q,
            "generates_over_Z": self.generates_over_Z,
            "missing_rank": self.missing_rank,
            "d_min": self.d_min,
            "asserted_bound": self.asserted_bound,
            "bound_clamped": self.bound_clamped,
            "passes_asserted_bound": self.passes_asserted_bound,
            "betti": self.betti,
            "torsion": list(self.torsion),
            "f_vector": list(self.f_vector),
            "candidate_count": self.candidate_count,
            "per_degree": {str(k): {
                "generates_over_Q": v.generates_over_Q,
                "generates_over_Z": v.generates_over_Z,
                "missing_rank": v.missing_rank,
            } for k, v in self.per_degree.items()},
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def _degree_candidates(instance, model, q, degrees):
    """Pushed cycle lattices of the supports: one kernel per support orbit,
    carried to the other supports by the automorphisms' chain maps."""
    out = []
    for rep, maps in support_orbits(instance, degrees):
        basis = pushed_cycle_space(model, rep, q)
        out.extend(basis)
        cells = sorted({i for vec in basis for i in vec})
        for vmap, emap in maps:
            chain_map = permutation_action_map(model, vmap, emap)
            image = dict(zip(cells, chain_map.images(q, cells)))
            out.extend({image[i]: v for i, v in vec.items()} for vec in basis)
    return out


def generation_degree_check(descriptor, n, q, d, sizes,
                            budget=DEFAULT_CELL_BUDGET, search_d_min=True):
    """Span check: do classes supported in degree-d images generate H_q of
    the size-``sizes`` member?  Reports the minimal witnessed degree and the
    verdict at the family's asserted bound (clamped to the window)."""
    t0 = time.perf_counter()
    if isinstance(sizes, int):
        sizes = (sizes,) * descriptor.arity
    sizes = tuple(sizes)
    if isinstance(d, int):
        degree = (d,) * descriptor.arity
    else:
        degree = tuple(d)
    if any(dd > k for dd, k in zip(degree, sizes)):
        raise StabilityError("degree must not exceed the sizes componentwise")

    instance = realize_family(descriptor, sizes)
    model = build_model(instance.graph, n, budget=budget)
    pres = homology(model, q, basis=False)

    per_degree = {}
    counts = {}

    def verdict_at(deg):
        if deg not in per_degree:
            cands = _degree_candidates(instance, model, q, (deg,) * descriptor.arity)
            counts[deg] = len(cands)
            per_degree[deg] = generated_check(model, q, cands,
                                              presentation=pres)
        return per_degree[deg]

    scalar_d = degree[0]
    head = verdict_at(scalar_d)

    d_min = None
    if head.generates_over_Z and search_d_min:
        d_min = scalar_d
        for lower in range(scalar_d - 1, -1, -1):
            if verdict_at(lower).generates_over_Z:
                d_min = lower
            else:
                break
    elif head.generates_over_Z:
        d_min = scalar_d

    bound = descriptor.generation_bound(n)
    clamped = None
    passes = None
    if bound is not None:
        clamped = min(bound, min(sizes))
        known_pass = [dd for dd, v in per_degree.items()
                      if v.generates_over_Z and dd <= clamped]
        known_fail = [dd for dd, v in per_degree.items()
                      if not v.generates_over_Z and dd >= clamped]
        if known_pass:
            passes = True      # supports nest, so a pass persists upward
        elif known_fail:
            passes = False
        else:
            passes = verdict_at(clamped).generates_over_Z

    candidate_count = counts.get(scalar_d, 0)

    return GenerationReport(
        family_kind=descriptor.kind,
        n=n, q=q, sizes=sizes, degree=degree,
        generates_over_Q=head.generates_over_Q,
        generates_over_Z=head.generates_over_Z,
        missing_rank=head.missing_rank,
        d_min=d_min,
        asserted_bound=bound,
        bound_clamped=clamped,
        passes_asserted_bound=passes,
        betti=pres.betti,
        torsion=pres.torsion,
        f_vector=tuple(model.f_vector()),
        candidate_count=candidate_count,
        per_degree=per_degree,
        elapsed_seconds=time.perf_counter() - t0,
    )


# -- polynomial growth ---------------------------------------------------------


def _lagrange_coefficients(points):
    """Exact monomial coefficients of the interpolating polynomial."""
    size = len(points)
    # solve the Vandermonde system over the rationals
    rows = [[Fraction(x) ** j for j in range(size)] + [Fraction(y)]
            for x, y in points]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [v / pv for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    coeffs = [rows[i][size] for i in range(size)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def dimension_polynomial_check(descriptor, n, q, window, degree_bound,
                               holdout, betti_values=None,
                               budget=DEFAULT_CELL_BUDGET):
    """Fit an exact polynomial of degree <= degree_bound to the first points
    of the Betti sequence and verify it predicts every remaining point."""
    window = list(window)
    if len(window) < degree_bound + 1 + holdout:
        raise StabilityError(
            "window must cover the interpolation points plus the holdout")
    if betti_values is None:
        betti_values = []
        for k in window:
            instance = realize_family(descriptor, (k,) * descriptor.arity)
            model = build_model(instance.graph, n, budget=budget)
            betti_values.append(betti_numbers(model, q)[q])
    fit_points = list(zip(window, betti_values))[: degree_bound + 1]
    coeffs = _lagrange_coefficients(fit_points)
    predictions = [_poly_eval(coeffs, k) for k in window]
    fits = all(pred == actual
               for pred, actual in zip(predictions[degree_bound + 1:],
                                       betti_values[degree_bound + 1:]))
    return {
        "fits": fits,
        "degree": len(coeffs) - 1,
        "coefficients": [str(c) for c in coeffs],
        "window": window,
        "betti": betti_values,
        "predicted": [str(p) for p in predictions],
    }
