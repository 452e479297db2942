"""The main model's integer cells and face tables against the nested-tuple
rule they replaced.

The reference below lists the 0-cells as canonical nested tuples, rebuilds
every cell from them, finds its faces by rebuilding the landed 0-cell's
key, and maps cells under an automorphism key by key.  The integer
encoding must give the same cells in the same order, the same boundary
matrices entry for entry, the same chain map images and the same
supports' cell injections.
"""

import random
from itertools import islice

import networkx as nx
import pytest

from graphconf import (
    Subgraph,
    build_model,
    permutation_action_map,
    subcomplex_supported_in,
)

from conftest import corpus_graphs
from test_acceptance import corpus_model
from test_extra_properties import random_connected_graph


def _freeze_state(vocc, eocc):
    vkey = tuple(sorted((v, tuple(sorted(ps))) for v, ps in vocc.items() if ps))
    ekey = tuple(sorted((e, tuple(ps)) for e, ps in eocc.items() if ps))
    return vkey, ekey


def reference_zero_cells(graph, n, sinks):
    """Unsorted nested keys of the 0-cells: each particle in turn sits on a
    sink, on a free vertex, or in any slot of any edge."""
    cells = []
    vocc = {}
    eocc = {}

    def place(p):
        if p > n:
            cells.append(_freeze_state(vocc, eocc))
            return
        for v in graph.vertices:
            if v in sinks or not vocc.get(v):
                vocc.setdefault(v, []).append(p)
                place(p + 1)
                vocc[v].pop()
                if not vocc[v]:
                    del vocc[v]
        for e in range(graph.n_edges):
            tup = eocc.setdefault(e, [])
            for pos in range(len(tup) + 1):
                tup.insert(pos, p)
                place(p + 1)
                tup.pop(pos)
            if not tup:
                del eocc[e]

    place(1)
    return cells


def reference_move_sets(graph, sinks, vkey, ekey):
    """All nonempty admissible move sets on a 0-cell, as sorted tuples."""
    occupied = {v for v, _ in vkey}
    cands = []
    for e, tup in ekey:
        a, b = graph.edges[e]
        cands.append((tup[0], e, 0, a))
        cands.append((tup[-1], e, 1, b))
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


def reference_faces(graph, cell):
    """(sign, resting face, landed face) per move axis."""
    vkey, ekey, moves = cell
    faces = []
    for i, (p, e, end) in enumerate(moves):
        rest_moves = moves[:i] + moves[i + 1:]
        emap = dict(ekey)
        tup = emap[e]
        new_tup = tup[1:] if end == 0 else tup[:-1]
        if new_tup:
            emap[e] = new_tup
        else:
            del emap[e]
        vmap = dict(vkey)
        target = graph.endpoint(e, end)
        vmap[target] = tuple(sorted(vmap.get(target, ()) + (p,)))
        landed = (tuple(sorted(vmap.items())), tuple(sorted(emap.items())), rest_moves)
        faces.append((1 if i % 2 == 0 else -1, (vkey, ekey, rest_moves), landed))
    return faces


def reference_cells(graph, n, sinks):
    """Cells by dimension, unordered (the canonical order is sorted)."""
    by_dim = [[] for _ in range(n + 1)]
    for vkey, ekey in reference_zero_cells(graph, n, frozenset(sinks)):
        by_dim[0].append((vkey, ekey, ()))
        for moves in reference_move_sets(graph, frozenset(sinks), vkey, ekey):
            by_dim[len(moves)].append((vkey, ekey, moves))
    while not by_dim[-1]:
        by_dim.pop()
    return by_dim


def reference_boundary(graph, cells, index, q):
    cols = []
    for cell in cells[q]:
        col = {}
        for sign, resting, landed in reference_faces(graph, cell):
            col[index[landed]] = col.get(index[landed], 0) + sign
            col[index[resting]] = col.get(index[resting], 0) - sign
        cols.append({r: v for r, v in col.items() if v})
    return cols


def reference_image(cell, vm, em, rev):
    vkey, ekey, moves = cell
    return (tuple(sorted((vm[v], ps) for v, ps in vkey)),
            tuple(sorted((em[e], ps[::-1] if em[e] in rev else ps)
                         for e, ps in ekey)),
            tuple(sorted((p, em[e], 1 - end if em[e] in rev else end)
                         for p, e, end in moves)))


def automorphisms(graph, sinks, limit):
    """Up to ``limit`` sink-preserving automorphisms (vertex map, edge map):
    vertex maps from networkx, parallel edges matched in index order, and
    for graphs with parallel edges the swap of each parallel class."""
    multi = nx.MultiGraph()
    multi.add_nodes_from(graph.vertices)
    multi.add_edges_from(graph.edges)
    classes = {}
    for e, (a, b) in enumerate(graph.edges):
        classes.setdefault(frozenset((a, b)), []).append(e)
    out = []
    matcher = nx.algorithms.isomorphism.MultiGraphMatcher(multi, multi)
    for vmap in islice(matcher.isomorphisms_iter(), 50):
        if {vmap[v] for v in sinks} != set(sinks):
            continue
        emap = {}
        for ends, es in classes.items():
            for e, img in zip(es, classes[frozenset(vmap[v] for v in ends)]):
                emap[e] = img
        out.append((vmap, emap))
    identity = {v: v for v in graph.vertices}
    if any(len(es) > 1 for es in classes.values()):
        swap = {}
        for es in classes.values():
            swap.update(zip(es, reversed(es)))
        out.append((identity, swap))
    nontrivial = [m for m in out if m != (identity, {e: e for e in range(graph.n_edges)})]
    return (nontrivial or out)[:limit]


def random_support(rng, graph):
    edges = frozenset(e for e in range(graph.n_edges) if rng.random() < 0.5)
    vertices = {v for e in edges for v in graph.edges[e]}
    vertices |= {v for v in graph.vertices if rng.random() < 0.5}
    return Subgraph(graph, frozenset(vertices), edges)


def check_against_reference(cx, rng, automorphism_limit):
    graph, n, sinks = cx.graph, cx.n, cx.sinks
    # the same cells, strictly increasing: the reference's sorted order
    cells = cx.cells
    index = [{c: i for i, c in enumerate(level)} for level in cells]
    unordered = reference_cells(graph, n, sinks)
    assert len(cells) == len(unordered)
    for level, position, ref in zip(cells, index, unordered):
        assert all(a < b for a, b in zip(level, level[1:]))
        assert len(ref) == len(level) and all(c in position for c in ref)
    for q in range(1, len(cells)):
        assert cx.boundary(q).columns() == \
            reference_boundary(graph, cells, index[q - 1], q)
    for vmap, emap in automorphisms(graph, sinks, automorphism_limit):
        cm = permutation_action_map(cx, vmap, emap)
        for q, level in enumerate(cells):
            assert cm.images(q, range(len(level))) == [
                index[q][reference_image(c, cm.vertex_map, cm.edge_map,
                                         cm.reversed_edges)]
                for c in level]
    sub = random_support(rng, graph)
    injection = subcomplex_supported_in(cx, sub)
    expected = [[i for i, (vkey, ekey, _) in enumerate(level)
                 if all(v in sub.vertices for v, _ in vkey)
                 and all(e in sub.edges for e, _ in ekey)]
                for level in cells]
    while expected and not expected[-1]:
        expected.pop()
    assert injection == expected


class TestAgainstNestedTupleRule:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corpus_models(self, n):
        rng = random.Random(900 + n)
        for name, graph in corpus_graphs().items():
            check_against_reference(corpus_model(name, graph, n), rng, 1)

    def test_random_multigraphs_with_sinks(self):
        rng = random.Random(4242)
        parallel = 0
        for _ in range(24):
            g = random_connected_graph(rng, rng.randint(2, 4), rng.randint(1, 4))
            sinks = [v for v in g.vertices if rng.random() < 0.3]
            ends = [frozenset(e) for e in g.edges]
            parallel += len(set(ends)) < len(ends)
            check_against_reference(build_model(g, rng.randint(2, 3), sinks=sinks),
                                    rng, 3)
        assert parallel >= 5
