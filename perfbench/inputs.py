"""Seeded benchmark inputs.

Every graph and family the benchmark feeds to ``graphconf`` is built from
the library's canonical constructions and then relabeled by the seed: vertex
ids are permuted, edges reordered and their orientations flipped, and
basepoints, copy labels and glueing marks are remapped to match.  Every
pinned answer is a graph invariant, so it does not depend on the seed, while
cell order, pivot order and fill-in do.

Inputs are written with the CLI's own payload and canonical-JSON functions;
``validate_inputs`` checks them against the repository's
``schemas/graph.schema.json`` and ``schemas/family.schema.json``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import graphconf as gc
from graphconf.cli import canonical_json, family_to_payload, graph_to_payload


def relabel_graph(graph, rng):
    """Isomorphic copy of ``graph`` plus its vertex map and edge-index map."""
    ids = sorted(graph.vertices)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    vmap = dict(zip(ids, shuffled))
    order = list(range(graph.n_edges))
    rng.shuffle(order)
    emap = {old: new for new, old in enumerate(order)}
    edges = []
    for old in order:
        a, b = graph.edges[old]
        edges.append((vmap[b], vmap[a]) if rng.random() < 0.5 else (vmap[a], vmap[b]))
    relabeled = gc.Graph(
        vertices=tuple(sorted(vmap.values())),
        edges=tuple(edges),
        basepoint=None if graph.basepoint is None else vmap[graph.basepoint],
        vertex_labels=tuple(sorted((vmap[v], lab) for v, lab in graph.vertex_labels)),
        edge_labels=tuple(sorted((emap[e], lab) for e, lab in graph.edge_labels)),
    )
    return relabeled, vmap, emap


def relabel_family(descriptor, rng):
    """Relabel the base and every summand, remapping the glueing marks."""
    base, bv, be = (None, {}, {}) if descriptor.base is None \
        else relabel_graph(descriptor.base, rng)
    summands = []
    for spec in descriptor.summands:
        graph, sv, se = relabel_graph(spec.graph, rng)
        summands.append(gc.SummandSpec(
            graph=graph,
            summand_vertices=tuple(sv[v] for v in spec.summand_vertices),
            base_vertices=tuple(bv[v] for v in spec.base_vertices),
            summand_edges=tuple(se[e] for e in spec.summand_edges),
            base_edges=tuple(be[e] for e in spec.base_edges),
        ))
    return gc.FamilyDescriptor(descriptor.kind, base, tuple(summands))


def _star_family(rng):
    """Wedging intervals onto a point: member k is the star with k leaves."""
    point = gc.Graph(vertices=(0,), edges=(), basepoint=0)
    return relabel_family(
        gc.wedge_family(point, [gc.SummandSpec(gc.make_path_graph(1), (0,), (0,))]),
        rng)


def _triangle_member(family, k):
    """Member k of an interval or circle family with a (relabeled) triangle
    summand, as in the test corpus."""
    def build(rng):
        triangle, _, _ = relabel_graph(gc.make_cycle_graph(3), rng)
        return relabel_graph(gc.realize_family(family(triangle), (k,)).graph, rng)[0]
    return build


def _graph(make):
    return lambda rng: relabel_graph(make(), rng)[0]


# name -> (kind, function making it from a random.Random)
INPUTS = {
    "circle_family_3": ("graph", _triangle_member(gc.circle_family, 3)),
    "interval_family_2": ("graph", _triangle_member(gc.interval_family, 2)),
    "star3": ("graph", _graph(lambda: gc.make_star(3))),
    "star4": ("graph", _graph(lambda: gc.make_star(4))),
    "star5": ("graph", _graph(lambda: gc.make_star(5))),
    "h_graph": ("graph", _graph(gc.make_h_graph)),
    "spider": ("graph", _graph(lambda: gc.make_spider(2, 3, 1))),
    "star_family": ("family", _star_family),
}


def _validators(schema_dir):
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource

    schemas = {name: json.loads((schema_dir / f"{name}.schema.json").read_text())
               for name in ("graph", "family")}
    registry = Registry().with_resources(
        (f"{name}.schema.json", Resource.from_contents(schema))
        for name, schema in schemas.items())
    return {name: Draft7Validator(schema, registry=registry)
            for name, schema in schemas.items()}


def write_inputs(names, seed, out_dir):
    """Build, relabel and write the named inputs; returns {name: path}.
    Each input draws from its own stream, so its relabeling depends only on
    the seed and its name."""
    paths = {}
    for name in names:
        kind, build = INPUTS[name]
        obj = build(random.Random(f"{seed}:{name}"))
        payload = graph_to_payload(obj) if kind == "graph" else family_to_payload(obj)
        path = Path(out_dir) / f"{name}.json"
        path.write_text(canonical_json(payload))
        paths[name] = str(path)
    return paths


def validate_inputs(paths, schema_dir):
    """Raise ``jsonschema.ValidationError`` unless every written input
    matches its schema."""
    validators = _validators(schema_dir)
    for name, path in paths.items():
        validators[INPUTS[name][0]].validate(json.loads(Path(path).read_text()))
