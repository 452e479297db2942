"""Stabilization experiments: the tree generating theorem as an exact span
check, finite-generation degree checks for the three family kinds, and
eventual-polynomiality fits."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations

from .complexes import (DEFAULT_CELL_BUDGET, build_model,
                        subcomplex_supported_in)
from .graphs import Subgraph, realize_family, smooth, support_orbits
from .homology import (
    betti_numbers,
    generated_check,
    homology,
    permutation_action_map,
)


class StabilityError(ValueError):
    pass


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
        path_edges = tree.tree_path(v, w)
        path = {u for e in path_edges for u in tree.edges[e]}
        if ess & path - {v, w}:
            continue
        legs_v = [e for e, _ in tree.incident(v) if e not in path_edges]
        legs_w = [e for e, _ in tree.incident(w) if e not in path_edges]
        for la in combinations(legs_v, 2):
            for lb in combinations(legs_w, 2):
                edges = set(path_edges) | set(la) | set(lb)
                verts = {u for e in edges for u in tree.edges[e]}
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


def pushed_cycle_space(model, sub, q, ranks=None):
    """Cycles on the support ``sub`` whose classes generate its H_q, in the
    ambient model's chain group.  When ``ranks`` is a list, the rank of the
    support's cycle lattice Z_q is appended to it.  The generators with
    the support's d_(q+1) columns span Z_q of the support, and any chain
    map carries those columns into im d_(q+1), so a span check on the
    generators gives the same verdict as one on all of Z_q."""
    pres = homology(model, q, support=subcomplex_supported_in(model, sub))
    if ranks is not None:
        ranks.append(pres.cycle_rank)
    return pres.generators


def _orbit_span_check(model, q, orbits, pres):
    """The span check of the generators of every support in ``orbits``,
    pairs of a representative support and the automorphisms carrying it to
    the others.  Returns the ``GeneratedCheck``, the candidate count (the
    sum over the supports of their cycle ranks) and the generator count
    (the number of generators over all supports).  Every representative is
    presented first, since both counts need them all; automorphic supports
    have equal ranks and equally many generators.  Supports are then pushed
    through their chain maps one at a time, and the generators so far are
    checked when their count first reaches b_q + t and each time it
    doubles; each check projects only the generators new since the last
    one.  A superset of a generating set generates, so the first prefix
    that generates over Z settles the verdict; a prefix that does not
    proves nothing, so a failing check ends on all the generators."""
    presented, ranks = [], []
    for rep, maps in orbits:
        presented.append((pushed_cycle_space(model, rep, q, ranks), maps))
    candidate_count = sum(rank * (1 + len(maps))
                          for rank, (_, maps) in zip(ranks, presented))
    generator_count = sum(len(gens) * (1 + len(maps))
                          for gens, maps in presented)

    def pushes():
        for gens, maps in presented:
            if gens:        # H_q(rep) = 0, as when q exceeds its top dimension
                yield gens
                for vmap, emap in maps:
                    yield permutation_action_map(model, vmap, emap).push(q, gens)

    columns, fresh, verdict = [], [], None
    target = pres.betti + len(pres.torsion)
    for gens in pushes():
        fresh.extend(gens)
        if len(columns) + len(fresh) >= target:
            verdict = generated_check(model, q, fresh, pres, columns)
            if verdict.generates_over_Z:
                return verdict, candidate_count, generator_count
            fresh, target = [], 2 * len(columns)
    if fresh or verdict is None:
        verdict = generated_check(model, q, fresh, pres, columns)
    return verdict, candidate_count, generator_count


def verify_tree_generators(tree, n, q, budget=DEFAULT_CELL_BUDGET):
    """Check that products of basic (star and h) classes generate H_q over
    the integers: the homology generators of the supports made of embedded
    pieces, in the ambient model, must span.  Returns the ``GeneratedCheck``
    and the supports."""
    if not tree.is_tree():
        raise StabilityError("the generating theorem applies to trees")
    model = build_model(tree, n, budget=budget)
    pres = homology(model, q, basis=False)
    supports = _generator_supports(tree, q)
    check, _, _ = _orbit_span_check(model, q, [(s, ()) for s in supports],
                                    pres)
    return check, supports


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
    generator_count: int
    per_degree: dict
    elapsed_seconds: float

    def to_dict(self):
        return {**asdict(self),
                "per_degree": {str(k): asdict(v)
                               for k, v in self.per_degree.items()},
                "elapsed_seconds": round(self.elapsed_seconds, 3)}


def generation_degree_check(descriptor, n, q, d, sizes,
                            budget=DEFAULT_CELL_BUDGET, search_d_min=True):
    """Span check: do classes supported in degree-d images generate H_q of
    the size-``sizes`` member?  The degree ``d`` is one integer, applied to
    every coordinate of the family.  The minimal witnessed degree walks down
    from ``d`` while the next degree generates.  The verdict at the
    family's asserted bound (clamped to the window) is read off a degree
    already checked when it can be: supports nest, so a pass at or below
    the bound persists up to it, and a failure at or above it persists
    down to it; otherwise one more check runs at the bound.  The candidate
    and generator counts are those of degree ``d``."""
    t0 = time.perf_counter()
    if isinstance(sizes, int):
        sizes = (sizes,) * descriptor.arity
    sizes = tuple(sizes)
    if not 0 <= d <= min(sizes):
        raise StabilityError("degree must lie between 0 and every size")

    instance = realize_family(descriptor, sizes)
    model = build_model(instance.graph, n, budget=budget)
    pres = homology(model, q, basis=False)

    def span_check(deg):
        return _orbit_span_check(
            model, q, support_orbits(instance, (deg,) * descriptor.arity), pres)

    head, candidate_count, generator_count = span_check(d)
    per_degree = {d: head}
    d_min = d if head.generates_over_Z else None
    while search_d_min and d_min:       # None when d fails; stops at 0
        below = per_degree[d_min - 1] = span_check(d_min - 1)[0]
        if not below.generates_over_Z:
            break
        d_min -= 1

    bound = descriptor.generation_bound(n)
    clamped = None
    passes = None
    if bound is not None:
        clamped = min(bound, min(sizes))
        if any(v.generates_over_Z and dd <= clamped
               for dd, v in per_degree.items()):
            passes = True
        elif any(not v.generates_over_Z and dd >= clamped
                 for dd, v in per_degree.items()):
            passes = False
        else:
            per_degree[clamped] = span_check(clamped)[0]
            passes = per_degree[clamped].generates_over_Z

    return GenerationReport(
        family_kind=descriptor.kind,
        n=n, q=q, sizes=sizes, degree=(d,) * descriptor.arity,
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
        generator_count=generator_count,
        per_degree=per_degree,
        elapsed_seconds=time.perf_counter() - t0,
    )


# -- polynomial growth ---------------------------------------------------------


def _forward_difference_coefficients(x0, values):
    """Exact monomial coefficients of the polynomial through the points
    (x0 + i, values[i]): Newton's form, the sum over j of the j-th forward
    difference at x0 times binom(x - x0, j), expanded."""
    coeffs = [Fraction(0)] * len(values)
    binom = [Fraction(1)]              # binom(x - x0, j) by powers of x
    diffs = list(values)
    for j in range(len(values)):
        for i, b in enumerate(binom):
            coeffs[i] += diffs[0] * b
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        # binom(x - x0, j + 1) = binom(x - x0, j) * (x - x0 - j) / (j + 1)
        binom = [(lo - (x0 + j) * hi) / (j + 1)
                 for lo, hi in zip([0] + binom, binom + [0])]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def dimension_polynomial_check(descriptor, n, q, window, degree_bound,
                               betti_values=None, budget=DEFAULT_CELL_BUDGET):
    """Fit an exact polynomial of degree <= degree_bound to the first
    degree_bound + 1 points of the Betti sequence and verify it predicts
    every later point of the window, of which there must be at least one.
    Each member is smoothed before its model is built: b_q depends only on
    the space, and a smoothed member has fewer cells."""
    window = list(window)
    if len(window) < degree_bound + 2:
        raise StabilityError(
            "window must cover the interpolation points and one more size")
    if window != list(range(window[0], window[0] + len(window))):
        raise StabilityError("window must be consecutive sizes")
    if betti_values is None:
        betti_values = []
        for k in window:
            instance = realize_family(descriptor, (k,) * descriptor.arity)
            model = build_model(smooth(instance.graph), n, budget=budget)
            betti_values.append(betti_numbers(model, q)[q])
    coeffs = _forward_difference_coefficients(
        window[0], betti_values[: degree_bound + 1])
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
