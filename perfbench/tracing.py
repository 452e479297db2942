"""Layer spans recorded from outside the program.

``Tracer.install`` wraps the public calls into each ``graphconf`` module.
Modules import names directly (``from .linalg import rank_of_columns``), so a
function is replaced at every module binding that refers to it; patching only
the defining module would record nothing for calls made through the others.
Methods are replaced on their class.

A span is ``[name, start, end, parent]``, with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until the pass ends.  A layer's
self time is its spans' durations minus the time covered by their child
spans.  Counts are taken by hooks that run after the wrapped call returns;
their time is recorded as ``trace.hooks`` spans so it is not charged to the
layer that called them.

Per-cell helpers such as ``_oracle_faces`` are not wrapped: hundreds of
thousands of calls would swamp the measurement.  Their time shows up as the
self time of the layer that calls them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from statistics import median


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _calls(key):
    def hook(counts, args, kwargs, result):
        counts[key] += 1
    return hook


def _oracle_cells(counts, args, kwargs, cells_by_dim):
    counts["complexes.oracle_cells"] += sum(len(cs) for cs in cells_by_dim)


def _model_cells(counts, args, kwargs, complex_):
    counts["complexes.cells"] += complex_.total_cells


def _supports(counts, args, kwargs, subgraphs):
    counts["graphs.supports"] += len(subgraphs)


def _boundary(counts, args, kwargs, matrix):
    counts["complexes.boundary_nnz"] += matrix.nnz


def _assembles_boundary(args, kwargs):
    """Only a boundary that is built rather than served from the cache."""
    complex_, q = args[0], _arg(args, kwargs, 1, "q")
    return 0 < q <= complex_.top_dimension and q not in getattr(complex_, "_boundaries", ())


def _rank(counts, args, kwargs, result):
    counts["linalg.rank_calls"] += 1
    counts["linalg.rank_nnz_in"] += sum(len(c) for c in _arg(args, kwargs, 0, "columns"))


def _kernel(counts, args, kwargs, result):
    counts["linalg.kernel_calls"] += 1
    counts["linalg.kernel_nnz_in"] += _arg(args, kwargs, 0, "matrix").nnz
    counts["linalg.kernel_basis_nnz"] += sum(len(v) for v in result[1])


def _smith(counts, args, kwargs, result):
    counts["linalg.smith_calls"] += 1
    counts["linalg.smith_nnz_in"] += _arg(args, kwargs, 0, "matrix").nnz
    counts["linalg.smith_divisors_gt1"] += sum(1 for *_, d in result[0] if d > 1)


def _span_check(counts, args, kwargs, result):
    counts["homology.span_candidates"] += len(_arg(args, kwargs, 2, "candidate_cycles"))
    pres = _arg(args, kwargs, 3, "presentation")
    if pres is not None:
        counts["homology.span_cycle_rank"] += pres.cycle_rank


def _chainmap(counts, args, kwargs, result):
    counts["homology.chainmap_cells"] += sum(len(i) for i in getattr(args[0], "_images", ()))


def _trace(counts, args, kwargs, result):
    counts["homology.trace_projections"] += len(
        _arg(args, kwargs, 1, "presentation").cycle_basis)


def _pushed(counts, args, kwargs, vectors):
    counts["stability.pushed_vectors"] += len(vectors)


# (module, owner attribute or None, name, span, count hook, predicate)
TARGETS = (
    ("cli", None, "main", "cli.main", None, None),
    ("graphs", None, "realize_family", "graphs.realize", None, None),
    ("graphs", None, "support_subgraphs", "graphs.support", _supports, None),
    ("complexes", None, "build_model", "complexes.enumerate", _model_cells, None),
    ("complexes", None, "build_abrams_oracle", "complexes.enumerate", None, None),
    ("complexes", None, "_oracle_cells_by_dim", "complexes.enumerate", _oracle_cells, None),
    ("complexes", "CubeComplex", "boundary", "complexes.boundary", _boundary,
     _assembles_boundary),
    ("complexes", None, "subcomplex_supported_in", "complexes.subcomplex",
     _calls("complexes.subcomplex_calls"), None),
    ("linalg", None, "rank_of_columns", "linalg.rank", _rank, None),
    ("linalg", None, "_incidence_rank", "linalg.rank",
     _calls("linalg.rank_incidence_calls"), None),
    ("linalg", None, "kernel_with_coords", "linalg.kernel", _kernel, None),
    ("linalg", None, "smith_diagonalize", "linalg.smith", _smith, None),
    ("homology", None, "homology", "homology.presentation", None, None),
    ("homology", None, "betti_numbers", "homology.betti", None, None),
    ("homology", None, "oracle_betti_numbers", "homology.oracle", None, None),
    ("homology", None, "generated_check", "homology.span", _span_check, None),
    ("homology", "ChainMap", "__init__", "homology.chainmap", _chainmap, None),
    ("homology", "ChainMap", "homology_trace", "homology.trace", _trace, None),
    ("stability", None, "pushed_cycle_space", "stability.push", _pushed, None),
    ("stability", None, "generation_degree_check", "stability.check", None, None),
    ("stability", None, "verify_tree_generators", "stability.check", None, None),
    ("characters", None, "character_report", "characters.report", None, None),
    ("characters", None, "stability_verdict", "characters.report", None, None),
)

# span name -> per-layer self-time metric
SELF_TIME = {
    "cli.main": "cli.self_s",
    "graphs.realize": "graphs.realize_s",
    "graphs.support": "graphs.support_s",
    "complexes.enumerate": "complexes.enumerate_s",
    "complexes.boundary": "complexes.boundary_s",
    "complexes.subcomplex": "complexes.subcomplex_s",
    "linalg.rank": "linalg.rank_s",
    "linalg.kernel": "linalg.kernel_s",
    "linalg.smith": "linalg.smith_s",
    "homology.presentation": "homology.presentation_self_s",
    "homology.betti": "homology.betti_self_s",
    "homology.oracle": "homology.oracle_self_s",
    "homology.span": "homology.span_self_s",
    "homology.chainmap": "homology.chainmap_s",
    "homology.trace": "homology.trace_s",
    "stability.push": "stability.push_self_s",
    "stability.check": "stability.check_self_s",
    "characters.report": "characters.self_s",
    "trace.hooks": "trace.hooks_s",
}

COUNTS = (
    "graphs.supports", "complexes.cells", "complexes.oracle_cells",
    "complexes.boundary_nnz", "complexes.subcomplex_calls",
    "linalg.rank_calls", "linalg.rank_nnz_in", "linalg.kernel_calls",
    "linalg.kernel_nnz_in", "linalg.kernel_basis_nnz", "linalg.smith_calls",
    "linalg.smith_nnz_in", "linalg.smith_divisors_gt1",
    "homology.span_candidates", "homology.chainmap_cells",
    "homology.trace_projections", "stability.pushed_vectors",
)

# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "linalg.rank_incidence_frac": ("linalg.rank_incidence_calls", "linalg.rank_calls"),
    "homology.span_useful_ratio": ("homology.span_cycle_rank", "homology.span_candidates"),
}

# Metrics of the trace itself, besides trace.hooks_s: the traced pass's wall
# time, the part of it outside every span, the spans recorded, and traced
# functions that no longer exist in the program.
TRACE_METRICS = ("trace.wall_s", "trace.untraced_s", "trace.spans", "trace.missing_targets")


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric in RATIOS or metric.endswith("_frac"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, hook=None, when=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                start = clock()
                hook(counts, args, kwargs, result)
                spans.append(["trace.hooks", start, clock(), parent])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at every binding in the loaded graphconf modules."""
        import graphconf.cli  # noqa: F401  (loads every graphconf module)

        modules = [m for key, m in sys.modules.items()
                   if key == "graphconf" or key.startswith("graphconf.")]
        for module, owner, attr, span, hook, when in TARGETS:
            home = sys.modules[f"graphconf.{module}"]
            holder = getattr(home, owner, None) if owner else home
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                self.missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
                continue
            wrapped = self.wrap(span, original, hook, when)
            if owner:
                setattr(holder, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        for name in self.missing:
            print(f"trace: {name} not found; its layer records nothing",
                  file=sys.stderr)
        return self

    def metrics(self, wall_s):
        """Per-layer metrics of one traced pass that took ``wall_s``."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(SELF_TIME.values(), 0.0)
        roots = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[SELF_TIME[name]] += (end - start) - covered[i]
            if parent < 0:
                roots += end - start
        for key in COUNTS:
            out[key] = self.counts[key]
        for key, (num, den) in RATIOS.items():
            out[key] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.untraced_s"] = wall_s - roots
        out["trace.spans"] = len(self.spans)
        out["trace.missing_targets"] = len(self.missing)
        return out


PER_LAYER = tuple(SELF_TIME.values()) + COUNTS + tuple(RATIOS) + TRACE_METRICS \
    + ("trace.overhead_frac",)


def combine(passes, untraced_walls):
    """Median of each per-layer metric over traced passes, plus the tracing
    overhead against the untraced passes of the same run."""
    out = {key: median(p[key] for p in passes) for key in passes[0]}
    out["trace.overhead_frac"] = out["trace.wall_s"] / median(untraced_walls) - 1
    return out
