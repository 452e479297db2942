"""Command line interface: build models, compute homology, compare against
the discretized oracle, and run the stabilization experiments.

Exit codes: 0 all asserted checks pass, 1 a mathematical assertion failed,
2 invalid configuration or an unwritable output file, 3 a cell budget was
exceeded, 4 internal error (a bug in graphconf, such as a corrupted
character decomposition or any other unexpected exception; a one-line
``internal error:`` message goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import __version__
from .characters import stability_verdict, window_reports
from .complexes import (
    BudgetExceeded,
    DEFAULT_CELL_BUDGET,
    ModelError,
    build_abrams_oracle,
    build_model,
)
from .graphs import (
    WEDGE_FI,
    FamilyDescriptor,
    Graph,
    GraphError,
    SummandSpec,
    normalize_loops,
    smooth,
)
from .homology import betti_numbers, homology, oracle_betti_numbers
from .stability import (
    StabilityError,
    dimension_polynomial_check,
    generation_degree_check,
    verify_tree_generators,
)

class ConfigError(ValueError):
    pass


# -- arguments -----------------------------------------------------------------


def check_args(args):
    """The checks argparse cannot express; parses ``--sinks`` and
    ``--window`` in place."""
    if "sinks" in args:
        args.sinks = _parse_sinks(args.sinks)
    if "window" in args:
        args.window = _parse_window(args.window)
    for name in ("n", "q", "qmax", "degree", "d", "K"):
        value = vars(args).get(name)
        if value is not None and value < 0:
            raise ConfigError(f"--{name} must be nonnegative")
    if args.budget < 1:
        raise ConfigError("--budget must be positive")
    if vars(args).get("oracle") and args.sinks:
        raise ConfigError("the discretized cross-check model has no sinks")


def _parse_window(text):
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}; expected k0..k1") from exc
    if lo > hi:
        raise ConfigError("window start must not exceed its end")
    return tuple(range(lo, hi + 1))


def _parse_sinks(text):
    if not text:
        return ()
    try:
        sinks = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sink list {text!r}") from exc
    if len(set(sinks)) != len(sinks):
        raise ConfigError(f"repeated vertex in sink list {text!r}")
    return sinks


# -- graph / family files --------------------------------------------------------


def _read_json(path):
    """The JSON in an input file; a file that cannot be opened or is not
    UTF-8 text is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input file {path}: {exc}") from exc


def load_graph(path):
    try:
        data = _read_json(path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad graph file {path}: {exc}") from exc
    return graph_from_payload(data)


def graph_from_payload(data):
    try:
        return Graph.from_json(json.dumps(data))
    except (KeyError, TypeError, GraphError) as exc:
        raise ConfigError(f"bad graph payload: {exc}") from exc


def graph_to_payload(graph):
    return json.loads(graph.to_json())


def load_family(path):
    try:
        data = _read_json(path)
        kind = data["kind"]
        summands = []
        for item in data["summands"]:
            summands.append(SummandSpec(
                graph=graph_from_payload(item["graph"]),
                summand_vertices=tuple(item.get("summand_vertices", ())),
                base_vertices=tuple(item.get("base_vertices", ())),
                summand_edges=tuple(item.get("summand_edges", ())),
                base_edges=tuple(item.get("base_edges", ())),
            ))
        base = graph_from_payload(data["base"]) if data.get("base") else None
        return FamilyDescriptor(kind, base, tuple(summands))
    except (KeyError, TypeError, GraphError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad family payload: {exc}") from exc


def family_to_payload(descriptor):
    return {
        "kind": descriptor.kind,
        "base": graph_to_payload(descriptor.base) if descriptor.base else None,
        "summands": [
            {
                "graph": graph_to_payload(s.graph),
                "summand_vertices": list(s.summand_vertices),
                "base_vertices": list(s.base_vertices),
                "summand_edges": list(s.summand_edges),
                "base_edges": list(s.base_edges),
            }
            for s in descriptor.summands
        ],
    }


def canonical_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- commands ---------------------------------------------------------------------


def _load_graph(args):
    return normalize_loops(load_graph(args.graph))


def _build_complex(args, graph):
    if args.oracle:
        return build_abrams_oracle(graph, args.n, budget=args.budget)
    return build_model(graph, args.n, args.sinks, budget=args.budget)


def _cmd_model(args):
    cx = _build_complex(args, _load_graph(args))
    report = {
        "command": "model",
        "kind": cx.kind,
        "n": args.n,
        "sinks": sorted(args.sinks),
        "f_vector": cx.f_vector(),
        "euler_characteristic": cx.euler_characteristic(),
        "total_cells": cx.total_cells,
    }
    return report, True, []


def _cmd_homology(args):
    # homology is a topological invariant: smoothing keeps the space
    cx = _build_complex(args, smooth(_load_graph(args), args.sinks))
    pres = homology(cx, args.q, basis=False)
    report = {
        "command": "homology",
        "q": args.q,
        "betti": pres.betti,
        "torsion": list(pres.torsion),
        "cells": cx.f_vector(),
    }
    return report, True, []


def _cmd_oracle_compare(args):
    graph = smooth(_load_graph(args))
    qmax = args.qmax if args.qmax is not None else min(args.n, 2)
    # the model is freed before the oracle is built
    model_betti = betti_numbers(build_model(graph, args.n, budget=args.budget),
                                qmax)
    oracle_betti = oracle_betti_numbers(graph, args.n, qmax,
                                        budget=args.budget)
    match = model_betti == oracle_betti
    report = {
        "command": "oracle-compare",
        "n": args.n,
        "qmax": qmax,
        "model_betti": model_betti,
        "oracle_betti": oracle_betti,
        "match": match,
        "verdict": "MATCH" if match else "MISMATCH",
    }
    return report, match, []


def _cmd_generation_check(args):
    descriptor = load_family(args.family)
    rep = generation_degree_check(
        descriptor, args.n, args.q, args.d, args.K,
        budget=args.budget, search_d_min=not args.no_dmin_search)
    if rep.generates_over_Q and not rep.generates_over_Z:
        print("warning: candidates span over Q but not over Z; "
              "a torsion obstruction is in the way", file=sys.stderr)
    report = {"command": "generation-check", **rep.to_dict()}
    ok = rep.passes_asserted_bound if rep.asserted_bound is not None \
        else rep.generates_over_Z
    rows = [["degree", "generates_over_Q", "generates_over_Z", "missing_rank"]]
    for deg in sorted(rep.per_degree):
        v = rep.per_degree[deg]
        rows.append([deg, v.generates_over_Q, v.generates_over_Z,
                     v.missing_rank])
    return report, bool(ok), rows


def _cmd_tree_generators(args):
    graph = load_graph(args.graph)
    result, supports = verify_tree_generators(graph, args.n, args.q,
                                              budget=args.budget)
    report = {
        "command": "tree-generators",
        "n": args.n,
        "q": args.q,
        "generates_over_Q": result.generates_over_Q,
        "generates_over_Z": result.generates_over_Z,
        "missing_rank": result.missing_rank,
        "supports": len(supports),
        "whole_graph_supports": sum(s.is_whole_graph() for s in supports),
    }
    return report, result.generates_over_Z, []


def _cmd_rep_stability(args):
    descriptor = load_family(args.family)
    if descriptor.kind != WEDGE_FI:
        raise ConfigError("rep-stability needs a wedge family: only there "
                          "does S_k act by permuting the summand copies")
    if descriptor.arity != 1:
        raise ConfigError("rep-stability windows run over one-coordinate "
                          "families only")
    if len(args.window) < 2:
        raise ConfigError("rep-stability needs a window of at least two sizes")
    reports = window_reports(descriptor, args.n, args.q, args.window,
                             budget=args.budget)
    per_k = []
    for k, rep in zip(args.window, reports):
        per_k.append({
            "k": k,
            "betti": rep.betti,
            "route": rep.route,
            "multiplicities": [
                {"lambda": list(lam), "padded": _padded_label(lam, k),
                 "multiplicity": c}
                for lam, c in rep.multiplicities
            ],
            "characters": [
                {"cycle_type": list(mu), "class_size": size, "value": value}
                for mu, size, value in rep.class_data
            ],
        })
    verdict = stability_verdict(reports)
    report = {
        "command": "rep-stability",
        "n": args.n,
        "q": args.q,
        "window": list(args.window),
        "stable": verdict["stable"],
        "table": [
            {"lambda": list(lam), "multiplicities": list(row)}
            for lam, row in sorted(verdict["table"].items())
        ],
        "excluded": [list(lam) for lam in verdict["excluded"]],
        "per_k": per_k,
    }
    rows = [["k", "betti"] + [str(list(lam)) for lam in sorted(verdict["table"])]]
    for i, k in enumerate(args.window):
        rows.append([k, reports[i].betti] +
                    [verdict["table"][lam][i] for lam in sorted(verdict["table"])])
    return report, verdict["stable"], rows


def _padded_label(lam, k):
    from .characters import pad, pad_is_valid
    return list(pad(lam, k)) if pad_is_valid(lam, k) else None


def _cmd_poly_fit(args):
    descriptor = load_family(args.family)
    result = dimension_polynomial_check(
        descriptor, args.n, args.q, list(args.window),
        args.degree, budget=args.budget)
    report = {"command": "poly-fit", "n": args.n, "q": args.q, **result}
    rows = [["k", "betti", "predicted"]]
    for k, b, p in zip(result["window"], result["betti"], result["predicted"]):
        rows.append([k, b, p])
    return report, result["fits"], rows


COMMANDS = {
    "model": _cmd_model,
    "homology": _cmd_homology,
    "oracle-compare": _cmd_oracle_compare,
    "generation-check": _cmd_generation_check,
    "tree-generators": _cmd_tree_generators,
    "rep-stability": _cmd_rep_stability,
    "poly-fit": _cmd_poly_fit,
}


# -- entry point --------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphconf",
        description="Configuration spaces of graphs: exact cube-complex "
                    "homology and stabilization experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=False, family=False, q=True, table=False):
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON file")
        if family:
            p.add_argument("--family", required=True, help="family JSON file")
        p.add_argument("--n", type=int, required=True, help="particle count")
        if q:
            p.add_argument("--q", type=int, default=1, help="homology degree")
        p.add_argument("--budget", type=int, default=DEFAULT_CELL_BUDGET,
                       help="cell budget per complex")
        p.add_argument("--out", default=None, help="write the JSON report here")
        if table:
            p.add_argument("--csv", dest="csv_out", default=None,
                           help="write the CSV table here")

    p = sub.add_parser("model", help="build a configuration model")
    common(p, graph=True, q=False)
    p.add_argument("--sinks", default="", help="comma-separated sink vertices")
    p.add_argument("--oracle", action="store_true",
                   help="build the discretized cross-check model instead")

    p = sub.add_parser("homology", help="Betti numbers and torsion")
    common(p, graph=True)
    p.add_argument("--sinks", default="")
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("oracle-compare",
                       help="compare both models' Betti numbers")
    common(p, graph=True, q=False)
    p.add_argument("--qmax", type=int, default=None)

    p = sub.add_parser("generation-check",
                       help="finite-generation span check for a family")
    common(p, family=True, table=True)
    p.add_argument("--d", type=int, required=True, help="candidate degree")
    p.add_argument("--K", type=int, required=True, help="window size")
    p.add_argument("--no-dmin-search", action="store_true")

    p = sub.add_parser("tree-generators",
                       help="verify the tree generating theorem")
    common(p, graph=True)

    p = sub.add_parser("rep-stability",
                       help="character multiplicities over a window")
    common(p, family=True, table=True)
    p.add_argument("--window", required=True, help="k0..k1")

    p = sub.add_parser("poly-fit", help="exact polynomial fit of Betti growth")
    common(p, family=True, table=True)
    p.add_argument("--window", required=True, help="k0..k1")
    p.add_argument("--degree", type=int, default=3)
    return parser


def run(args):
    """Dispatch checked arguments; returns (report, ok, csv_rows)."""
    started = time.perf_counter()
    report, ok, rows = COMMANDS[args.command](args)
    report["ok"] = bool(ok)
    report["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    report["code_version"] = __version__
    return report, ok, rows


def _emit(args, report, rows):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    csv_out = vars(args).get("csv_out")
    if csv_out and rows:
        with open(csv_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(rows)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        check_args(args)
        report, ok, rows = run(args)
    except BudgetExceeded as exc:
        print(json.dumps({"error": "budget-exceeded", "detail": str(exc),
                          "command": args.command}, indent=2))
        return 3
    except (ConfigError, GraphError, ModelError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug in graphconf, such as CorruptedCharacterError: never exit 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    try:
        _emit(args, report, rows)
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
