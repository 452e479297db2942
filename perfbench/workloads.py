"""The benchmark's fixed job lists, their pinned answers, and why each
workload was chosen.

A job is one ``graphconf`` command line run in-process through
``graphconf.cli.main``.  ``{name}`` in an argument stands for the path of the
seeded input ``name`` (see ``inputs.py``).  Every answer below was computed
on the unoptimized code and is a graph invariant, so it holds for any seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    argv: tuple
    pinned: dict


@dataclass(frozen=True)
class Workload:
    why: str
    exercises: str
    bypasses: str
    inputs: tuple
    jobs: tuple


def observed(report, key):
    """Value of a pinned field in a CLI report."""
    if key == "per_k_betti":
        return [row["betti"] for row in report["per_k"]]
    return report[key]


def _oracle(graph, betti):
    return Job(("oracle-compare", "--graph", "{%s}" % graph, "--n", "3", "--qmax", "2"),
               {"model_betti": betti, "oracle_betti": betti, "match": True})


TREE_PASS = {"generates_over_Q": True, "generates_over_Z": True, "missing_rank": 0}
TREES = ("star3", "star4", "star5", "h_graph", "spider")

STAR_REP_TABLE = [
    {"lambda": [1], "multiplicities": [6, 6, 6]},
    {"lambda": [1, 1], "multiplicities": [9, 9, 9]},
    {"lambda": [1, 1, 1], "multiplicities": [2, 2, 2]},
    {"lambda": [2], "multiplicities": [9, 9, 9]},
    {"lambda": [2, 1], "multiplicities": [4, 4, 4]},
]

WORKLOADS = {
    "oracle_xcheck": Workload(
        why="model-vs-oracle Betti cross-check at n=3 (992,688 oracle cells): "
            "the dominant Tier-1 cost; stresses exact rank, oracle face "
            "assembly and memory",
        exercises="linalg rank on +-1 incidence matrices (union-find and "
                  "elimination), oracle enumeration and face assembly, model "
                  "boundaries, peak memory",
        bypasses="kernel, Smith form, chain maps, supports, span checks",
        inputs=("circle_family_3", "interval_family_2"),
        jobs=(_oracle("circle_family_3", [1, 82, 99]),
              _oracle("interval_family_2", [1, 97, 36])),
    ),
    "span_check": Workload(
        why="finite-generation span check on the star family (n=3, q=1, "
            "d=5, K=8; 94,136 candidates from 56 supports): kernel, Smith and "
            "subcomplex layers",
        exercises="complexes.subcomplex_supported_in (56 supports), linalg "
                  "kernel and Smith without U, homology.generated_check, "
                  "stability candidate pushing",
        bypasses="rank, chain maps, characters",
        inputs=("star_family",),
        jobs=(Job(("generation-check", "--family", "{star_family}", "--n", "3",
                   "--q", "1", "--d", "5", "--K", "8", "--no-dmin-search"),
                  {"betti": 793, "candidate_count": 94136, "missing_rank": 0,
                   "generates_over_Q": True, "generates_over_Z": True,
                   "passes_asserted_bound": True}),),
    ),
    "rep_stability": Workload(
        why="representation-stability window 5..7 on the star family (n=3, "
            "q=1): homology bases, 33 chain maps and trace projections",
        exercises="homology with basis (Smith with U tracking), ChainMap "
                  "construction, trace projection, character decomposition",
        bypasses="rank, supports, span checks",
        inputs=("star_family",),
        jobs=(Job(("rep-stability", "--family", "{star_family}", "--n", "3",
                   "--q", "1", "--window", "5..7"),
                  {"stable": True, "per_k_betti": [151, 295, 505],
                   "table": STAR_REP_TABLE}),),
    ),
    "tree_batch": Workload(
        why="45 small tree-generators commands (5 trees, n in 1..3, q in 0..2): "
            "per-call overhead and small-matrix speed on the span-check layers",
        exercises="the span_check layers on many small complexes (median job "
                  "6 ms, largest 2.5 s) and every degree q <= 2, plus CLI "
                  "argument parsing and report I/O per job",
        bypasses="rank, chain maps, characters",
        inputs=TREES,
        jobs=tuple(
            Job(("tree-generators", "--graph", "{%s}" % tree, "--n", str(n),
                 "--q", str(q)), TREE_PASS)
            for tree in TREES for n in (1, 2, 3) for q in (0, 1, 2)),
    ),
    # Not listed in BENCHMARK.json: a seconds-long pass over every layer,
    # used by selfcheck.py.
    "smoke": Workload(
        why="every layer on star3 and the star family at n=2",
        exercises="all layers",
        bypasses="nothing",
        inputs=("star3", "star_family"),
        jobs=(
            Job(("oracle-compare", "--graph", "{star3}", "--n", "2", "--qmax", "1"),
                {"model_betti": [1, 1], "oracle_betti": [1, 1], "match": True}),
            Job(("generation-check", "--family", "{star_family}", "--n", "2",
                 "--q", "1", "--d", "2", "--K", "3", "--no-dmin-search"),
                {"betti": 1, "candidate_count": 30, "missing_rank": 1,
                 "generates_over_Z": False, "passes_asserted_bound": True}),
            Job(("rep-stability", "--family", "{star_family}", "--n", "2",
                 "--q", "1", "--window", "3..4"),
                {"stable": True, "per_k_betti": [1, 5],
                 "table": [{"lambda": [1, 1], "multiplicities": [1, 1]}]}),
            Job(("tree-generators", "--graph", "{star3}", "--n", "2", "--q", "1"),
                TREE_PASS),
        ),
    ),
}

# Cases left out so that repeated runs of every workload stay practical; a
# later change may add them as workloads of their own:
# - the full criterion-03 oracle-agreement corpus (51 pairs): about 147 s a pass;
# - the interval_family_4 oracle at n=3: 51-65 s a pass, near 1.6 GB peak RSS;
# - generation-check on interval_family(triangle) at n=3, K=4, d=3: had not
#   finished after 10 minutes on the unoptimized code.
