"""The benchmark's tracer wraps graphconf functions by name, and its count
hooks read their parameters by position or name and attributes of their
arguments and results; a renamed or deleted target, parameter or attribute
would silently leave its layer or count empty."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from graphconf import (
    Subgraph,
    build_model,
    homology,
    kernel_with_coords,
    make_star,
    subcomplex_supported_in,
)
from graphconf.stability import pushed_cycle_space

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    missing = []
    for module, owner, attr, *_ in load_tracing().TARGETS:
        holder = importlib.import_module(f"graphconf.{module}")
        if owner:
            holder = getattr(holder, owner, None)
        if not callable(getattr(holder, attr, None)):
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert not missing


# (module, owner or None, name, position, parameter): what the tracer's
# count hooks read, by position or by keyword
HOOK_PARAMETERS = (
    ("linalg", None, "rank_of_columns", 0, "columns"),
    ("linalg", None, "kernel_with_coords", 0, "matrix"),
    ("linalg", None, "smith_diagonalize", 0, "matrix"),
    ("homology", None, "generated_check", 2, "candidate_cycles"),
    ("homology", None, "generated_check", 3, "presentation"),
    ("homology", "ChainMap", "homology_trace", 1, "presentation"),
    ("complexes", "CubeComplex", "boundary", 1, "q"),
)


@pytest.mark.parametrize("module,owner,attr,position,name", HOOK_PARAMETERS)
def test_hooked_parameters_keep_position_and_name(module, owner, attr,
                                                  position, name):
    holder = importlib.import_module(f"graphconf.{module}")
    if owner:
        holder = getattr(holder, owner)
    params = list(inspect.signature(getattr(holder, attr)).parameters)
    assert params[position:position + 1] == [name]


def test_support_kernel_reads_only_the_supported_columns(monkeypatch):
    """``linalg.kernel_nnz_in`` counts the matrix handed to
    ``kernel_with_coords``; for a support that is its columns alone."""
    homology = importlib.import_module("graphconf.homology")
    seen = []
    kernel = homology.kernel_with_coords
    monkeypatch.setattr(homology, "kernel_with_coords",
                        lambda matrix: seen.append(matrix) or kernel(matrix))
    graph = make_star(3)
    model = build_model(graph, 2)
    sub = Subgraph(graph, frozenset(graph.vertices), frozenset({0, 1}))
    inj = subcomplex_supported_in(model, sub)
    pushed_cycle_space(model, sub, 1)
    [matrix] = seen
    assert matrix.cols == len(inj[1]) < len(model.codes[1])
    assert matrix.nnz == model.boundary(1, cells=inj[1]).nnz


def test_hooked_attributes_exist():
    """The count hooks read these attributes off results and arguments:
    ``cycle_rank`` (span) and ``cycle_basis`` (trace) of a presentation,
    ``nnz`` of a boundary, ``total_cells`` and ``top_dimension`` of a
    model, and ``len`` of the list of chains ``pushed_cycle_space`` returns
    (pushed vectors), which appends one cycle rank to a ``ranks`` list."""
    model = build_model(make_star(3), 2)
    assert model.total_cells == sum(model.f_vector())
    assert model.top_dimension == len(model.f_vector()) - 1
    pres = homology(model, 1)
    d1 = model.boundary(1)
    assert d1.nnz == sum(len(col) for col in d1.columns()) > 0
    assert pres.cycle_rank == len(kernel_with_coords(d1)[1]) > 0
    assert len(pres.cycle_basis) == pres.betti > 0
    graph = model.graph
    sub = Subgraph(graph, frozenset(graph.vertices),
                   frozenset(range(graph.n_edges)))
    ranks = []
    pushed = pushed_cycle_space(model, sub, 1, ranks)
    assert isinstance(pushed, list) and pushed
    assert all(isinstance(vec, dict) for vec in pushed)
    assert len(ranks) == 1 and ranks[0] >= len(pushed)
