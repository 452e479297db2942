import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


from graphconf import (
    Graph,
    Subgraph,
    SummandSpec,
    circle_family,
    interval_family,
    make_cycle_graph,
    make_h_graph,
    make_path_graph,
    make_star,
    wedge,
    wedge_family,
)
from graphconf.complexes import MODEL_KIND, CubeComplex
from graphconf.linalg import SparseIntMatrix


class PlantedComplex(CubeComplex):
    """A complex on the cells ``cells_by_dim`` whose boundaries d_1, d_2,
    ... are the given matrices (dense lists or ``SparseIntMatrix``).
    ``boundary`` reads their columns at the asked cells without the
    dropped rows, into a fresh matrix, as the cube models assemble theirs."""

    def __init__(self, cells_by_dim, boundaries):
        super().__init__(make_path_graph(1), 1, (), MODEL_KIND, cells_by_dim)
        self.planted = [None] + [
            d if isinstance(d, SparseIntMatrix) else SparseIntMatrix.from_dense(d)
            for d in boundaries]

    def boundary(self, q, dropped=(), cells=None):
        if not 1 <= q < len(self.planted):
            return super().boundary(q, dropped, cells)
        d = self.planted[q]
        cols = d.columns() if cells is None else [d.columns()[j] for j in cells]
        return SparseIntMatrix.view(d.rows, [
            {r: v for r, v in col.items() if r not in dropped} for col in cols])


def kept_boundaries(complex_):
    """Boundary matrices that the complex's attributes hold, directly or in
    a dict or list."""
    found = []
    for value in vars(complex_).values():
        inner = value.values() if isinstance(value, dict) else \
            value if isinstance(value, list) else [value]
        found += [m for m in inner if isinstance(m, SparseIntMatrix)]
    return found


def supported_reference(complex_, injection):
    """The support with cell injection ``injection`` as a complex of its
    own: its d_q is the ambient d_q at ``injection[q]``, with rows
    renumbered through ``injection[q - 1]`` (a KeyError if a face is not
    supported)."""
    boundaries = []
    for q in range(1, len(injection)):
        row = {i: r for r, i in enumerate(injection[q - 1])}
        boundaries.append(SparseIntMatrix.view(len(row), [
            {row[i]: v for i, v in col.items()}
            for col in complex_.boundary(q, cells=injection[q]).columns()]))
    return PlantedComplex(
        [[complex_.codes[q][i] for i in cells] for q, cells in enumerate(injection)],
        boundaries)


def full_subgraph(g):
    """The whole graph as a support."""
    return Subgraph(g, frozenset(g.vertices), frozenset(range(g.n_edges)))


def identify_vertices(g, u, v):
    """Self-glueing of an unlabelled graph: vertex ``v`` is identified
    with ``u < v``, and an edge between them becomes a loop."""
    remap = {x: (u if x == v else x) for x in g.vertices}
    return Graph(vertices=tuple(x for x in g.vertices if x != v),
                 edges=tuple((remap[a], remap[b]) for a, b in g.edges))


@pytest.fixture(scope="session")
def interval():
    return make_path_graph(1)


@pytest.fixture(scope="session")
def star3():
    return make_star(3)


@pytest.fixture(scope="session")
def h_graph():
    return make_h_graph()


@pytest.fixture(scope="session")
def point_graph():
    return Graph(vertices=(0,), edges=(), basepoint=0)


@pytest.fixture(scope="session")
def star_family(point_graph, interval):
    """Wedging intervals onto a point: member k is the star with k leaves."""
    return wedge_family(point_graph, [SummandSpec(interval, (0,), (0,))])


@pytest.fixture(scope="session")
def triangle():
    return make_cycle_graph(3)


@pytest.fixture(scope="session")
def k4_interval_family(interval):
    """K4 with intervals wedged at one vertex: at n=3 it has H_2 != 0."""
    k4 = Graph(vertices=(0, 1, 2, 3), basepoint=0,
               edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    return wedge_family(k4, [SummandSpec(interval, (0,), (0,))])


def corpus_graphs():
    """The named test corpus; family members carry triangle summands."""
    graphs = {
        "interval": make_path_graph(1),
        "path3": make_path_graph(3),
        "star3": make_star(3),
        "star4": make_star(4),
        "star5": make_star(5),
        "h_graph": make_h_graph(),
        "cycle3": make_cycle_graph(3),
        "cycle4": make_cycle_graph(4),
        "star3_wedge_interval": wedge(make_star(3), make_path_graph(1)),
    }
    from graphconf import realize_family
    triangle = make_cycle_graph(3)
    for k in range(1, 5):
        graphs[f"interval_family_{k}"] = realize_family(
            interval_family(triangle), (k,)).graph
        graphs[f"circle_family_{k}"] = realize_family(
            circle_family(triangle), (k,)).graph
    return graphs
