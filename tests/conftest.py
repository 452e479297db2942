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


# -- matrices and chain maps, as the tests read them ------------------------


def from_columns(rows, columns):
    """A matrix with copies of the given column dicts, zeros dropped; a
    row outside 0..rows-1 is an error."""
    assert all(0 <= r < rows for col in columns for r in col), "row out of range"
    return SparseIntMatrix.view(rows, [{r: v for r, v in col.items() if v}
                                       for col in columns])


def from_dense(rows_list):
    """A matrix with the entries of a list of rows."""
    width = len(rows_list[0]) if rows_list else 0
    return from_columns(len(rows_list), [
        {r: row[c] for r, row in enumerate(rows_list)} for c in range(width)])


def to_dense(m):
    out = [[0] * m.cols for _ in range(m.rows)]
    for c, col in enumerate(m.columns()):
        for r, v in col.items():
            out[r][c] = v
    return out


def is_zero(m):
    return not any(m.columns())


def matvec(m, vec):
    """m applied to a sparse vector dict column -> value."""
    out = {}
    for c, v in vec.items():
        for r, w in m.columns()[c].items():
            out[r] = out.get(r, 0) + v * w
    return {r: v for r, v in out.items() if v}


def multiply(a, b):
    """a b, both sparse."""
    assert a.cols == b.rows, "shape mismatch in multiply"
    return SparseIntMatrix.view(a.rows, [matvec(a, col) for col in b.columns()])


def boundary_square_is_zero(complex_):
    """d_(q-1) d_q = 0 for every q, each d_q assembled once."""
    below = complex_.boundary(1)
    for q in range(2, complex_.top_dimension + 1):
        d_q = complex_.boundary(q)
        if not is_zero(multiply(below, d_q)):
            return False
        below = d_q
    return True


def chain_matrix(chain_map, q):
    """The chain map's matrix in degree q."""
    complex_ = chain_map.complex
    if q > complex_.top_dimension:
        return SparseIntMatrix(0, 0)
    f = len(complex_.codes[q])
    return from_columns(f, chain_map.push(q, [{i: 1} for i in range(f)]))


def commutes_with_boundary(chain_map):
    """f d = d f in every degree, compared by shape and columns."""
    for q in range(1, chain_map.complex.top_dimension + 1):
        d = chain_map.complex.boundary(q)
        left = multiply(chain_matrix(chain_map, q - 1), d)
        right = multiply(d, chain_matrix(chain_map, q))
        if (left.rows, left.cols, left.columns()) != \
                (right.rows, right.cols, right.columns()):
            return False
    return True


def project(presentation, zvec):
    """Free-part homology coordinates of a cycle (exact integers)."""
    coords = presentation.homology_coords(zvec)
    return tuple(coords.get(i, 0) for i in range(presentation.betti))


def homology_matrix(chain_map, presentation):
    """The chain map's matrix on the free part of H_q, in the basis of the
    presentation's cycles."""
    cols = []
    for vec in chain_map.push(presentation.q,
                              presentation.require_basis().cycle_basis):
        cols.append(dict(enumerate(project(presentation, vec))))
    return from_columns(presentation.betti, cols)


class PlantedComplex(CubeComplex):
    """A complex on the cells ``cells_by_dim`` whose boundaries d_1, d_2,
    ... are the given matrices (dense lists or ``SparseIntMatrix``).
    ``boundary`` reads their columns at the asked cells without the
    dropped rows, into a fresh matrix, as the cube models assemble theirs."""

    def __init__(self, cells_by_dim, boundaries):
        super().__init__(make_path_graph(1), 1, (), MODEL_KIND, cells_by_dim)
        self.planted = [None] + [
            d if isinstance(d, SparseIntMatrix) else from_dense(d)
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
