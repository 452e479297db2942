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
