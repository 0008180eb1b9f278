import pytest
from hypothesis import strategies as st

from thetadim import Graph, graphs, new_graph, theta


@st.composite
def small_graphs(draw, max_n: int = 12):
    """Random simple graphs on 1..n, n <= max_n, any edge subset."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return new_graph(n, edges)


def class_labels(p: int, q: int, r: int) -> tuple[tuple[int, int, int], list[int]]:
    """The class triple of ``C_{p,q,r}`` and the 0-based label in its graph
    of each vertex 1..n, rebuilt from the run offsets of
    ``theta._class_labels``: the runs of p, 1, q - 2, 1 and r vertices each
    map onto consecutive labels from their offset."""
    key, offsets = theta._class_labels(p, q, r)
    runs = zip(offsets, (p, 1, q - 2, 1, r))
    return key, [start + i for start, length in runs for i in range(length)]


@pytest.fixture
def no_matrix(monkeypatch):
    """Fail the test if any graph builds its all-pairs distance matrix.

    ``all_pairs`` reads this property, so a call to it fails too.
    """
    def refuse(g):
        raise AssertionError(f"all-pairs matrix built for a {g.n}-vertex graph")
    monkeypatch.setattr(Graph, "_distance_matrix", property(refuse))


@pytest.fixture
def bfs_sources(monkeypatch):
    """The source of every BFS run, in order."""
    sources = []
    bfs = graphs._bfs

    def counting(adj, source):
        sources.append(source)
        return bfs(adj, source)

    monkeypatch.setattr(graphs, "_bfs", counting)
    return sources
