"""Graph construction and BFS distance behaviour."""

import pytest
from hypothesis import given, settings

from thetadim import UNREACHABLE, all_pairs, bfs_distances, build_c, graphs, new_graph

from conftest import small_graphs


def floyd_warshall(g):
    """Independent all-pairs re-implementation used as a cross-check."""
    inf = float("inf")
    n = g.n
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        d[u - 1][v - 1] = d[v - 1][u - 1] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return [[UNREACHABLE if x == inf else int(x) for x in row] for row in d]


def test_path_construction():
    g = new_graph(3, [(1, 2), (2, 3)])
    assert g.n == 3
    assert g.edges == frozenset({(1, 2), (2, 3)})


def test_single_isolated_vertex():
    g = new_graph(1, [])
    assert g.n == 1 and not g.edges


def test_complete_bipartite_edge_count():
    edges = [(a, b) for a in (1, 5) for b in (2, 3, 4)]
    g = new_graph(5, edges)
    assert len(g.edges) == 2 * 3


def test_duplicate_edges_collapse():
    g = new_graph(2, [(1, 2), (2, 1), (1, 2)])
    assert len(g.edges) == 1


@pytest.mark.parametrize("bad", [[(0, 1)], [(1, 3)], [(1, 1)]])
def test_rejects_bad_edges(bad):
    with pytest.raises(ValueError):
        new_graph(2, bad)


@pytest.mark.parametrize("edges, message", [
    ([(1, 2), (3, 3), (1, 9), (0, 2)], "self-loop at vertex 3"),
    ([(1, 2), (1, 9), (3, 3), (0, 2)], r"edge \(1, 9\) has an endpoint outside 1\.\.4"),
    ([(0, 2), (3, 3), (1, 9)], r"edge \(0, 2\) has an endpoint outside 1\.\.4"),
])
def test_first_bad_edge_in_input_order_is_reported(edges, message):
    with pytest.raises(ValueError, match=message):
        new_graph(4, edges)


def test_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        new_graph(0, [])


def test_bfs_on_path():
    g = new_graph(3, [(1, 2), (2, 3)])
    assert bfs_distances(g, 1) == [0, 1, 2]


def test_bfs_on_four_cycle():
    g = new_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert bfs_distances(g, 1) == [0, 1, 2, 1]


def test_bfs_on_smallest_three_path_graph():
    g = build_c(1, 3, 1)
    assert bfs_distances(g, 1) == [0, 1, 2, 1, 2]


def test_bfs_source_out_of_range():
    g = new_graph(2, [(1, 2)])
    with pytest.raises(ValueError):
        bfs_distances(g, 3)


def test_all_pairs_two_vertices():
    D = all_pairs(new_graph(2, [(1, 2)]))
    assert D.d == ((0, 1), (1, 0))


def test_all_pairs_disconnected_sentinel():
    D = all_pairs(new_graph(2, []))
    assert D.dist(1, 2) == UNREACHABLE
    assert D.dist(1, 1) == 0


def test_all_pairs_against_independent_reimplementation():
    g = build_c(3, 7, 3)
    D = all_pairs(g)
    assert [list(row) for row in D.d] == floyd_warshall(g)
    assert max(map(max, D.d)) == 5  # graph diameter


def test_matrix_is_read_only():
    D = all_pairs(new_graph(2, [(1, 2)]))
    assert isinstance(D.d, tuple) and all(isinstance(row, tuple) for row in D.d)
    with pytest.raises(TypeError):
        D.d[0][0] = 7
    with pytest.raises(TypeError):
        D.d[0] = (7, 7)


@given(small_graphs())
@settings(deadline=None)
def test_distance_matrix_axioms(g):
    D = all_pairs(g)
    d = D.d
    assert all(d[v][v] == 0 for v in range(g.n))
    assert all(d[u][v] == d[v][u] for u in range(g.n) for v in range(g.n))
    # d[u][v] == 1 exactly on edges
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            assert (D.dist(u, v) == 1) == ((u, v) in g.edges)
    # triangle inequality on finite entries
    for u in range(g.n):
        for v in range(g.n):
            for w in range(g.n):
                if UNREACHABLE not in (d[u][v], d[u][w], d[w][v]):
                    assert d[u][v] <= d[u][w] + d[w][v]


def reference_bfs(g, source):
    """Hop counts from ``source`` by growing the reached set one edge-list
    scan per level, independent of the adjacency and of the BFS queue."""
    dist = {source: 0}
    level, d = {source}, 0
    while level:
        d += 1
        level = {b for u, v in g.edges for a, b in ((u, v), (v, u)) if a in level and b not in dist}
        dist.update(dict.fromkeys(level, d))
    return [dist.get(v, UNREACHABLE) for v in range(1, g.n + 1)]


@given(small_graphs())
@settings(deadline=None)
def test_bfs_matches_a_reference_search(g):
    # disconnected graphs included: vertices out of reach read UNREACHABLE
    for source in range(1, g.n + 1):
        assert graphs._bfs(g.adjacency, source) == reference_bfs(g, source)


@given(small_graphs())
@settings(deadline=None)
def test_bfs_symmetry_at_operation_level(g):
    rows = [bfs_distances(g, u) for u in range(1, g.n + 1)]
    for u in range(g.n):
        for v in range(g.n):
            assert rows[u][v] == rows[v][u]


@given(small_graphs(max_n=10))
@settings(deadline=None)
def test_adding_edge_never_increases_finite_distances(g):
    non_edges = [
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(u + 1, g.n + 1)
        if (u, v) not in g.edges
    ]
    if not non_edges:
        return
    before = all_pairs(g).d
    extra = new_graph(g.n, list(g.edges) + [non_edges[0]])
    after = all_pairs(extra).d
    for row_before, row_after in zip(before, after):
        for was, now in zip(row_before, row_after):
            if was != UNREACHABLE:
                assert now != UNREACHABLE and now <= was
