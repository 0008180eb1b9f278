"""Immutable simple graphs on 1-based vertex labels, with BFS hop distances.

Each graph memoises its distance rows, one BFS per source vertex asked for.
A BFS walks one list in visit order, level after level, appending each
vertex as it is first reached; the list is its own queue, with no deque.
Resolving checks and landmark codes read only the rows of their landmarks,
O(n·k) for k landmarks, and the exhaustive oracle reads only the rows of
the candidates it tests.  No library code reads the all-pairs matrix; it is
built from the same rows for callers that want every distance.  Rows and
matrices are tuples, frozen after construction, so graphs are safe to share
across threads (a race can compute a row twice, never a wrong one).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

#: Sentinel distance between vertices in different components.  Kept as a
#: dedicated constant (never a "large enough" magic number) so disconnected
#: inputs fail loudly instead of producing plausible-looking distances.
UNREACHABLE = -1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..n with a deduplicated edge set.

    Edges are stored as ``(min(u, v), max(u, v))`` pairs.  Instances are
    immutable; use :func:`new_graph` to construct one with validation.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples indexed by vertex label (index 0 unused)."""
        nbrs: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, map(sorted, nbrs)))

    @cached_property
    def _distance_matrix(self) -> DistanceMatrix:
        d = tuple(map(self.distance_row, range(1, self.n + 1)))
        return DistanceMatrix(n=self.n, d=d)

    @cached_property
    def distance_row(self) -> Callable[[int], tuple[int, ...]]:
        """``g.distance_row(source)``: memoised hop counts from ``source``,
        indexed by v-1.

        This is the row memo's own ``dict`` lookup, so a memoised row is read
        without a Python-level call, also through ``map(g.distance_row, ...)``.
        The all-pairs matrix shares these row objects, so a row is computed
        by at most one BFS per graph whichever is asked for first.
        """
        return _RowMemo(self.adjacency).__getitem__

    def is_connected(self) -> bool:
        return UNREACHABLE not in self.distance_row(1)


class _RowMemo(dict[int, tuple[int, ...]]):
    """Distance rows by source vertex; looking up a missing row runs its BFS.

    The memo holds the adjacency rather than its graph, so the two form no
    reference cycle.
    """

    def __init__(self, adjacency: tuple[tuple[int, ...], ...]):
        super().__init__()
        self.adjacency = adjacency

    def __missing__(self, source: int) -> tuple[int, ...]:
        row = self[source] = tuple(_bfs(self.adjacency, source))
        return row


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop counts; entry ``d[u-1][v-1]`` is the u-v distance.

    Rows are tuples, so the matrix cannot be modified after construction.
    ``UNREACHABLE`` marks vertex pairs in different components.
    """

    n: int
    d: tuple[tuple[int, ...], ...]

    def dist(self, u: int, v: int) -> int:
        return self.d[u - 1][v - 1]


def new_graph(n: int, edges: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> Graph:
    """Build a simple graph, deduplicating repeated edges.

    Raises ``ValueError`` for a non-positive vertex count, an endpoint
    outside 1..n, or a self-loop, naming the first bad edge in input order.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
    return Graph(n=n, edges=frozenset([(u, v) if u < v else (v, u) for u, v in edges]))


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop counts from ``source`` to every vertex, as a list indexed by v-1.

    Unreachable vertices get the ``UNREACHABLE`` sentinel.
    """
    return _bfs(g.adjacency, source)


def _bfs(adj: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Hop counts from ``source`` over a 1-based adjacency (index 0 unused)."""
    n = len(adj) - 1
    if not 1 <= source <= n:
        raise ValueError(f"source {source} outside 1..{n}")
    dist = [UNREACHABLE] * (n + 1)
    dist[source] = 0
    # The visit order is the queue: a list iterator reads items appended
    # after it started, so the loop walks the levels in order without a deque.
    order = [source]
    for u in order:
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du
                order.append(w)
    return dist[1:]


def all_pairs(g: Graph) -> DistanceMatrix:
    """Cached all-pairs distance matrix of ``g``, built from its memoised
    distance rows (one BFS per vertex, none for a row already computed)."""
    return g._distance_matrix
