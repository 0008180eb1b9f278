"""Immutable simple graphs on 1-based vertex labels, with BFS hop distances.

A graph is held as its adjacency, one sorted neighbour tuple per vertex,
built by ``new_graph``; the edge set is derived from it for listings.

Each graph memoises its distance rows, one BFS per source vertex asked for,
in a ``_Memo``: a dict that computes a missing key's value on its first
lookup, which the sweep's JSON writer uses for its array texts too.  A BFS
walks one list in visit order, level after level, appending each vertex as
it is first reached; the list is its own queue, with no deque.
Resolving checks and landmark codes read only the rows of their landmarks,
O(n·k) for k landmarks; a theta network runs no other BFS, since theta
recognition proves it connected without one.  The exhaustive oracle reads
only the rows of the candidates it tests.  No library code reads the
all-pairs matrix; it is built from the same rows for callers that want
every distance.  Rows and matrices are tuples, frozen after construction,
so graphs are safe to share across threads (a race can compute a row
twice, never a wrong one).
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
    """Undirected simple graph on vertices 1..n, held as its adjacency.

    ``adjacency[v]`` is the sorted tuple of v's neighbours, and
    ``adjacency[0]`` is ``()``.  Instances are immutable; use
    :func:`new_graph` to construct one with validation.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as ``(u, v)`` pairs with u < v, derived from the
        adjacency on each read."""
        return frozenset((u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v)

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
        by at most one BFS per graph whichever is asked for first.  The BFS
        closes over the adjacency rather than the graph, so the memo and its
        graph form no reference cycle.
        """
        adjacency = self.adjacency
        return _Memo(lambda source: tuple(_bfs(adjacency, source))).__getitem__

    def is_connected(self) -> bool:
        return UNREACHABLE not in self.distance_row(1)


class _Memo(dict):
    """Each key's value, computed by ``compute`` on the key's first lookup."""

    def __init__(self, compute: Callable[[object], object]):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


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
    """Build a simple graph from an edge list, in one pass that checks each
    edge and adds it to both endpoints' neighbour sets, so an edge repeated
    in either orientation counts once.

    Raises ``ValueError`` for a non-positive vertex count, an endpoint
    outside 1..n, or a self-loop, naming the first bad edge in input order.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    # Dicts of ints as neighbour sets: unlike sets, the cyclic collector does
    # not track them, so a collection while they are alive promotes none of
    # them to the oldest generation, where n + 1 sets hasten full collections.
    nbrs: list[dict[int, None]] = [{} for _ in range(n + 1)]
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nbrs[u][v] = None
        nbrs[v][u] = None
    return Graph(n=n, adjacency=tuple(map(tuple, map(sorted, nbrs))))


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
