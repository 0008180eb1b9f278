"""Construction and recognition of type-III bicyclic (theta) graphs.

A theta graph consists of two degree-3 hubs joined by three internally
disjoint paths.  The ``C_{p,q,r}`` parameterization counts vertices per
path: ``p`` and ``r`` count the internal vertices of the two outer paths,
while ``q`` counts the middle path including both hubs.  Canonical labels
follow a fixed layout, hub a = v_{p+1} and hub b = v_{p+q}, with three
chains from hub a, through their internal vertices in order, to hub b:

    outer one   a, v_1 .. v_p, b
    middle      a, v_{p+2} .. v_{p+q-1}, b
    outer two   a, v_{p+q+1} .. v_{p+q+r}, b

A chain with no internal vertex is the hub-hub edge.  ``detect_theta``
recognizes a theta graph under any labels and lists its original labels in
this layout's order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, new_graph


class InvalidParamsError(ValueError):
    """Raised when a (p, q, r) triple does not describe a simple theta graph."""


@dataclass(frozen=True)
class ThetaParams:
    """Path vertex counts (p, q, r) of a ``C_{p,q,r}`` graph."""

    p: int
    q: int
    r: int

    @property
    def n(self) -> int:
        return self.p + self.q + self.r


@dataclass(frozen=True)
class ThetaShape:
    """A theta graph recognized inside an arbitrarily labelled graph.

    ``labels[c - 1]`` is the original label of vertex c of
    ``build_c(params)``: the outer-one internals, hub a, the middle
    internals, hub b, then the outer-two internals, each path ordered
    starting from hub a.
    """

    params: ThetaParams
    labels: tuple[int, ...]


def validate_params(p: int, q: int, r: int) -> str | None:
    """Return None when (p, q, r) is valid, else a description of the violation.

    Validity requires q >= 2 and at most one of {p = 0, q = 2, r = 0} (two
    or more would duplicate the hub-hub edge, i.e. a multigraph).  The order
    p + q + r is then at least 4: q = 2 leaves p, r >= 1, and q >= 3 leaves
    p + r >= 1.
    """
    if p < 0 or q < 0 or r < 0:
        return f"negative path count in ({p}, {q}, {r})"
    if q < 2:
        return f"middle path needs at least its two hubs, got q={q}"
    degenerate = (p == 0) + (q == 2) + (r == 0)
    if degenerate > 1:
        return (
            f"({p}, {q}, {r}) collapses two hub-to-hub paths onto the same "
            "edge (multigraph)"
        )
    return None


def _require_valid(p: int, q: int, r: int) -> None:
    violation = validate_params(p, q, r)
    if violation is not None:
        raise InvalidParamsError(violation)


def build_c(p: int, q: int, r: int) -> Graph:
    """Construct ``C_{p,q,r}`` with canonical labels, chain by chain; n
    vertices, n+1 edges."""
    _require_valid(p, q, r)
    hub_a, hub_b = p + 1, p + q
    edges: list[tuple[int, int]] = []
    for internal in (range(1, p + 1), range(p + 2, p + q), range(p + q + 1, p + q + r + 1)):
        chain = (hub_a, *internal, hub_b)
        edges.extend(zip(chain, chain[1:]))
    return new_graph(p + q + r, edges)


def to_theta_lengths(p: int, q: int, r: int) -> tuple[int, int, int]:
    """Edge counts (p+1, q-1, r+1) of the three hub-to-hub paths."""
    _require_valid(p, q, r)
    return (p + 1, q - 1, r + 1)


def _swap(p: int, q: int, r: int, v: int) -> int:
    """Image of vertex ``v`` of ``C_{p,q,r}`` under the swap onto ``C_{r,q,p}``.

    Outer paths trade places, the middle path keeps its order, and hubs map
    onto hubs; the map is adjacency-preserving.  ``_swap(r, q, p, ·)`` is
    the inverse map.
    """
    if v <= p:
        return r + q + v
    if v <= p + q:
        return r + v - p
    return v - p - q


def _class_labels(p: int, q: int, r: int) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """The class triple of ``C_{p,q,r}`` and the labels that rename
    ``C_{p,q,r}`` onto its graph: ``labels[v - 1]`` is the 0-based class
    label of vertex v.

    The chains' internal counts p, q - 2 and r, sorted into x >= y >= z (ties
    kept in chain order), give the class graph ``build_c(x, y + 2, z)``, the
    same for every triple of the isomorphism class.  Each chain maps onto the
    class chain of its count, in order from hub a, and hubs map onto hubs, so
    the map is adjacency-preserving.
    """
    counts = (p, q - 2, r)
    order = sorted(range(3), key=counts.__getitem__, reverse=True)
    x, y, z = map(counts.__getitem__, order)
    starts = [0, 0, 0]
    for chain, start in zip(order, (0, x + 1, x + y + 2)):
        starts[chain] = start
    a, m, c = starts
    return (x, y + 2, z), (*range(a, a + p), x, *range(m, m + q - 2), x + y + 1, *range(c, c + r))


def _hub_chains(g: Graph) -> tuple[int, int, list[tuple[int, ...]]] | None:
    """Locate the two hubs and the three hub-to-hub chains, or None.

    Each chain is the tuple of its internal (degree-2) vertices ordered away
    from ``hub_a``.  Rejects anything that is not a theta graph: wrong degree
    sequence, a chain walking back to its start (two cycles hanging off the
    same hub), or chains that miss a vertex (a disconnected input).  Degrees
    in {2, 3} with exactly two hubs of degree 3 make n + 1 edges, so the
    edge count needs no test.

    The walks prove connectivity, so no BFS runs.  The degree test leaves
    every vertex but the hubs with degree 2, so each walk from hub a is a
    simple path that stops at the first hub it reaches.  Two walks that met at a vertex would retrace each
    other from there back to hub a, that is, one of them would walk back to
    its start, which is refused.  So three walks that end at hub b and
    hold n - 2 internal vertices between them cover the graph.
    """
    n = g.n
    adj = g.adjacency
    degrees = list(map(len, adj))  # degrees[0] is the 0 of the unused adj[0]
    if degrees.count(3) != 2 or degrees.count(2) != n - 2:
        return None
    hub_a = degrees.index(3)
    hub_b = degrees.index(3, hub_a + 1)
    chains: list[tuple[int, ...]] = []
    for first in adj[hub_a]:
        chain: list[int] = []
        prev, cur = hub_a, first
        while cur != hub_b and cur != hub_a:  # a vertex of degree 2
            chain.append(cur)
            x, y = adj[cur]
            prev, cur = cur, (y if x == prev else x)
        if cur != hub_b:
            return None
        chains.append(tuple(chain))
    if 2 + sum(len(c) for c in chains) != n:
        return None
    return hub_a, hub_b, chains


def detect_theta(g: Graph) -> ThetaShape | None:
    """Recognize a theta graph and return its preferred parameterization.

    The preferred shape takes the shortest hub-to-hub path as the middle
    path, ties broken by internal labels (hub a being the degree-3 vertex
    with the smaller original label), which is the parameterization the
    closed-form dispatcher consumes.
    Returns None when ``g`` is not a theta graph; that outcome is a result,
    not an error.  It reads no distance row: the hub-to-hub walks of
    ``_hub_chains`` prove that the graph is connected.
    """
    probe = _hub_chains(g)
    if probe is None:
        return None
    hub_a, hub_b, chains = probe
    middle = chains.pop(min(range(3), key=lambda i: (len(chains[i]), chains[i])))
    # the longer outer path becomes outer-one; of two equal ones, the one
    # whose internal labels sort first
    outer_one, outer_two = sorted(chains, key=lambda c: (-len(c), c))
    p, q, r = len(outer_one), len(middle) + 2, len(outer_two)
    return ThetaShape(ThetaParams(p, q, r), (*outer_one, hub_a, *middle, hub_b, *outer_two))
