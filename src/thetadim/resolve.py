"""Resolving sets, vertex representations, and the exhaustive dimension oracle.

A landmark set W resolves a graph when every vertex gets a distinct vector
of hop distances to W, so every check reads only the |W| BFS rows of the
landmarks and tests whether the n vectors they give are pairwise distinct.
The oracle realizes the definition directly by enumerating candidate sets in
size-then-lexicographic order, so its answers are exact and serve as ground
truth for every closed-form claim.  It skips only candidates that three
classic facts rule out, so its first resolving candidate, the witness, is the
one the full enumeration finds:

- twins u, v (N(u) - {v} = N(v) - {u}) are equally far from every other
  vertex, so every resolving set holds all but at most one vertex of each
  twin class (Hernando, Mora, Pelayo, Seara & Wood, "Extremal graph
  theory for metric dimension and diameter", 2010);
- a leg of a vertex v of degree 3 or more is a path of degree-2 vertices
  hanging off v and ending in a leaf.  The neighbours of v on two legs are
  equally far from every vertex off those legs, so every resolving set has a
  vertex on all but at most one leg of each vertex (Khuller, Raghavachari &
  Rosenfeld, "Landmarks in graphs", 1996; Chartrand, Eroh, Johnson &
  Oellermann, "Resolvability in graphs and the metric dimension of a
  graph", 2000);
- the n - k vertices outside a resolving set of size k have distinct vectors
  in {1..D}^k, so n <= D^k + k for a graph of diameter D (Khuller,
  Raghavachari & Rosenfeld, "Landmarks in graphs", 1996).

The oracle reads distance rows on demand from the graph's memo, so a search
that finds its witness early computes only the rows it tested.  The
diameter bound needs every row only when nothing cheaper settles it: at
size 1 it holds exactly for paths (D = n - 1), which the degrees show, so
the search starts at size 1 on a path and at size 2 on any other graph; at
a larger size the eccentricity of vertex 1, at most D, settles it whenever
it already meets the bound.

The oracle is one search over the sizes below a bound, with no bound.  A
caller that holds a resolving set of size s knows the dimension is at most s,
so it can run the same search over the sizes below s only: the first
resolving candidate it finds gives the dimension, and when it finds none the
dimension is s.  The sweep does this with each class's closed-form basis, so
a theta graph of dimension 2 needs no candidate test at all: a search below
size 2 of a graph that is not a path returns at once, before it groups the
twins and legs.

The metric dimension of every theta graph is 2 or 3, so the search is small
there; on other graphs a size level k can test C(n, k) candidates.  The
oracle bounds its own work: it refuses, with ``ValueError``, to start a
level whose C(n, k) candidates of n vertices each are over
``ORACLE_LEVEL_BUDGET``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .graphs import DistanceMatrix, Graph

#: Most work one size level of the oracle may take, in candidate-vertex
#: units: level k of an n-vertex graph costs C(n, k) * n, since it tests up to
#: C(n, k) candidates and each reads n vertices' vectors.  This is the cost of
#: the costliest level on 24 vertices, so every graph of at most 24 vertices
#: is searched in full.
ORACLE_LEVEL_BUDGET = math.comb(24, 12) * 24


@dataclass(frozen=True)
class BasisResult:
    """Exact metric dimension with one witness minimum resolving set."""

    dimension: int
    witness: tuple[int, ...]


def _valid_landmarks(landmarks: list[int] | tuple[int, ...], n: int) -> tuple[int, ...]:
    """The landmarks as a tuple; ``ValueError`` when the list is empty,
    repeats a vertex or names one outside 1..n."""
    W = tuple(landmarks)
    if not W:
        raise ValueError("landmark set is empty")
    if len(set(W)) != len(W):
        raise ValueError(f"duplicate landmark in {W}")
    for w in W:
        if not 1 <= w <= n:
            raise ValueError(f"landmark {w} outside 1..{n}")
    return W


def representation(D: DistanceMatrix, v: int, landmarks: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Distance vector of ``v`` with respect to an ordered landmark list."""
    W = _valid_landmarks(landmarks, D.n)
    if not 1 <= v <= D.n:
        raise ValueError(f"vertex {v} outside 1..{D.n}")
    return tuple(D.dist(v, w) for w in W)


def _resolves(vectors: Iterable[tuple[int, ...]], n: int) -> bool:
    """True when the n vertices' vectors of landmark distances are distinct;
    callers holding the landmarks' rows pass ``zip(*rows)``."""
    return len(set(vectors)) == n


def _first_collision(landmark_rows: list[tuple[int, ...]]) -> tuple[int, int] | None:
    """Lexicographically first vertex pair sharing a representation, if any."""
    keyed = sorted(zip(zip(*landmark_rows), itertools.count(1)))
    best: tuple[int, int] | None = None
    for (rep_a, a), (rep_b, b) in zip(keyed, keyed[1:]):
        if rep_a == rep_b:
            pair = (min(a, b), max(a, b))
            if best is None or pair < best:
                best = pair
    return best


def _landmark_rows(g: Graph, landmarks: list[int] | tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distance rows of a validated landmark set, in landmark order."""
    return [g.distance_row(w) for w in _valid_landmarks(landmarks, g.n)]


def unresolved_pair(g: Graph, landmarks: list[int] | tuple[int, ...]) -> tuple[int, int] | None:
    """One vertex pair not separated by the landmarks, or None when resolving.

    The returned pair is the lexicographically smallest colliding pair, so
    failures are reproducible.  Only the landmarks' distance rows are read.
    """
    return _first_collision(_landmark_rows(g, landmarks))


def is_resolving(g: Graph, landmarks: list[int] | tuple[int, ...]) -> bool:
    """True when every vertex has a distinct distance vector to the landmarks."""
    return _resolves(zip(*_landmark_rows(g, landmarks)), g.n)


def is_minimal_resolving(g: Graph, landmarks: list[int] | tuple[int, ...]) -> bool:
    """True when no single landmark can be dropped without losing resolution.

    Raises ``ValueError`` when the given set is not resolving to begin with.
    """
    rows = _landmark_rows(g, landmarks)
    if not _resolves(zip(*rows), g.n):
        raise ValueError(f"{tuple(landmarks)} is not a resolving set")
    return _minimal(rows, g.n)


def _minimal(rows: list[tuple[int, ...]], n: int) -> bool:
    """True when each landmark row of a resolving set is needed: dropping
    any one of them leaves two of the n vertices with equal vectors."""
    return not any(_resolves(zip(*rows[:i], *rows[i + 1 :]), n) for i in range(len(rows)))


def _check_level_cost(k: int, n: int) -> None:
    """Raise ``ValueError`` when oracle size level k on n vertices costs
    C(n, k) * n candidate-vertex units, more than ``ORACLE_LEVEL_BUDGET``.

    The cost is built up as n * C(n, j) for j = 0, 1, ..., min(k, n - k),
    which never decreases, so the first partial product over the budget
    settles the question without computing a C(n, k) of thousands of digits;
    the message then gives that product as a lower bound.
    """
    steps = min(k, n - k)
    cost = n
    for j in range(steps):
        cost = cost * (n - j) // (j + 1)
        if cost > ORACLE_LEVEL_BUDGET:
            bound = "" if j + 1 == steps else "at least "
            raise ValueError(
                f"oracle size {k} on {n} vertices costs {bound}{cost:,} candidate-vertex units, "
                f"over the budget of {ORACLE_LEVEL_BUDGET:,}"
            )


def _groups(g: Graph) -> tuple[list[tuple[list[int], int]], list[tuple[list[int], int]]]:
    """The twin classes of two or more vertices, and the legs of each vertex
    with two or more legs, in one pass over the vertices.  Each group is a
    pair: the vertices it holds, and its count of parts, which is the number
    of twins in a class or of legs in a leg group.

    Twins have equal open neighbourhoods N(v) (false twins) or equal closed
    ones N[v] (true twins).  The two groupings share one dict, open ones
    keyed by the sorted neighbour tuple and closed ones by a frozenset, which
    no tuple equals.  No vertex has both a false and a true twin, so the
    classes are disjoint.  A leaf has a true twin only in the path of two
    vertices, whose search starts at size 1 all the same, so a leaf is not
    grouped by N[v].

    A leg of a vertex v of degree 3 or more is a path of degree-2 vertices
    that hangs off v and ends in a leaf.  Only a leaf starts a walk, and
    each walk reads its own leg, so the legs cost O(n) in all.
    """
    adj = g.adjacency
    twins: dict[tuple[int, ...] | frozenset[int], list[int]] = {}
    legs: dict[int, list[list[int]]] = {}
    for v in range(1, g.n + 1):
        nbrs = adj[v]
        twins.setdefault(nbrs, []).append(v)
        if len(nbrs) != 1:
            twins.setdefault(frozenset((v, *nbrs)), []).append(v)
            continue
        leg = [v]
        prev, foot = v, nbrs[0]
        while len(adj[foot]) == 2:
            leg.append(foot)
            a, b = adj[foot]
            prev, foot = foot, (b if a == prev else a)
        if len(adj[foot]) > 2:  # not the far end of a path
            legs.setdefault(foot, []).append(leg)
    classes = [(T, len(T)) for T in twins.values() if len(T) > 1]
    return classes, [(list(itertools.chain.from_iterable(L)), len(L)) for L in legs.values() if len(L) > 1]


def metric_dimension_oracle(g: Graph) -> BasisResult:
    """Exact metric dimension by exhaustive subset enumeration.

    Candidate sets are tried in increasing size, lexicographically within a
    size, and the first resolving set is returned, so the witness is the
    lexicographically smallest minimum resolving set.  Sets that cannot
    resolve are skipped untested, so the witness is the one the full
    enumeration finds:

    - sizes below the sum of |T| - 1 over the twin classes T, and candidates
      that leave out two vertices of one class, since every resolving set
      holds all but at most one vertex of each twin class (Hernando et al.
      2010);
    - sizes below the sum of legs(v) - 1 over the vertices v, and candidates
      that hold fewer than legs(v) - 1 vertices on the legs of some v, since
      every resolving set has a vertex on all but at most one leg of each
      vertex (Khuller et al. 1996; Chartrand, Eroh, Johnson & Oellermann
      2000).  A leg is a path of degree-2 vertices that hangs off a vertex
      of degree 3 or more and ends in a leaf.  The first size is the larger
      of the two sums, since a vertex's leaves are both twins and legs;
      counting the vertices a candidate holds on the legs, not the legs it
      hits, skips a few fewer candidates for the same cost as the twin test;
    - sizes k with D^k + k < n, since a graph of diameter D with a resolving
      set of size k has at most D^k + k vertices (Khuller, Raghavachari &
      Rosenfeld 1996).  At size 1 this says that only a path (D = n - 1)
      has dimension 1, which the degrees show without D, so the search
      starts at size 1 on a path and at size 2 on any other graph.  A
      larger size is tested when the eccentricity of vertex 1, at most D,
      already gives ecc(1)^k + k >= n; only otherwise is D computed, from
      every row.

    Distance rows are read on demand from the graph's memo, so a search
    that ends early computes only the rows of the candidates it tested.

    Requires a connected graph.  Before size level k reads any row, its
    diameter step included, the oracle raises ``ValueError`` when the level
    costs more than ``ORACLE_LEVEL_BUDGET``, at C(n, k) * n.  So every graph
    of at most 24 vertices is searched in full, theta graphs to size 3 up to
    n = 141, any graph that is not a path to size 2 up to n = 506, and paths
    to size 1 up to n = 8056.
    """
    result = _search(g, g.n + 1)
    if result is None:
        raise AssertionError("unreachable: the full vertex set always resolves")
    return result


def _search(g: Graph, below: int) -> BasisResult | None:
    """The oracle's search over the sizes below ``below``: the first
    resolving candidate in its order, or None when no set of those sizes
    resolves.  It skips, refuses and reads rows as
    :func:`metric_dimension_oracle` describes, and neither tests nor budgets
    a size of ``below`` or more.  It starts at size 1 on a path and at size
    2 on any other graph; when ``below`` is at most that start, it returns
    None having read only row 1, to check that the graph is connected, and
    before it groups the twins and legs.  With ``below = n + 1`` it is the
    oracle.
    """
    n = g.n
    if not g.is_connected():
        raise ValueError("metric dimension oracle requires a connected graph")
    # D + 1 >= n, the diameter bound at size 1, holds only for a path, whose
    # diameter is n - 1: a connected graph of degrees <= 2 and degree sum 2n - 2.
    degrees = list(map(len, g.adjacency))
    path = max(degrees) <= 2 and sum(degrees) == 2 * n - 2
    start = 1 if path else 2
    if start >= below:
        return None
    row_of = g.distance_row  # the memo's own lookup, so map() reads rows in C
    ecc_1 = max(row_of(1))
    diameter = n - 1 if path else None
    rows = None  # every vertex's row, once D is needed or a size has no witness
    classes, legs = _groups(g)
    # Each bound holds alone, but a vertex's leaves are both a twin class and
    # its legs, so the two sums may count the same vertices and do not add.
    first = max(start, sum(parts - 1 for _, parts in classes), sum(parts - 1 for _, parts in legs))
    if first >= below:
        return None
    # The weights below take bits in the square of the group count C, so the
    # first level is checked before they are built.  Twin classes are
    # disjoint, as are leg groups, and each group needs a vertex, so the level
    # is at least C/2.  It is at most n - C: each group has one part more than
    # it needs, and each vertex with legs, never a twin nor on a leg, makes up
    # for the one twin class its leaves may share with its legs.  So it costs
    # at least C(3C/2, C/2) * 3C/2, and only a graph of at most 16 groups
    # passes.
    _check_level_cost(first, n)
    # Group i, a twin class or the legs of one vertex, has a digit of
    # width + 1 bits at 2^((width+1)*i) in ``total``; width bits hold any
    # count up to n.  The digit starts at 2^width + parts - 2, for a group of
    # that many twins or legs, and each vertex a candidate takes from the
    # group subtracts 1, so its top bit stays set exactly when the candidate
    # takes at most parts - 2 vertices of the group, which no resolving set
    # does.  A vertex on a leg whose foot's leaves are twins counts in both.
    width = n.bit_length()
    weights = [0] * n
    total = too_few = 0
    for i, (members, parts) in enumerate(classes + legs):
        one = 1 << (width + 1) * i
        for v in members:
            weights[v - 1] += one
        total += ((1 << width) + parts - 2) * one
        too_few += one << width
    vertices = range(1, n + 1)
    for k in range(first, below):
        _check_level_cost(k, n)
        if ecc_1**k + k < n:
            if diameter is None:
                rows = list(map(row_of, vertices))
                diameter = max(map(max, rows))
            if diameter**k + k < n:
                continue
        # The enumerations run in the same lexicographic order, so each
        # candidate set arrives with its weights, and with its rows once the
        # search holds every row.  Until then a candidate reads its rows
        # through the memo only when the group filter lets it be tested.
        cand_rows = itertools.repeat(None) if rows is None else itertools.combinations(rows, k)
        for cand, landmark_rows, cand_weights in zip(
            itertools.combinations(vertices, k), cand_rows, itertools.combinations(weights, k)
        ):
            if (total - sum(cand_weights)) & too_few:
                continue
            if _resolves(zip(*(landmark_rows or map(row_of, cand))), n):
                return BasisResult(dimension=k, witness=cand)
        # A search that outlives a size has read nearly every row already,
        # and handing each candidate its rows is faster than looking them up.
        if rows is None:
            rows = list(map(row_of, vertices))
    return None
