"""Resolving sets, vertex representations, and the exhaustive dimension oracle.

A landmark set W resolves a graph when every vertex gets a distinct vector
of hop distances to W, so every check reads only the |W| BFS rows of the
landmarks and tests whether the n vectors they give are pairwise distinct.
The oracle realizes the definition directly by enumerating candidate sets in
size-then-lexicographic order, so its answers are exact and serve as ground
truth for every closed-form claim.  It skips only candidates that two
classic facts rule out, so its first resolving candidate, the witness, is the
one the full enumeration finds:

- twins u, v (N(u) - {v} = N(v) - {u}) are equally far from every other
  vertex, so every resolving set holds all but at most one vertex of each
  twin class (Hernando, Mora, Pelayo, Seara & Wood, "Extremal graph
  theory for metric dimension and diameter", 2010);
- the n - k vertices outside a resolving set of size k have distinct vectors
  in {1..D}^k, so n <= D^k + k for a graph of diameter D (Khuller,
  Raghavachari & Rosenfeld, "Landmarks in graphs", 1996).

The oracle reads distance rows on demand from the graph's memo, so a search
that finds its witness early computes only the rows it tested.  The
diameter bound needs every row only when nothing cheaper settles it: at
size 1 it holds exactly for paths (D = n - 1), which the edge count and
degrees show, so the search starts at size 1 on a path and at size 2 on any
other graph; at a larger size the eccentricity of vertex 1, at most D,
settles it whenever it already meets the bound.

The oracle is one search over the sizes below a bound, with no bound.  A
caller that holds a resolving set of size s knows the dimension is at most s,
so it can run the same search over the sizes below s only: the first
resolving candidate it finds gives the dimension, and when it finds none the
dimension is s.  The sweep does this with each class's closed-form basis, so
a theta graph of dimension 2 needs no candidate test at all: a search below
size 2 of a graph that is not a path returns at once, before it groups the
twins.

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


def _resolves(landmark_rows: Iterable[tuple[int, ...]], n: int) -> bool:
    """True when the landmark rows give all n vertices distinct vectors."""
    return len(set(zip(*landmark_rows))) == n


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
    return _resolves(_landmark_rows(g, landmarks), g.n)


def is_minimal_resolving(g: Graph, landmarks: list[int] | tuple[int, ...]) -> bool:
    """True when no single landmark can be dropped without losing resolution.

    Raises ``ValueError`` when the given set is not resolving to begin with.
    """
    rows = _landmark_rows(g, landmarks)
    if not _resolves(rows, g.n):
        raise ValueError(f"{tuple(landmarks)} is not a resolving set")
    return _minimal(rows, g.n)


def _minimal(rows: list[tuple[int, ...]], n: int) -> bool:
    """True when each landmark row of a resolving set is needed: dropping
    any one of them leaves two of the n vertices with equal vectors."""
    return not any(_resolves(rows[:i] + rows[i + 1 :], n) for i in range(len(rows)))


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


def _twin_classes(g: Graph) -> list[list[int]]:
    """Twin classes of two or more vertices: groups with equal open
    neighbourhoods N(v) (false twins) or equal closed ones N[v] (true twins).

    No open neighbourhood equals a closed one (N(u) = N[v] would put u in
    N(u)), and no vertex has both a false and a true twin, so the two
    groupings share one dict and the classes are disjoint.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(1, g.n + 1):
        nbrs = g.adjacency[v]
        groups.setdefault(nbrs, []).append(v)
        groups.setdefault(tuple(sorted((*nbrs, v))), []).append(v)
    return [group for group in groups.values() if len(group) > 1]


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
    - sizes k with D^k + k < n, since a graph of diameter D with a resolving
      set of size k has at most D^k + k vertices (Khuller, Raghavachari &
      Rosenfeld 1996).  At size 1 this says that only a path (D = n - 1)
      has dimension 1, which the edge count and degrees show without D, so
      the search starts at size 1 on a path and at size 2 on any other
      graph.  A larger size is tested when the eccentricity of vertex 1, at
      most D, already gives ecc(1)^k + k >= n; only otherwise is D computed,
      from every row.

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
    before it groups the twins.  With ``below = n + 1`` it is the oracle.
    """
    n = g.n
    if not g.is_connected():
        raise ValueError("metric dimension oracle requires a connected graph")
    # D + 1 >= n, the diameter bound at size 1, holds only for a path, whose
    # diameter is n - 1: a connected graph of n - 1 edges and degrees <= 2.
    path = len(g.edges) == n - 1 and max(map(len, g.adjacency)) <= 2
    start = 1 if path else 2
    if start >= below:
        return None
    row_of = g.distance_row  # the memo's own lookup, so map() reads rows in C
    ecc_1 = max(row_of(1))
    diameter = n - 1 if path else None
    rows = None  # every vertex's row, once D is needed or a size has no witness
    classes = _twin_classes(g)
    first = max(start, sum(len(T) - 1 for T in classes))
    if first >= below:
        return None
    # The weights below take bits in the square of the class count C, so the
    # first level is checked before they are built.  It holds at least C of
    # the n >= 2C vertices and leaves out at least C, so it costs at least
    # C(2C, C) * 2C, and only a graph of at most 12 classes passes.
    _check_level_cost(first, n)
    # Vertex v of the i-th twin class weighs 2^(width*i), so the vertices a
    # candidate leaves out weigh their count per class, each in a digit of its
    # own (width bits hold any count up to n).  A digit above 1 means two
    # omitted twins, which no resolving set has.
    width = n.bit_length()
    weights = [0] * n
    for i, T in enumerate(classes):
        for v in T:
            weights[v - 1] = 1 << width * i
    total = sum(weights)
    two_or_more = sum(((1 << width) - 2) << width * i for i in range(len(classes)))
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
        # through the memo only when the twin filter lets it be tested.
        cand_rows = itertools.repeat(None) if rows is None else itertools.combinations(rows, k)
        for cand, landmark_rows, cand_weights in zip(
            itertools.combinations(vertices, k), cand_rows, itertools.combinations(weights, k)
        ):
            if (total - sum(cand_weights)) & two_or_more:
                continue
            if _resolves(landmark_rows or map(row_of, cand), n):
                return BasisResult(dimension=k, witness=cand)
        # A search that outlives a size has read nearly every row already,
        # and handing each candidate its rows is faster than looking them up.
        if rows is None:
            rows = list(map(row_of, vertices))
    return None
