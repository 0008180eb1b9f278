"""Representations, resolving-set checks, and the exhaustive oracle."""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadim import (
    BasisResult,
    all_pairs,
    bfs_distances,
    build_c,
    is_minimal_resolving,
    is_resolving,
    metric_dimension_oracle,
    new_graph,
    representation,
    resolve,
    unresolved_pair,
    valid_triples,
)

from conftest import small_graphs


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return new_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete(n):
    return new_graph(n, list(itertools.combinations(range(1, n + 1), 2)))


def complete_bipartite(n1, n2):
    left = range(1, n1 + 1)
    right = range(n1 + 1, n1 + n2 + 1)
    return new_graph(n1 + n2, [(a, b) for a in left for b in right])


def naive_is_resolving(g, W):
    """Pairwise comparison straight from the definition."""
    D = all_pairs(g)
    for u, v in itertools.combinations(range(1, g.n + 1), 2):
        if all(D.dist(u, w) == D.dist(v, w) for w in W):
            return False
    return True


def test_representation_zero_at_own_landmark():
    D = all_pairs(path(3))
    assert representation(D, 1, [1, 3])[0] == 0


def test_representation_on_path():
    D = all_pairs(path(3))
    assert representation(D, 3, [1]) == (2,)


def test_representation_far_end_of_equal_arms_graph():
    D = all_pairs(build_c(3, 7, 3))
    assert representation(D, 13, [1, 2, 6]) == (4, 3, 5)


def test_representation_rejects_duplicates_and_range():
    # the landmark rules and their messages are those of is_resolving
    D = all_pairs(path(3))
    with pytest.raises(ValueError, match=r"duplicate landmark in \(1, 1\)"):
        representation(D, 1, [1, 1])
    with pytest.raises(ValueError, match=r"landmark 4 outside 1\.\.3"):
        representation(D, 1, [1, 4])
    with pytest.raises(ValueError, match=r"vertex 4 outside 1\.\.3"):
        representation(D, 4, [1])
    with pytest.raises(ValueError, match="landmark set is empty"):
        representation(D, 1, [])


def test_known_resolving_triple():
    assert is_resolving(build_c(3, 7, 3), (1, 2, 6))


def test_dropping_a_landmark_breaks_resolution():
    g = build_c(3, 7, 3)
    assert unresolved_pair(g, (2, 6)) == (9, 11)


def test_full_vertex_set_always_resolves():
    g = build_c(2, 4, 2)
    assert is_resolving(g, tuple(range(1, g.n + 1)))


def test_empty_landmark_set_rejected():
    with pytest.raises(ValueError):
        is_resolving(path(3), ())


def test_minimality_of_known_basis():
    assert is_minimal_resolving(build_c(3, 7, 3), (1, 2, 6))


def test_endpoint_pair_on_path_is_not_minimal():
    assert not is_minimal_resolving(path(3), (1, 3))


def test_minimality_requires_resolving_input():
    with pytest.raises(ValueError):
        is_minimal_resolving(build_c(3, 7, 3), (2, 6))


def test_oracle_on_paths():
    for n in range(2, 9):
        result = metric_dimension_oracle(path(n))
        assert result.dimension == 1
        assert result.witness == (1,)


def test_oracle_on_five_cycle():
    assert metric_dimension_oracle(cycle(5)).dimension == 2


def test_oracle_on_equal_arms_graph():
    result = metric_dimension_oracle(build_c(3, 7, 3))
    assert result.dimension == 3
    assert result.witness == (1, 2, 6)


def test_oracle_on_complete_bipartite_five():
    result = metric_dimension_oracle(build_c(1, 3, 1))
    assert result.dimension == 3


def test_oracle_size3_basis_is_minimal_by_exhaustion():
    g = build_c(1, 3, 1)
    witness = metric_dimension_oracle(g).witness
    assert is_minimal_resolving(g, witness)
    for pair in itertools.combinations(range(1, 6), 2):
        assert not is_resolving(g, pair)


def test_oracle_rejects_disconnected():
    with pytest.raises(ValueError):
        metric_dimension_oracle(new_graph(3, [(1, 2)]))


def test_oracle_rejects_oversized(bfs_sources):
    # Level k costs C(n, k) * n.  Each graph is refused at its first level
    # over the budget, the first level searched, having read only vertex 1's row.
    for g, k in ((path(8057), 1), (build_c(250, 7, 250), 2)):
        bfs_sources.clear()
        with pytest.raises(ValueError, match=f"oracle size {k} on {g.n} vertices"):
            metric_dimension_oracle(g)
        assert bfs_sources == [1], g.n
    # C_{48,48,46} has dimension 3: size 2 is searched in full, size 3 refused.
    with pytest.raises(ValueError, match="oracle size 3 on 142 vertices"):
        metric_dimension_oracle(build_c(48, 48, 46))
    # a refusal that computed the whole cost states it exactly
    with pytest.raises(ValueError) as info:
        metric_dimension_oracle(build_c(1000, 998, 2))
    assert str(info.value) == (
        "oracle size 2 on 2000 vertices costs 3,998,000,000 candidate-vertex units, over the budget of 64,899,744"
    )


def test_oracle_starts_any_graph_that_is_not_a_path_at_size_2(bfs_sources):
    # Size 1 of an 8057-cycle is over the budget, but only a path has
    # dimension 1, so the search starts at size 2 and refuses that level.
    with pytest.raises(ValueError) as info:
        metric_dimension_oracle(cycle(8057))
    assert str(info.value) == (
        "oracle size 2 on 8057 vertices costs at least 64,915,249 candidate-vertex units, "
        "over the budget of 64,899,744"
    )
    assert bfs_sources == [1]


def test_oracle_refuses_many_twin_classes_before_building_their_weights():
    # A path of m spine vertices, each with two pendant leaves: the m leaf
    # pairs are twin classes, so the first level searched is size m of 3m,
    # whose cost has thousands of digits.  The refusal neither builds the
    # twin weights nor computes that cost, and its message stays short.
    m = 5000
    edges = [(i, i + 1) for i in range(1, m)]
    edges += [(i, m + 2 * i - leaf) for i in range(1, m + 1) for leaf in (0, 1)]
    g = new_graph(3 * m, edges)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"oracle size {m} on {3 * m} vertices costs at least ") as info:
            metric_dimension_oracle(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(str(info.value)) < 200, str(info.value)
    assert peak < 16 * 10**6, peak


def test_oracle_searches_every_level_within_the_budget():
    assert resolve.ORACLE_LEVEL_BUDGET == max(math.comb(24, k) * 24 for k in range(25))
    assert metric_dimension_oracle(path(8056)) == BasisResult(1, (1,))
    assert metric_dimension_oracle(build_c(250, 6, 250)) == BasisResult(2, (1, 128))
    assert metric_dimension_oracle(build_c(46, 48, 46)) == BasisResult(3, (1, 2, 48))


def test_oracle_agrees_with_special_families():
    # known dimensions: paths 1, cycles 2, K_n n-1, K_{a,b} (n >= 4) n-2
    cases = [(path(n), 1) for n in range(2, 11)]
    cases += [(cycle(n), 2) for n in range(3, 11)]
    cases += [(complete(n), n - 1) for n in range(3, 8)]
    cases += [(complete_bipartite(a, b), a + b - 2)
              for a in range(1, 5) for b in range(a, 6) if a + b >= 4]
    for g, expected in cases:
        assert metric_dimension_oracle(g).dimension == expected


@given(small_graphs(max_n=8), st.data())
@settings(deadline=None, max_examples=60)
def test_is_resolving_matches_naive_pairwise(g, data):
    k = data.draw(st.integers(min_value=1, max_value=g.n))
    W = tuple(data.draw(st.permutations(range(1, g.n + 1)))[:k])
    assert is_resolving(g, W) == naive_is_resolving(g, W)


@given(small_graphs(max_n=8), st.data())
@settings(deadline=None, max_examples=60)
def test_resolving_supersets_stay_resolving(g, data):
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    k = data.draw(st.integers(min_value=1, max_value=g.n))
    W = tuple(perm[:k])
    if not is_resolving(g, W):
        return
    extended = tuple(perm[: min(g.n, k + data.draw(st.integers(0, g.n - k)))])
    assert is_resolving(g, extended)


def test_oracle_soundness_on_small_theta_graphs():
    for p, q, r in valid_triples(9):
        g = build_c(p, q, r)
        result = metric_dimension_oracle(g)
        assert is_resolving(g, result.witness)
        assert is_minimal_resolving(g, result.witness)
        for k in range(1, result.dimension):
            assert not any(
                is_resolving(g, cand)
                for cand in itertools.combinations(range(1, g.n + 1), k)
            )


def sorting_oracle(g):
    """The oracle as it stood before the set test: every candidate sorts
    the n vertices by their full-matrix vectors and looks for a tie."""
    n = g.n
    rows = [bfs_distances(g, u) for u in range(1, n + 1)]
    for k in range(1, n + 1):
        for cand in itertools.combinations(range(1, n + 1), k):
            keyed = sorted((tuple(rows[v - 1][w - 1] for w in cand), v) for v in range(1, n + 1))
            if all(a[0] != b[0] for a, b in zip(keyed, keyed[1:])):
                return BasisResult(dimension=k, witness=cand)
    raise AssertionError("the full vertex set always resolves")


def petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return new_graph(10, outer + inner + [(i, i + 5) for i in range(1, 6)])


def test_oracle_matches_sorting_oracle_on_theta_graphs():
    for p, q, r in valid_triples(14):
        g = build_c(p, q, r)
        assert metric_dimension_oracle(g) == sorting_oracle(g), (p, q, r)


def test_oracle_matches_sorting_oracle_on_classic_families():
    graphs = [path(n) for n in range(1, 9)] + [cycle(n) for n in range(3, 10)]
    graphs += [complete(n) for n in range(2, 7)] + [complete_bipartite(3, 3), petersen()]
    for g in graphs:
        assert metric_dimension_oracle(g) == sorting_oracle(g), sorted(g.edges)
    assert metric_dimension_oracle(petersen()).dimension == 3


@st.composite
def connected_graphs(draw, max_n: int = 9):
    """A random spanning tree on 1..n plus any subset of the other pairs."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    tree = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    rest = [pair for pair in itertools.combinations(range(1, n + 1), 2) if pair not in tree]
    extra = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    return new_graph(n, tree + extra)


@given(connected_graphs())
@settings(deadline=None, max_examples=80)
def test_oracle_matches_sorting_oracle_on_random_connected_graphs(g):
    assert metric_dimension_oracle(g) == sorting_oracle(g)


def star(leaves):
    return complete_bipartite(1, leaves)


def complete_multipartite(*parts):
    """Every pair of vertices in different parts is an edge."""
    part_of = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part_of)
    return new_graph(n, [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                         if part_of[u - 1] != part_of[v - 1]])


def test_oracle_matches_sorting_oracle_on_twin_heavy_families():
    graphs = [complete(n) for n in range(1, 9)]
    graphs += [complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 6)]
    graphs += [star(leaves) for leaves in range(1, 9)]
    graphs += [complete_multipartite(*parts) for parts in
               [(1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3), (3, 3, 3), (1, 1, 1, 2), (1, 2, 2, 3)]]
    for g in graphs:
        assert metric_dimension_oracle(g) == sorting_oracle(g), sorted(g.edges)


def test_oracle_matches_sorting_oracle_on_one_and_two_vertices():
    for g in (new_graph(1, []), new_graph(2, [(1, 2)])):
        assert metric_dimension_oracle(g) == sorting_oracle(g) == BasisResult(dimension=1, witness=(1,))


@st.composite
def twin_clone_graphs(draw, max_base: int = 7, max_clones: int = 4):
    """A connected graph with random vertices cloned as false twins (same
    open neighbourhood) or true twins (same closed neighbourhood); a clone
    can itself be cloned, so twin classes grow past two."""
    g = draw(connected_graphs(max_n=max_base))
    nbrs = [set()] + [set(g.adjacency[v]) for v in range(1, g.n + 1)]
    for _ in range(draw(st.integers(1, max_clones))):
        v = draw(st.integers(1, len(nbrs) - 1))
        clone = len(nbrs)
        true_twin = draw(st.booleans()) or not nbrs[v]  # a lone vertex's false twin would be isolated
        nbrs.append(nbrs[v] | {v} if true_twin else set(nbrs[v]))
        for w in nbrs[clone]:
            nbrs[w].add(clone)
    n = len(nbrs) - 1
    return new_graph(n, [(u, w) for u in range(1, n + 1) for w in nbrs[u] if u < w])


@given(twin_clone_graphs())
@settings(deadline=None, max_examples=100)
def test_oracle_matches_sorting_oracle_on_graphs_with_twins(g):
    assert metric_dimension_oracle(g) == sorting_oracle(g)


def spider(legs, length):
    """A centre, vertex 1, with ``legs`` paths of ``length`` vertices each
    hung off it; leg i runs outward from vertex 2 + i * length."""
    edges = []
    for i in range(legs):
        chain = range(2 + i * length, 2 + (i + 1) * length)
        edges += zip((1, *chain), chain)
    return new_graph(1 + legs * length, edges)


@st.composite
def leg_heavy_graphs(draw, max_n: int = 12):
    """Spiders, caterpillars and trees with extra chords: a small connected
    core with paths hung off any of its vertices or of the paths hung
    before, each ending in a new leaf, plus up to two chords anywhere."""
    core = draw(connected_graphs(max_n=4))
    n, edges = core.n, sorted(core.edges)
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(1, 3))
        if n + length > max_n:
            break
        chain = range(n + 1, n + length + 1)
        edges += zip((draw(st.integers(1, n)), *chain), chain)
        n += length
    rest = [pair for pair in itertools.combinations(range(1, n + 1), 2) if pair not in edges]
    edges += draw(st.lists(st.sampled_from(rest), max_size=2, unique=True)) if rest else []
    return new_graph(n, edges)


def test_oracle_matches_sorting_oracle_on_spiders_and_caterpillars():
    graphs = [spider(legs, length) for legs in range(1, 5) for length in range(1, 4)]
    # caterpillars: a spine of four vertices whose first and third carry one
    # to three pendant leaves each
    for leaves in itertools.product(range(1, 4), repeat=2):
        spine = [(i, i + 1) for i in range(1, 4)]
        n = 4
        for at, count in zip((1, 3), leaves):
            spine += [(at, n + j) for j in range(1, count + 1)]
            n += count
        graphs.append(new_graph(n, spine))
    for g in graphs:
        assert metric_dimension_oracle(g) == sorting_oracle(g), sorted(g.edges)


@given(leg_heavy_graphs())
@settings(deadline=None, max_examples=100)
def test_oracle_matches_sorting_oracle_on_leg_heavy_graphs(g):
    assert metric_dimension_oracle(g) == sorting_oracle(g)


@pytest.fixture
def resolves_calls(monkeypatch):
    """The size of every candidate the oracle tests, in order."""
    sizes = []
    real = resolve._resolves

    def counting(vectors, n):
        vectors = tuple(vectors)
        sizes.append(len(vectors[0]))
        return real(vectors, n)

    monkeypatch.setattr(resolve, "_resolves", counting)
    return sizes


def test_twin_classes_leave_one_candidate_for_complete_graphs(resolves_calls):
    assert metric_dimension_oracle(complete_bipartite(5, 5)) == BasisResult(8, (1, 2, 3, 4, 6, 7, 8, 9))
    assert resolves_calls == [8]
    resolves_calls.clear()
    assert metric_dimension_oracle(complete(12)).dimension == 11
    assert resolves_calls == [11]


def test_true_twins_skip_sizes_the_diameter_bound_allows(resolves_calls):
    # K_5 with a pendant at vertex 1: 2, 3, 4, 5 share N[v] = {1, ..., 5}, so
    # every resolving set holds three of them; diameter 2 alone allows size 2.
    g = new_graph(6, list(itertools.combinations(range(1, 6), 2)) + [(1, 6)])
    assert metric_dimension_oracle(g) == sorting_oracle(g)
    assert resolves_calls and min(resolves_calls) == 3


def test_diameter_bound_skips_small_sizes_on_petersen(resolves_calls):
    # Diameter 2: 2^1 + 1 and 2^2 + 2 are below 10, so sizes 1 and 2 are never tried.
    assert metric_dimension_oracle(petersen()).dimension == 3
    assert resolves_calls and min(resolves_calls) == 3


def test_only_paths_test_size_one(resolves_calls):
    # D + 1 >= n holds only for paths, so each path tests the single
    # candidate [1] and resolves, and no cycle tests a size-1 candidate.
    for n in range(1, 9):
        resolves_calls.clear()
        assert metric_dimension_oracle(path(n)) == BasisResult(1, (1,))
        assert resolves_calls == [1], n
    for n in range(3, 10):
        resolves_calls.clear()
        assert metric_dimension_oracle(cycle(n)).dimension == 2
        assert resolves_calls and 1 not in resolves_calls, n


def test_oracle_reads_rows_without_the_matrix(no_matrix):
    # The oracle computes rows through the graph's memo on demand, even when
    # it needs the exact diameter or tests every candidate of a size.
    for p, q, r in valid_triples(14):
        metric_dimension_oracle(build_c(p, q, r))
    assert metric_dimension_oracle(petersen()).dimension == 3
    assert metric_dimension_oracle(complete_bipartite(5, 5)).dimension == 8


def test_leg_filter_tests_only_size_m_minus_1_on_spiders(resolves_calls):
    # A spider of m legs has dimension m - 1: a vertex on all legs but one.
    # The leg bound starts the search there, and the leg filter skips every
    # candidate with fewer than m - 1 vertices on the legs.
    for (legs, length), tested, witness in (
        ((4, 3), 22, (2, 5, 8)),
        ((5, 2), 36, (2, 4, 6, 8)),
        ((6, 3), 1181, (2, 5, 8, 11, 14)),
    ):
        resolves_calls.clear()
        assert metric_dimension_oracle(spider(legs, length)) == BasisResult(legs - 1, witness)
        assert resolves_calls == [legs - 1] * tested, (legs, length)
