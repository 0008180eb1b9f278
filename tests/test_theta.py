"""Theta-graph construction, parameter validity, the outer-path swap, and
shape detection."""

import functools
import random

import pytest

from thetadim import (
    InvalidParamsError,
    NetworkSpec,
    assign_landmarks,
    build_c,
    detect_theta,
    new_graph,
    to_theta_lengths,
    valid_triples,
    validate_params,
)
from thetadim import theta


def relabel(g, mapping):
    return new_graph(g.n, [(mapping[u], mapping[v]) for u, v in g.edges])


def test_validate_accepts_equal_outer_arms():
    assert validate_params(3, 7, 3) is None


def test_validate_rejects_two_degenerate_flags():
    assert validate_params(0, 2, 5) is not None


def test_validate_rejects_short_middle():
    assert validate_params(0, 0, 3) is not None


def test_validate_rejects_both_outers_empty():
    assert validate_params(0, 5, 0) is not None


def test_validate_rejects_tiny_order():
    assert validate_params(1, 2, 0) is not None


def test_build_equal_arms_instance():
    g = build_c(3, 7, 3)
    assert g.n == 13 and len(g.edges) == 14
    assert len(g.adjacency[4]) == 3 and len(g.adjacency[10]) == 3
    assert sum(len(g.adjacency[v]) == 3 for v in range(1, 14)) == 2


def test_build_five_vertex_instance_is_complete_bipartite():
    g = build_c(1, 3, 1)
    # brute-force bipartition check: hubs on one side, the rest on the other
    hubs = {v for v in range(1, 6) if len(g.adjacency[v]) == 3}
    rest = set(range(1, 6)) - hubs
    assert len(g.edges) == len(hubs) * len(rest)
    assert all((u in hubs) != (v in hubs) for u, v in g.edges)


def test_build_empty_outer_collapses_to_hub_edge():
    g = build_c(2, 3, 0)
    assert g.n == 5 and len(g.edges) == 6
    assert (3, 5) in g.edges


def test_build_empty_first_outer():
    g = build_c(0, 3, 2)
    assert (1, 3) in g.edges  # hubs v_1 and v_q directly joined
    assert g.n == 5 and len(g.edges) == 6


def test_build_rejects_invalid():
    with pytest.raises(InvalidParamsError):
        build_c(0, 2, 5)


def test_theta_lengths():
    assert to_theta_lengths(3, 7, 3) == (4, 6, 4)
    assert to_theta_lengths(1, 3, 1) == (2, 2, 2)
    assert to_theta_lengths(2, 3, 0) == (3, 2, 1)


def test_swap_maps_hub_to_hub():
    assert theta._swap(3, 5, 2, 4) == 3


def test_swap_outer_formulas():
    assert theta._swap(3, 5, 2, 1) == 8
    assert theta._swap(3, 5, 2, 9) == 1


def test_swap_is_adjacency_preserving_automorphism_on_symmetric_params():
    sigma = functools.partial(theta._swap, 2, 4, 2)
    g = build_c(2, 4, 2)
    assert sorted(map(sigma, range(1, 9))) == list(range(1, 9))
    for u, v in g.edges:
        assert (min(sigma(u), sigma(v)), max(sigma(u), sigma(v))) in g.edges


def test_swap_preserves_adjacency_exhaustively():
    for p, q, r in valid_triples(16):
        sigma = functools.partial(theta._swap, p, q, r)
        src, dst = build_c(p, q, r), build_c(r, q, p)
        assert sorted(map(sigma, range(1, src.n + 1))) == list(range(1, src.n + 1))
        mapped = {(min(sigma(u), sigma(v)), max(sigma(u), sigma(v))) for u, v in src.edges}
        assert mapped == dst.edges


def test_class_labels_map_each_triple_onto_its_class_graph():
    # The class graph is build_c(x, y + 2, z) for the internal counts sorted
    # into x >= y >= z; the labels rename the triple's graph onto it.
    for p, q, r in valid_triples(30):
        key, labels = theta._class_labels(p, q, r)
        x, y, z = sorted((p, q - 2, r), reverse=True)
        assert key == (x, y + 2, z)
        src = build_c(p, q, r)
        assert sorted(labels) == list(range(src.n)), (p, q, r)
        mapped = {(min(labels[u - 1], labels[v - 1]) + 1, max(labels[u - 1], labels[v - 1]) + 1) for u, v in src.edges}
        assert mapped == build_c(*key).edges, (p, q, r)


def route_lemma_distances(p, q, r):
    """Every distance of C_{p,q,r} by the route lemma, as rows indexed like
    BFS rows, from the layout alone.

    The chains from hub a to hub b have L = (p + 1, q - 1, r + 1) edges, and
    H = min(L).  A vertex at position i on chain X (i edges from hub a) has
    d(u, a) = min(i, L_X - i + H) and d(u, b) = min(L_X - i, i + H).  Two
    vertices meet through a or through b, and on one chain also along it.
    Hubs are placed on the middle chain, at 0 and L_2.
    """
    lengths = (p + 1, q - 1, r + 1)
    h = min(lengths)
    n = p + q + r
    # (chain, position) of each vertex, in label order.
    places = [(0, v) if v <= p else (1, v - p - 1) if v <= p + q else (2, v - p - q) for v in range(1, n + 1)]
    to_hubs = [(min(i, lengths[x] - i + h), min(lengths[x] - i, i + h)) for x, i in places]
    rows = []
    for (x, i), (ua, ub) in zip(places, to_hubs):
        row = []
        for (y, j), (wa, wb) in zip(places, to_hubs):
            d = min(ua + wa, ub + wb)
            row.append(min(d, abs(i - j)) if x == y else d)
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("max_n", [24, pytest.param(30, marks=pytest.mark.slow)])
def test_route_lemma_gives_every_distance(max_n):
    # A statement of the layout independent of build_c: every vertex pair's
    # BFS distance is the route lemma's.
    for p, q, r in valid_triples(max_n):
        g = build_c(p, q, r)
        assert list(map(g.distance_row, range(1, g.n + 1))) == route_lemma_distances(p, q, r), (p, q, r)


def test_swapped_builds_share_degree_and_distance_profiles():
    from thetadim import all_pairs

    for p, q, r in valid_triples(14):
        a, b = build_c(p, q, r), build_c(r, q, p)
        assert sorted(map(len, a.adjacency[1:])) == sorted(map(len, b.adjacency[1:]))
        assert sorted(x for row in all_pairs(a).d for x in row) == sorted(
            x for row in all_pairs(b).d for x in row
        )


def test_detect_rejects_plain_cycle():
    cycle = new_graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    assert detect_theta(cycle) is None


def test_detect_rejects_two_cycles_joined_by_a_bridge():
    # two triangles joined through a path: right vertex degrees and edge
    # count for a theta graph, but one hub-to-hub chain walks back home
    edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)]
    g = new_graph(7, edges)
    assert len(g.edges) == g.n + 1
    assert detect_theta(g) is None


def test_detect_rejects_disconnected():
    edges = list(build_c(1, 3, 1).edges) + [(6, 7), (7, 8), (8, 6)]
    g = new_graph(8, edges)
    assert detect_theta(g) is None


def test_detect_shuffled_complete_bipartite():
    base = build_c(1, 3, 1)
    mapping = {1: 4, 2: 2, 3: 5, 4: 1, 5: 3}
    shape = detect_theta(relabel(base, mapping))
    assert shape is not None
    assert (shape.params.p, shape.params.q, shape.params.r) == (1, 3, 1)


def test_detect_field_network_arrangement():
    g = build_c(5, 3, 4)
    shape = detect_theta(g)
    assert (shape.params.p, shape.params.q, shape.params.r) == (5, 3, 4)
    assert shape.labels == tuple(range(1, 13))
    # the hubs are canonical v_{p+1} and v_{p+q}
    assert (shape.labels[5], shape.labels[7]) == (6, 8)
    assert len(g.adjacency[shape.labels[5]]) == len(g.adjacency[shape.labels[7]]) == 3


def test_detect_breaks_outer_ties_by_labels():
    # C_{3,5,3} has two outer paths of equal length; the one whose internal
    # labels sort first becomes outer-one, and that choice fixes the landmarks.
    g = build_c(3, 5, 3)
    perm = list(range(1, g.n + 1))
    random.Random(7).shuffle(perm)
    shuffled = relabel(g, dict(zip(range(1, g.n + 1), perm)))
    shape = detect_theta(shuffled)
    assert (shape.params.p, shape.params.q, shape.params.r) == (3, 5, 3)
    assert shape.labels == (6, 3, 7, 1, 4, 11, 2, 10, 8, 5, 9)
    spec = NetworkSpec(
        nodes=tuple(f"v{v}" for v in range(1, g.n + 1)),
        links=tuple((f"v{u}", f"v{v}") for u, v in sorted(shuffled.edges)),
    )
    assert assign_landmarks(spec).landmarks == ("v3", "v4", "v6")


def test_detect_round_trips_exhaustively():
    rng = random.Random(20240811)
    for p, q, r in valid_triples(16):
        g = build_c(p, q, r)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        shuffled = relabel(g, dict(zip(range(1, g.n + 1), perm)))
        shape = detect_theta(shuffled)
        assert shape is not None, (p, q, r)
        params = shape.params
        assert validate_params(params.p, params.q, params.r) is None
        # labels carry the canonical build exactly onto the shuffled graph
        canon = build_c(params.p, params.q, params.r)
        assert relabel(canon, dict(enumerate(shape.labels, start=1))).edges == shuffled.edges
        assert sorted(to_theta_lengths(params.p, params.q, params.r)) == sorted(
            to_theta_lengths(p, q, r)
        )


def test_detect_returns_the_preferred_parameterization():
    # The middle is a shortest hub-to-hub path, and the longer outer path
    # comes first.
    rng = random.Random(7)
    for p, q, r in valid_triples(12):
        g = build_c(p, q, r)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        shape = detect_theta(relabel(g, dict(zip(range(1, g.n + 1), perm))))
        params = shape.params
        assert params.q - 1 == min(to_theta_lengths(p, q, r)), (p, q, r)
        assert params.p >= params.r, (p, q, r)
    cycle = new_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert detect_theta(cycle) is None


def test_build_size_invariant():
    for p, q, r in valid_triples(16):
        g = build_c(p, q, r)
        assert g.n == p + q + r
        assert len(g.edges) == g.n + 1
