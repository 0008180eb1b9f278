"""Case dispatch, closed-form bases, dimension predicates, and the tables."""

import tracemalloc

import pytest

from thetadim import (
    InvalidParamsError,
    all_pairs,
    build_c,
    check_triple,
    closed_form_basis,
    dimension_by_path_lengths,
    dispatch_case,
    formula_representation,
    is_resolving,
    representation,
    sweep,
    valid_triples,
)
from thetadim import closed_form
from thetadim.closed_form import CASE_TAGS
from thetadim.theta import _swap


def test_dispatch_equal_outer_arms():
    case = dispatch_case(3, 7, 3)
    assert case.tag == "T4-P1" and not case.swapped


def test_dispatch_dominant_middle():
    case = dispatch_case(3, 5, 2)
    assert case.tag == "T1-P2" and not case.swapped


def test_dispatch_mirrored_dominant_middle():
    case = dispatch_case(2, 5, 3)
    assert case.tag == "T1-P2" and case.swapped


def test_dispatch_dominant_outer():
    case = dispatch_case(5, 3, 4)
    assert case.tag == "T3-P1" and not case.swapped


def test_dispatch_empty_outer_takes_precedence():
    assert dispatch_case(2, 3, 0).tag == "ZeroPath-P2"
    mirrored = dispatch_case(0, 3, 2)
    assert mirrored.tag == "ZeroPath-P2" and mirrored.swapped


def test_dispatch_equal_everything_goes_to_equal_outers():
    assert dispatch_case(3, 3, 3).tag == "T4-P3b"


def test_dispatch_rejects_invalid():
    with pytest.raises(InvalidParamsError):
        dispatch_case(0, 2, 5)


def test_dispatch_total_and_single_tagged():
    seen = set()
    for p, q, r in valid_triples(20):
        case = dispatch_case(p, q, r)
        assert case.tag in CASE_TAGS
        seen.add(case.tag)
    assert seen == set(CASE_TAGS)


def test_basis_equal_arms():
    result = closed_form_basis(3, 7, 3)
    assert result.basis == (1, 2, 6)
    assert result.dimension == 3
    assert result.case.tag == "T4-P1"


def test_basis_dominant_outer():
    result = closed_form_basis(5, 3, 4)
    assert result.basis == (1, 4)
    assert result.dimension == 2


def test_basis_single_vertex_outer_with_empty_arm():
    result = closed_form_basis(1, 4, 0)
    assert result.basis == (1, 2)
    assert result.case.tag == "ZeroPath-P1"


def test_basis_three_equal_hub_paths():
    result = closed_form_basis(2, 4, 2)
    assert result.dimension == 3
    assert result.case.tag == "T4-P1"


def test_basis_degenerate_landmark_collision_is_completed():
    # (1, 2, 1): the generic second landmark lands on v_1; the hub steps in
    result = closed_form_basis(1, 2, 1)
    assert result.basis == (1, 2)
    assert is_resolving(build_c(1, 2, 1), result.basis)


def test_completed_basis_diverges_from_its_table():
    # The T4-P3a cells are written for the generic second landmark, v_1 at
    # (1, 2, 1), so measured from the completion's hub three of the four
    # vertices diverge; the sweep records each one.
    record = check_triple(1, 2, 1)
    assert record.case == "T4-P3a"
    assert [(m.vertex, m.formula, m.bfs, m.note) for m in record.table_mismatches] == [
        (1, (0, 0), (0, 1), ""),
        (2, (1, 1), (1, 0), ""),
        (4, (2, 2), (2, 1), ""),
    ]


def test_dimension_examples():
    assert closed_form_basis(3, 7, 3).dimension == 3
    assert closed_form_basis(3, 5, 2).dimension == 2
    assert closed_form_basis(1, 3, 1).dimension == 3


def test_dimension_predicates_agree_everywhere():
    # transcription guard: the per-case dispatch and the path-length
    # characterization must never disagree
    for p, q, r in valid_triples(20):
        assert closed_form_basis(p, q, r).dimension == dimension_by_path_lengths(p, q, r), (p, q, r)


def test_path_length_predicate_is_independent_of_the_dispatch(monkeypatch):
    def refuse(*args):
        raise AssertionError("dimension_by_path_lengths called the case dispatch")

    monkeypatch.setattr(closed_form, "_dispatch", refuse)
    assert [dimension_by_path_lengths(p, q, r) for p, q, r in ((3, 7, 3), (5, 3, 4), (2, 4, 4))] == [3, 2, 3]
    with pytest.raises(InvalidParamsError):
        dimension_by_path_lengths(1, 2, 0)


def swaps_outer_paths(p, q, r):
    """Whether the dispatch swaps the outer paths, by the rule in the
    caller's labels."""
    if p == r:
        return False
    if p == 0 or r == 0:  # an empty outer path
        return p == 0
    if q in (p, r):  # an outer path ties the middle
        return r == q
    return r > p


#: Each tag's region as linear constraints in the dispatch labels, with
#: d = q - r: a second statement of the dispatch, kept apart from it.
TAG_REGIONS = {
    "ZeroPath-P1": lambda p, q, r, d: r == 0 and p == 1,
    "ZeroPath-P2": lambda p, q, r, d: r == 0 and p >= 2,
    "T4-P1": lambda p, q, r, d: p == r >= 1 and d in (2, 4),
    "T4-P2": lambda p, q, r, d: p == r >= 1 and (d == 3 or d >= 5),
    "T4-P3a": lambda p, q, r, d: p == r >= 1 and d == 1,
    "T4-P3b": lambda p, q, r, d: p == r >= 1 and d <= 0,
    "T2-P1": lambda p, q, r, d: p == q and r >= 1 and r != p and d <= 1,
    "T2-P2": lambda p, q, r, d: p == q and r >= 1 and r != p and d == 2,
    "T2-P3": lambda p, q, r, d: p == q and r >= 1 and r != p and d >= 3,
    "T1-P1": lambda p, q, r, d: q > p > r >= 1 and d == 2,
    "T1-P2": lambda p, q, r, d: q > p > r >= 1 and d != 2 and p - r == 1,
    "T1-P3": lambda p, q, r, d: q > p > r >= 1 and d != 2 and p - r >= 2,
    "T3-P1": lambda p, q, r, d: p > q and p > r >= 1 and q != r and d <= 1,
    "T3-P2": lambda p, q, r, d: p > q and p > r >= 1 and q != r and d == 2,
    "T3-P3": lambda p, q, r, d: p > q and p > r >= 1 and q != r and d >= 3,
}


def test_tag_regions_state_the_dispatch():
    assert sorted(TAG_REGIONS) == sorted(CASE_TAGS)
    for p, q, r in valid_triples(60):
        swapped = swaps_outer_paths(p, q, r)
        params = (r, q, p) if swapped else (p, q, r)
        tags = [tag for tag, inside in TAG_REGIONS.items() if inside(*params, params[1] - params[2])]
        assert len(tags) == 1, (p, q, r, tags)
        assert closed_form._dispatch(p, q, r) == (tags[0], params, swapped), (p, q, r)


def test_dimension_three_families():
    for p in range(2, 8):  # every instance with at most 20 vertices
        if 3 * p - 1 <= 20:
            assert closed_form_basis(p - 1, p + 1, p - 1).dimension == 3  # three equal hub paths
        if 3 * p + 1 <= 20:
            assert closed_form_basis(p - 1, p + 1, p + 1).dimension == 3  # long outer arm
            assert closed_form_basis(p - 1, p + 3, p - 1).dimension == 3  # long middle arm


def test_swap_coherence():
    for p, q, r in valid_triples(14):
        assert closed_form_basis(p, q, r).dimension == closed_form_basis(r, q, p).dimension
        g = build_c(p, q, r)
        assert is_resolving(g, closed_form_basis(p, q, r).basis), (p, q, r)


def test_swapped_basis_pulls_back_through_inverse():
    # (2, 5, 3) dispatches through the swap; its basis must be the inverse
    # image of the basis computed on (3, 5, 2)
    direct = closed_form_basis(3, 5, 2).basis
    pulled = closed_form_basis(2, 5, 3).basis
    assert sorted(_swap(2, 5, 3, v) for v in pulled) == sorted(direct)


def test_overlapping_cells_are_ambiguous_only_when_they_disagree():
    # the (2, 3, 0) table spills one cell beyond its path segment
    assert formula_representation(2, 3, 0)[2] == "ambiguous"
    # In (2, 4, 0) two ZeroPath-P2 cells both claim (2, 3) for vertex 4,
    # which is also its BFS vector: an agreeing overlap keeps the claim.
    tag, params, swapped = closed_form._dispatch(2, 4, 0)
    landmarks, cells = closed_form._case(tag, *params)
    assert (tag, params, swapped) == ("ZeroPath-P2", (2, 4, 0), False)
    assert [fn(4) for lo, hi, fn in cells if lo <= 4 <= hi] == [(2, 3), (2, 3)]
    assert formula_representation(2, 4, 0)[3] == (2, 3)
    assert representation(all_pairs(build_c(2, 4, 0)), 4, landmarks) == (2, 3)


def test_formula_representation_examples():
    assert formula_representation(3, 4, 2)[0] == (0, 2)
    assert formula_representation(3, 7, 3)[0] == (0, 1, 3)


def test_formula_representation_zero_at_landmark_positions():
    for p, q, r in [(3, 4, 2), (3, 7, 3), (4, 4, 2), (5, 3, 4)]:
        claims = formula_representation(p, q, r)
        for i, w in enumerate(closed_form_basis(p, q, r).landmarks):
            assert claims[w - 1][i] == 0


def test_formula_matches_bfs_on_clean_instances():
    clean = [(1, 4, 0), (3, 5, 0), (3, 4, 2), (3, 5, 2), (3, 6, 1), (3, 3, 4),
             (4, 4, 2), (4, 4, 1), (5, 4, 2), (6, 4, 1), (3, 7, 3), (2, 5, 2),
             (3, 4, 3), (3, 3, 3)]
    for p, q, r in clean:
        g = build_c(p, q, r)
        D = all_pairs(g)
        landmarks = closed_form_basis(p, q, r).landmarks
        claims = formula_representation(p, q, r)
        assert len(claims) == g.n
        for v in range(1, g.n + 1):
            assert claims[v - 1] == representation(D, v, landmarks), (p, q, r, v)


def test_formula_divergence_on_dominant_outer_middle_cells():
    # known off-by-one in the dominant-outer table: the two middle-path
    # vertices past the first hub claim a second coordinate one too small
    g = build_c(5, 3, 4)
    D = all_pairs(g)
    landmarks = closed_form_basis(5, 3, 4).landmarks
    diffs = {}
    for v, claimed in enumerate(formula_representation(5, 3, 4), start=1):
        ground = representation(D, v, landmarks)
        if claimed != ground:
            diffs[v] = (claimed, ground)
    assert diffs == {
        7: ((2, 2), (2, 3)),
        8: ((3, 1), (3, 2)),
    }


def t3_p1_triples(max_n):
    """The distinct T3-P1 triples in dispatch labelling with n <= max_n."""
    dispatched = map(closed_form._dispatch, *zip(*valid_triples(max_n)))
    return sorted({triple for tag, triple, _ in dispatched if tag == "T3-P1"})


def t3_p1_boundary(p, q, r, corrected):
    """Cells 2 and 3 of T3-P1, ``(lo, hi, formula)``.  The literal table
    writes both bounds with ceil((p-q)/2); the corrected ones take
    floor((p-q)/2), as T3-P2 and T4-P3b do.  The formulas stay literal."""
    _, cells = closed_form._case("T3-P1", p, q, r)
    if not corrected:
        return cells[1:3]
    m, k = (p + q) // 2, (p - q) // 2
    return [(m + 1, p - k, cells[1][2]), (p + 1 - k, p, cells[2][2])]


def test_t3_p1_literal_cell_2_is_empty():
    # p - ceil((p-q)/2) = floor((p+q)/2) = m, so cell 2 runs from m + 1 to m
    # and cell 3 takes every vertex from m + 1 to p.
    triples = t3_p1_triples(40)
    assert len(triples) == 1359
    for p, q, r in triples:
        (lo2, hi2, _), (lo3, hi3, _) = t3_p1_boundary(p, q, r, corrected=False)
        m = (p + q) // 2
        assert (lo2, hi2, lo3, hi3) == (m + 1, m, m + 1, p), (p, q, r)


@pytest.mark.parametrize("max_n", [32, pytest.param(60, marks=pytest.mark.slow)])
def test_t3_p1_corrected_cells_2_and_3_agree_with_bfs(max_n):
    for p, q, r in t3_p1_triples(max_n):
        g = build_c(p, q, r)
        rows = [g.distance_row(w) for w in closed_form._case("T3-P1", p, q, r)[0]]
        covered = []
        for lo, hi, fn in t3_p1_boundary(p, q, r, corrected=True):
            for a in range(lo, hi + 1):
                assert fn(a) == tuple(row[a - 1] for row in rows), (p, q, r, a)
                covered.append(a)
        assert covered == list(range((p + q) // 2 + 1, p + 1)), (p, q, r)


def test_t3_p1_cell_3_mismatches_are_the_vertices_the_correction_moves():
    # With p + q odd the corrected cell 2 is {m + 1}; the literal cell 3
    # claims p + q + 1 - A = m + 1 there as the first coordinate, one more
    # than the distance m to vertex 1.
    # Vertices are compared in dispatch labelling, per sweep record.
    in_cell_3, moved = set(), set()
    for record in sweep(32).records:
        if record.case != "T3-P1":
            continue
        triple = (record.p, record.q, record.r)
        p, q, r = triple[::-1] if record.swapped else triple
        literal, corrected = (
            {a for lo, hi, _ in t3_p1_boundary(p, q, r, fixed)[:1] for a in range(lo, hi + 1)}
            for fixed in (False, True)
        )
        moved |= {(triple, a) for a in corrected - literal}
        _, (lo3, hi3, _) = t3_p1_boundary(p, q, r, corrected=False)
        for entry in record.table_mismatches:
            a = _swap(*triple, entry.vertex) if record.swapped else entry.vertex
            if lo3 <= a <= hi3:
                in_cell_3.add((triple, a))
    assert in_cell_3 == moved
    assert len(moved) == 652


def test_formula_representation_for_swapped_dispatch():
    # swapped triples evaluate the table in the mirrored labeling; distances
    # must still match BFS in the caller's labeling (triples chosen from
    # divergence-free tables)
    for p, q, r in [(2, 5, 3), (1, 5, 3), (1, 3, 4), (1, 4, 4)]:
        result = closed_form_basis(p, q, r)
        assert result.case.swapped
        g = build_c(p, q, r)
        D = all_pairs(g)
        for v, claimed in enumerate(formula_representation(p, q, r), start=1):
            if isinstance(claimed, str):
                continue
            assert claimed == representation(D, v, result.landmarks), (p, q, r, v)


def pulled_back_table(p, q, r):
    """The landmarks and claims of (p, q, r) as its case table states them,
    pulled back one vertex at a time through the swap when it dispatches
    through one."""
    tag, (pp, qq, rr), swapped = closed_form._dispatch(p, q, r)
    landmarks, cells = closed_form._case(tag, pp, qq, rr)
    if tag == "T4-P3a" and pp == 1:
        landmarks = (1, 2)  # C_{1,2,1}: the hub v_2 completes the basis
    n = p + q + r
    claimed = [set() for _ in range(n)]
    for lo, hi, fn in cells:
        for a in range(max(lo, 1), min(hi, n) + 1):
            claimed[a - 1].add(fn(a))
    entries = ["uncovered" if not c else c.pop() if len(c) == 1 else "ambiguous" for c in claimed]
    if swapped:
        landmarks = tuple(_swap(r, q, p, w) for w in landmarks)
        entries = [entries[_swap(p, q, r, v) - 1] for v in range(1, n + 1)]
    return landmarks, tuple(entries)


def test_tables_pull_back_through_the_swap():
    # A swapped triple's claims are three slices of its mirror's table; they
    # must be what pulling the table back one vertex at a time gives.
    for p, q, r in valid_triples(40):
        landmarks, claims = pulled_back_table(p, q, r)
        assert closed_form_basis(p, q, r).landmarks == landmarks, (p, q, r)
        assert formula_representation(p, q, r) == claims, (p, q, r)


def test_swapped_landmarks_cost_no_per_vertex_work():
    # the swap pulls the 2-3 landmarks back one at a time, so a swapped
    # triple with a million vertices allocates no per-vertex map
    tracemalloc.start()
    try:
        result = closed_form_basis(1, 5, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.basis == (7, 500007) and result.case.tag == "T3-P3"
    assert peak < 2**20, peak


@pytest.fixture
def cell_calls(monkeypatch):
    """The number of cell formulas evaluated, over every case built."""
    calls = []
    case = closed_form._case

    def counting(tag, p, q, r):
        landmarks, cells = case(tag, p, q, r)
        return landmarks, [(lo, hi, counted(fn)) for lo, hi, fn in cells]

    def counted(fn):
        def formula(A):
            calls.append(A)
            return fn(A)
        return formula

    monkeypatch.setattr(closed_form, "_case", counting)
    return calls


def test_basis_evaluates_no_cell_formula(cell_calls):
    # the landmark networks ask only for the basis; the table is the sweep's
    for p, q, r in valid_triples(14):
        closed_form_basis(p, q, r)
    closed_form_basis(300, 400, 500)
    assert cell_calls == []
    formula_representation(3, 7, 3)
    assert len(cell_calls) >= 13


def test_check_triple_builds_one_case(monkeypatch):
    tags = []
    case = closed_form._case

    def counting(tag, p, q, r):
        tags.append(tag)
        return case(tag, p, q, r)

    monkeypatch.setattr(closed_form, "_case", counting)
    for p, q, r in valid_triples(10):
        tags.clear()
        record = check_triple(p, q, r)
        assert tags == [record.case], (p, q, r)
