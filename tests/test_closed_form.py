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


def test_partition_reports_overlap_as_lookup_error():
    # the (2, 3, 0) table spills one cell beyond its path segment
    assert formula_representation(2, 3, 0)[2] == "ambiguous"


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
