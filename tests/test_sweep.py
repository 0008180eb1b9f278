"""Sweep harness: enumeration, determinism, reports, and self-consistency."""

import csv
import dataclasses
import hashlib
import importlib
import io
import json
from collections import Counter, defaultdict
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadim import (
    SweepRecord,
    SweepReport,
    TableMismatch,
    bfs_distances,
    build_c,
    check_triple,
    closed_form,
    emit_report,
    is_minimal_resolving,
    is_resolving,
    metric_dimension_oracle,
    parse_report,
    sweep,
    theta,
    to_theta_lengths,
    valid_triples,
)

from conftest import class_labels

#: The module, which the package's ``sweep`` function shadows as an attribute.
sweep_module = importlib.import_module("thetadim.sweep")


def test_smallest_order_enumeration():
    assert list(valid_triples(4)) == [(0, 3, 1), (1, 2, 1), (1, 3, 0)]


def test_enumeration_is_ordered():
    triples = list(valid_triples(12))
    keyed = [(p + q + r, p, q, r) for p, q, r in triples]
    assert keyed == sorted(keyed)


def test_empty_range_gives_empty_report():
    report = sweep(3)
    assert report.records == ()
    assert report.summary.records == 0


def test_sweep_is_deterministic():
    a = emit_report(sweep(9))
    b = emit_report(sweep(9))
    assert a == b


@pytest.mark.parametrize("max_n", [7, 32, pytest.param(60, marks=pytest.mark.slow)])
def test_records_are_reproducible(max_n):
    # The sweep checks one triple of each mirror pair and derives the other's
    # record by the swap; check_triple checks every triple directly, in its
    # own labels.  Up to n = 7 each dimension is also the witness oracle's on
    # the triple's own graph.  About 0.7 s at 32.
    report = sweep(max_n)
    for rec in report.records:
        p, q, r = rec.p, rec.q, rec.r
        assert check_triple(p, q, r) == rec, (p, q, r)
        if rec.n <= 7:
            assert metric_dimension_oracle(build_c(p, q, r)).dimension == rec.oracle_dim


def test_midrange_sweep_has_no_dimension_or_basis_failures():
    report = sweep(13)
    assert report.summary.records == 330
    assert report.summary.dimension_mismatches == 0
    assert report.summary.basis_failures == 0
    assert all(rec.basis_minimal for rec in report.records)
    by_params = {(rec.p, rec.q, rec.r): rec for rec in report.records}
    equal_arms = by_params[(3, 7, 3)]
    assert equal_arms.oracle_dim == 3
    assert equal_arms.formula_dim == 3
    assert equal_arms.basis_ok
    assert equal_arms.case == "T4-P1"


def test_oracle_dimension_is_one_per_isomorphism_class():
    # The sweep settles the dimension once per class of sorted hub-to-hub
    # path lengths; here the oracle runs on every labelling, so a class whose
    # labellings disagreed would show.
    dims = defaultdict(set)
    by_params = {}
    for p, q, r in valid_triples(16):
        dim = metric_dimension_oracle(build_c(p, q, r)).dimension
        dims[tuple(sorted(to_theta_lengths(p, q, r)))].add(dim)
        by_params[(p, q, r)] = dim
    assert len(by_params) == 637 and len(dims) == 132
    assert all(len(found) == 1 for found in dims.values())
    report = sweep(16)
    assert {(rec.p, rec.q, rec.r): rec.oracle_dim for rec in report.records} == by_params


@pytest.fixture
def dimension_searches(monkeypatch):
    """The graph of every class-dimension search the sweep module runs, in
    order: the oracle's search, bounded by a resolving basis or not."""
    graphs = []
    search = sweep_module._search

    def counting(g, below):
        graphs.append(g)
        return search(g, below)

    monkeypatch.setattr(sweep_module, "_search", counting)
    return graphs


def test_sweep_runs_the_oracle_once_per_isomorphism_class(dimension_searches):
    report = sweep(12)
    assert len(report.records) == 255
    assert len(dimension_searches) == 56


def test_check_triple_runs_the_oracle_on_every_call(dimension_searches):
    for _ in range(2):
        check_triple(0, 3, 1)
        check_triple(1, 2, 1)  # the same class as (0, 3, 1)
    assert len(dimension_searches) == 4


def assert_dimensions_are_the_oracles(report):
    """Assert that every record's dimension is the witness oracle's on its
    class, run once per class; return the number of classes."""
    by_class = {}
    for rec in report.records:
        lengths = tuple(sorted(to_theta_lengths(rec.p, rec.q, rec.r)))
        if lengths not in by_class:
            by_class[lengths] = metric_dimension_oracle(build_c(rec.p, rec.q, rec.r)).dimension
        assert rec.oracle_dim == by_class[lengths], (rec.p, rec.q, rec.r)
    return len(by_class)


def test_sweep_dimensions_are_the_oracles_to_24():
    assert assert_dimensions_are_the_oracles(sweep(24)) == 435


def test_dimension_two_record_reads_only_its_landmark_and_vertex_1_rows(bfs_sources):
    record = check_triple(2, 5, 3)
    assert record.basis == (8, 10) and record.basis_ok
    assert record.oracle_dim == 2
    # The rows come from the class graph C_{3,5,2}, where landmarks 8 and 10
    # are vertices 5 and 7.  The basis resolves, and only a path has
    # dimension 1, so the search tests no candidate; it reads row 1 only to
    # check that the graph is connected.
    assert theta._class_labels(2, 5, 3)[0] == (3, 5, 2)
    assert sorted(bfs_sources) == [1, 5, 7]


def test_sweep_reads_each_triples_own_bfs_rows(monkeypatch):
    # With every claim "uncovered", the table diff lists every vertex with the
    # BFS vector it read, sliced from the class vectors: it must be the vector
    # of the triple's own graph to the triple's closed-form landmarks.
    forms = sweep_module._closed_form

    def uncovered(p, q, r):
        result, _ = forms(p, q, r)
        return result, lambda: ("uncovered",) * (p + q + r)

    monkeypatch.setattr(sweep_module, "_closed_form", uncovered)
    report = sweep(24)
    assert len(report.records) == 2233
    for rec in report.records:
        g = build_c(rec.p, rec.q, rec.r)
        rows = [bfs_distances(g, w) for w in closed_form.closed_form_basis(rec.p, rec.q, rec.r).landmarks]
        expected = [TableMismatch(v, None, vector, "uncovered") for v, vector in enumerate(zip(*rows), start=1)]
        assert list(rec.table_mismatches) == expected, (rec.p, rec.q, rec.r)


def test_sweep_checks_resolution_once_per_class_landmark_set(monkeypatch):
    # Resolution and minimality depend only on where the landmarks land in
    # the class graph, so a sweep checks each class landmark set of the
    # triples it checks, those with p <= r, once; a second sweep checks every
    # set again.
    checks = []
    resolves = sweep_module._resolves

    def counting(rows, n):
        checks.append(n)
        return resolves(rows, n)

    monkeypatch.setattr(sweep_module, "_resolves", counting)
    landmark_sets = set()
    for p, q, r in valid_triples(12):
        if p > r:
            continue
        key, labels = class_labels(p, q, r)
        landmarks = closed_form.closed_form_basis(p, q, r).landmarks
        landmark_sets.add((key, tuple(labels[w - 1] for w in landmarks)))
    assert len(landmark_sets) == 109
    sweep(12)
    assert len(checks) == len(landmark_sets)
    sweep(12)
    assert len(checks) == 2 * len(landmark_sets)


def test_a_resolving_pair_of_landmarks_is_minimal():
    # Only a path has a resolving vertex, and no theta graph is a path, so
    # the sweep marks a resolving pair minimal without testing it; here the
    # verdict is computed by dropping each landmark on the triple's graph.
    pairs = [rec for rec in sweep(32).records if len(rec.basis) == 2 and rec.basis_ok]
    assert len(pairs) == 5328
    for rec in pairs:
        assert rec.basis_minimal, (rec.p, rec.q, rec.r)
        assert is_minimal_resolving(build_c(rec.p, rec.q, rec.r), rec.basis), (rec.p, rec.q, rec.r)


def test_sweep_tests_minimality_of_resolving_three_landmark_sets_only(monkeypatch):
    # A sweep tests the minimality of each resolving class landmark set of
    # three landmarks once, and of no pair.
    sizes = []
    minimal = sweep_module._minimal

    def counting(rows, n):
        sizes.append(len(rows))
        return minimal(rows, n)

    monkeypatch.setattr(sweep_module, "_minimal", counting)
    resolving = set()
    for p, q, r in valid_triples(12):
        if p > r:
            continue
        key, labels = class_labels(p, q, r)
        images = tuple(labels[w - 1] + 1 for w in closed_form.closed_form_basis(p, q, r).landmarks)
        if is_resolving(build_c(*key), images):
            resolving.add((key, images))
    by_size = Counter(len(images) for _, images in resolving)
    assert by_size == {2: 102, 3: 7}
    sweep(12)
    assert sizes == [3] * by_size[3]


def test_sweep_builds_one_graph_per_isomorphism_class(monkeypatch):
    built = []
    build = sweep_module.build_c

    def counting(p, q, r):
        built.append((p, q, r))
        return build(p, q, r)

    monkeypatch.setattr(sweep_module, "build_c", counting)
    report = sweep(12)
    assert len(report.records) == 255
    assert len(built) == len(set(built)) == 56


def test_sweep_evaluates_each_case_table_once_per_sweep(monkeypatch):
    # A triple and its mirror (r, q, p) dispatch to one case table, which a
    # sweep builds once; a second sweep builds every table again.
    built = []
    case = closed_form._case

    def counting(tag, p, q, r):
        built.append((tag, p, q, r))
        return case(tag, p, q, r)

    monkeypatch.setattr(closed_form, "_case", counting)
    tables = {closed_form._dispatch(*triple)[:2] for triple in valid_triples(12)}
    assert len(tables) < len(list(valid_triples(12)))
    sweep(12)
    assert len(built) == len(tables)
    sweep(12)
    assert len(built) == 2 * len(tables)


def test_sweep_checks_each_mirror_pair_once(monkeypatch):
    # Of a triple and its mirror (r, q, p) the sweep checks the first and
    # derives the other's record by the swap; a triple with p = r is its own
    # mirror.  A second sweep checks every pair again.
    checked = []
    check = sweep_module._check

    def counting(p, q, r, classes):
        checked.append((p, q, r))
        return check(p, q, r, classes)

    monkeypatch.setattr(sweep_module, "_check", counting)
    pairs = {min((p, q, r), (r, q, p)) for p, q, r in valid_triples(12)}
    assert len(pairs) == 140 and sum(p == r for p, _, r in pairs) == 25
    assert len(sweep(12).records) == 255
    assert sorted(checked) == sorted(pairs)
    sweep(12)
    assert len(checked) == 2 * len(pairs)


def with_landmarks(monkeypatch, triple, landmarks):
    """Make the sweep's closed form give ``landmarks`` for ``triple``, and
    their swap images for its mirror ``(r, q, p)``; the dimension is their
    count, and every other triple is left as it is."""
    closed_form = sweep_module._closed_form
    p, q, r = triple
    patches = {triple: landmarks, (r, q, p): tuple(theta._swap(p, q, r, w) for w in landmarks)}

    def patched(p, q, r):
        result, claims = closed_form(p, q, r)
        if (p, q, r) in patches:
            result = dataclasses.replace(result, landmarks=patches[p, q, r])
        return result, claims

    monkeypatch.setattr(sweep_module, "_closed_form", patched)


def record_of(report, triple):
    return next(rec for rec in report.records if (rec.p, rec.q, rec.r) == triple)


def test_a_basis_that_does_not_resolve_gets_the_full_oracle(monkeypatch):
    # (3, 5, 5) has dimension 3 and is the first triple of its class, so the
    # sweep's search for the class runs on it.  No pair resolves it; had the
    # pair bounded the search, the class would get dimension 2.
    assert metric_dimension_oracle(build_c(3, 5, 5)).dimension == 3
    # Its mirror (5, 5, 3) gets the swap images of the pair, (1, 2), and the
    # same verdicts.
    with_landmarks(monkeypatch, (3, 5, 5), (9, 10))
    report = sweep(13)
    record = record_of(report, (3, 5, 5))
    assert not record.basis_ok and not record.basis_minimal
    assert (record.formula_dim, record.oracle_dim) == (2, 3)
    assert check_triple(3, 5, 5) == record
    mirror = record_of(report, (5, 5, 3))
    assert mirror.basis == (1, 2) and not mirror.basis_ok
    assert check_triple(5, 5, 3) == mirror
    assert (report.summary.dimension_mismatches, report.summary.basis_failures) == (2, 2)
    assert assert_dimensions_are_the_oracles(report) > 1


def test_the_landmark_memo_leaks_no_verdict(monkeypatch):
    # (3, 5, 5) is the first triple of its class at n = 13, which (3, 7, 3)
    # and (5, 5, 3) share.  Landmarks that do not resolve it change its own
    # record and the record derived from it for its mirror (5, 5, 3) alone:
    # (3, 7, 3), checked later, reads only the verdict of its own landmarks'
    # images.
    plain = sweep(13)
    with_landmarks(monkeypatch, (3, 5, 5), (9, 10))
    patched = sweep(13)
    changed = [(a.p, a.q, a.r) for a, b in zip(plain.records, patched.records, strict=True) if a != b]
    assert changed == [(3, 5, 5), (5, 5, 3)]
    assert check_triple(5, 5, 3) == record_of(patched, (5, 5, 3))


def test_a_resolving_basis_above_the_dimension_is_a_mismatch(monkeypatch):
    # (2, 5, 3) has dimension 2 and is the first triple of its class; three
    # landmarks that resolve it bound its search by 3, which finds size 2.
    # Its mirror (3, 5, 2) gets the swap images, (9, 1, 3), and the same
    # verdicts.
    with_landmarks(monkeypatch, (2, 5, 3), (1, 8, 10))
    report = sweep(10)
    record = record_of(report, (2, 5, 3))
    assert record.basis_ok and not record.basis_minimal
    assert (record.formula_dim, record.oracle_dim) == (3, 2)
    assert check_triple(2, 5, 3) == record
    mirror = record_of(report, (3, 5, 2))
    assert mirror.basis == (1, 3, 9) and mirror.basis_ok and not mirror.basis_minimal
    assert check_triple(3, 5, 2) == mirror
    assert (report.summary.dimension_mismatches, report.summary.basis_failures) == (2, 0)
    assert assert_dimensions_are_the_oracles(report) > 1


def indent2_json(report):
    """The JSON report as the standard library's encoder writes it."""
    payload = {
        "schema": "thetadim-sweep/1",
        "max_n": report.max_n,
        "filters": None,
        "summary": asdict(report.summary),
        "records": [{k: v for k, v in asdict(rec).items() if k != "elapsed"} for rec in report.records],
    }
    return json.dumps(payload, indent=2) + "\n"


def test_empty_report_layout():
    report = sweep(3)
    text = emit_report(report)
    assert text == """{
  "schema": "thetadim-sweep/1",
  "max_n": 3,
  "filters": null,
  "summary": {
    "records": 0,
    "agreements": 0,
    "dimension_mismatches": 0,
    "basis_failures": 0,
    "table_mismatch_entries": 0
  },
  "records": []
}
"""
    assert text == indent2_json(report)
    assert parse_report(text) == report


def test_empty_mismatch_list_and_null_formula_layouts():
    clean, ambiguous = check_triple(0, 4, 1), check_triple(0, 3, 2)
    assert clean.table_mismatches == ()
    assert ambiguous.table_mismatches == (TableMismatch(vertex=1, formula=None, bfs=(1, 2), note="ambiguous"),)
    report = SweepReport(max_n=5, records=(clean, ambiguous))
    text = emit_report(report)
    assert '      "table_mismatches": []\n    },\n' in text
    assert """      "table_mismatches": [
        {
          "vertex": 1,
          "formula": null,
          "bfs": [
            1,
            2
          ],
          "note": "ambiguous"
        }
      ]
    }
""" in text
    assert text == indent2_json(report)
    assert parse_report(text) == report


_int_tuples = st.lists(st.integers(), max_size=3).map(tuple)
_mismatches = st.builds(
    TableMismatch,
    vertex=st.integers(),
    formula=st.none() | _int_tuples,
    bfs=_int_tuples,
    note=st.text(max_size=4),
)
_records = st.builds(
    SweepRecord,
    p=st.integers(),
    q=st.integers(),
    r=st.integers(),
    n=st.integers(),
    case=st.text(max_size=6),
    swapped=st.booleans(),
    formula_dim=st.integers(),
    oracle_dim=st.integers(),
    basis=_int_tuples,
    basis_ok=st.booleans(),
    basis_minimal=st.booleans(),
    table_mismatches=st.lists(_mismatches, max_size=3).map(tuple),
)


@settings(deadline=None)
@given(st.builds(SweepReport, max_n=st.integers(), records=st.lists(_records, max_size=3).map(tuple)))
def test_json_report_is_the_standard_encoders_text(report):
    assert emit_report(report) == indent2_json(report)


def test_json_round_trip_on_empty_report():
    report = sweep(3)
    assert parse_report(emit_report(report)) == report


def test_json_round_trip_preserves_records():
    report = sweep(8)
    parsed = parse_report(emit_report(report))
    assert parsed == report
    assert parsed.records == report.records


def test_parse_rejects_unknown_schema():
    with pytest.raises(ValueError):
        parse_report('{"schema": "other/9", "records": []}')


def test_parse_rejects_filters():
    payload = json.loads(emit_report(sweep(5)))
    payload["filters"] = "cases=T4-P1"
    with pytest.raises(ValueError, match="filters"):
        parse_report(json.dumps(payload))


def edited_report(*path, value):
    """The JSON report of ``sweep(4)`` with the value at ``path`` replaced."""
    payload = json.loads(emit_report(sweep(4)))
    *parents, key = path
    obj = payload
    for step in parents:
        obj = obj[step]
    obj[key] = value
    return json.dumps(payload)


@pytest.mark.parametrize("text, message", [
    ("[1]", "not a JSON object"),
    ('{"schema": "thetadim-sweep/1"}', r"KeyError\('filters'\)"),
    ('{"schema": "thetadim-sweep/1", "max_n": 3, "filters": null, "summary": {}}', r"KeyError\('records'\)"),
    ('{"schema": "thetadim-sweep/1", "max_n": 3, "filters": null, "summary": {}, "records": [[4]]}',
     "malformed report: TypeError"),
    (edited_report("max_n", value="four"), "malformed report: TypeError.*'four'"),
    (edited_report("records", 0, "basis", value="x"), "malformed report: TypeError.*'x'"),
    (edited_report("records", 0, "formula_dim", value=None), "malformed report: TypeError.*None"),
    (edited_report("records", 0, "swapped", value=1), "malformed report: TypeError.*expected bool"),
    (edited_report("summary", "records", value=True), "malformed report: TypeError.*expected int"),
    (edited_report("records", 0, "q", value=3.0), "malformed report: TypeError.*3.0"),
    (edited_report("records", 0, "table_mismatches", 0, "formula", value=["1", 2]),
     "malformed report: TypeError.*'1'"),
    (edited_report("records", 0, "table_mismatches", 0, "note", value=None),
     "malformed report: TypeError.*None"),
    (edited_report("comment", value="x"), r"malformed report: TypeError.*unknown report keys \['comment'\]"),
    (edited_report("summary", "skipped", value=0),
     r"malformed report: TypeError.*unknown SweepSummary keys \['skipped'\]"),
    (edited_report("records", 0, "params", value=[0, 3, 1]),
     r"malformed report: TypeError.*unknown SweepRecord keys \['params'\]"),
    (edited_report("records", 0, "table_mismatches", 0, "distance", value=1),
     r"malformed report: TypeError.*unknown TableMismatch keys \['distance'\]"),
    (edited_report("summary", "records", value=99), "summary .*records=99.* does not tally"),
    (edited_report("summary", "table_mismatch_entries", value=0),
     "summary .*table_mismatch_entries=0.* does not tally"),
], ids=["not-an-object", "no-filters", "no-records", "record-not-an-object", "max-n-string",
        "basis-string", "formula-dim-null", "swapped-int", "summary-bool", "param-float",
        "mismatch-formula-string", "mismatch-note-null", "unknown-report-key", "unknown-summary-key",
        "unknown-record-key", "unknown-mismatch-key", "summary-does-not-tally", "summary-entries-do-not-tally"])
def test_parse_rejects_malformed_reports(text, message):
    with pytest.raises(ValueError, match=message):
        parse_report(text)


def test_csv_shape():
    report = sweep(6)
    rows = list(csv.reader(io.StringIO(emit_report(report, fmt="csv"))))
    assert rows[0][:4] == ["p", "q", "r", "n"]
    assert len(rows) == 1 + len(report.records)
    first = report.records[0]
    assert rows[1][:3] == [str(first.p), str(first.q), str(first.r)]
    assert rows[1][4] == first.case


#: SHA-256 of the n <= 12 reports as the original serializer wrote them; a
#: change to the serializers must leave these bytes as they are.
REPORT_SHA256_N12 = {
    "json": "a5582937751d46dd0dccf1b852bd4b232899b45e55d75d29af3ab4bd8a0e8a4c",
    "csv": "f66bc1d112f135f1ee6375b592e66dd101f082d38400cf5cfba71b5f5dd33820",
}


def test_report_bytes_are_pinned():
    report = sweep(12)
    for fmt, digest in REPORT_SHA256_N12.items():
        assert hashlib.sha256(emit_report(report, fmt).encode()).hexdigest() == digest, fmt


def test_report_bytes_match_the_benchmark_pins():
    # The benchmark pins the n <= 24 summary and report digests; a speed-up
    # must leave every report byte as it is.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
    pin = json.loads(path.read_text())["sweep"]["24"]
    report = sweep(24)
    assert asdict(report.summary) == pin["summary"]
    for fmt in ("json", "csv"):
        assert hashlib.sha256(emit_report(report, fmt).encode()).hexdigest() == pin[f"{fmt}_sha256"], fmt


#: Summary and report SHA-256s of the n <= 32 sweep, past the benchmark's
#: n <= 24: a speed-up must leave these bytes as they are too.
SUMMARY_N32 = {
    "records": 5365,
    "agreements": 5365,
    "dimension_mismatches": 0,
    "basis_failures": 0,
    "table_mismatch_entries": 4721,
}
REPORT_SHA256_N32 = {
    "json": "e52c78fca13ec68175b7c6cbc2ffe440c2a10bbac951ac5e78f1de5748016bdc",
    "csv": "f87326ec0b2c858baf3215db4961a928be53df3c4b609176bc8647f16edb3f9b",
}


#: The same for n <= 40, the CLI's largest sweep.
SUMMARY_N40 = {
    "records": 10545,
    "agreements": 10545,
    "dimension_mismatches": 0,
    "basis_failures": 0,
    "table_mismatch_entries": 11521,
}
REPORT_SHA256_N40 = {
    "json": "2236bc9adc77fa8e24e08754e5527208f5e298d9c0d011a89fc91bbb9c270bfe",
    "csv": "a48ca116a3cd397113a16c386c49a31308e57886a0059d0c418850a82c470f3a",
}


def assert_report_is_pinned(report, summary, digests):
    assert asdict(report.summary) == summary
    for fmt, digest in digests.items():
        assert hashlib.sha256(emit_report(report, fmt).encode()).hexdigest() == digest, fmt


def test_report_bytes_are_pinned_to_32():
    report = sweep(32)
    assert_report_is_pinned(report, SUMMARY_N32, REPORT_SHA256_N32)
    assert parse_report(emit_report(report)) == report


def test_report_bytes_are_pinned_to_40():
    # about 1.5 s with its reports
    assert_report_is_pinned(sweep(40), SUMMARY_N40, REPORT_SHA256_N40)


@pytest.mark.slow
def test_sweep_to_60_agrees_everywhere():
    # the verified range of ROADMAP item 1, each class's dimension checked
    # against the witness oracle; about 12 s, so marked slow
    report = sweep(60)
    assert asdict(report.summary) == {
        "records": 35815,
        "agreements": 35815,
        "dimension_mismatches": 0,
        "basis_failures": 0,
        "table_mismatch_entries": 58545,
    }
    assert assert_dimensions_are_the_oracles(report) == 6396


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(sweep(3), fmt="xml")


def test_elapsed_excluded_from_equality_and_serialization():
    report = sweep(5)
    assert all(rec.elapsed >= 0 for rec in report.records)
    assert '"elapsed"' not in emit_report(report)


def test_check_triple_runs_one_bfs_per_vertex(bfs_sources):
    record = check_triple(3, 7, 3)
    assert record.oracle_dim == 3
    assert record.basis_ok and record.basis_minimal
    # C_{3,7,3} has dimension 3, so the search below its three landmarks
    # tests every pair of vertices and reads every row; the basis,
    # minimality and table checks read their rows first, and the search
    # reuses them instead of running BFS again.
    assert sorted(bfs_sources) == list(range(1, record.n + 1))


def test_early_witness_computes_only_the_rows_it_reads(bfs_sources):
    assert metric_dimension_oracle(build_c(4, 4, 4)).witness == (1, 4)
    bfs_sources.clear()
    record = check_triple(4, 4, 4)
    # The basis (1, 4) resolves, so the search below it tests no candidate:
    # the record reads rows 1 and 4 only, and no row is computed twice.
    assert len(bfs_sources) == len(set(bfs_sources)) < record.n
