"""Sweep harness: enumeration, determinism, reports, and self-consistency."""

import csv
import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from thetadim import (
    build_c,
    check_triple,
    emit_report,
    metric_dimension_oracle,
    parse_report,
    recompute_summary,
    sweep,
    valid_triples,
)


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


def test_records_are_reproducible():
    report = sweep(7)
    for rec in report.records:
        p, q, r = rec.params
        assert check_triple(p, q, r) == rec
        assert metric_dimension_oracle(build_c(p, q, r)).dimension == rec.oracle_dim


def test_summary_matches_recount():
    report = sweep(10)
    assert report.summary == recompute_summary(report.records)


def test_midrange_sweep_has_no_dimension_or_basis_failures():
    report = sweep(13)
    assert report.summary.records == 330
    assert report.summary.dimension_mismatches == 0
    assert report.summary.basis_failures == 0
    assert all(rec.basis_minimal for rec in report.records)
    by_params = {rec.params: rec for rec in report.records}
    equal_arms = by_params[(3, 7, 3)]
    assert equal_arms.oracle_dim == 3
    assert equal_arms.formula_dim == 3
    assert equal_arms.basis_ok
    assert equal_arms.case == "T4-P1"


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
], ids=["not-an-object", "no-filters", "no-records", "record-not-an-object", "max-n-string",
        "basis-string", "formula-dim-null", "swapped-int", "summary-bool", "param-float",
        "mismatch-formula-string", "mismatch-note-null"])
def test_parse_rejects_malformed_reports(text, message):
    with pytest.raises(ValueError, match=message):
        parse_report(text)


def test_csv_shape():
    report = sweep(6)
    rows = list(csv.reader(io.StringIO(emit_report(report, fmt="csv"))))
    assert rows[0][:4] == ["p", "q", "r", "n"]
    assert len(rows) == 1 + len(report.records)
    first = report.records[0]
    assert rows[1][0] == str(first.params[0])
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


def test_report_bytes_are_pinned_to_32():
    report = sweep(32)
    assert asdict(report.summary) == SUMMARY_N32
    for fmt, digest in REPORT_SHA256_N32.items():
        assert hashlib.sha256(emit_report(report, fmt).encode()).hexdigest() == digest, fmt
    assert parse_report(emit_report(report)) == report


@pytest.mark.slow
def test_sweep_to_60_agrees_everywhere():
    # the verified range of ROADMAP item 1; about 30 s, so marked slow
    summary = sweep(60).summary
    assert asdict(summary) == {
        "records": 35815,
        "agreements": 35815,
        "dimension_mismatches": 0,
        "basis_failures": 0,
        "table_mismatch_entries": 58545,
    }


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
    # C_{3,7,3} has dimension 3, so the oracle tests every pair of vertices
    # and reads every row; the basis, minimality and table checks reuse them
    # instead of running BFS again.
    assert sorted(bfs_sources) == list(range(1, record.n + 1))


def test_early_witness_computes_only_the_rows_it_reads(bfs_sources):
    assert metric_dimension_oracle(build_c(4, 4, 4)).witness == (1, 4)
    bfs_sources.clear()
    record = check_triple(4, 4, 4)
    # The oracle stops at the witness (1, 4) having read rows 1..4 only; the
    # other checks reuse memoised rows, so no row is computed twice.
    assert len(bfs_sources) == len(set(bfs_sources)) < record.n
