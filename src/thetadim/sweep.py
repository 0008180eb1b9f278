"""Verification harness: closed-form claims against the exhaustive oracle.

For every valid (p, q, r) in range the sweep compares the formula dimension
with the oracle dimension, checks the closed-form basis for resolution and
minimality, and diffs every table-claimed distance vector against BFS.
Discrepancies never abort a sweep; they become first-class report entries,
since auditing the formulas is the point of the harness.

Reports serialize to JSON (schema ``thetadim-sweep/1``) and CSV.  Per-record
wall-clock times are kept in memory for diagnostics but excluded from both
serialization and equality, so identical ranges produce byte-identical
reports.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import time
import types
import typing
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .closed_form import _closed_form
from .resolve import _landmark_rows, _minimal, _resolves, metric_dimension_oracle
from .theta import build_c, validate_params

SCHEMA = "thetadim-sweep/1"


@dataclass(frozen=True)
class TableMismatch:
    """One vertex whose table claim diverges from BFS ground truth.

    ``formula`` is None when the table gave no usable claim; ``note`` then
    says why ("uncovered" or "ambiguous").
    """

    vertex: int
    formula: tuple[int, ...] | None
    bfs: tuple[int, ...]
    note: str = ""


@dataclass(frozen=True)
class SweepRecord:
    """Outcome of all checks for one (p, q, r) triple."""

    params: tuple[int, int, int]
    n: int
    case: str
    swapped: bool
    formula_dim: int
    oracle_dim: int
    basis: tuple[int, ...]
    basis_ok: bool
    basis_minimal: bool
    table_mismatches: tuple[TableMismatch, ...]
    elapsed: float = field(default=0.0, compare=False)

    @property
    def dims_agree(self) -> bool:
        return self.formula_dim == self.oracle_dim


@dataclass(frozen=True)
class SweepSummary:
    records: int
    agreements: int
    dimension_mismatches: int
    basis_failures: int
    table_mismatch_entries: int


@dataclass(frozen=True)
class SweepReport:
    max_n: int
    records: tuple[SweepRecord, ...]
    summary: SweepSummary


def recompute_summary(records: Iterable[SweepRecord]) -> SweepSummary:
    """Tally a summary directly from records (the self-consistency anchor)."""
    recs = list(records)
    return SweepSummary(
        records=len(recs),
        agreements=sum(1 for rec in recs if rec.dims_agree and rec.basis_ok),
        dimension_mismatches=sum(1 for rec in recs if not rec.dims_agree),
        basis_failures=sum(1 for rec in recs if not rec.basis_ok),
        table_mismatch_entries=sum(len(rec.table_mismatches) for rec in recs),
    )


def valid_triples(max_n: int) -> Iterator[tuple[int, int, int]]:
    """All valid (p, q, r) with p+q+r <= max_n, ordered by (n, p, q, r)."""
    for n in range(4, max_n + 1):
        for p in range(0, n + 1):
            for q in range(2, n + 1):
                r = n - p - q
                if r >= 0 and validate_params(p, q, r) is None:
                    yield (p, q, r)


def check_triple(p: int, q: int, r: int) -> SweepRecord:
    """Run every closed-form-vs-oracle check for one triple."""
    start = time.perf_counter()
    result, claims = _closed_form(p, q, r)
    g = build_c(p, q, r)
    oracle = metric_dimension_oracle(g)
    # The landmark rows, read once in coordinate order, settle resolution
    # and minimality (neither depends on the order) and are the BFS ground
    # truth of the table diff.
    rows = _landmark_rows(g, result.landmarks)
    basis_ok = _resolves(rows, g.n)
    basis_minimal = basis_ok and _minimal(rows, g.n)

    mismatches: list[TableMismatch] = []
    for v, (claimed, ground) in enumerate(zip(claims(), zip(*rows), strict=True), start=1):
        if isinstance(claimed, str):
            mismatches.append(TableMismatch(vertex=v, formula=None, bfs=ground, note=claimed))
        elif claimed != ground:
            mismatches.append(TableMismatch(vertex=v, formula=claimed, bfs=ground))

    return SweepRecord(
        params=(p, q, r),
        n=g.n,
        case=result.case.tag,
        swapped=result.case.swapped,
        formula_dim=result.dimension,
        oracle_dim=oracle.dimension,
        basis=result.basis,
        basis_ok=basis_ok,
        basis_minimal=basis_minimal,
        table_mismatches=tuple(mismatches),
        elapsed=time.perf_counter() - start,
    )


def sweep(max_n: int) -> SweepReport:
    """Check every valid triple with p+q+r <= max_n, in deterministic order."""
    records = tuple(check_triple(p, q, r) for p, q, r in valid_triples(max_n))
    return SweepReport(max_n=max_n, records=records, summary=recompute_summary(records))


_PARAMS = ("p", "q", "r")

#: Serialized record fields, in order: every ``SweepRecord`` field that takes
#: part in equality (so not ``elapsed``), with ``params`` expanded to p, q, r.
_RECORD_FIELDS = tuple(
    name
    for f in fields(SweepRecord)
    if f.compare
    for name in (_PARAMS if f.name == "params" else (f.name,))
)

#: Serialized table-mismatch fields, in declaration order.
_MISMATCH_FIELDS = tuple(f.name for f in fields(TableMismatch))

#: CSV columns: the record fields, with a mismatch count before the details.
_CSV_COLUMNS = tuple(
    column
    for name in _RECORD_FIELDS
    for column in (("table_mismatch_count", name) if name == "table_mismatches" else (name,))
)


def _field(rec: SweepRecord, name: str):
    return rec.params[_PARAMS.index(name)] if name in _PARAMS else getattr(rec, name)


def _json_value(rec: SweepRecord, name: str):
    if name == "table_mismatches":
        return [{f: getattr(m, f) for f in _MISMATCH_FIELDS} for m in rec.table_mismatches]
    return _field(rec, name)


def _csv_cell(rec: SweepRecord, column: str):
    if column == "basis":
        return ",".join(map(str, rec.basis))
    if column == "table_mismatch_count":
        return len(rec.table_mismatches)
    if column == "table_mismatches":
        return "; ".join(
            f"v{m.vertex} formula={list(m.formula) if m.formula else m.note} bfs={list(m.bfs)}"
            for m in rec.table_mismatches
        )
    return _field(rec, column)


def emit_report(report: SweepReport, fmt: str = "json") -> str:
    """Serialize a report with stable field ordering (no timing data)."""
    if fmt == "json":
        payload = {
            "schema": SCHEMA,
            "max_n": report.max_n,
            "filters": None,  # always null; a key of the thetadim-sweep/1 schema
            "summary": asdict(report.summary),
            "records": [{name: _json_value(rec, name) for name in _RECORD_FIELDS} for rec in report.records],
        }
        # The payload is plain dicts, lists and tuples (JSON arrays), so the
        # encoder converts no dataclass; every object keeps its dataclass's
        # field order.
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows([_csv_cell(rec, column) for column in _CSV_COLUMNS] for rec in report.records)
        return out.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


@functools.cache
def _reader(hint) -> Callable[[object], object]:
    """The function that reads a JSON value as an instance of the annotation
    ``hint``, built once per annotation.

    Arrays become tuples and objects become dataclasses, which read every
    field that takes part in equality (a record's ``params`` from its p, q
    and r keys).  A reader raises ``TypeError`` when a value is not of its
    annotated type (``bool`` is not an ``int`` here) and ``KeyError`` when
    a field is missing.
    """
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        readers = {f.name: _reader(hints[f.name]) for f in fields(hint) if f.compare}

        def read_object(value):
            if not isinstance(value, dict):
                raise TypeError(f"{hint.__name__} is not a JSON object: {value!r}")
            if hint is SweepRecord:
                value = {**value, "params": [value[name] for name in _PARAMS]}
            return hint(**{name: read(value[name]) for name, read in readers.items()})

        return read_object
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        variadic = args[1:] == (...,)  # tuple[T, ...]
        readers = tuple(map(_reader, args[:1] if variadic else args))

        def read_array(value):
            if not isinstance(value, list):
                raise TypeError(f"expected a JSON array, got {value!r}")
            if variadic:
                return tuple(map(readers[0], value))
            if len(value) != len(readers):
                raise TypeError(f"expected {len(readers)} items, got {value!r}")
            return tuple(read(item) for read, item in zip(readers, value))

        return read_array
    if origin in (typing.Union, types.UnionType):
        options = tuple(map(_reader, args))

        def read_union(value):
            for read in options:
                try:
                    return read(value)
                except TypeError:
                    pass
            raise TypeError(f"expected {hint}, got {value!r}")

        return read_union

    def read_leaf(value):
        if type(value) is not hint:
            raise TypeError(f"expected {hint.__name__}, got {value!r}")
        return value

    return read_leaf


def parse_report(text: str) -> SweepReport:
    """Rebuild a report from its JSON serialization (the round-trip inverse);
    raises ``ValueError`` on any other text."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("report is not a JSON object")
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unexpected report schema {payload.get('schema')!r}")
    try:
        if payload["filters"] is not None:
            raise ValueError(f"unexpected report filters {payload['filters']!r}")
        return _reader(SweepReport)(payload)
    except (KeyError, TypeError) as exc:  # a missing key, or a value of the wrong type
        raise ValueError(f"malformed report: {exc!r}") from exc
