"""Verification harness: closed-form claims against the exhaustive oracle.

For every valid (p, q, r) in range the sweep compares the formula dimension
with the oracle dimension, checks the closed-form basis for resolution and
minimality, and diffs every table-claimed distance vector against BFS.
Discrepancies never abort a sweep; they become first-class report entries,
since auditing the formulas is the point of the harness.

A sweep builds one graph per isomorphism class and settles each class's
dimension once.  A theta graph is fixed up to isomorphism by the multiset of
its hub-to-hub path lengths, so the triples with the same sorted path
lengths are one graph under different labels.  The class graph is
``build_c(x, y + 2, z)`` for the chains' internal counts sorted into
x >= y >= z, and ``theta._class_labels`` gives the offsets that rename a
triple onto it, run by run: the p-chain, hub a, the middle internals, hub b
and the r-chain each map onto consecutive class labels, chains in order
from hub a and hub onto hub.  Metric dimension is an isomorphism invariant,
and a record keeps only the oracle's dimension, not its witness, so the
oracle's search runs on the class graph, once, for the first triple of the
class, whose closed-form landmarks are checked first.  When they resolve, s
of them bound the dimension by s, and the search runs over the sizes below
s only: the size of the first resolving set it finds is the dimension, or s
when it finds none.  A theta graph is never a path, so a class with a
resolving basis of two tests no candidate.  When the landmarks do not
resolve, the full oracle runs.  Either way the dimension is the oracle's
exact one, so a basis larger than the dimension shows as a dimension
mismatch and a basis that does not resolve as a basis failure.

Resolution is an isomorphism invariant too (Khuller, Raghavachari &
Rosenfeld 1996), and so is minimality, so a landmark set's verdicts can be
read from its image in the class graph.  A class landmark set is the tuple
of a triple's closed-form landmarks' images there, in coordinate order.
The sweep reads its BFS rows from the class graph and settles its
resolution and minimality once, on the first triple that lands on it; a
later triple of the class with the same images reads them.  Only a path has
a resolving vertex (Chartrand, Eroh, Johnson & Oellermann 2000), so a
resolving pair of landmarks is minimal without a further test; the
minimality test runs on resolving sets of three.  A triple reads its own
BFS vectors as five slices of the class landmark set's vectors, one per
run; they are exactly the BFS vectors of the triple's own graph.

A triple and its mirror ``(r, q, p)`` are one graph under the swap of the
outer paths (``theta._swap``), and they dispatch to one case table in one
labelling.  So the sweep checks only the first triple of each mirror pair,
the one with p < r, and builds the mirror's record from its fields: p and r
trade places, ``swapped`` flips, the basis and every mismatch's vertex are
mapped by the swap and sorted again, and everything else is kept.  A triple
with p = r is its own mirror and is checked.  The check runs in the triple's
own labelling: the table diff compares its claims with its BFS vectors as
two whole tuples, and goes vertex by vertex only when they differ, to name
the vertices that do.  ``check_triple`` checks one triple directly, and the
sweep's records are tested against it.

Reports serialize to JSON (schema ``thetadim-sweep/1``) and CSV, with the
report dataclasses' fields as keys; a report's summary is derived from its
records.  The JSON text is the standard library's with a two-space indent,
written by a fixed layout built from the report dataclasses.  Per-record
wall-clock times are kept in memory for diagnostics but excluded from both
serialization and equality, so identical ranges produce byte-identical
reports.  The standard library's ``json``, ``csv`` and ``io`` are imported
by the code that writes or reads a report, so importing the package does
not load them.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
import types
import typing
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields, is_dataclass

from .closed_form import _closed_form
from .graphs import Graph
from .resolve import _minimal, _resolves, _search, _valid_landmarks
from .theta import _class_labels, _swap, build_c, validate_params

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
    """Outcome of all checks for one (p, q, r) triple.

    ``elapsed`` is the wall time of the checks.  The first triple of an
    isomorphism class in a sweep also pays for the class graph and for the
    search that settles the dimension, which later triples of the class
    reuse.  The first triple of a class landmark set pays for its BFS rows
    and its resolution check, and for a resolving set of three landmarks
    its minimality check, which later triples with the same set reuse.  The
    mirror ``(r, q, p)``, p > r, of a checked triple pays only for building
    its record from that triple's fields by the swap.
    """

    p: int
    q: int
    r: int
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

    @functools.cached_property
    def summary(self) -> SweepSummary:
        """The tallies of the records, counted on first use."""
        recs = self.records
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
    """Run every closed-form-vs-oracle check for one triple, in its own
    labels, sharing nothing with other calls.

    The oracle dimension is settled on every call, as a sweep settles it for
    a class: by the oracle's search below the closed-form basis when that
    basis resolves, by the full oracle when it does not.  Every record of
    :func:`sweep`, checked or derived from its mirror's, equals this one.
    """
    return _check(p, q, r, {})


#: A class landmark set's BFS vectors in class labels, ``basis_ok`` and
#: ``basis_minimal``, keyed by the landmarks' images in the class graph.
_LandmarkSets = dict[tuple[int, ...], tuple[tuple[tuple[int, ...], ...], bool, bool]]

#: The class graph, the class dimension and the class landmark sets, keyed
#: by class triple.
_Classes = dict[tuple[int, int, int], tuple[Graph, int, _LandmarkSets]]


def _check(p: int, q: int, r: int, classes: _Classes) -> SweepRecord:
    """``check_triple``, reading the class graph, the class dimension and
    the verdicts of the class landmark sets from ``classes``, keyed by class
    triple, and storing them there on a miss.  The case table is evaluated
    here, in the triple's own labels, on every call.

    A class landmark set is the tuple of the closed-form landmarks' images
    in the class graph, in coordinate order.  Its BFS vectors, read once in
    class labels, and its resolution and minimality are computed on its
    first triple and read by every later triple of the class with the same
    images: the renaming is an isomorphism, which keeps both verdicts.  A
    resolving pair is minimal, since no theta graph is a path, so only a
    resolving set of three landmarks is tested for minimality.  A
    triple reads its own BFS vectors as five slices of the class vectors,
    and the table diff compares them with the triple's claims as two whole
    tuples, walking the vertices only when the tuples differ.
    """
    start = time.perf_counter()
    result, claims = _closed_form(p, q, r)
    key, (a, hub_a, m, hub_b, c) = _class_labels(p, q, r)
    n = p + q + r
    # The 1-based image in the class graph of each landmark: the offset of
    # its run plus its place in the run.
    images = tuple(
        a + w if w <= p
        else hub_a + 1 if w == p + 1
        else m + w - p - 1 if w < p + q
        else hub_b + 1 if w == p + q
        else c + w - p - q
        for w in _valid_landmarks(result.landmarks, n)
    )
    g, oracle_dim, landmark_sets = classes.get(key) or (build_c(*key), None, {})
    verdict = landmark_sets.get(images)
    if verdict is None:
        # Neither resolution nor minimality depends on the landmark order.
        rows = list(map(g.distance_row, images))
        basis_ok = _resolves(rows, n)
        # Only a path has a resolving vertex (Chartrand, Eroh, Johnson &
        # Oellermann 2000), and a class graph has n + 1 edges, so it is no
        # path and a resolving pair is minimal without a further test.
        basis_minimal = basis_ok and (len(rows) == 2 or _minimal(rows, n))
        verdict = landmark_sets[images] = tuple(zip(*rows)), basis_ok, basis_minimal
    vectors, basis_ok, basis_minimal = verdict
    if oracle_dim is None:
        # A resolving basis of s landmarks bounds the dimension by s, so the
        # oracle's search need only try the sizes below s; without one it
        # searches every size.
        below = len(images) if basis_ok else n + 1
        found = _search(g, below)
        oracle_dim = below if found is None else found.dimension
        classes[key] = g, oracle_dim, landmark_sets

    mismatches: list[TableMismatch] = []
    claimed_vectors = claims()
    # The triple's own BFS vectors: the class vectors of its five runs, in
    # its own order.
    bfs_vectors = (*vectors[a : a + p], vectors[hub_a], *vectors[m : m + q - 2], vectors[hub_b], *vectors[c : c + r])
    if claimed_vectors != bfs_vectors:
        for v, (claimed, ground) in enumerate(zip(claimed_vectors, bfs_vectors, strict=True), start=1):
            if isinstance(claimed, str):
                mismatches.append(TableMismatch(vertex=v, formula=None, bfs=ground, note=claimed))
            elif claimed != ground:
                mismatches.append(TableMismatch(vertex=v, formula=claimed, bfs=ground))

    return SweepRecord(
        p=p,
        q=q,
        r=r,
        n=n,
        case=result.case.tag,
        swapped=result.case.swapped,
        formula_dim=result.dimension,
        oracle_dim=oracle_dim,
        basis=result.basis,
        basis_ok=basis_ok,
        basis_minimal=basis_minimal,
        table_mismatches=tuple(mismatches),
        elapsed=time.perf_counter() - start,
    )


def _mirror(record: SweepRecord) -> SweepRecord:
    """The record of the mirror ``(r, q, p)`` of ``record``'s triple.

    The swap ``theta._swap(p, q, r, ·)`` is an isomorphism from ``C_{p,q,r}``
    onto ``C_{r,q,p}`` that carries the closed-form landmarks of the one,
    in coordinate order, onto those of the other, since both come from one
    case table.  So the record is built field by field from ``record``:
    the case, both dimensions, ``basis_ok`` and ``basis_minimal`` are kept;
    p and r trade places and ``swapped`` flips; the basis and every
    mismatch's vertex are mapped and sorted again; and each mismatch keeps
    its claimed and BFS vectors, which its vertex has in both labellings.
    """
    start = time.perf_counter()
    swap = functools.partial(_swap, record.p, record.q, record.r)
    mismatches = sorted(
        (TableMismatch(swap(m.vertex), m.formula, m.bfs, m.note) for m in record.table_mismatches),
        key=operator.attrgetter("vertex"),
    )
    return SweepRecord(
        p=record.r,
        q=record.q,
        r=record.p,
        n=record.n,
        case=record.case,
        swapped=not record.swapped,
        formula_dim=record.formula_dim,
        oracle_dim=record.oracle_dim,
        basis=tuple(sorted(map(swap, record.basis))),
        basis_ok=record.basis_ok,
        basis_minimal=record.basis_minimal,
        table_mismatches=tuple(mismatches),
        elapsed=time.perf_counter() - start,
    )


def sweep(max_n: int) -> SweepReport:
    """Check every valid triple with p+q+r <= max_n, in deterministic order.

    Each isomorphism class has one graph, built on its first triple, and one
    dimension, settled there; each class landmark set has one set of BFS
    vectors and one resolution and minimality verdict, settled on its first
    triple.  Of each mirror pair ``(p, q, r)``, ``(r, q, p)`` with p < r,
    only ``(p, q, r)`` is checked, and it comes first; the record of
    ``(r, q, p)`` is derived from its record by the swap.  A class's triples
    and a mirror pair share n and come in order of n, so the sweep drops the
    class graphs, their landmark sets and the records by triple of one n
    once it has passed that n.
    """
    records: list[SweepRecord] = []
    for _, triples in itertools.groupby(valid_triples(max_n), key=sum):
        classes: _Classes = {}
        # The records of one n by triple, in sweep order.
        group: dict[tuple[int, int, int], SweepRecord] = {}
        for p, q, r in triples:
            group[p, q, r] = _mirror(group[r, q, p]) if p > r else _check(p, q, r, classes)
        records.extend(group.values())
    return SweepReport(max_n=max_n, records=tuple(records))


def _report_fields(cls) -> tuple[str, ...]:
    """The serialized fields of a report dataclass, in declaration order:
    every field that takes part in equality (so not ``SweepRecord.elapsed``)."""
    return tuple(f.name for f in fields(cls) if f.compare)


#: Serialized record fields, in order.
_RECORD_FIELDS = _report_fields(SweepRecord)

#: CSV columns: the record fields, with a mismatch count before the details.
_CSV_COLUMNS = tuple(
    column
    for name in _RECORD_FIELDS
    for column in (("table_mismatch_count", name) if name == "table_mismatches" else (name,))
)


@functools.cache
def _writer(hint, depth: int) -> Callable[[object], str]:
    """The function that writes a value of the annotation ``hint`` as the
    standard library's encoder does with a two-space indent, at nesting
    ``depth``; built once per annotation and depth, on first use.

    A value at depth d opens its array or object on its key's line, writes
    its items at depth d + 1 and closes at depth d; an empty array is
    ``[]``.  Objects are report dataclasses, whose keys are their
    ``_report_fields``; ``X | None`` is ``X`` or ``null``.  Strings are
    escaped by the standard library's encoder, as ``json.dumps`` does.
    """
    from json.encoder import encode_basestring_ascii

    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        names = _report_fields(hint)
        heads = tuple(
            ("," if i else "{") + inner + encode_basestring_ascii(name) + ": " for i, name in enumerate(names)
        )
        writers = tuple(_writer(hints[name], depth + 1) for name in names)
        values = operator.attrgetter(*names)  # a tuple, as every report dataclass has several fields

        def write_object(obj):
            items = [head + write(value) for head, write, value in zip(heads, writers, values(obj))]
            return "".join(items) + close + "}"

        return write_object
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        write_item, sep = _writer(args[0], depth + 1), "," + inner

        def write_array(items):
            return "[" + inner + sep.join(map(write_item, items)) + close + "]" if items else "[]"

        return write_array
    if origin is types.UnionType:  # X | None
        (write_some,) = [_writer(arg, depth) for arg in args if arg is not type(None)]

        def write_optional(value):
            return "null" if value is None else write_some(value)

        return write_optional
    if hint is bool:
        return {True: "true", False: "false"}.__getitem__
    if hint is int:
        return int.__repr__
    if hint is str:
        return encode_basestring_ascii
    raise TypeError(f"no JSON writer for {hint!r}")


def _csv_basis(rec: SweepRecord) -> str:
    return ",".join(map(str, rec.basis))


def _csv_mismatch_count(rec: SweepRecord) -> int:
    return len(rec.table_mismatches)


def _csv_mismatches(rec: SweepRecord) -> str:
    return "; ".join(
        f"v{m.vertex} formula={list(m.formula) if m.formula else m.note} bfs={list(m.bfs)}"
        for m in rec.table_mismatches
    )


#: The function that gives a record's cell in each CSV column, in order.
_CSV_CELLS: tuple[Callable[[SweepRecord], object], ...] = tuple(
    {
        "basis": _csv_basis,
        "table_mismatch_count": _csv_mismatch_count,
        "table_mismatches": _csv_mismatches,
    }.get(column) or operator.attrgetter(column)
    for column in _CSV_COLUMNS
)


def emit_report(report: SweepReport, fmt: str = "json") -> str:
    """Serialize a report with stable field ordering (no timing data)."""
    if fmt == "json":
        from json.encoder import encode_basestring_ascii

        # The text the standard library's encoder writes for the object
        # {schema, max_n, filters, summary, records} with a two-space indent,
        # without its pure-Python encoder, the only one that indents.
        # filters is always null, a key of the thetadim-sweep/1 schema.
        return (
            f'{{\n  "schema": {encode_basestring_ascii(SCHEMA)},\n  "max_n": {report.max_n},\n  "filters": null,\n'
            f'  "summary": {_writer(SweepSummary, 1)(report.summary)},\n'
            f'  "records": {_writer(tuple[SweepRecord, ...], 1)(report.records)}\n}}\n'
        )
    if fmt == "csv":
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows([cell(rec) for cell in _CSV_CELLS] for rec in report.records)
        return out.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


@functools.cache
def _reader(hint) -> Callable[[object], object]:
    """The function that reads a JSON value as an instance of the annotation
    ``hint``, built once per annotation.

    Arrays become tuples (every tuple field is a ``tuple[T, ...]``) and
    objects become dataclasses, whose keys are exactly the fields that take
    part in equality.  A reader raises ``KeyError`` when a field is missing,
    and ``TypeError`` when a value is not of its annotated type (``bool`` is
    not an ``int`` here) or an object has a key that is no field.
    """
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        readers = {name: _reader(hints[name]) for name in _report_fields(hint)}

        def read_object(value):
            if not isinstance(value, dict):
                raise TypeError(f"{hint.__name__} is not a JSON object: {value!r}")
            if unknown := value.keys() - readers.keys():
                raise TypeError(f"unknown {hint.__name__} keys {sorted(unknown)}")
            return hint(**{name: read(value[name]) for name, read in readers.items()})

        return read_object
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        read_item = _reader(args[0])

        def read_array(value):
            if not isinstance(value, list):
                raise TypeError(f"expected a JSON array, got {value!r}")
            return tuple(map(read_item, value))

        return read_array
    if origin is types.UnionType:  # X | None
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
    raises ``ValueError`` on any other text, including a report whose summary
    does not tally with its records."""
    import json

    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("report is not a JSON object")
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unexpected report schema {payload.get('schema')!r}")
    try:
        if payload["filters"] is not None:
            raise ValueError(f"unexpected report filters {payload['filters']!r}")
        report = _reader(SweepReport)({f.name: payload[f.name] for f in fields(SweepReport)})
        summary = _reader(SweepSummary)(payload["summary"])
        if unknown := payload.keys() - {"schema", "max_n", "filters", "summary", "records"}:
            raise TypeError(f"unknown report keys {sorted(unknown)}")
    except (KeyError, TypeError) as exc:  # a missing key, a value of the wrong type or an unknown key
        raise ValueError(f"malformed report: {exc!r}") from exc
    if summary != report.summary:
        raise ValueError(f"report summary {summary} does not tally with its records, which give {report.summary}")
    return report
