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
x >= y >= z, and ``theta._class_labels`` gives the class label of each of
a triple's vertices, chains in order from hub a and hub onto hub.  Metric
dimension is an isomorphism invariant, and a record keeps only the oracle's
dimension, not its witness, so the oracle's search runs on the class graph,
once, for the first triple of the class, whose closed-form landmarks are
checked first.  When they resolve, s of them bound the dimension by s, and
the search runs over the sizes below s only: the size of the first
resolving set it finds is the dimension, or s when it finds none.  A theta
graph is never a path, so a class with a resolving basis of two tests no
candidate.  When the landmarks do not resolve, the full oracle runs.  Either
way the dimension is the oracle's exact one, so a basis larger than the
dimension shows as a dimension mismatch and a basis that does not resolve
as a basis failure.

Resolution is an isomorphism invariant too (Khuller, Raghavachari &
Rosenfeld 1996), and so is minimality, so each checked triple's landmarks
are checked through their images in the class graph, whose BFS rows the
graph computes once and keeps.  Only a path has a resolving vertex
(Chartrand, Eroh, Johnson & Oellermann 2000), so a resolving pair of
landmarks is minimal without a further test; the minimality test runs on
resolving sets of three.  A triple reads its own BFS vectors from its
landmarks' vectors in the class graph, vertex v at its class label; they are
exactly the BFS vectors of the triple's own graph.

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
records.  The JSON text is the standard library's with a two-space indent.
Each report dataclass has one JSON writer, a single f-string compiled on the
first report from the class's fields, and each CSV row is written by one
function compiled from the CSV columns, so both field lists keep one source.
An array of ints is written once per distinct value and depth within one
report; no text is kept from one report to the next.  Every field of a
report dataclass is serialized, and a record holds no clock reading, so
identical ranges produce byte-identical reports.  The standard library's
``json``, ``csv`` and ``io`` are imported by the code that writes a report,
so importing the package does not load them.
"""

from __future__ import annotations

import functools
import itertools
import operator
import types
import typing
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields, is_dataclass

from .closed_form import _closed_form
from .graphs import Graph, _Memo
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
    """Outcome of all checks for one (p, q, r) triple."""

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


#: The class graph and the class dimension, keyed by class triple.
_Classes = dict[tuple[int, int, int], tuple[Graph, int]]


def _check(p: int, q: int, r: int, classes: _Classes) -> SweepRecord:
    """``check_triple``, reading the class graph and the class dimension
    from ``classes``, keyed by class triple, and storing them there on a
    miss.  The case table is evaluated here, in the triple's own labels, on
    every call.

    The closed-form landmarks are checked through their images in the class
    graph, whose rows the graph keeps: the renaming is an isomorphism, which
    keeps both resolution and minimality.  A resolving pair is minimal,
    since no theta graph is a path, so only a resolving set of three
    landmarks is tested for minimality.  A triple reads its own BFS vectors
    from its landmarks' vectors in the class graph, by its class labels, and
    the table diff compares them with the triple's claims as two whole
    tuples, walking the vertices only when the tuples differ."""
    result, claims = _closed_form(p, q, r)
    key, labels = _class_labels(p, q, r)
    n = p + q + r
    # The 1-based image in the class graph of each landmark.
    images = tuple(labels[w - 1] + 1 for w in _valid_landmarks(result.landmarks, n))
    g, oracle_dim = classes.get(key) or (build_c(*key), None)
    # Neither resolution nor minimality depends on the landmark order.
    rows = list(map(g.distance_row, images))
    vectors = tuple(zip(*rows))
    basis_ok = _resolves(vectors, n)
    # Only a path has a resolving vertex (Chartrand, Eroh, Johnson &
    # Oellermann 2000), and a class graph has n + 1 edges, so it is no path
    # and a resolving pair is minimal without a further test.
    basis_minimal = basis_ok and (len(rows) == 2 or _minimal(rows, n))
    if oracle_dim is None:
        # A resolving basis of s landmarks bounds the dimension by s, so the
        # oracle's search need only try the sizes below s; without one it
        # searches every size.
        below = len(images) if basis_ok else n + 1
        found = _search(g, below)
        oracle_dim = below if found is None else found.dimension
        classes[key] = g, oracle_dim

    mismatches: list[TableMismatch] = []
    claimed_vectors = claims()
    # The triple's own BFS vectors, in its own order.  A list first: a tuple
    # built from an iterator is resized on the way, which raised peak RSS.
    bfs_vectors = tuple([vectors[i] for i in labels])
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
    its claimed and BFS vectors, which its vertex has in both labellings."""
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
    )


def sweep(max_n: int) -> SweepReport:
    """Check every valid triple with p+q+r <= max_n, in deterministic order.

    Each isomorphism class has one graph, built on its first triple, and one
    dimension, settled there; each checked triple reads its landmarks' BFS
    rows from the class graph.  Of each mirror pair ``(p, q, r)``,
    ``(r, q, p)`` with p < r, only ``(p, q, r)`` is checked, and it comes
    first; the record of ``(r, q, p)`` is derived from its record by the
    swap.  A class's triples and a mirror pair share n and come in order of
    n, so the sweep drops the class graphs and the records by triple of one
    n once it has passed that n.
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
    """The serialized fields of a report dataclass: all of them, in declaration order."""
    return tuple(f.name for f in fields(cls))


#: Serialized record fields, in order.
_RECORD_FIELDS = _report_fields(SweepRecord)

#: CSV columns: the record fields, with a mismatch count before the details.
_CSV_COLUMNS = tuple(
    column
    for name in _RECORD_FIELDS
    for column in (("table_mismatch_count", name) if name == "table_mismatches" else (name,))
)


@functools.cache
def _object_code(cls) -> tuple[types.CodeType, dict[str, typing.Any]]:
    """The code of the JSON writer of the report dataclass ``cls``, compiled
    on first use, and the annotations of the fields it writes by writers.

    The writer is one f-string over ``_report_fields(cls)``.  Each is written
    after the global ``_head_<field>`` (separator, indent and key): an
    ``int`` in place with ``:d``, which gives ``int.__repr__``'s text, and
    any other field by the global ``_write_<field>``.  The global ``_close``
    ends the object.  So the source holds field names only, and the
    namespace the code runs in sets the keys and the depth.
    """
    hints = typing.get_type_hints(cls)
    names = _report_fields(cls)
    written = {name: hints[name] for name in names if hints[name] is not int}
    body = "".join(
        f"{{_head_{name}}}{{_write_{name}(obj.{name})}}" if name in written else f"{{_head_{name}}}{{obj.{name}:d}}"
        for name in names
    )
    namespace: dict[str, typing.Any] = {}
    exec(compile(f'def write(obj):\n    return f"{body}{{_close}}"\n', f"<{cls.__name__} writer>", "exec"), namespace)
    return namespace["write"].__code__, written


def _writer(hint, depth: int, built: dict) -> Callable[[object], str]:
    """The function that writes a value of the annotation ``hint`` as the
    standard library's encoder does with a two-space indent, at nesting
    ``depth``.  ``built`` holds the writers made so far for one report, by
    annotation and depth.

    A value at depth d opens its array or object on its key's line, writes
    its items at depth d + 1 and closes at depth d; an empty array is
    ``[]``.  Objects are report dataclasses, written by the code of
    ``_object_code``; ``X | None`` is ``X`` or ``null``.  Strings are
    escaped by the standard library's encoder, as ``json.dumps`` does.  An
    array of ints is written once per distinct value, depth and report:
    most of a sweep's are repeats, and no text is kept past the report.
    """
    if (hint, depth) in built:
        return built[hint, depth]
    from json.encoder import encode_basestring_ascii

    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint):
        code, written = _object_code(hint)
        namespace: dict[str, typing.Any] = {"_close": close + "}"}
        for i, name in enumerate(_report_fields(hint)):
            namespace[f"_head_{name}"] = ("," if i else "{") + inner + encode_basestring_ascii(name) + ": "
        for name, field_hint in written.items():
            namespace[f"_write_{name}"] = _writer(field_hint, depth + 1, built)
        write = types.FunctionType(code, namespace)
    elif origin is tuple:
        write_item, sep = _writer(args[0], depth + 1, built), "," + inner

        def write(items):
            return "[" + inner + sep.join(map(write_item, items)) + close + "]" if items else "[]"

        if args[0] is int:
            write = _Memo(write).__getitem__
    elif origin is types.UnionType:  # X | None
        (write_some,) = [_writer(arg, depth, built) for arg in args if arg is not type(None)]

        def write(value):
            return "null" if value is None else write_some(value)

    elif hint is bool:
        write = {True: "true", False: "false"}.__getitem__
    elif hint is int:
        write = int.__repr__
    elif hint is str:
        write = encode_basestring_ascii
    else:
        raise TypeError(f"no JSON writer for {hint!r}")
    built[hint, depth] = write
    return write


def _csv_basis(rec: SweepRecord) -> str:
    return ",".join(map(str, rec.basis))


def _csv_mismatch_count(rec: SweepRecord) -> int:
    return len(rec.table_mismatches)


def _csv_mismatches(rec: SweepRecord) -> str:
    return "; ".join(
        f"v{m.vertex} formula={list(m.formula) if m.formula is not None else m.note} bfs={list(m.bfs)}"
        for m in rec.table_mismatches
    )


@functools.cache
def _csv_row() -> Callable[[SweepRecord], tuple]:
    """The function that gives a record's CSV cells, one per column of
    ``_CSV_COLUMNS``, compiled on first use.  A cell is the record's field
    of the column's name, or the global ``_cell_<column>`` of the record for
    the basis and the mismatch columns, so the source holds column names
    only."""
    namespace: dict[str, typing.Any] = {
        "_cell_basis": _csv_basis,
        "_cell_table_mismatch_count": _csv_mismatch_count,
        "_cell_table_mismatches": _csv_mismatches,
    }
    cells = ", ".join(
        f"_cell_{column}(rec)" if f"_cell_{column}" in namespace else f"rec.{column}" for column in _CSV_COLUMNS
    )
    exec(compile(f"def row(rec):\n    return ({cells},)\n", "<CSV row>", "exec"), namespace)
    return namespace["row"]


def emit_report(report: SweepReport, fmt: str = "json") -> str:
    """Serialize a report with stable field ordering."""
    if fmt == "json":
        from json.encoder import encode_basestring_ascii

        built: dict = {}
        # The text the standard library's encoder writes for the object
        # {schema, max_n, filters, summary, records} with a two-space indent,
        # without its pure-Python encoder, the only one that indents.
        # filters is always null, a key of the thetadim-sweep/1 schema.
        return (
            f'{{\n  "schema": {encode_basestring_ascii(SCHEMA)},\n  "max_n": {report.max_n},\n  "filters": null,\n'
            f'  "summary": {_writer(SweepSummary, 1, built)(report.summary)},\n'
            f'  "records": {_writer(tuple[SweepRecord, ...], 1, built)(report.records)}\n}}\n'
        )
    if fmt == "csv":
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(map(_csv_row(), report.records))
        return out.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")

