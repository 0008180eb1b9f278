"""Command-line interface.

Every command has a bounded cost.  ``build``, ``check`` and ``dim --oracle``
refuse a graph above ``MAX_ORDER`` vertices before building it, ``sweep`` a
range above ``MAX_SWEEP_N`` = 40, a sweep of a few seconds, and
``landmarks`` a file above ``MAX_NETWORK_BYTES`` before parsing it and a
network above ``MAX_ORDER`` nodes before assigning its landmarks.  The
exhaustive oracle, which ``dim --oracle``, ``sweep`` and ``landmarks`` on a
non-theta network run, refuses any search level whose C(n, k) candidates of
n vertices each are over its work budget, ``resolve.ORACLE_LEVEL_BUDGET``.

Exit codes: 0 on success, 1 on domain errors (invalid parameters, a
non-resolving set reported by ``check``, disconnected networks, a graph,
range, network file or network above its limit, an oracle search over its
budget), 2 on usage and parse errors and on files that cannot be read or
written.
All structured output is line-oriented and stable, so it can be pinned by
golden-file tests.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import sys

from .closed_form import closed_form_basis
from .graphs import Graph
from .resolve import is_minimal_resolving, metric_dimension_oracle, unresolved_pair
from .sweep import emit_report, sweep
from .theta import build_c

#: Largest order ``build``, ``check``, ``dim --oracle`` and ``landmarks``
#: accept; ``build`` prints all n + 1 edges and ``check`` runs one BFS per
#: landmark, O(n·k).
MAX_ORDER = 2000

#: Largest ``sweep --max-n``.  The sweep builds one graph per isomorphism
#: class (1,942 classes for the 10,545 triples with n <= 40) and settles its
#: dimension once, by the oracle's search below the class's resolving
#: closed-form basis, so a class of dimension 2 tests no candidate; it
#: checks one triple of each mirror pair, deriving the other's record by the
#: swap.  Its cost grows as about n^4: ``sweep --max-n 40`` with the JSON
#: report takes about 0.5 s at a 42 MB peak RSS (2-CPU x86-64 host, CPython
#: 3.11, no bytecode cached).
MAX_SWEEP_N = 40

#: Largest network file ``landmarks`` reads, in bytes.  Parsing and coding a
#: network take time and memory linear in its file: the command's steps,
#: run without its limits on a 6.5 MB shuffled theta network of 200,002
#: nodes named ``v1`` to ``v200002``, took 3.4 s at a 150 MB peak RSS (2-CPU
#: x86-64 host, CPython 3.11).  A file of this size holds a theta network of
#: about 34,900 nodes named so (30 bytes a node), or of about 15,700 named as
#: the benchmark names them (67 bytes a node; its 1,500-node ones take 95 KB).
MAX_NETWORK_BYTES = 1 << 20


def _bounded_graph(args) -> Graph:
    """``C_{p,q,r}`` of the arguments, refused before it is built when its
    order exceeds ``MAX_ORDER``."""
    n = args.p + args.q + args.r
    if n > MAX_ORDER:
        raise ValueError(f"graph order {n} exceeds the size limit {MAX_ORDER}")
    return build_c(args.p, args.q, args.r)


def _vertex_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetadim",
        description="Metric dimension and landmark bases for theta graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, helptext in (
        ("build", _cmd_build, "print the edge list of C_{p,q,r}"),
        ("dim", _cmd_dim, "print the case-formula dimension and its case tag"),
        ("basis", _cmd_basis, "print the closed-form metric basis and its case tag"),
        ("check", _cmd_check, "test whether a vertex set resolves C_{p,q,r}"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("p", type=int)
        cmd.add_argument("q", type=int)
        cmd.add_argument("r", type=int)
        if name == "dim":
            cmd.add_argument("--oracle", action="store_true",
                             help="also run the exhaustive oracle")
        if name == "check":
            cmd.add_argument("--set", dest="vertex_set", type=_vertex_set, required=True,
                             metavar="V1,V2,...", help="landmark candidates")

    cmd = sub.add_parser("sweep", help="verify formulas against the oracle over a range")
    cmd.set_defaults(handler=_cmd_sweep)
    cmd.add_argument("--max-n", type=int, required=True)
    cmd.add_argument("--format", choices=("json", "csv"), default="json")
    cmd.add_argument("--out", help="write the report here instead of stdout")

    cmd = sub.add_parser("landmarks", help="assign landmark codes to a network file")
    cmd.set_defaults(handler=_cmd_landmarks)
    cmd.add_argument("file", help="network description file")
    return parser


def _cmd_build(args) -> int:
    g = _bounded_graph(args)
    for u, v in sorted(g.edges):
        print(u, v)
    return 0


def _cmd_dim(args) -> int:
    result = closed_form_basis(args.p, args.q, args.r)
    print(result.dimension, result.case.tag)
    if args.oracle:
        print("oracle", metric_dimension_oracle(_bounded_graph(args)).dimension)
    return 0


def _cmd_basis(args) -> int:
    result = closed_form_basis(args.p, args.q, args.r)
    print(",".join(map(str, result.basis)), result.case.tag)
    return 0


def _cmd_check(args) -> int:
    g = _bounded_graph(args)
    pair = unresolved_pair(g, args.vertex_set)
    if pair is not None:
        print("unresolved", pair[0], pair[1])
        return 1
    minimal = is_minimal_resolving(g, args.vertex_set)
    print("resolving", "minimal" if minimal else "non-minimal")
    return 0


def _cmd_sweep(args) -> int:
    if args.max_n > MAX_SWEEP_N:
        raise ValueError(f"max_n {args.max_n} exceeds the sweep limit {MAX_SWEEP_N}")
    try:
        # The report file is opened before the sweep runs, so a bad path
        # fails at once.
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(emit_report(sweep(args.max_n), fmt=args.format))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_landmarks(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            data = fh.read(MAX_NETWORK_BYTES + 1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(data) > MAX_NETWORK_BYTES:
        raise ValueError(f"network file {args.file} exceeds the size limit {MAX_NETWORK_BYTES} bytes")
    # The bytes are decoded without newline translation: the parser ends
    # lines at every str.splitlines boundary, "\r" and "\r\n" included.
    try:
        text = data.decode("utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError as exc:
        # The decoder counts from after the byte-order mark; the message gives the file offset.
        offset = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        print(f"error: {args.file}: not UTF-8 text ({exc.reason} at byte {offset})", file=sys.stderr)
        return 2
    from .network import NetworkParseError, assign_landmarks, parse_network  # only this command parses a network

    try:
        spec = parse_network(text)
    except NetworkParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(spec.nodes) > MAX_ORDER:
        raise ValueError(f"network order {len(spec.nodes)} exceeds the size limit {MAX_ORDER}")
    table = assign_landmarks(spec)
    print("method", table.method, sep="\t")
    print("landmarks", *table.landmarks, sep="\t")
    for name in spec.nodes:
        print(name, ",".join(map(str, table.codes[name])), sep="\t")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
