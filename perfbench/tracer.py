"""Span tracing of thetadim's public functions, installed from outside.

:meth:`Tracer.install` replaces each traced function in every thetadim module
that holds it (the defining module, the modules that import it by name, and
the package namespace), so calls between modules and calls within a module
are both recorded.  :meth:`Tracer.uninstall` puts the originals back.  Spans
are kept in memory as ``(request, name, start_ns, end_ns, parent)`` tuples,
where ``parent`` indexes the enclosing span (-1 for a root).

Nothing in the package changes; the counters below are derived from the
arguments and results crossing the traced boundary.
"""

from __future__ import annotations

import importlib
import json
import time
import weakref
from collections import Counter
from math import comb

#: Traced public functions, by thetadim module.
TRACED = {
    "graphs": ("all_pairs",),
    "theta": ("build_c", "detect_theta"),
    "closed_form": ("dispatch_case", "closed_form_basis", "formula_representation"),
    "resolve": ("metric_dimension_oracle", "representation", "is_resolving", "is_minimal_resolving"),
    "sweep": ("sweep", "check_triple", "emit_report"),
    "network": ("parse_network", "network_graph", "assign_landmarks"),
    "cli": ("main",),
}


def lex_rank(subset: tuple[int, ...], n: int) -> int:
    """0-based position of a sorted subset of 1..n among its size's subsets
    in lexicographic order (the order of ``itertools.combinations``)."""
    k = len(subset)
    rank = 0
    prev = 0
    for i, x in enumerate(subset):
        for v in range(prev + 1, x):
            rank += comb(n - v, k - i - 1)
        prev = x
    return rank


def oracle_candidates(n: int, witness: tuple[int, ...]) -> int:
    """Candidate sets the exhaustive oracle tried before returning ``witness``.

    It tries every j-subset for j = 1..k-1, then k-subsets in lexicographic
    order up to and including the witness.
    """
    k = len(witness)
    return sum(comb(n, j) for j in range(1, k)) + lex_rank(witness, n) + 1


def _count_oracle(tracer: Tracer, args, result) -> None:
    tracer.counters["resolve.oracle.candidates"] += oracle_candidates(args[0].n, result.witness)
    tracer.counters["resolve.oracle.witnesses"] += 1


def _count_all_pairs(tracer: Tracer, args, result) -> None:
    # The matrix is cached per graph: count its bytes the first time a
    # matrix object comes back.  8 bytes per int64 entry, as computed.
    if result not in tracer.seen_matrices:
        tracer.seen_matrices.add(result)
        tracer.counters["graphs.all_pairs.bytes_computed"] += 8 * result.n * result.n


def _count_detect(tracer: Tracer, args, result) -> None:
    if result is None:
        tracer.counters["theta.detect_theta.rejects"] += 1


def _count_report(tracer: Tracer, args, result) -> None:
    tracer.counters["sweep.emit_report.bytes"] += len(result.encode())


_HOOKS = {
    "resolve.metric_dimension_oracle": _count_oracle,
    "graphs.all_pairs": _count_all_pairs,
    "theta.detect_theta": _count_detect,
    "sweep.emit_report": _count_report,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self.seen_matrices: weakref.WeakSet = weakref.WeakSet()
        self.request = 0
        self._stack = [-1]
        self._patches: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack[:] = [-1]

    def _wrap(self, name: str, fn):
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter_ns, _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.request, name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        # The package attribute ``thetadim.sweep`` is the sweep *function*
        # (``from .sweep import sweep`` shadows the submodule), so modules are
        # fetched through importlib, never by attribute.
        modules = {m: importlib.import_module(f"thetadim.{m}") for m in TRACED}
        holders = [importlib.import_module("thetadim"), *modules.values()]
        for modname, names in TRACED.items():
            for fname in names:
                original = getattr(modules[modname], fname)
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for holder in holders:
                    if holder.__dict__.get(fname) is original:
                        self._patches.append((holder, fname, original))
                        setattr(holder, fname, wrapper)

    def uninstall(self) -> None:
        for holder, fname, original in reversed(self._patches):
            setattr(holder, fname, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write counters, then one span per line, as JSON."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> tuple[list, Counter]:
    """Read back a :meth:`Tracer.dump` file."""
    with open(path) as fh:
        counters = Counter(json.loads(fh.readline())["counters"])
        spans = [tuple(json.loads(line)) for line in fh]
    return spans, counters


def self_times(spans) -> dict[str, list[int]]:
    """Per span name: ``[self_ns, calls]``, self time being a span's duration
    minus the durations of its child spans.  ``parent`` indexes ``spans``."""
    child = [0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[int]] = {}
    for i, (_, name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0])
        entry[0] += end - start - child[i]
        entry[1] += 1
    return out
