#!/usr/bin/env python3
"""Sweep every parameter triple to n=14 and audit the closed forms.

The sweep replays the whole case analysis against the exhaustive oracle:
dimension agreement, basis resolution and minimality, and a vertex-by-vertex
diff of the table formulas against BFS.  Table divergences do not abort the
run; they land in the report as first-class records.
"""

from collections import Counter

from thetadim import emit_report, sweep

report = sweep(14)
s = report.summary

print(f"triples checked (n <= {report.max_n}):", s.records)
print("dimension agreements:", s.agreements)
print("dimension mismatches:", s.dimension_mismatches)
print("basis failures:", s.basis_failures)
print("table mismatch entries:", s.table_mismatch_entries)

per_case = Counter(rec.case for rec in report.records)
divergent = Counter(rec.case for rec in report.records if rec.table_mismatches)
print("\nrecords per case (divergent tables in parentheses):")
for case in sorted(per_case):
    print(f"  {case:<12} {per_case[case]:>4}  ({divergent.get(case, 0)})")

sample = next(rec for rec in report.records if (rec.p, rec.q, rec.r) == (5, 3, 4))
print("\nthe (5, 3, 4) record, the one the logistics demo relies on:")
print("  case:", sample.case, "| basis:", sample.basis,
      "| formula dim:", sample.formula_dim, "| oracle dim:", sample.oracle_dim)
for m in sample.table_mismatches:
    print(f"  table claims {m.formula} for v{m.vertex}, BFS says {m.bfs}")

json_text = emit_report(report)
print(f"\nJSON report: {len(json_text)} bytes "
      f"(emit_report(..., fmt='csv') for the spreadsheet view)")
