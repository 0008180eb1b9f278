#!/usr/bin/env python3
"""One worked instance per dispatch case: formula basis versus oracle.

Each valid (p, q, r) lands in exactly one case; the atlas below runs a
representative triple for all fifteen, showing the dispatched tag, the
closed-form landmarks, and the exhaustive oracle's verdict.
"""

from thetadim import (
    build_c,
    closed_form_basis,
    dimension_by_path_lengths,
    is_resolving,
    metric_dimension_oracle,
    to_theta_lengths,
)

ATLAS = [
    (1, 4, 0),   # ZeroPath-P1
    (3, 5, 0),   # ZeroPath-P2
    (3, 4, 2),   # T1-P1
    (3, 5, 2),   # T1-P2
    (3, 6, 1),   # T1-P3
    (3, 3, 4),   # T2-P1
    (4, 4, 2),   # T2-P2  (dimension 3)
    (4, 4, 1),   # T2-P3
    (5, 3, 4),   # T3-P1
    (5, 4, 2),   # T3-P2
    (6, 4, 1),   # T3-P3
    (3, 7, 3),   # T4-P1  (dimension 3)
    (2, 5, 2),   # T4-P2
    (3, 4, 3),   # T4-P3a
    (3, 3, 3),   # T4-P3b
]

print(f"{'params':>12} {'lengths':>10} {'case':>12} {'basis':>12} {'dim':>4} {'oracle':>7}")
for p, q, r in ATLAS:
    result = closed_form_basis(p, q, r)
    g = build_c(p, q, r)
    oracle = metric_dimension_oracle(g)
    assert is_resolving(g, result.basis)
    assert oracle.dimension == result.dimension
    assert dimension_by_path_lengths(p, q, r) == result.dimension
    basis = "{" + ",".join(map(str, result.basis)) + "}"
    lengths = "/".join(map(str, to_theta_lengths(p, q, r)))
    print(f"{(p, q, r)!s:>12} {lengths:>10} {result.case.tag:>12} "
          f"{basis:>12} {result.dimension:>4} {oracle.dimension:>7}")

print("\nevery formula basis resolves its graph and matches the oracle's size")
print("dimension is 3 exactly when the path lengths are {a,a,a} or {a,a,a+2}")
