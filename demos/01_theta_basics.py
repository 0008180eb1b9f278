#!/usr/bin/env python3
"""Build a theta graph, look at distances, and hunt for a metric basis.

The star of the show is C_{3,7,3}: two hubs joined by three paths of
lengths 4, 6 and 4.  Every two-landmark choice leaves some pair of vertices
with identical distance codes, but three landmarks suffice.
"""

import itertools

from thetadim import (
    bfs_distances,
    build_c,
    is_minimal_resolving,
    is_resolving,
    metric_dimension_oracle,
    to_theta_lengths,
    unresolved_pair,
)

g = build_c(3, 7, 3)
print(f"C_(3,7,3): {g.n} vertices, {len(g.edges)} edges")
print("hub-to-hub path lengths:", to_theta_lengths(3, 7, 3))
print("edges:", sorted(g.edges))

print("\nBFS distances from v1:", bfs_distances(g, 1))

print("graph diameter:", max(max(g.distance_row(v)) for v in range(1, g.n + 1)))

# No pair of landmarks can tell all 13 vertices apart.
failures = sum(1 for W in itertools.combinations(range(1, 14), 2) if not is_resolving(g, W))
print(f"\nall {failures} two-element subsets fail to resolve the graph")
print("e.g. W = (2, 6) leaves this pair indistinguishable:", unresolved_pair(g, (2, 6)))

W = (1, 2, 6)
print(f"\nW = {W} resolves the graph:", is_resolving(g, W))
print("and is minimal:", is_minimal_resolving(g, W))
print("codes with respect to W:")
for v in range(1, g.n + 1):
    print(f"  v{v:<3} {tuple(g.distance_row(w)[v - 1] for w in W)}")

result = metric_dimension_oracle(g)
print(f"\noracle: dimension {result.dimension}, witness {result.witness}, "
      f"every smaller size exhausted")
