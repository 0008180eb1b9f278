#!/usr/bin/env python3
"""Landmark assignment for the twelve-field logistics network.

Two service cycles (ground trucks over fields 1-8, drones over fields 6-12)
share three fields, so the network is a theta graph.  Two landmark fields
are enough to give every field a unique distance code.
"""

from thetadim import (
    assign_landmarks,
    detect_theta,
    field_network_text,
    metric_dimension_oracle,
    network_graph,
    parse_network,
)

spec = parse_network(field_network_text())
print(f"network: {len(spec.nodes)} fields, {len(spec.links)} routes")

g = network_graph(spec)
shape = detect_theta(g)
p, q, r = shape.params.p, shape.params.q, shape.params.r
hub_a, hub_b = shape.labels[p], shape.labels[p + q - 1]  # canonical v_{p+1} and v_{p+q}
print(f"theta shape detected: hubs {spec.nodes[hub_a - 1]!r} and "
      f"{spec.nodes[hub_b - 1]!r}, path counts (p, q, r) = ({p}, {q}, {r})")

table = assign_landmarks(spec)
print(f"\nmethod: {table.method}")
print("landmarks:", ", ".join(table.landmarks))
print("\nper-field distance codes (unique by construction):")
for name in spec.nodes:
    print(f"  {name:<9} {table.codes[name]}")

oracle = metric_dimension_oracle(g)
print(f"\noracle cross-check: dimension {oracle.dimension} "
      f"(no single field can serve as the only landmark)")

# A network that is not theta-shaped falls back to the oracle.
chain = "\n".join(f"node s{i}" for i in range(1, 7))
chain += "\n" + "\n".join(f"link s{i} s{i + 1}" for i in range(1, 6))
line = assign_landmarks(parse_network(chain))
print(f"\nplain supply chain of 6 stops: method {line.method!r}, "
      f"landmarks {line.landmarks}, codes "
      f"{[line.codes[f's{i}'] for i in range(1, 7)]}")
