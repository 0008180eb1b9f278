"""Seeded input generators for the benchmark workloads.

Pure Python: nothing here imports ``thetadim``, so the package only ever sees
the generated inputs (network texts and command lines), and the generator's
own vertex labels and edge lists stay an independent record of what each
network is.  The same ``(workload, seed, smoke)`` always yields byte-identical
inputs; :func:`fingerprint` hashes them so that can be tested.
"""

from __future__ import annotations

import hashlib
import random
import shlex
from dataclasses import dataclass
from math import comb

WORKLOADS = ("sweep-n24", "landmarks-theta", "landmarks-general", "cli")

#: The oracle cap: ``sweep(24)`` covers every valid triple it accepts.
SWEEP_MAX_N = 24
SWEEP_SMOKE_MAX_N = 9

#: One pass of ``landmarks-theta``: fixed orders, so every seed has the same
#: size mix and only the parameter split, labels and orders vary.  The
#: median falls in the middle of the 1,050-node operations and the tail in the
#: 1,500-node ones (three of eleven), never on the boundary between two sizes.
THETA_SIZES = (300, 450, 600, 750, 900, 1050, 1200, 1350, 1500, 1500, 1500)
THETA_SMOKE_SIZES = (8, 13, 21)
THETA_PASSES = 2

#: One block of ``landmarks-general``: each kind with the orders its members
#: get.  The pool repeats the block with fresh random members, so every block
#: has the same class and size mix whatever the seed.  K_{5,5} (dimension 8,
#: 968 to 1,012 candidate sets under any labelling) is two fifths of a block,
#: so the median operation is a deep oracle search of fixed work rather than
#: a boundary between classes; K_12 (dimension 11, always 4,083 candidate
#: sets) is the slowest 5% and sets the tail.  Short operations swing far more
#: with the host's load than oracle-bound ones, and would make a noisy median.
GENERAL_BLOCK = (
    ("petersen", (10,)), ("k55", (10,) * 8), ("k12", (12,)),
    ("pendant", (14, 20)), ("chord", (14, 20)),
    ("sparse", (13, 16, 19, 19, 22, 22)),
)
GENERAL_BLOCKS = 25
GENERAL_SMOKE_BLOCKS = 1
#: Largest oracle work a sparse random network may need, as an upper bound on
#: candidate sets: every subset up to the size of a greedy resolving set.
#: Unbounded, a single 22-node graph of dimension 6 took 3.7 s.
SPARSE_CANDIDATE_BUDGET = 6_000

_PLACES = ("North", "South", "East", "West", "Upper", "Lower", "Old", "New", "St. Mary's")
_SITES = ("Field", "Depot", "Barn", "Silo", "Gate", "Yard", "Mill", "Pump")


@dataclass(frozen=True)
class Network:
    """A generated network: its file text, plus the generator's own record.

    ``names[v - 1]`` is the name of generator vertex ``v``; the text declares
    the nodes in a shuffled order, so the package numbers them differently.
    """

    kind: str
    text: str
    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    params: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class CliCall:
    """One CLI invocation; ``@name`` arguments are files written at set-up."""

    key: str
    argv: tuple[str, ...]
    nodes: int


def theta_edges(p: int, q: int, r: int) -> list[tuple[int, int]]:
    """Edges of C_{p,q,r} in the canonical layout (hubs p+1 and p+q)."""
    hub_a, hub_b = p + 1, p + q
    edges = [(v, v + 1) for v in range(hub_a, hub_b)]
    for start, count in ((1, p), (p + q + 1, r)):
        if count == 0:
            edges.append((hub_a, hub_b))
            continue
        path = [hub_a, *range(start, start + count), hub_b]
        edges.extend(zip(path, path[1:]))
    return edges


def valid_triples(max_n: int):
    """Every valid (p, q, r) with p + q + r <= max_n."""
    for n in range(4, max_n + 1):
        for p in range(0, n - 1):
            for q in range(2, n - p + 1):
                r = n - p - q
                if (p == 0) + (q == 2) + (r == 0) <= 1:
                    yield p, q, r


def _random_triple(rng: random.Random, n: int) -> tuple[int, int, int]:
    while True:
        p = rng.randint(0, n - 2)
        q = rng.randint(2, n - p)
        r = n - p - q
        if (p == 0) + (q == 2) + (r == 0) <= 1:
            return p, q, r


def _names(rng: random.Random, n: int) -> list[str]:
    return [f"{rng.choice(_PLACES)} {rng.choice(_SITES)} {i}" for i in range(1, n + 1)]


def _network(rng: random.Random, kind: str, n: int, edges, params=None) -> Network:
    """Relabel, name and shuffle a graph given on vertices 1..n."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabel = dict(zip(range(1, n + 1), perm))
    edges = [(relabel[u], relabel[v]) for u, v in edges]
    names = _names(rng, n)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rng.shuffle(edges)
    lines = [f"# {kind} network, {n} nodes", ""]
    lines += [f"node {shlex.quote(names[v - 1])}" for v in order]
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"link {shlex.quote(names[u - 1])} {shlex.quote(names[v - 1])}")
    return Network(
        kind=kind,
        text="\n".join(lines) + "\n",
        names=tuple(names),
        edges=tuple(sorted((min(u, v), max(u, v)) for u, v in edges)),
        params=params,
    )


def theta_networks(seed: int, sizes=THETA_SIZES, passes: int = THETA_PASSES) -> list[list[Network]]:
    rng = random.Random(f"landmarks-theta:{seed}")
    out = []
    for _ in range(passes):
        nets = []
        for n in sizes:
            p, q, r = _random_triple(rng, n)
            nets.append(_network(rng, "theta", n, theta_edges(p, q, r), params=(p, q, r)))
        rng.shuffle(nets)
        out.append(nets)
    return out


def _bfs_rows(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for s in range(1, n + 1):
        dist = [-1] * (n + 1)
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        rows.append(dist[1:])
    return rows


def greedy_resolving_size(n: int, edges) -> int:
    """Size of a greedily built resolving set: an upper bound on the dimension."""
    rows = _bfs_rows(n, edges)
    # ``classes[v]`` numbers v's code so far; a landmark's worth is the number
    # of distinct (class, distance) pairs it leaves.
    classes = [0] * n
    size = 0
    while len(set(classes)) < n:
        best = max(rows, key=lambda row: len(set(zip(classes, row))))
        ids: dict = {}
        classes = [ids.setdefault(pair, len(ids)) for pair in zip(classes, best)]
        size += 1
    return size


def _is_theta_shaped(n: int, edges) -> bool:
    degree = [0] * (n + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return len(edges) == n + 1 and sorted(degree[1:]) == [2] * (n - 2) + [3, 3]


def _general_graph(rng: random.Random, kind: str, n: int) -> list[tuple[int, int]]:
    if kind == "petersen":
        outer = [(i, i % 5 + 1) for i in range(1, 6)]
        inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
        return outer + inner + [(i, i + 5) for i in range(1, 6)]
    if kind == "k55":
        return [(u, v) for u in range(1, 6) for v in range(6, 11)]
    if kind == "k12":
        return [(u, v) for u in range(1, 13) for v in range(u + 1, 13)]
    if kind == "pendant":
        tail = rng.randint(1, 3)
        core = n - tail
        edges = theta_edges(*_random_triple(rng, core))
        prev = rng.randint(1, core)
        for v in range(core + 1, n + 1):
            edges.append((prev, v))
            prev = v
        return edges
    if kind == "chord":
        edges = theta_edges(*_random_triple(rng, n))
        present = {(min(u, v), max(u, v)) for u, v in edges}
        while True:
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            if (u, v) not in present:
                return edges + [(u, v)]
    if kind == "sparse":
        while True:
            edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
            for _ in range(rng.randint(1, 3)):
                u, v = sorted(rng.sample(range(1, n + 1), 2))
                edges.add((u, v))
            edges = sorted(edges)
            if _is_theta_shaped(n, edges):
                continue
            bound = greedy_resolving_size(n, edges)
            if sum(comb(n, j) for j in range(1, bound + 1)) <= SPARSE_CANDIDATE_BUDGET:
                return edges
    raise ValueError(f"unknown network kind {kind!r}")


def general_networks(seed: int, blocks: int = GENERAL_BLOCKS) -> list[list[Network]]:
    rng = random.Random(f"landmarks-general:{seed}")
    out = []
    for _ in range(blocks):
        members = [(kind, n) for kind, orders in GENERAL_BLOCK for n in orders]
        rng.shuffle(members)
        out.append([_network(rng, kind, n, _general_graph(rng, kind, n)) for kind, n in members])
    return out


#: CLI commands by group.  Every member's stdout and exit code are pinned in
#: pins.json.
CLI_GROUPS = {
    "dim": [f"dim {p} {q} {r}" for p, q, r in ((3, 7, 3), (5, 5, 5), (2, 4, 6), (0, 8, 9), (10, 3, 7), (4, 6, 4))],
    "dim-oracle": [f"dim {p} {q} {r} --oracle" for p, q, r in ((3, 7, 3), (2, 4, 6), (6, 2, 9))],
    "basis": [f"basis {p} {q} {r}" for p, q, r in ((3, 7, 3), (4, 6, 4), (10, 3, 7), (1, 5, 2), (6, 2, 9))],
    "build": [f"build {p} {q} {r}" for p, q, r in ((3, 7, 3), (2, 2, 5), (8, 6, 4))],
    "check-resolving": [
        "check 3 7 3 --set 1,2,6", "check 5 5 5 --set 1,5", "check 5 5 5 --set 1,5,9",
        "check 10 3 7 --set 1,9",
    ],
    "check-unresolved": ["check 3 7 3 --set 1", "check 5 5 5 --set 1,2", "check 2 4 6 --set 4"],
    "landmarks": ["landmarks @field"],
    "malformed": ["landmarks @unknown-node", "landmarks @open-quote", "landmarks @bad-directive"],
}
CLI_FILES = {
    "unknown-node": 'node "Field 1"\nlink "Field 1" "Field 2"\n',
    "open-quote": 'node "Field 1\nnode "Field 2"\n',
    "bad-directive": 'node "Field 1"\nedge "Field 1" "Field 1"\n',
}
#: Passes of ``cli``: each runs every command above once, in its own seeded
#: order, so every seed has the same mix and the same nodes per pass.
CLI_PASSES = 2


def _cli_nodes(key: str) -> int:
    words = key.split()
    if words[1] == "@field":
        return 12
    if words[1].startswith("@"):
        return 0
    return sum(int(w) for w in words[1:4])


def cli_calls(seed: int, passes: int = CLI_PASSES, smoke: bool = False) -> list[list[CliCall]]:
    """``passes`` shuffles of every command, or with ``smoke`` one shuffle of
    the first command of each group."""
    rng = random.Random(f"cli:{seed}")
    out = []
    for _ in range(passes):
        keys = [k for members in CLI_GROUPS.values() for k in (members[:1] if smoke else members)]
        rng.shuffle(keys)
        out.append([CliCall(key=k, argv=tuple(k.split()), nodes=_cli_nodes(k)) for k in keys])
    return out


def make(workload: str, seed: int, smoke: bool = False) -> list[list]:
    """The workload's inputs for one seed, as a list of passes.

    A run cycles through the passes until its time is up, finishing the pass
    it is in, so every run sees whole passes with the same mix.  ``smoke``
    shrinks every size.
    """
    if workload == "sweep-n24":
        return [[SWEEP_SMOKE_MAX_N if smoke else SWEEP_MAX_N]]
    if workload == "landmarks-theta":
        if smoke:
            return theta_networks(seed, THETA_SMOKE_SIZES, passes=1)
        return theta_networks(seed)
    if workload == "landmarks-general":
        return general_networks(seed, GENERAL_SMOKE_BLOCKS if smoke else GENERAL_BLOCKS)
    if workload == "cli":
        return cli_calls(seed, 1, smoke=True) if smoke else cli_calls(seed)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(inputs) -> str:
    """SHA-256 of the generated inputs' repr (dataclasses repr every field)."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()
