"""The four workloads: what one operation calls, and how its output is checked.

Each workload object has ``passes`` (lists of input items), ``run(item)``
(the timed call into thetadim), ``check(key, item, out)`` (a list of problems,
empty when the output is right), ``nodes(item)`` (graph vertices handled) and
``finish()`` (run-level gates, returning the keys of the operations they
fail and their problems).  Checks never call the function they check: BFS from the
package's ``bfs_distances`` on the generator's own edge list is the ground
truth for landmark codes, and reports and CLI output are compared with values
pinned in ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"
#: Scratch directory under the checkout root for files a run writes.
WORK_DIR = ".perfbench-work"

#: Leading passes a traced run times; the same fixed work on every run.
TRACE_PASSES = {"sweep-n24": 1, "landmarks-theta": 1, "landmarks-general": 10, "cli": 1}
#: Leading blocks of ``landmarks-general`` whose oracle witnesses are pinned.
PIN_BLOCKS = TRACE_PASSES["landmarks-general"]


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def witness_digest(landmark_lists) -> str:
    """Short digest of one block's landmark names, in block order."""
    return sha256("\n".join("\t".join(names) for names in landmark_lists))[:16]


class SweepWorkload:
    def __init__(self, api, passes, pins):
        self.api, self.passes, self.pins = api, passes, pins["sweep"]

    def run(self, max_n):
        report = self.api.sweep(max_n)
        return report, self.api.emit_report(report, "json"), self.api.emit_report(report, "csv")

    def check(self, key, max_n, out):
        report, text_json, text_csv = out
        pin = self.pins[str(max_n)]
        problems = []
        if asdict(report.summary) != pin["summary"]:
            problems.append(f"summary {asdict(report.summary)} != pinned {pin['summary']}")
        if sha256(text_json) != pin["json_sha256"]:
            problems.append("JSON report differs from the pinned SHA-256")
        if sha256(text_csv) != pin["csv_sha256"]:
            problems.append("CSV report differs from the pinned SHA-256")
        return problems

    def nodes(self, max_n):
        return sum(map(sum, inputs.valid_triples(max_n)))

    def finish(self):
        return set(), []


class LandmarkWorkload:
    def __init__(self, api, passes, pinned):
        """``pinned``: digests of the leading blocks' witnesses, or None."""
        self.api, self.passes, self.pinned = api, passes, pinned
        self.witnesses: dict = {}

    def run(self, net):
        return self.api.assign_landmarks(self.api.parse_network(net.text))

    def check(self, key, net, table):
        api = self.api
        index = {name: v for v, name in enumerate(net.names, start=1)}
        unknown = [name for name in table.landmarks if name not in index]
        if unknown:
            return [f"unknown landmark names {unknown}"]
        basis = [index[name] for name in table.landmarks]
        g = api.new_graph(len(net.names), net.edges)
        rows = [api.bfs_distances(g, w) for w in basis]
        codes = {name: tuple(row[v - 1] for row in rows) for name, v in index.items()}
        problems = []
        if table.codes != codes:
            problems.append("landmark codes differ from BFS distances")
        if len(set(codes.values())) != len(codes):
            problems.append("landmarks do not resolve the network")
        if net.params is not None:
            if not table.method.startswith("closed-form"):
                problems.append(f"theta network took method {table.method!r}")
            expected = api.dimension_by_path_lengths(*net.params)
            if len(basis) != expected:
                problems.append(f"{len(basis)} landmarks, dimension is {expected}")
        else:
            if table.method != "oracle":
                problems.append(f"non-theta network took method {table.method!r}")
            for drop in range(len(rows)):
                rest = rows[:drop] + rows[drop + 1:]
                if rest and len({tuple(row[v] for row in rest) for v in range(g.n)}) == g.n:
                    problems.append(f"landmark {table.landmarks[drop]!r} is redundant")
            if self.pinned is not None and key[0] < PIN_BLOCKS:
                self.witnesses[key] = table.landmarks
        return problems

    def nodes(self, net):
        return len(net.names)

    def finish(self):
        """Compare the witnesses of the pinned blocks this run reached with
        their digests.  Seeds without pins get the per-operation checks only.
        """
        failed, problems = set(), []
        if self.pinned is None:
            return failed, problems
        for b, digest in enumerate(self.pinned[: len(self.passes)]):
            keys = [(b, i) for i in range(len(self.passes[b]))]
            found = [self.witnesses.get(key) for key in keys]
            if found.count(None) == len(found):
                continue
            if None in found or witness_digest(found) != digest:
                failed.update(keys)
                problems.append(f"block {b}: oracle witnesses differ from the pinned digest")
        return failed, problems


class CliWorkload:
    def __init__(self, root: Path, workdir: Path, passes, pins):
        self.passes, self.pins, self.workdir = passes, pins["cli"], workdir
        self.files = {"@field": str(root / "src" / "thetadim" / "data" / "field_network.txt")}
        for name, text in inputs.CLI_FILES.items():
            path = workdir / f"{name}.txt"
            path.write_text(text)
            self.files[f"@{name}"] = str(path)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        #: When a list, calls run under traced_cli.py and append their spans
        #: file here.
        self.spans_files: list[Path] | None = None

    def run(self, call):
        command = [sys.executable, "-m", "thetadim.cli"]
        if self.spans_files is not None:
            path = self.workdir / f"spans-{len(self.spans_files)}.jsonl"
            self.spans_files.append(path)
            command = [sys.executable, str(HERE / "traced_cli.py"), str(path)]
        argv = [self.files.get(arg, arg) for arg in call.argv]
        return subprocess.run(
            [*command, *argv], capture_output=True, text=True,
            env=self.env, cwd=self.workdir, timeout=120,
        )

    def check(self, key, call, proc):
        pin = self.pins[call.key]
        problems = []
        if proc.returncode != pin["exit"]:
            problems.append(f"{call.key!r} exited {proc.returncode}, pinned {pin['exit']}")
        if proc.stdout != pin["stdout"]:
            problems.append(f"{call.key!r} stdout differs from the pinned output")
        if "Traceback" in proc.stderr:
            problems.append(f"{call.key!r} printed a traceback")
        return problems

    def nodes(self, call):
        return call.nodes

    def finish(self):
        return set(), []


def prepare(api, workload: str, seed: int, root: Path, workdir: Path, smoke: bool = False):
    """Generate the inputs and build the workload; this is what setup_s times."""
    passes = inputs.make(workload, seed, smoke)
    pins = load_pins()
    if workload == "sweep-n24":
        return SweepWorkload(api, passes, pins)
    if workload == "landmarks-theta":
        return LandmarkWorkload(api, passes, None)
    if workload == "landmarks-general":
        return LandmarkWorkload(api, passes, pins["general_witnesses"].get(str(seed)))
    return CliWorkload(root, workdir, passes, pins)
