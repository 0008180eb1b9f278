"""Run every workload once and print all end-to-end metrics as one table.

Usage, from the repository root: ``python3 perfbench/report.py [--seed N]``.
Each workload runs in its own process, one after another, exactly as
``perfbench/run.py`` runs it for ``run_seconds`` of ``BENCHMARK.json``; the
table repeats their ``#`` lines.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import inputs
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    root = workloads.HERE.parent
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(workloads.HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=root,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
            sys.stderr.write(proc.stderr)
        for line in lines[:-1]:
            if not line.startswith("# host") or workload == inputs.WORKLOADS[0]:
                print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
