"""The benchmark runs against the library's public API: a change to that API
which breaks the benchmark fails here, not only when the benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def smoke_run(workload, *options):
    """The result line of a short smoke run of one benchmark workload."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2", *options,
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result


@pytest.mark.parametrize("workload", ["sweep-n24", "landmarks-theta", "landmarks-general", "cli"])
def test_benchmark_smoke_run_is_correct(workload):
    smoke_run(workload)


def traced_smoke_run(workload):
    """The result line of a traced smoke run, which must report each per-layer
    metric the benchmark declares."""
    result = smoke_run(workload, "--trace", "1")
    declared = [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(result["metrics"]) == sorted(declared)
    return result


def test_traced_sweep_smoke_run_reports_every_layer():
    # The sweep settles most class dimensions without the public oracle, so
    # its oracle spans may read 0; the traced path must still run, check its
    # outputs and report each per-layer metric the benchmark declares.
    traced_smoke_run("sweep-n24")


def test_traced_landmarks_smoke_run_times_the_network_parser():
    # The package loads thetadim.network on first use; the tracer must still
    # wrap parse_network, so its span has time in it.
    result = traced_smoke_run("landmarks-theta")
    assert result["metrics"]["network.parse_network.self_s"]["value"] > 0
