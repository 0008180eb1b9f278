"""Self-tests of the benchmark.  Run from the repository root with
``python -m pytest perfbench -q`` (the package's own suite is under tests/)."""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import inputs
import run
import workloads
from tracer import TRACED, Tracer, oracle_candidates

ROOT = workloads.HERE.parent
sys.path.insert(0, str(ROOT / "src"))
import thetadim  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Oracle candidate sets over the traced blocks of ``landmarks-general``.  The
#: fixed block mix (K_12 and K_{5,5} alone give 118,270 to 121,790) sets the
#: level; the random members move it within this range.
GENERAL_CANDIDATES_RANGE = (140_000, 180_000)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert inputs.fingerprint(inputs.make(workload, 11)) == inputs.fingerprint(inputs.make(workload, 11))
    if workload != "sweep-n24":
        assert inputs.fingerprint(inputs.make(workload, 11)) != inputs.fingerprint(inputs.make(workload, 12))


def test_theta_inputs_are_theta_graphs_and_general_inputs_are_not():
    for net in itertools.chain.from_iterable(inputs.make("landmarks-theta", 5)):
        assert thetadim.detect_theta(thetadim.network_graph(thetadim.parse_network(net.text))).params.n == len(net.names)
    for net in itertools.chain.from_iterable(inputs.make("landmarks-general", 5)[:3]):
        g = thetadim.network_graph(thetadim.parse_network(net.text))
        assert g.is_connected() and thetadim.detect_theta(g) is None


@pytest.mark.parametrize("triple", [(3, 7, 3), (5, 5, 5), (2, 4, 6), (0, 8, 9), (4, 2, 3)])
def test_candidate_count_matches_brute_force_enumeration(triple):
    g = thetadim.build_c(*triple)
    tried = 0
    for k in range(1, g.n + 1):
        for cand in itertools.combinations(range(1, g.n + 1), k):
            tried += 1
            if thetadim.is_resolving(g, cand):
                assert cand == thetadim.metric_dimension_oracle(g).witness
                assert oracle_candidates(g.n, cand) == tried
                return


def test_sweep_oracle_candidates_total():
    total = sum(
        oracle_candidates(sum(t), thetadim.metric_dimension_oracle(thetadim.build_c(*t)).witness)
        for t in inputs.valid_triples(inputs.SWEEP_MAX_N)
    )
    assert total == 62_036


def test_general_candidate_totals_across_seeds_stay_in_range():
    totals = []
    for seed in (0, 1, 2):
        tracer = Tracer()
        tracer.install()
        try:
            for net in itertools.chain.from_iterable(
                inputs.general_networks(seed, workloads.TRACE_PASSES["landmarks-general"])
            ):
                thetadim.assign_landmarks(thetadim.parse_network(net.text))
        finally:
            tracer.uninstall()
        totals.append(tracer.counters["resolve.oracle.candidates"])
    low, high = GENERAL_CANDIDATES_RANGE
    assert all(low <= t <= high for t in totals), totals


def test_tracer_restores_every_function():
    modules = [thetadim] + [sys.modules[f"thetadim.{m}"] for m in TRACED if f"thetadim.{m}" in sys.modules]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    tracer = Tracer()
    tracer.install()
    assert thetadim.sweep is not before[("thetadim", "sweep")]
    tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after == before


def test_wrong_pinned_hash_fails_every_attempt():
    pins = workloads.load_pins()
    pins["sweep"][str(inputs.SWEEP_SMOKE_MAX_N)]["json_sha256"] = "0" * 64
    work = workloads.SweepWorkload(thetadim, inputs.make("sweep-n24", 0, smoke=True), pins)
    tally = run.Tally()
    run.run_passes(work, list(enumerate(work.passes)) * 2, tally)
    assert len(tally.samples) == 2
    assert tally.failures() / len(tally.samples) == 1
    assert any("pinned SHA-256" in p for p in tally.problems)


def test_wrong_pinned_witness_digest_fails_every_attempt_of_the_block():
    passes = inputs.make("landmarks-general", 0, smoke=True)
    work = workloads.LandmarkWorkload(thetadim, passes, ["0" * 16])
    tally = run.Tally()
    run.run_passes(work, list(enumerate(passes)) * 2, tally)
    assert tally.failures() == 0
    failed_keys, problems = work.finish()
    assert problems
    assert tally.failures(failed_keys) == len(tally.samples) == 2 * len(passes[0])


def test_tail_is_highest_percentile_with_ten_samples_beyond_but_at_least_p90():
    assert run.tail([float(i) for i in range(1000)])[0] == 989.0
    assert run.tail([float(i) for i in range(100)])[0] == 89.0
    assert run.tail([float(i) for i in range(11)])[0] == 9.0
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


class _Sleeps:
    """A workload whose operations sleep for their item's seconds."""

    passes = [[0.002, 0.004, 0.15]]

    def run(self, seconds):
        time.sleep(seconds)

    def check(self, key, item, out):
        return []

    def nodes(self, item):
        return 1


def test_latencies_are_scaled_by_a_host_twice_as_slow_as_the_reference(monkeypatch):
    """Probes and the units sampled during the 0.15 s operation all take
    twice ``REF_UNIT_S``, so every latency is halved."""
    monkeypatch.setattr(hostspeed, "probe", lambda *args, **kwargs: 2.0)
    monkeypatch.setattr(hostspeed, "timed_unit", lambda *args: 2 * hostspeed.REF_UNIT_S)
    metrics, notes, tally = run.timed_run(_Sleeps(), 0.05)
    assert "0 units sampled" not in notes["host_factor"]
    assert metrics["op_p50_ms"] == pytest.approx(statistics.median(tally.samples) * 1e3 / 2, rel=0.05)
    assert metrics["nodes_per_s"] == pytest.approx(2 * tally.nodes / tally.busy, rel=0.05)


def test_host_speed_unit_is_fixed_work():
    assert hostspeed.unit() == hostspeed.unit()
    assert 0 < hostspeed.probe() and 0 < hostspeed.start_probe()


def test_fails_without_a_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
