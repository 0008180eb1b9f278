"""thetadim benchmark: verification sweep, landmark assignment and CLI calls.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one process, one caller, closed loop, no threads):

``sweep-n24``
    ``sweep(24)`` over all 2,233 valid triples, then the report as JSON and
    CSV: the audit job.  The input is fixed, so the seed is ignored.
``landmarks-theta``
    ``parse_network`` + ``assign_landmarks`` on theta networks of 300 to
    1,500 nodes: the closed-form path, dominated by the all-pairs BFS matrix.
``landmarks-general``
    The same calls on non-theta networks of 10 to 22 nodes: the exhaustive
    oracle, searching deeper than the sweep does.
``cli``
    ``python -m thetadim.cli`` subprocesses, one at a time: start-up cost.

The process is pinned to one CPU, and the CLI processes inherit that.

With ``--trace 0`` a run times operations for ``--seconds`` (whole passes
over the inputs) and reports the end-to-end metrics, every timing scaled to
one host speed (see hostspeed.py); with ``--trace 1`` it
alternates untraced and traced passes over a fixed share of the inputs and
reports per-layer self times and counters.  Every output is checked; the last
line of stdout is the JSON result, and the lines before it give the same
figures with units, sample counts and the host.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import hostspeed
import inputs
import workloads
from tracer import TRACED, Tracer, load, self_times

ROOT = workloads.HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 9
STARTUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SPAN_NAMES = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]
PER_LAYER = {
    "resolve.metric_dimension_oracle.self_s": "s",
    "resolve.oracle.candidates": "count",
    "resolve.oracle.hit_ratio": "ratio",
    "resolve.oracle.candidates_per_s": "1/s",
    "graphs.all_pairs.self_s": "s",
    "graphs.all_pairs.calls": "count",
    "graphs.all_pairs.bytes_computed": "bytes",
    "closed_form.formula_representation.self_s": "s",
    "closed_form.formula_representation.calls": "count",
    "resolve.representation.self_s": "s",
    "resolve.is_resolving.self_s": "s",
    "resolve.is_minimal_resolving.self_s": "s",
    "closed_form.closed_form_basis.self_s": "s",
    "closed_form.dispatch_case.self_s": "s",
    "theta.build_c.self_s": "s",
    "sweep.sweep.self_s": "s",
    "sweep.check_triple.self_s": "s",
    "sweep.emit_report.self_s": "s",
    "sweep.emit_report.bytes": "bytes",
    "network.parse_network.self_s": "s",
    "network.network_graph.self_s": "s",
    "theta.detect_theta.self_s": "s",
    "theta.detect_theta.rejects": "count",
    "network.assign_landmarks.self_s": "s",
    "cli.main.self_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Tally:
    """Latency samples, nodes handled and failures of a series of operations.

    ``keys[i]`` is the input key of sample ``i``; a run cycles over the same
    inputs, so one key has a sample per cycle, and each is one attempt.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.samples: list[float] = []
        self.keys: list = []
        self.nodes = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.samples)

    def run(self, work, key, item, tracer: Tracer | None = None) -> None:
        if tracer is not None:
            tracer.request = len(self.samples)
        start = self.clock()
        try:
            out, error = work.run(item), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        self.samples.append(self.clock() - start)
        self.keys.append(key)
        self.nodes += work.nodes(item)
        try:
            problems = [error] if error else work.check(key, item, out)
        except Exception as exc:  # an output the check cannot read is wrong
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed.add(len(self.samples) - 1)
            self.problems.extend(problems)

    def failures(self, failed_keys=frozenset()) -> int:
        """Failed attempts: samples that failed their own check, plus every
        sample of a key that a run-level gate failed."""
        return len(self.failed | {i for i, key in enumerate(self.keys) if key in failed_keys})


def run_passes(work, passes, tally: Tally, tracer: Tracer | None = None) -> None:
    for p, items in passes:
        for i, item in enumerate(items):
            tally.run(work, (p, i), item, tracer)


def tail(samples: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with at least ten samples beyond it,
    but never below the 90th percentile, so that with few samples (a sweep
    takes seconds) the tail stays near the maximum instead of dropping to
    the minimum at eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    i = max(n - 11, math.ceil(0.9 * n) - 1)
    return ordered[i], f"p{100 * (i + 1) / n:.1f} of {n}"


def timed_run(work, seconds: float) -> tuple[dict, dict, Tally]:
    """Whole passes, cycling, until ``seconds`` have elapsed.  Each latency is
    divided by the host's slowness around it (see hostspeed.py): the mean of
    the probes right before and after the operation and of the units sampled
    while it ran, or for CLI processes of interpreter-start probes before and
    after.  The metrics are taken over the scaled latencies."""
    in_process = not isinstance(work, workloads.CliWorkload)
    sampler = hostspeed.Sampler()
    tally = Tally(sampler.clock)
    probe = functools.partial(hostspeed.probe, clock=sampler.clock) if in_process else hostspeed.start_probe
    probes: list[float] = []
    during: list[list[float]] = []
    with sampler if in_process else contextlib.nullcontext():
        start = time.perf_counter()
        for p, items in itertools.cycle(enumerate(work.passes)):
            if tally.samples and time.perf_counter() - start >= seconds:
                break
            for i, item in enumerate(items):
                probes.append(probe())
                first = len(sampler.samples)
                tally.run(work, (p, i), item)
                during.append(sampler.samples[first:])
        probes.append(probe())
    factors = [
        1 / statistics.fmean([before, *samples, after])
        for before, samples, after in zip(probes, during, probes[1:])
    ]
    scaled = [sample * factor for sample, factor in zip(tally.samples, factors)]

    usage = resource.RUSAGE_CHILDREN if isinstance(work, workloads.CliWorkload) else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(usage).ru_maxrss
    tail_s, tail_note = tail(scaled)
    metrics = {
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "nodes_per_s": tally.nodes / sum(scaled),
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = {
        "op_p50_ms": f"median of {len(scaled)}; unscaled {statistics.median(tally.samples) * 1e3:.6g}",
        "op_tail_ms": f"{tail_note}; unscaled {tail(tally.samples)[0] * 1e3:.6g}",
        "nodes_per_s": f"{tally.nodes} nodes in {sum(scaled):.3f} s busy; unscaled {tally.nodes / tally.busy:.6g}",
        "peak_rss_mb": "children (the CLI processes)" if usage == resource.RUSAGE_CHILDREN else "this process",
        "host_factor": f"median {statistics.median(factors):.4f}; {len(probes)} probes, "
                       f"{len(sampler.samples)} units sampled during operations",
    }
    return metrics, notes, tally


def _wall(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, env=env, cwd=ROOT, capture_output=True, timeout=120)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int, smoke: bool) -> tuple[list[float], list[float]]:
    """Set-up times from fresh processes, one set-up each, scaled by the host
    speed each process measures during and after its set-up; and unscaled."""
    argv = [sys.executable, str(workloads.HERE / "setup_probe.py"), workload, str(seed)]
    if smoke:
        argv.append("--smoke")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(argv, check=True, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed, slowness = map(float, out.stdout.split())
        scaled.append(elapsed / slowness)
        raw.append(elapsed)
    return scaled, raw


def startup_ms() -> tuple[float, float]:
    """Medians of bare interpreter start-up, and of ``import thetadim.cli``
    on top of it, in milliseconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare = statistics.median(_wall([sys.executable, "-c", "pass"], env) for _ in range(STARTUP_PROBES))
    cli = statistics.median(
        _wall([sys.executable, "-c", "import thetadim.cli"], env) for _ in range(STARTUP_PROBES)
    )
    return bare * 1e3, (cli - bare) * 1e3


def layer_metrics(spans, counters: Counter, traced_s: float) -> dict:
    per_name = self_times(spans)
    out: dict = {}
    for name in _SPAN_NAMES:
        self_ns, calls = per_name.get(name, (0, 0))
        out[f"{name}.self_s"] = self_ns / 1e9
        out[f"{name}.calls"] = calls
    for name in ("resolve.oracle.candidates", "graphs.all_pairs.bytes_computed",
                 "theta.detect_theta.rejects", "sweep.emit_report.bytes"):
        out[name] = counters[name]
    candidates = counters["resolve.oracle.candidates"]
    oracle_s = out["resolve.metric_dimension_oracle.self_s"]
    out["resolve.oracle.hit_ratio"] = counters["resolve.oracle.witnesses"] / candidates if candidates else 0.0
    out["resolve.oracle.candidates_per_s"] = candidates / oracle_s if oracle_s else 0.0
    out["trace.traced_s"] = traced_s
    out["trace.unattributed_s"] = traced_s - sum(out[f"{name}.self_s"] for name in _SPAN_NAMES)
    return out


def _collect_child_spans(tracer: Tracer, files: list[Path]) -> None:
    """Merge the CLI processes' span files into the tracer, one request each."""
    for request, path in enumerate(files):
        spans, counters = load(path)
        base = len(tracer.spans)
        tracer.spans.extend(
            (request, name, start, end, parent + base if parent >= 0 else -1)
            for _, name, start, end, parent in spans
        )
        tracer.counters.update(counters)
        path.unlink()


def traced_run(work, workload: str, seconds: float, trace_file: Path) -> tuple[dict, dict, Tally]:
    """Alternate untraced and traced passes over the leading inputs until
    ``seconds`` have elapsed; per-layer figures are medians over traced passes."""
    unit = list(enumerate(work.passes[: workloads.TRACE_PASSES[workload]]))
    tracer = Tracer()
    tally = Tally()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        before = tally.busy
        run_passes(work, unit, tally)
        plain.append(tally.busy - before)

        tracer.reset()
        before = tally.busy
        if isinstance(work, workloads.CliWorkload):
            work.spans_files = []
            try:
                run_passes(work, unit, tally, tracer)
            finally:
                files, work.spans_files = work.spans_files, None
            _collect_child_spans(tracer, files)
        else:
            tracer.install()
            try:
                run_passes(work, unit, tally, tracer)
            finally:
                tracer.uninstall()
        traced.append(tally.busy - before)
        per_pass.append(layer_metrics(tracer.spans, tracer.counters, traced[-1]))
    tracer.dump(trace_file)

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = startup_ms()
    notes = {name: f"median of {len(per_pass)} traced passes" for name in metrics}
    notes["trace.overhead_s"] = (
        f"median traced {statistics.median(traced):.3f} s - untraced {statistics.median(plain):.3f} s"
    )
    notes["cli.interpreter_ms"] = notes["cli.import_ms"] = f"median of {STARTUP_PROBES} processes"
    return metrics, notes, tally


def pin_to_one_cpu() -> None:
    """Run this process and the processes it starts on one CPU, so that the
    host-speed probes and the CLI processes they scale share its state."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def host() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thetadim" / "__init__.py").is_file():
        print(f"error: no thetadim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    workdir = ROOT / workloads.WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        api = importlib.import_module("thetadim")
        work = workloads.prepare(api, args.workload, args.seed, ROOT, workdir, args.smoke)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, notes, tally = traced_run(work, args.workload, args.seconds, trace_file)
            units = PER_LAYER
        else:
            metrics, notes, tally = timed_run(work, args.seconds)
            setups, raw = setup_seconds(args.workload, args.seed, args.smoke)
            metrics["setup_s"] = statistics.median(setups)
            notes["setup_s"] = f"median of {len(setups)} set-ups; unscaled {statistics.median(raw):.6g}"
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_keys, problems = work.finish()
    failed = tally.failures(failed_keys)
    attempted = len(tally.samples)
    for problem in (tally.problems + problems)[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"# host {host()}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        print(f"# {name:42} {metrics[name]:>16.6g} {unit:6} {notes.get(name, '')}")
    if "host_factor" in notes:
        print(f"# {'host_factor':42} {'':16} {'':6} {notes['host_factor']}")
    print(f"# {'error_rate':42} {failed / attempted:>16.6g} {'':6} {failed} failed of {attempted} attempted")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
