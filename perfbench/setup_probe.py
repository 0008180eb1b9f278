"""Time one benchmark set-up in a fresh process and print it in seconds.

Usage: ``python perfbench/setup_probe.py WORKLOAD SEED [--smoke]``.  The clock
starts before ``import thetadim`` and before the benchmark's own modules other
than hostspeed.py, so the package's import is timed in a bare interpreter, and
stops when the workload's inputs are ready, which is what a run does before
its first timed call.  hostspeed.py is loaded and its unit run once before
the clock starts; a host-speed sampler runs during the set-up, outside its
clock, and nine more units follow it.  The second number printed is the
median slowness over all of them.
"""

import hostspeed

hostspeed.unit()

import time  # noqa: E402

START = time.perf_counter()

import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: Units timed after the set-up.
SPEED_UNITS = 9


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    with hostspeed.Sampler() as sampler:
        sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
        api = importlib.import_module("thetadim")

        import shutil

        import workloads

        workdir = workloads.HERE.parent / workloads.WORK_DIR / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            workloads.prepare(api, workload, seed, workloads.HERE.parent, workdir, smoke="--smoke" in sys.argv)
            elapsed = sampler.clock() - START
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    after = [hostspeed.timed_unit() / hostspeed.REF_UNIT_S for _ in range(SPEED_UNITS)]
    print(repr(elapsed), repr(hostspeed.median([*sampler.samples, *after])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
