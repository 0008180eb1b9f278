"""Regenerate pins.json from the package as it stands.

Usage, from the repository root: ``python3 perfbench/pin.py``.

Pins are the benchmark's expected outputs: the sweep reports' summaries and
SHA-256 hashes, every CLI command's stdout and exit code, and digests of the
oracle witnesses in the pinned blocks of ``landmarks-general`` for seeds
0 to 99.  Re-pin only when a change is meant to alter those outputs, and say
so; a speed-up must leave every pin as it is.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
from dataclasses import asdict

import inputs
import workloads

#: Seeds of ``landmarks-general`` whose oracle witnesses are pinned.
PINNED_SEEDS = range(100)


def main() -> int:
    root = workloads.HERE.parent
    sys.path.insert(0, str(root / "src"))
    api = importlib.import_module("thetadim")

    pins: dict = {"sweep": {}, "cli": {}, "general_witnesses": {}}
    for max_n in (inputs.SWEEP_MAX_N, inputs.SWEEP_SMOKE_MAX_N):
        report = api.sweep(max_n)
        pins["sweep"][str(max_n)] = {
            "summary": asdict(report.summary),
            "json_sha256": workloads.sha256(api.emit_report(report, "json")),
            "csv_sha256": workloads.sha256(api.emit_report(report, "csv")),
        }

    workdir = root / workloads.WORK_DIR / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = workloads.CliWorkload(root, workdir, [], {"cli": {}})
        for key in (k for members in inputs.CLI_GROUPS.values() for k in members):
            proc = cli.run(inputs.CliCall(key=key, argv=tuple(key.split()), nodes=0))
            pins["cli"][key] = {"exit": proc.returncode, "stdout": proc.stdout}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for seed in PINNED_SEEDS:
        blocks = inputs.general_networks(seed, workloads.PIN_BLOCKS)
        pins["general_witnesses"][str(seed)] = [
            workloads.witness_digest(
                api.assign_landmarks(api.parse_network(net.text)).landmarks for net in block
            )
            for block in blocks
        ]
    workloads.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
