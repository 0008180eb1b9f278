"""Run ``thetadim.cli.main`` with span tracing installed.

Usage: ``python perfbench/traced_cli.py SPANS_FILE [cli arguments...]``.
Exits with the CLI's exit code after writing the spans to SPANS_FILE.
"""

import importlib
import sys

from tracer import Tracer


def main() -> int:
    spans_file, *argv = sys.argv[1:]
    cli = importlib.import_module("thetadim.cli")
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
