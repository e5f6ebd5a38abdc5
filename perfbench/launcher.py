"""Run ``vfso.cli.main`` with the span wrappers installed (traced cli_paper ops).

Usage: python3 perfbench/launcher.py DUMP_PATH <vfso CLI arguments...>

Writes the tracer's totals, counters and spans to DUMP_PATH as JSON and
exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    import vfso.cli

    try:
        return vfso.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
