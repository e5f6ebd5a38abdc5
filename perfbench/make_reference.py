"""Regenerate the committed reference outputs in perfbench/reference/.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every pool entry of each workload once on the current tree and stores
its output summary (see checks.py) plus a digest of the pool inputs. The
committed files were made at the seed commit; regenerate them only when a
change to vfso's outputs is intended, and say so in the change.
"""

from __future__ import annotations

import os
import shutil
import sys

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(names: list[str]) -> int:
    for name in names or list(workloads.WORKLOADS):
        workdir = os.path.join(HERE, ".work", f"reference-{name}-{os.getpid()}")
        try:
            workload = workloads.WORKLOADS[name](workdir)
            outputs = []
            for index in range(workload.pool_size):
                result = workload.execute(index)
                if result.problems:
                    print("\n".join(result.problems), file=sys.stderr)
                    return 1
                outputs.append(result.summary)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference = {"inputs": checks.digest(workload.inputs), "outputs": outputs}
        checks.save_reference(os.path.join(HERE, "reference"), name, reference)
        print(f"{name}: {len(outputs)} pool entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
