"""One cold start of a workload, as a one-shot CLI user pays it.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Starts from a fresh interpreter, imports ``tpc`` from the checkout's
``src/``, generates the workload's inputs and runs and checks the first
operation of its cycle.  ``run.py`` times this whole process from spawn to
exit; the exit code is 0 only when the operation's output is correct.
"""

import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    from tpc import cli

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        op = workloads.build_cycle(workload, seed, Path(tmp))[0]
        rc, out = workloads.run_op(cli, op)
        return 0 if workloads.check(op, rc, out) is None else 1


if __name__ == "__main__":
    sys.exit(main())
