"""Prove that each workload's output checks fire.

    python3 bench/selftest.py [--seed N]

For every workload, ops run through the benchmark's own measuring loop
twice: once as is, where no op may fail, and once with one output file
damaged after every op (a flipped token for prep, a perturbed report row
for eval, a truncated log for closed-loop), where every op must be
counted as failed. Exits 1 if either does not hold.
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, OUT, measure, setup
from workloads import WORKLOADS

SECONDS = 1.5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{workload.name}-", dir=OUT))
        try:
            cli, items = setup(workload, args.seed, workdir)
            clean = measure(workload, cli, items, args.seed, SECONDS)
            damaged = measure(workload, cli, items, args.seed, SECONDS, corrupt=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        fired = len(damaged.failures) == damaged.attempted
        ok &= fired and not clean.failures
        print(f"{workload.name:12s} clean: failed_frac {len(clean.failures)}/{clean.attempted}   "
              f"damaged: failed_frac {len(damaged.failures)}/{damaged.attempted}   "
              f"{'ok' if fired and not clean.failures else 'CHECK DID NOT FIRE'}")
        if damaged.failures:
            print(f"    e.g. {damaged.failures[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
