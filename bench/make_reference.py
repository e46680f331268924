"""Write ``reference_eval.json``: the eval workload's report values for the
default seed, which the eval check compares every later run against.

    python3 bench/make_reference.py

Regenerate it only when the eval inputs change, never to make a library
change pass.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from run import DEFAULT_SEED, OUT, REFERENCE, import_cli
from workloads import WORKLOADS, reference_values


def main() -> None:
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        items = WORKLOADS["eval"].make(np.random.default_rng(DEFAULT_SEED), Path(tmp))
        values = {}
        for item in items:
            for argv in item.argvs:
                if cli.cli_main(argv) != 0:
                    raise SystemExit(f"error: {item.name} failed")
            values[item.name] = reference_values(item)
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "items": values}, indent=1) + "\n")
    print(f"wrote {len(values)} reference reports to {REFERENCE}")


if __name__ == "__main__":
    main()
