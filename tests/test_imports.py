"""What ``import trajkit`` loads.

The runtime needs only NumPy: no ``scipy*`` module may be loaded by
``import trajkit`` or by ``import trajkit.cli``, which every CLI command
runs. The spline moment solve and the metrics' distance matrix are plain
Python/NumPy, bit-equal to ``scipy.linalg.solve_banded`` and
``scipy.spatial.distance.cdist`` (the tests check both against SciPy). On
a 2-vCPU x86_64 VM (Python 3.11, NumPy 2.4, SciPy 1.17) loading SciPy for
those two calls took a cold ``import trajkit.cli`` from about 0.27 to
0.71 s and from 27 to 67 MB of peak RSS.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["trajkit", "trajkit.cli"])
def test_import_loads_no_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
