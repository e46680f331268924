"""What ``import trajkit`` loads.

``scipy.interpolate`` must stay out of the library's import graph. On a
2-vCPU x86_64 VM (Python 3.11, SciPy 1.17) importing it on top of
trajkit raised peak RSS from 66 to 79 MB and the import time from about
0.6 to 0.7-0.9 s; in the closed-loop benchmark that showed as peak_rss_mb
72 -> 86 MB and setup_s +28-40%, past both bounds. The spline moments
use ``scipy.linalg.solve_banded``, which is loaded anyway.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_interpolate():
    code = "import sys, trajkit; print('scipy.interpolate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
