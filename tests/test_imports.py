"""What ``import trajkit`` loads.

The runtime needs only NumPy: no ``scipy*`` module may be loaded by
``import trajkit`` or by ``import trajkit.cli``, which every CLI command
runs. The spline moment solve and the metrics' distance matrix are plain
Python/NumPy, bit-equal to ``scipy.linalg.solve_banded`` and
``scipy.spatial.distance.cdist`` (the tests check both against SciPy). On
a 2-vCPU x86_64 VM (Python 3.11, NumPy 2.4, SciPy 1.17) loading SciPy for
those two calls took a cold ``import trajkit.cli`` from about 0.27 to
0.71 s and from 27 to 67 MB of peak RSS.

The public API is guarded too: every ``__all__`` name resolves, once, the
replan helpers that ``controller_step`` replaced stay deleted, and so do the
options whose value the inputs already fix.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import trajkit

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


MODULES = [trajkit] + [importlib.import_module(f"trajkit.{info.name}")
                      for info in pkgutil.iter_modules(trajkit.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda module: module.__name__)
def test_every_exported_name_resolves_once(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_replan_helpers_are_gone():
    # controller_step and its ReplanEvent are the whole replan API
    for name in ("nearest_pending_index", "forward_direction", "keep_test", "EmptyPlanError"):
        assert name not in trajkit.__all__
        for mod in (trajkit, trajkit.replan, trajkit.errors):
            assert not hasattr(mod, name), (mod.__name__, name)
    fields = {field.name for field in dataclasses.fields(trajkit.ControllerState)}
    assert "transition_duration" not in fields


@pytest.mark.parametrize("function, option", [
    (trajkit.fit, "bc_type"), (trajkit.PositionSpline.fit, "bc_type"),
    (trajkit.full_report, "dtw_normalized"), (trajkit.dtw, "normalized"),
    (trajkit.reconstruction_error, "alpha"), (trajkit.reconstruction_error, "weights"),
], ids=["fit-bc_type", "spline-fit-bc_type", "full_report-dtw_normalized", "dtw-normalized",
        "reconstruction_error-alpha", "reconstruction_error-weights"])
def test_options_the_inputs_decide_stay_removed(function, option):
    # end_velocities decides the spline ends, and the report always
    # normalizes DTW (the raw sum is config["dtw_raw"])
    assert option not in inspect.signature(function).parameters


def test_position_spline_has_no_acceleration():
    assert not hasattr(trajkit.PositionSpline, "acceleration")


def test_continuous_trajectory_samples_only():
    # sample returns the velocity and the gripper of each time from its one lookup
    for name in ("velocity", "gripper"):
        assert not hasattr(trajkit.ContinuousTrajectory, name), name
