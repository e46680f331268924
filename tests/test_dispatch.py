"""Outputs with and without NumPy's AVX-512 kernels.

NumPy picks a SIMD kernel for ``arccos``, ``arcsin`` and ``arctan2`` by CPU
feature, and its AVX-512 kernels round 7.8-9.4% of their results 1 ulp away
from the kernels below them. Those functions reach only the Euler angles
(through ``splines._slerp_rows`` and ``geometry.quaternions_to_eulers``), so
a seeded ``simulate``, ``detokenize`` and ``metrics`` run in a subprocess
with the AVX-512 targets switched off (``NPY_DISABLE_CPU_FEATURES``) must
write every other number as this process does, bit for bit, and each Euler
angle within ``EULER_ULPS`` ulps of pi of it.

The bound is in ulps of pi (4.4e-16), the largest magnitude of an angle,
because an angle near 0 moves by thousands of its own ulps. It was measured
on identical inputs, with and without those targets, on x86_64 with AVX-512
and NumPy 2.4.6:

* the 161 outputs of the seed-1 prep and closed-loop benchmark ops: 4,045
  of 291,660 Euler angles moved, by at most 1.1e-16 (0.25 ulp of pi), and no
  other number moved;
* the inputs below drawn from seeds 0-39: 8,455 of 63,240 angles moved, by
  at most 5.6e-16 (1.25 ulps of pi; 5,229 ulps of the angle itself).

Near gimbal lock (|ry| near pi/2) the conversion to Euler angles amplifies
the 1-ulp moves: with plan angles drawn from [-1.5, 1.5] instead of
[-0.8, 0.8], angles moved by up to 3.4e-14 (77 ulps of pi).
"""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajkit as tk
from trajkit import fileio
from trajkit.cli import cli_main
from conftest import make_camera, rigid, rot_z

SRC = Path(__file__).resolve().parents[1] / "src"
EULER_ULPS = 2  # in ulps of pi


def avx512_targets() -> list:
    """The AVX-512 dispatch targets that NumPy was built with and finds on this CPU."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        return [target for target in ("AVX512_SPR", "AVX512_ICL", "X86_V4")
                if umath.__cpu_features__.get(target) and target in umath.__cpu_dispatch__]
    return []


def seeded_runs(directory: Path) -> list:
    """argvs, without --out, of one simulate, one detokenize and one metrics
    call on inputs drawn from a fixed seed and written under ``directory``."""
    rng = np.random.default_rng(31)
    n = 8
    times = 0.1 * np.arange(n)
    plan = tk.SparseTrajectory(times, 0.4 + np.cumsum(rng.normal(0.0, 0.05, (n, 3)), axis=0),
                               rng.uniform(-0.8, 0.8, (n, 3)), rng.integers(0, 2, n),
                               np.ones(n, bool), tk.Frame.WORLD)
    scenario = tk.Scenario(plan, (tk.Perturbation(0.25, rng.normal(0.0, 0.02, 3)),), 0.02,
                           250.0, 0.7, delayed_planner=True)
    fileio.save_scenario(scenario, directory / "scenario.json")

    cam = make_camera(500.0, 480.0, 320.0, 240.0, 640, 480,
                      rigid(rot_z(0.7), [0.1, -0.2, 0.3]))
    positions = np.column_stack([rng.uniform(-0.2, 0.2, (n, 2)), rng.uniform(0.6, 1.4, n)])
    sparse = tk.SparseTrajectory(times, positions, rng.uniform(-0.8, 0.8, (n, 3)),
                                 rng.integers(0, 2, n), np.ones(n, bool), tk.Frame.CAMERA)
    fileio.save_token_file(tk.encode_sequence(sparse, tk.Anchor(320.0, 240.0, 1.0), cam,
                                              tk.QuantizationSpec.for_camera(cam)),
                           directory / "tokens.json")
    fileio.save_sparse_bundle(sparse, cam, directory / "camera.json")

    for name, m in (("pred", 60), ("ref", 80)):
        dense = tk.DenseTrajectory(np.arange(m) / 30.0,
                                   np.cumsum(rng.normal(0.0, 0.01, (m, 3)), axis=0),
                                   rng.uniform(-1.0, 1.0, (m, 3)), np.zeros(m, int),
                                   tk.Frame.WORLD)
        fileio.save_bundle(dense, None, directory / f"{name}.json")
    return [["simulate", "--scenario", str(directory / "scenario.json")],
            ["detokenize", "--input", str(directory / "tokens.json"), "--camera-from",
             str(directory / "camera.json"), "--rate", "50"],
            ["metrics", "--pred", str(directory / "pred.json"), "--ref",
             str(directory / "ref.json")]]


def assert_same_output(got, want, key=None) -> None:
    """Assert that ``got`` has ``want``'s keys in order and its numbers bit
    for bit, Euler angles within EULER_ULPS ulps of pi."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            assert_same_output(got[k], want[k], k)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            assert_same_output(g, w, key)
    elif key == "euler_xyz":
        assert abs(got - want) <= EULER_ULPS * math.ulp(math.pi), (got, want)
    else:
        assert repr(got) == repr(want), (key, got, want)


@pytest.mark.skipif(not avx512_targets(),
                    reason="NumPy finds no AVX-512 dispatch target on this CPU, so switching "
                           "those targets off would compare two identical runs")
def test_outputs_without_avx512_kernels_differ_only_in_euler_ulps(tmp_path):
    runs = seeded_runs(tmp_path)
    here = [[*argv, "--out", str(tmp_path / f"here{i}.json")] for i, argv in enumerate(runs)]
    there = [[*argv, "--out", str(tmp_path / f"there{i}.json")] for i, argv in enumerate(runs)]
    assert [cli_main(argv) for argv in here] == [0, 0, 0]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(avx512_targets()),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", "import json, sys; from trajkit.cli import cli_main; "
                    "sys.exit(any(cli_main(argv) for argv in json.loads(sys.argv[1])))",
                    json.dumps(there)], check=True, env=env)
    for a, b in zip(here, there):
        assert_same_output(json.loads(Path(b[-1]).read_text()),
                           json.loads(Path(a[-1]).read_text()))
