"""Drive the full file-based pipeline through the CLI.

Writes a camera-frame bundle, then runs:
  keyframes -> tokenize -> detokenize -> metrics -> plot-data
plus a closed-loop simulate call, leaving every artifact in a scratch
directory for inspection.

Run: python3 demos/cli_pipeline.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import trajkit as tk
from trajkit import fileio


def cli(*args):
    cmd = [sys.executable, "-m", "trajkit.cli", *map(str, args)]
    print("$ trajkit " + " ".join(map(str, args)))
    subprocess.run(cmd, check=True)


work = Path(tempfile.mkdtemp(prefix="trajkit_demo_"))
print(f"artifacts in {work}\n")

# a camera-frame reach recorded at 100 Hz, camera block included
cam = tk.CameraModel.simple(fx=320, fy=320, cx=160, cy=120, width=320, height=240)
t = np.linspace(0.0, 2.0, 201)
pos = np.stack([0.15 * t, -0.05 * t, 1.0 + 0.25 * t], axis=1)
gripper = (t >= 1.5).astype(int)
bundle = tk.DenseTrajectory(t, pos, np.zeros((201, 3)), gripper,
                            tk.Frame.CAMERA)
fileio.save_bundle(bundle, cam, work / "demo.json")

cli("keyframes", "--input", work / "demo.json", "--alpha", "2.0",
    "--subframes", "12", "--out", work / "sparse.json")
# the sparse bundle carries the camera, so tokenize needs no --camera-from
cli("tokenize", "--input", work / "sparse.json",
    "--anchor", "160,120,1.2", "--out", work / "tokens.json")
cli("detokenize", "--input", work / "tokens.json", "--camera-from", work / "demo.json",
    "--rate", "100", "--segment-duration", "0.2", "--out", work / "rebuilt.json")
cli("plot-data", "--input", work / "rebuilt.json", "--out", work / "rebuilt.csv")

# compare the original (transformed to world, here identity) vs rebuilt
cli("metrics", "--pred", work / "rebuilt.json", "--ref", work / "demo.json",
    "--tau", "0.05", "--out", work / "report.json")
report = json.loads((work / "report.json").read_text())
print("\nreport rows:")
for name in tk.REPORT_ROW_NAMES:
    print(f"  {name:18s} {report[name]:.4f}")

# closed-loop scenario through the file interface
plan, _ = fileio.load_sparse_bundle(work / "sparse.json")
world_plan = tk.SparseTrajectory(plan.times, plan.positions, plan.eulers, plan.grippers,
                                 plan.keyframe_flags, tk.Frame.WORLD)
scenario = tk.Scenario(world_plan, (tk.Perturbation(1.0, [0.0, 0.01, 0.0]),),
                       replan_interval=0.5, control_rate=100.0, duration=2.0)
fileio.save_scenario(scenario, work / "scenario.json")
cli("simulate", "--scenario", work / "scenario.json", "--out", work / "log.json")
log = fileio.load_execution_log(work / "log.json")
print(f"\nsimulated {len(log.commanded)} control steps, "
      f"{len(log.replan_events)} merges, final error {log.final_error * 1000:.2f} mm")
