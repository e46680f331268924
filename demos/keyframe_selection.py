"""Sparsify a synthetic pick-and-place demonstration.

Builds a dense end-effector log with two sharp direction changes and a
gripper toggle, selects keyframes with the kinematic criterion, and
densifies each segment with equally spaced sub-keyframes.

Run: python3 demos/keyframe_selection.py
"""

import numpy as np

import trajkit as tk

# --- build a 100 Hz demonstration: approach, descend, grasp, retreat -----
dt = 0.01
segments = [
    (np.array([0.30, 0.00, 0.00]), 1.2, 0),   # approach along +x
    (np.array([0.00, 0.00, -0.15]), 0.8, 0),  # descend
    (np.array([0.00, 0.00, 0.00]), 0.3, 1),   # dwell; gripper closes at the end
    (np.array([0.00, 0.00, 0.20]), 0.7, 1),   # lift
    (np.array([-0.25, 0.20, 0.00]), 1.0, 1),  # carry away
]

times, positions, grippers = [0.0], [np.zeros(3)], [0]
for velocity, duration, grip in segments:
    for _ in range(int(round(duration / dt))):
        times.append(times[-1] + dt)
        positions.append(positions[-1] + velocity * dt)
        grippers.append(grippers[-1])
    grippers[-1] = grip

n = len(times)
demo = tk.DenseTrajectory(
    np.array(times), np.array(positions), np.zeros((n, 3)),
    np.array(grippers), tk.Frame.WORLD)

# --- keyframes: acceleration spikes at the corners + the gripper toggle ---
alpha = 5.0
keys = tk.select_keyframes(demo, alpha)
print(f"{n} dense samples -> {len(keys.indices)} keyframes (alpha = {alpha})")
for idx, reasons in zip(keys.indices, keys.reasons):
    names = ", ".join(sorted(r.value for r in reasons))
    t, p = demo.times[idx], demo.positions[idx]
    print(f"  t = {t:5.2f} s  idx {idx:4d}  pos ({p[0]:+.2f} {p[1]:+.2f} {p[2]:+.2f})"
          f"  [{names}]")

sparse = tk.insert_sub_keyframes(demo, keys, n=12)
ratio = len(sparse) / n
print(f"\nsub-keyframes at n = 12 per segment -> {len(sparse)} waypoints "
      f"({ratio:.1%} of the dense log)")

# --- how well does a spline through the sparse set reconstruct the log? ---
cont = tk.fit(sparse)
errors = np.linalg.norm(cont.position.position(demo.times) - demo.positions, axis=1)
print(f"reconstruction error vs dense log: max {errors.max() * 1000:.2f} mm, "
      f"mean {errors.mean() * 1000:.3f} mm")
