"""Reconstruction error of the sparsify-and-refit pipeline on a helix.

Doubling the sub-keyframe count per segment should shrink the max
reconstruction error roughly sixteenfold (fourth-order decay), which is
why a handful of sub-keyframes between keyframes already makes the
spline reconstruction track the dense ground truth closely.

Run: python3 demos/detokenizer_convergence.py
"""

import numpy as np

import trajkit as tk

# dense helix; sample count chosen so every tested grid lands on samples
n = 8893
t = np.linspace(0.0, 2.0 * np.pi, n)
helix = tk.DenseTrajectory(
    t, np.stack([np.sin(t), np.cos(t), 0.3 * t], axis=1),
    np.zeros((n, 3)), np.zeros(n, dtype=int), tk.Frame.WORLD)

print("samples/segment   max error [m]   ratio vs previous")
previous = None
errors = {}
for n_sub in (5, 10, 20, 40):
    err, _ = tk.reconstruction_error(helix, n_sub)
    errors[n_sub] = err
    ratio = "" if previous is None else f"{err / previous:18.4f}"
    print(f"{n_sub:15d}   {err:13.3e}{ratio}")
    previous = err

slope = np.polyfit(np.log([n - 1 for n in errors]), np.log(list(errors.values())), 1)[0]
print(f"\nlog-log slope of error vs segment count: {slope:.2f} (ideal cubic-spline: -4)")

# the sparse representation this buys at n_sub = 10
keys = tk.select_keyframes(helix, alpha=np.inf)
sparse = tk.insert_sub_keyframes(helix, keys, 10)
print(f"{len(helix)} dense samples reconstructed from {len(sparse)} waypoints "
      f"with {errors[10] * 1000:.2f} mm worst-case error")
