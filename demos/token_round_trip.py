"""Encode camera-frame waypoints to anchor-conditioned tokens and back.

Shows the token columns (one block per waypoint), the absolute vs anchor-relative depth
modes, and the measured reconstruction error against the analytic
quantization bound.

Run: python3 demos/token_round_trip.py
"""

import numpy as np

import trajkit as tk

cam = tk.CameraModel.simple(fx=320.0, fy=320.0, cx=160.0, cy=120.0,
                            width=320, height=240)

# a short reach in the camera frame, all points inside the view frustum
rng = np.random.default_rng(3)
n = 8
depths = np.linspace(0.8, 1.6, n)
pixels_u = np.linspace(140.0, 200.0, n)
pixels_v = np.linspace(130.0, 110.0, n)
points = tk.back_project(pixels_u, pixels_v, depths, cam)
eulers = np.stack([np.zeros(n), np.zeros(n), np.linspace(0.0, 0.6, n)], axis=1)
grippers = (np.arange(n) >= n - 2).astype(int)
sparse = tk.SparseTrajectory(np.arange(n, dtype=float), points, eulers, grippers,
                             (True,) * n, tk.Frame.CAMERA)

anchor = tk.Anchor(170.0, 120.0, 1.2, tk.DepthSource.SENSOR)
spec = tk.QuantizationSpec.for_camera(cam)
seq = tk.encode_sequence(sparse, anchor, cam, spec)

print(f"anchor (u, v, d) = ({anchor.u:.0f}, {anchor.v:.0f}, {anchor.d} m), "
      f"depth grid [{spec.depth_min}, {spec.depth_max}] m x {spec.depth_bins} bins")
print("block   d     u    v  g  r(xyz)")
for i, (d, u, v, g, r) in enumerate(zip(seq.d, seq.u, seq.v, seq.g, seq.r.tolist())):
    print(f"  {i:3d} {d:4d} {u:4d} {v:4d}  {g}  {r}")

decoded = tk.decode_sequence(seq, cam)
err = np.linalg.norm(decoded.positions - points, axis=1)
half_bin = (spec.depth_max - spec.depth_min) / (2 * spec.depth_bins)
print(f"\nround-trip position error: max {err.max() * 1000:.2f} mm "
      f"(half depth bin alone is {half_bin * 1000:.2f} mm)")

# anchor-relative depth narrows the grid around the anchor: finer bins
rel_spec = tk.QuantizationSpec.for_camera(
    cam, depth_mode=tk.DepthMode.ANCHOR_RELATIVE, depth_delta_max=0.5)
rel_seq = tk.encode_sequence(sparse, anchor, cam, rel_spec)
rel_err = np.linalg.norm(tk.decode_sequence(rel_seq, cam).positions - points, axis=1)
print(f"anchor-relative mode (+-0.5 m around anchor): max {rel_err.max() * 1000:.2f} mm")

# prior-scale depth: a 6 cm object spanning 16 px at f = 320 px
d_prior = tk.anchor_depth_from_prior(object_pixel_extent=16.0, object_metric_extent=0.06,
                                     cam=cam)
print(f"prior-scale anchor depth for a 6 cm object over 16 px: {d_prior:.3f} m")
