"""Closed-loop recovery from a mid-execution target shift.

The target drifts 2 cm sideways during execution. With periodic
replanning the controller blends each fresh plan in through a Hermite
transition and lands on the shifted target; open-loop execution misses
by the full shift. The commanded stream stays smooth through every merge.

Run: python3 demos/closed_loop_replanning.py
"""

import numpy as np

import trajkit as tk

# straight-line plan: 1 m along +x over 10 s, waypoints every second
n = 11
t = np.arange(n, dtype=float)
positions = np.stack([0.1 * t, np.zeros(n), np.zeros(n)], axis=1)
plan = tk.SparseTrajectory(t, positions, np.zeros((n, 3)), np.zeros(n, dtype=int),
                           (True,) * n, tk.Frame.WORLD)

shift = tk.Perturbation(time=3.0, offset=[0.0, 0.02, 0.0])


def scenario(replan_enabled):
    return tk.Scenario(plan, (shift,), replan_interval=0.5, control_rate=100.0,
                       duration=10.0, replan_enabled=replan_enabled)


closed = tk.run(scenario(True))
open_loop = tk.run(scenario(False))

print("target shifts +2 cm in y at t = 3.0 s; replans every 0.5 s")
print(f"  closed loop final error: {closed.final_error * 1000:7.3f} mm")
print(f"  open loop final error:   {open_loop.final_error * 1000:7.3f} mm")

print(f"\n{len(closed.replan_events)} replan merges; first few keep-test decisions:")
print("  time   k*  gamma      dropped")
for e in closed.replan_events[5:10]:
    gamma = "  (lone)" if np.isnan(e.gamma_at_kstar) else f"{e.gamma_at_kstar:+.4f}"
    print(f"  {e.time:4.1f} {e.kstar:4d}  {gamma}   {e.dropped_count}")

ok, violation = tk.smoothness_check(closed, v_max=0.5, a_max=2.0)
print(f"\nsmoothness check (v <= 0.5 m/s, a <= 2 m/s^2): "
      f"{'pass' if ok else f'violated at t = {violation:.2f} s'}")

# where the correction happens: lateral position over time
y = closed.commanded.positions[:, 1]
times = closed.commanded.times
for mark in (2.9, 3.1, 3.6, 5.0, 10.0):
    i = int(np.argmin(np.abs(times - mark)))
    print(f"  t = {times[i]:5.2f} s   y = {y[i] * 1000:6.2f} mm")
