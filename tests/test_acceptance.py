"""Acceptance gate: one test per top-level criterion, each at its stated
tolerance, printing one pass/fail line per criterion (visible with -s).

Run with: pytest -s tests/test_acceptance.py
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import trajkit as tk
from trajkit import fileio
from trajkit.cli import cli_main
from conftest import (assert_same_tokens, geodesic_angle, helix_trajectory, line_trajectory,
                      make_camera)
from test_keyframes import brute_force_keyframes, random_segmented_trajectory
from test_metrics import dtw_brute, frechet_brute
from test_simulate import line_scenario
from test_splines import sparse_from_arrays


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL  {name}")
        raise
    print(f"[ACCEPTANCE] PASS  {name}")


def test_keyframe_oracle_equivalence():
    with criterion("keyframe oracle equivalence (100 random trajectories, < 5 s)"):
        rng = np.random.default_rng(42)
        started = time.monotonic()
        toggles_marked = 0
        toggles_total = 0
        for _ in range(100):
            traj = random_segmented_trajectory(rng)
            alpha = float(rng.uniform(0.5, 5.0))
            keys = tk.select_keyframes(traj, alpha)
            comps = np.hstack([traj.positions, traj.eulers])
            exp_idx, exp_reasons = brute_force_keyframes(
                traj.times, comps, traj.grippers, alpha)
            assert list(keys.indices) == exp_idx
            assert [{r.value for r in rs} for rs in keys.reasons] == exp_reasons
            for toggle in tk.gripper_change_indices(traj):
                toggles_total += 1
                if int(toggle) in keys.indices:
                    toggles_marked += 1
        elapsed = time.monotonic() - started
        assert toggles_total > 0
        assert toggles_marked == toggles_total  # 100% of gripper toggles
        assert elapsed < 5.0


def test_spline_interpolation_exactness():
    with criterion("spline interpolation exactness (1000 random waypoint sets)"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            t = np.sort(rng.uniform(0.0, 10.0, n))
            t += np.arange(n) * 1e-3  # strictly increasing
            pts = rng.normal(size=(n, 3))
            eul = rng.uniform(-math.pi, math.pi, (n, 3))
            traj = tk.fit(sparse_from_arrays(t, pts, eul))
            for i in range(n):
                pos, quat, _ = tk.eval_trajectory(traj, t[i])
                assert np.linalg.norm(pos - pts[i]) < 1e-9
                assert geodesic_angle(quat, tk.euler_to_quaternion(eul[i])) < 1e-9


def test_quartic_convergence_on_helix():
    with criterion("quartic reconstruction-error decay on an analytic helix (< 10 s)"):
        started = time.monotonic()
        helix = helix_trajectory()  # 8892 intervals divide every tested grid
        errors = {n: tk.reconstruction_error(helix, n)[0] for n in (5, 10, 20, 40)}
        assert errors[20] / errors[10] <= 1.0 / 8.0
        x = np.log([n - 1 for n in errors])  # segment count per keyframe interval
        y = np.log(list(errors.values()))
        slope = float(np.polyfit(x, y, 1)[0])
        assert -4.5 <= slope <= -3.5
        assert time.monotonic() - started < 10.0


def test_token_round_trip_bound_and_bit_exact_serialization(tmp_path):
    with criterion("token round-trip error bound (10^4 waypoints) + bit-exact files"):
        rng = np.random.default_rng(2024)
        cam = make_camera()
        spec = tk.QuantizationSpec.for_camera(cam)
        n = 10_000
        us = rng.uniform(0.0, 99.0, n)
        vs = rng.uniform(0.0, 99.0, n)
        ds = rng.uniform(0.15, 2.95, n)
        pts = tk.back_project(us, vs, ds, cam)
        sparse = sparse_from_arrays(np.arange(n, dtype=float), pts,
                                    frame=tk.Frame.CAMERA)
        seq = tk.encode_sequence(sparse, tk.Anchor(50, 50, 1.0), cam, spec)
        decoded = tk.decode_sequence(seq, cam)

        k_inv = np.linalg.inv(cam.intrinsics)
        k_inv_norm = np.linalg.norm(k_inv, 2)
        half_bin = (spec.depth_max - spec.depth_min) / (2 * spec.depth_bins)
        d_dec = tk.dequantize(seq.d, spec.depth_min, spec.depth_max, spec.depth_bins)
        uv1 = np.stack([us, vs, np.ones(n)], axis=1)
        bounds = (d_dec * k_inv_norm * math.sqrt(0.5)
                  + half_bin * np.linalg.norm(uv1 @ k_inv.T, axis=1))
        errors = np.linalg.norm(decoded.positions - pts, axis=1)
        assert np.all(errors <= bounds + 1e-12)

        # token-level serialize -> parse -> serialize is byte-identical
        p1, p2 = tmp_path / "tokens1.json", tmp_path / "tokens2.json"
        fileio.save_token_file(seq, p1)
        reloaded = fileio.load_token_file(p1)
        assert_same_tokens(reloaded, seq)
        fileio.save_token_file(reloaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_closed_loop_shift_recovery_and_continuity():
    with criterion("closed-loop 2 cm shift: tracked < 1e-3 m, open-loop misses by "
                   "~0.02 m, merges continuous, drops have gamma <= 0"):
        shift = tk.Perturbation(3.0, [0.0, 0.02, 0.0])

        log = tk.run(line_scenario([shift], replan_interval=0.5))
        assert log.final_error < 1e-3
        log_open = tk.run(line_scenario([shift], replan_enabled=False))
        assert abs(log_open.final_error - 0.02) < 1e-3

        # every logged drop decision satisfied the keep test's strict rule
        assert len(log.replan_events) > 0
        for e in log.replan_events:
            if e.kstar_dropped:
                assert e.gamma_at_kstar <= 0.0
            elif not math.isnan(e.gamma_at_kstar):
                assert e.gamma_at_kstar > 0.0

        # re-run the controller manually to inspect every merged trajectory
        scenario = line_scenario([shift], replan_interval=0.5)
        active = tk.fit(scenario.initial_plan)
        pos0, quat0, grip0, vel0 = active.sample(np.array([0.0]))
        state = tk.ControllerState(0.0, pos0[0], quat0[0], vel0[0], grip0[0], active,
                                   scenario.replan_interval)
        dt = 1.0 / scenario.control_rate
        merges = 0
        for k in range(1, int(10.0 / dt) + 1):
            t_k = k * dt
            source = None
            if abs(t_k / 0.5 - round(t_k / 0.5)) < 1e-9 and t_k < 10.0:
                source = tk.oracle_planner(scenario, state.current_time)
            pre_active, pre_vel = state.active, state.current_velocity
            pre_pos = state.current_position
            state, _, diag = tk.controller_step(state, [t_k], source)
            if diag is None or state.active is pre_active:
                continue
            merges += 1
            merged = state.active
            t_m = merged.position.knot_times[0]
            # no jump at the handoff instant, velocity matched to the controller
            old_pos, _, _ = tk.eval_trajectory(pre_active, t_m)
            new_pos, _, _ = tk.eval_trajectory(merged, t_m)
            assert np.linalg.norm(old_pos - new_pos) < 1e-9
            assert np.linalg.norm(old_pos - pre_pos) < 1e-9
            assert np.abs(merged.position.velocity(t_m) - pre_vel).max() < 1e-9
            # position continuity at every interior knot, velocity at the
            # transition-entry junction
            spline = merged.position
            c = spline.coefficients
            for i in range(1, len(spline.knot_times) - 1):
                h = spline.knot_times[i] - spline.knot_times[i - 1]
                left_pos = (c[i - 1, 0] + c[i - 1, 1] * h + c[i - 1, 2] * h**2
                            + c[i - 1, 3] * h**3)
                assert np.abs(left_pos - c[i, 0]).max() < 1e-9
            if len(c) > 1:  # lone-goal merges are a single transition segment
                h0 = spline.knot_times[1] - spline.knot_times[0]
                vel_left = c[0, 1] + 2 * c[0, 2] * h0 + 3 * c[0, 3] * h0**2
                assert np.abs(vel_left - c[1, 1]).max() < 1e-9
        assert merges > 0


def test_metric_oracle_equivalence():
    with criterion("metric oracles: DTW/Frechet enumeration (200 trials), "
                   "hausdorff <= frechet (10^4 pairs), exact report rows"):
        rng = np.random.default_rng(99)
        for _ in range(200):
            a = rng.uniform(-2, 2, (int(rng.integers(1, 7)), 2))
            b = rng.uniform(-2, 2, (int(rng.integers(1, 7)), 2))
            assert abs(tk.dtw(a, b) - dtw_brute(a, b)) < 1e-12
            assert abs(tk.discrete_frechet(a, b) - frechet_brute(a, b)) < 1e-12

        for _ in range(10_000):
            a = rng.uniform(-1, 1, (int(rng.integers(1, 6)), 2))
            b = rng.uniform(-1, 1, (int(rng.integers(1, 6)), 2))
            assert tk.hausdorff(a, b) <= tk.discrete_frechet(a, b) + 1e-12

        report = tk.full_report(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))
        payload = report.as_dict()
        assert tuple(k for k in payload if k != "config") == (
            "cover f1", "cover precision", "dtw", "endpoint err", "frechet",
            "hausdorff", "max orth dist", "mean orth dist", "median orth dist",
            "startpoint err")


def test_pipeline_identity(tmp_path):
    with criterion("CLI pipeline identity: keyframes -> detokenize reproduces "
                   "linear data < 1e-9; metrics self-report zeros/ones"):
        bundle = tmp_path / "line.json"
        traj = line_trajectory(n=101, euler_ramp=(0.0, 0.0, 0.4))
        fileio.save_bundle(traj, None, bundle)
        sparse = tmp_path / "sparse.json"
        dense = tmp_path / "dense.json"
        assert cli_main(["keyframes", "--input", str(bundle), "--alpha", "5.0",
                         "--subframes", "11", "--out", str(sparse)]) == 0
        assert cli_main(["detokenize", "--sparse", str(sparse), "--rate", "100",
                         "--out", str(dense)]) == 0
        rebuilt, _ = fileio.load_bundle(dense)
        assert np.abs(rebuilt.times - traj.times).max() < 1e-9
        assert np.abs(rebuilt.positions - traj.positions).max() < 1e-9
        assert np.abs(rebuilt.eulers - traj.eulers).max() < 1e-9
        assert np.array_equal(rebuilt.grippers, traj.grippers)

        report_path = tmp_path / "report.json"
        assert cli_main(["metrics", "--pred", str(bundle), "--ref", str(bundle),
                         "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["cover f1"] == 1.0 and report["cover precision"] == 1.0
        for name in ("dtw", "frechet", "hausdorff", "max orth dist",
                     "mean orth dist", "median orth dist", "startpoint err",
                     "endpoint err"):
            assert report[name] == 0.0


def test_cli_determinism(tmp_path):
    with criterion("determinism: repeated CLI runs byte-identical"):
        bundle = tmp_path / "line.json"
        fileio.save_bundle(line_trajectory(n=101), None, bundle)
        scenario_path = tmp_path / "scenario.json"
        fileio.save_scenario(line_scenario([tk.Perturbation(3.0, [0.0, 0.02, 0.0])]),
                             scenario_path)
        cam_bundle = tmp_path / "cam.json"
        cam = make_camera()
        t = np.linspace(0.0, 1.0, 101)
        pos = np.stack([0.2 * t, -0.1 * t, 1.0 + 0.5 * t], axis=1)
        fileio.save_bundle(
            tk.DenseTrajectory(t, pos, np.zeros((101, 3)),
                               np.zeros(101, dtype=int), tk.Frame.CAMERA),
            cam, cam_bundle)

        outputs = []
        for tag in ("a", "b"):
            sparse = tmp_path / f"s_{tag}.json"
            tokens = tmp_path / f"t_{tag}.json"
            dense = tmp_path / f"d_{tag}.json"
            report = tmp_path / f"r_{tag}.json"
            log = tmp_path / f"l_{tag}.json"
            csv = tmp_path / f"c_{tag}.csv"
            assert cli_main(["keyframes", "--input", str(cam_bundle), "--alpha", "2.0",
                             "--subframes", "12", "--out", str(sparse)]) == 0
            assert cli_main(["tokenize", "--input", str(sparse), "--camera-from",
                             str(cam_bundle), "--anchor", "50,50,1.2",
                             "--out", str(tokens)]) == 0
            assert cli_main(["detokenize", "--input", str(tokens), "--camera-from",
                             str(cam_bundle), "--rate", "20", "--out", str(dense)]) == 0
            assert cli_main(["metrics", "--pred", str(bundle), "--ref", str(bundle),
                             "--out", str(report)]) == 0
            assert cli_main(["simulate", "--scenario", str(scenario_path),
                             "--out", str(log)]) == 0
            assert cli_main(["plot-data", "--input", str(bundle),
                             "--out", str(csv)]) == 0
            outputs.append(tuple(p.read_bytes()
                                 for p in (sparse, tokens, dense, report, log, csv)))
        assert outputs[0] == outputs[1]
