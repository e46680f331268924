"""Simulation harness: oracle planner, closed-loop runs, smoothness checks."""

import numpy as np
import pytest

import trajkit as tk
from test_splines import sparse_from_arrays


def line_scenario(perturbations=(), replan_interval=0.5, control_rate=100.0,
                  duration=10.0, n=11, speed=0.1, **kwargs):
    t = np.arange(n, dtype=float)
    plan = sparse_from_arrays(t, np.stack([speed * t, np.zeros(n), np.zeros(n)], axis=1))
    return tk.Scenario(plan, tuple(perturbations), replan_interval, control_rate,
                       duration, **kwargs)


class TestOraclePlanner:
    def test_no_perturbations_returns_remaining(self):
        scenario = line_scenario()
        plan = tk.oracle_planner(scenario, 2.5)
        assert len(plan) == 8  # waypoints at t = 3..10
        assert plan.times[0] == 3.0
        assert np.allclose(plan.positions[0], [0.3, 0, 0])

    def test_single_offset_applies_everywhere(self):
        scenario = line_scenario([tk.Perturbation(2.0, [0.02, 0, 0])])
        plan = tk.oracle_planner(scenario, 3.2)
        base = 0.1 * plan.times
        assert np.allclose(plan.positions[:, 0], base + 0.02)

    def test_stacked_offsets_sum(self):
        # oracle: additive composition
        scenario = line_scenario([tk.Perturbation(1.0, [0.02, 0, 0]),
                                  tk.Perturbation(4.0, [0.0, 0.01, 0.0])])
        early = tk.oracle_planner(scenario, 2.0)
        late = tk.oracle_planner(scenario, 5.0)
        assert np.allclose(early.positions[0] - [0.1 * 3.0, 0, 0], [0.02, 0, 0])
        assert np.allclose(late.positions[0] - [0.1 * 6.0, 0, 0], [0.02, 0.01, 0.0])

    def test_inactive_perturbation_ignored(self):
        scenario = line_scenario([tk.Perturbation(9.0, [1.0, 0, 0])])
        plan = tk.oracle_planner(scenario, 1.0)
        assert np.allclose(plan.positions[:, 1:], 0.0)
        assert np.allclose(plan.positions[:, 0], 0.1 * plan.times)


class TestRun:
    def test_unperturbed_matches_open_loop(self):
        scenario = line_scenario()
        log = tk.run(scenario)
        open_loop = tk.resample(tk.fit(scenario.initial_plan), scenario.control_rate)
        assert len(log.commanded) == len(open_loop)
        diff = np.abs(log.commanded.positions - open_loop.positions).max()
        assert diff < 1e-6
        assert log.final_error < 1e-6

    def test_replan_disabled_equals_open_loop_exactly(self):
        scenario = line_scenario(replan_enabled=False)
        log = tk.run(scenario)
        open_loop = tk.resample(tk.fit(scenario.initial_plan), scenario.control_rate)
        assert np.abs(log.commanded.positions - open_loop.positions).max() < 1e-9

    def test_stream_independent_of_replan_interval(self):
        logs = [tk.run(line_scenario(replan_interval=ri)) for ri in (0.25, 0.5, 1.0)]
        for other in logs[1:]:
            diff = np.abs(logs[0].commanded.positions - other.commanded.positions)
            assert diff.max() < 1e-6

    def test_replan_disabled_misses_shifted_target(self):
        shift = tk.Perturbation(3.0, [0.0, 0.02, 0.0])
        log = tk.run(line_scenario([shift], replan_enabled=False))
        assert abs(log.final_error - 0.02) < 1e-6
        assert log.replan_events == ()

    def test_replanning_tracks_shifted_target(self):
        shift = tk.Perturbation(3.0, [0.0, 0.02, 0.0])
        log = tk.run(line_scenario([shift]))
        assert log.final_error < 1e-3

    def test_determinism_bit_identical(self):
        scenario = line_scenario([tk.Perturbation(2.2, [0.01, -0.01, 0.02])])
        a = tk.run(scenario)
        b = tk.run(scenario)
        assert np.array_equal(a.commanded.positions, b.commanded.positions)
        assert np.array_equal(a.commanded.times, b.commanded.times)
        assert a.final_error == b.final_error
        assert a.replan_events == b.replan_events

    def test_commanded_grid_uniform(self):
        log = tk.run(line_scenario(control_rate=50.0))
        dts = np.diff(log.commanded.times)
        assert np.abs(dts - 0.02).max() < 1e-9

    def test_replan_events_on_interval_grid(self):
        log = tk.run(line_scenario())
        assert len(log.replan_events) > 0
        for e in log.replan_events:
            ratio = e.time / 0.5
            assert abs(ratio - round(ratio)) < 1e-6

    def test_dropped_waypoints_satisfy_drop_condition(self):
        shift = tk.Perturbation(3.0, [0.0, 0.02, 0.0])
        log = tk.run(line_scenario([shift]))
        for e in log.replan_events:
            if e.kstar_dropped:
                assert e.gamma_at_kstar <= 0.0
            elif not np.isnan(e.gamma_at_kstar):
                assert e.gamma_at_kstar > 0.0

    def test_max_step_bounded_by_speed(self):
        log = tk.run(line_scenario())
        jumps = np.linalg.norm(np.diff(log.commanded.positions, axis=0), axis=1)
        # plan speed is 0.1 m/s; allow small transient overshoot from merges
        assert jumps.max() <= 0.2 * (1.0 / 100.0)

    def test_duration_truncates_run(self):
        log = tk.run(line_scenario(duration=2.0))
        assert abs(log.commanded.times[-1] - 2.0) < 1e-9

    def test_delayed_planner_still_converges(self):
        shift = tk.Perturbation(3.0, [0.0, 0.02, 0.0])
        log = tk.run(line_scenario([shift], delayed_planner=True))
        assert log.final_error < 1e-3

    def test_perturbation_time_validated(self):
        with pytest.raises(ValueError):
            line_scenario([tk.Perturbation(99.0, [0, 0, 0.01])])

    def test_camera_frame_plan_rejected(self):
        t = np.arange(3, dtype=float)
        plan = sparse_from_arrays(t, np.stack([t, 0 * t, 0 * t], axis=1),
                                  frame=tk.Frame.CAMERA)
        with pytest.raises(ValueError):
            tk.Scenario(plan, (), 0.5, 100.0, 2.0)


class TestSmoothnessCheck:
    def test_unperturbed_run_passes(self):
        log = tk.run(line_scenario())
        passed, violation = tk.smoothness_check(log, v_max=1.0, a_max=10.0)
        assert passed and violation is None

    def test_spliced_discontinuity_fails_at_splice(self):
        log = tk.run(line_scenario(duration=4.0))
        cmd = log.commanded
        k = len(cmd) // 2
        positions = cmd.positions.copy()
        positions[k] += np.array([0.5, 0, 0])
        spliced = tk.ExecutionLog(
            tk.DenseTrajectory(cmd.times, positions, cmd.eulers, cmd.grippers,
                               tk.Frame.WORLD),
            log.replan_events, log.final_error)
        passed, violation = tk.smoothness_check(spliced, v_max=1.0, a_max=10.0)
        assert not passed
        assert abs(violation - cmd.times[k]) < 0.02

    def test_merged_run_smooth_vs_hard_switch(self):
        # a replanned run stays in bounds; hard-switching to the shifted
        # spline mid-run trips the acceleration check
        shift = tk.Perturbation(3.0, [0.0, 0.05, 0.0])
        scenario = line_scenario([shift])
        log = tk.run(scenario)
        v_max, a_max = 0.5, 2.0
        passed, _ = tk.smoothness_check(log, v_max, a_max)
        assert passed

        # naive merge: jump onto the shifted plan at the replan tick
        shifted_plan = sparse_from_arrays(
            np.arange(11, dtype=float),
            np.stack([0.1 * np.arange(11), np.full(11, 0.05), np.zeros(11)], axis=1))
        shifted = tk.fit(shifted_plan)
        original = tk.fit(scenario.initial_plan)
        times = np.arange(0, 10.0 + 1e-9, 0.01)
        positions, eulers, grippers = [], [], []
        for t in times:
            src = shifted if t >= 3.0 else original
            pos, quat, grip = tk.eval_trajectory(src, t)
            positions.append(pos)
            eulers.append(tk.quaternion_to_euler(quat))
            grippers.append(grip)
        hard = tk.ExecutionLog(
            tk.DenseTrajectory(times, positions, eulers, grippers, tk.Frame.WORLD), (), 0.0)
        passed, violation = tk.smoothness_check(hard, v_max, a_max)
        assert not passed
        assert abs(violation - 3.0) < 0.05

    def test_needs_three_samples(self):
        two = tk.DenseTrajectory([0.0, 1.0], np.zeros((2, 3)),
                                 np.zeros((2, 3)), [0, 0], tk.Frame.WORLD)
        with pytest.raises(tk.InsufficientDataError):
            tk.smoothness_check(tk.ExecutionLog(two, (), 0.0), 1.0, 1.0)
