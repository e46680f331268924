"""Simulation harness: oracle planner, closed-loop runs, smoothness checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajkit as tk
from trajkit import simulate
from test_splines import sparse_from_arrays


def line_scenario(perturbations=(), replan_interval=0.5, control_rate=100.0,
                  duration=10.0, n=11, speed=0.1, **kwargs):
    t = np.arange(n, dtype=float)
    plan = sparse_from_arrays(t, np.stack([speed * t, np.zeros(n), np.zeros(n)], axis=1))
    return tk.Scenario(plan, tuple(perturbations), replan_interval, control_rate,
                       duration, **kwargs)


def curved_scenario(perturbations=(), t0=0.0, n=9, spacing=0.05, replan_interval=0.02,
                    control_rate=1000.0, duration=0.5, **kwargs):
    """A curved 3D plan with turning orientations and one gripper toggle."""
    s = np.linspace(0.0, 1.0, n)
    t = t0 + spacing * np.arange(n)
    pos = np.stack([0.2 * s, 0.05 * np.sin(3.0 * s), 0.1 * s**2], axis=1)
    eul = np.outer(s, [0.4, -0.7, 1.1]) + [0.1, 0.2, -2.9]
    grip = (s >= 0.5).astype(int)
    plan = sparse_from_arrays(t, pos, eul, grip)
    return tk.Scenario(plan, tuple(perturbations), replan_interval, control_rate, duration,
                       **kwargs)


def run_loop(scenario):
    """Reference: step every control tick through controller_step."""
    active = tk.fit(scenario.initial_plan)
    t0, t_end = active.domain
    dt = 1.0 / scenario.control_rate

    pos0, quat0, grip0 = tk.eval_trajectory(active, t0)
    state = tk.ControllerState(
        current_time=t0,
        current_position=pos0,
        current_wxyz=quat0,
        current_velocity=active.sample(np.array([t0]))[3][0],
        current_gripper=grip0,
        active=active,
        replan_interval=scenario.replan_interval,
    )

    times, positions, eulers, grippers = [t0], [pos0], [tk.quaternion_to_euler(quat0)], [grip0]
    events = []
    pending_delayed = None
    replan_tick = 1
    stop_time = min(t0 + scenario.duration, t_end)

    k = 1
    while True:
        t_next = t0 + k * dt
        if t_next > stop_time + 1e-9:
            break
        replan_source = None
        next_replan = t0 + replan_tick * scenario.replan_interval
        if scenario.replan_enabled and state.current_time >= next_replan - 1e-9:
            requested = tk.oracle_planner(scenario, state.current_time)
            if scenario.delayed_planner:
                replan_source, pending_delayed = pending_delayed, requested
            else:
                replan_source = requested
            replan_tick += 1
        state, (t, pos, wxyz, grip), event = tk.controller_step(state, [t_next], replan_source)
        if event is not None:
            events.append(event)
        times.append(t[0])
        positions.append(pos[0])
        eulers.append(tk.quaternion_to_euler(wxyz[0]))  # one tick at a time
        grippers.append(grip[0])
        k += 1

    commanded_traj = tk.DenseTrajectory(times, positions, eulers, grippers, tk.Frame.WORLD)
    offset = sum((p.offset for p in scenario.perturbations if p.time <= times[-1]), np.zeros(3))
    target = scenario.initial_plan.positions[-1] + offset
    final_error = float(np.linalg.norm(commanded_traj.positions[-1] - target))
    return tk.ExecutionLog(commanded_traj, tuple(events), final_error)


def same_value(a, b) -> bool:
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def assert_logs_equal(got, want):
    for column in ("times", "positions", "eulers", "grippers"):
        got_column, want_column = getattr(got.commanded, column), getattr(want.commanded, column)
        assert np.array_equal(got_column, want_column), column
    assert len(got.replan_events) == len(want.replan_events)
    for a, b in zip(got.replan_events, want.replan_events):
        for field in ("time", "dropped_count", "gamma_at_kstar", "kstar", "kstar_dropped"):
            assert same_value(getattr(a, field), getattr(b, field)), (field, a, b)
    assert got.final_error == want.final_error


BACKWARD = (-0.012, 0.004, 0.0)

LOOP_SCENARIOS = {
    "delayed-planner": lambda: curved_scenario(
        [tk.Perturbation(0.13, BACKWARD)], delayed_planner=True),
    "replan-disabled": lambda: curved_scenario(
        [tk.Perturbation(0.13, BACKWARD)], replan_enabled=False),
    "interval-off-tick-grid": lambda: curved_scenario(
        [tk.Perturbation(0.21, [0.0, 0.01, -0.01])], replan_interval=0.0137),
    "interval-below-tick": lambda: curved_scenario(replan_interval=0.0004, duration=0.05),
    "drift-before-first-replan": lambda: curved_scenario(
        [tk.Perturbation(0.005, [-0.03, 0.004, 0.0]), tk.Perturbation(0.3, [0.0, 0.0, 0.02])]),
    "duration-past-plan-end": lambda: curved_scenario(
        [tk.Perturbation(0.1, [0.01, 0.0, 0.0])], duration=5.0, replan_interval=0.03),
    "lone-final-waypoint": lambda: line_scenario(
        [tk.Perturbation(9.2, [0.0, 0.01, 0.0])], duration=10.0, replan_interval=0.3),
    "start-between-ticks": lambda: curved_scenario(
        t0=0.0004, perturbations=[tk.Perturbation(0.2, BACKWARD)], delayed_planner=True),
    "start-after-zero": lambda: curved_scenario(
        t0=3.25, perturbations=[tk.Perturbation(0.2, BACKWARD)], control_rate=300.0),
    "ticks-cross-zero": lambda: curved_scenario(
        t0=-0.0203, perturbations=[tk.Perturbation(0.1, BACKWARD)], delayed_planner=True),
}


class TestLoopReference:
    """run() batches the ticks between replans; it must equal per-tick stepping."""

    @pytest.mark.parametrize("name", sorted(LOOP_SCENARIOS))
    def test_matches_per_tick_loop(self, name):
        scenario = LOOP_SCENARIOS[name]()
        assert_logs_equal(tk.run(scenario), run_loop(LOOP_SCENARIOS[name]()))

    def test_scenarios_reach_their_edge_cases(self):
        lone = tk.run(LOOP_SCENARIOS["lone-final-waypoint"]())
        assert any(math.isnan(e.gamma_at_kstar) for e in lone.replan_events)
        late = LOOP_SCENARIOS["duration-past-plan-end"]()
        assert late.duration > late.initial_plan.times[-1]
        disabled = tk.run(LOOP_SCENARIOS["replan-disabled"]())
        assert disabled.replan_events == ()
        early = LOOP_SCENARIOS["drift-before-first-replan"]()
        assert early.perturbations[0].time < early.replan_interval
        assert tk.run(early).replan_events[0].kstar_dropped

    @settings(max_examples=30)  # each example steps a 1 kHz run tick by tick
    @given(interval=st.floats(0.0003, 0.05), rate=st.sampled_from([97.0, 250.0, 1000.0]),
           drift=st.floats(0.0, 0.25), delayed=st.booleans())
    def test_matches_per_tick_loop_property(self, interval, rate, drift, delayed):
        def make():
            return curved_scenario([tk.Perturbation(drift, BACKWARD)], replan_interval=interval,
                                   control_rate=rate, duration=0.25, delayed_planner=delayed)
        assert_logs_equal(tk.run(make()), run_loop(make()))


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

    @pytest.mark.parametrize("t", [0.0, 0.13, 0.2, 0.49, 1.0])
    def test_equals_public_construction(self, t):
        scenario = curved_scenario([tk.Perturbation(0.1, BACKWARD)])
        plan = tk.oracle_planner(scenario, t)
        base = scenario.base_plan
        start = len(base) - len(plan)
        offset = np.asarray(BACKWARD) if t >= 0.1 else np.zeros(3)
        public = tk.PendingPlan(base.positions[start:] + offset, base.orientations[start:],
                                base.grippers[start:], base.times[start:])
        assert np.array_equal(public.times, base.times[base.times > t])
        for name in ("positions", "orientations", "grippers", "times"):
            got, want = getattr(plan, name), getattr(public, name)
            assert np.array_equal(got, want) and got.dtype == want.dtype, name
            assert not got.flags.writeable, name

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

    def test_logs_the_events_controller_step_returns(self, monkeypatch):
        returned = []

        def recording_step(state, times, replan_source=None):
            result = tk.controller_step(state, times, replan_source)
            returned.append((state.current_time, result[2]))
            return result

        monkeypatch.setattr(simulate, "controller_step", recording_step)
        log = tk.run(curved_scenario([tk.Perturbation(0.13, BACKWARD)], delayed_planner=True))
        events = [(t, e) for t, e in returned if e is not None]
        assert len(events) == len(log.replan_events) > 0
        for (merge_time, event), logged in zip(events, log.replan_events):
            assert logged is event and event.time == merge_time

    @pytest.mark.parametrize("name", sorted(name for name, make in LOOP_SCENARIOS.items()
                                            if make().perturbations))
    def test_one_knot_lookup_per_step(self, name, monkeypatch):
        lookups, steps, lone_goals = [], [], []
        locate = tk.PositionSpline._locate

        def counting_locate(spline, t):
            lookups.append(t)
            return locate(spline, t)

        def counting_step(state, times, replan_source=None):
            result = tk.controller_step(state, times, replan_source)
            steps.append(times)
            event = result[2]
            if event is not None and len(replan_source) - event.dropped_count == 1:
                lone_goals.append(event)
            return result

        monkeypatch.setattr(tk.PositionSpline, "_locate", counting_locate)
        monkeypatch.setattr(simulate, "controller_step", counting_step)
        tk.run(LOOP_SCENARIOS[name]())
        # one lookup samples each step's ticks and one the run's first tick; a
        # lone goal also samples the active trajectory's velocity at its entry
        assert len(lookups) == len(steps) + 1 + len(lone_goals)

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

    @pytest.mark.parametrize("time, offset", [
        (math.nan, [0, 0, 0]), (math.inf, [0, 0, 0]), (1.0, [math.inf, 0, 0]),
        (1.0, [0, math.nan, 0]), (1.0, [0, 0]),
    ], ids=["nan-time", "inf-time", "inf-offset", "nan-offset", "short-offset"])
    def test_perturbation_rejects_non_finite(self, time, offset):
        with pytest.raises(ValueError):
            tk.Perturbation(time, offset)

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

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        times = np.cumsum(rng.uniform(0.001, 0.1, n))
        positions = np.cumsum(rng.normal(scale=0.02, size=(n, 3)), axis=0)
        if seed % 4 == 0:
            positions[rng.integers(n)] += 0.5  # a spike
        log = tk.ExecutionLog(tk.DenseTrajectory(times, positions, np.zeros((n, 3)),
                                                 np.zeros(n, dtype=int), tk.Frame.WORLD), (), 0.0)
        v_max, a_max = rng.uniform(0.05, 2.0), rng.uniform(1.0, 200.0)
        assert tk.smoothness_check(log, v_max, a_max) == smoothness_loop(log, v_max, a_max)

    def test_needs_three_samples(self):
        two = tk.DenseTrajectory([0.0, 1.0], np.zeros((2, 3)),
                                 np.zeros((2, 3)), [0, 0], tk.Frame.WORLD)
        with pytest.raises(tk.InsufficientDataError):
            tk.smoothness_check(tk.ExecutionLog(two, (), 0.0), 1.0, 1.0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1"])
    @pytest.mark.parametrize("name", ["v_max", "a_max"])
    def test_bounds_must_be_finite_and_positive(self, name, bound):
        # a NaN bound would pass every log, and a bool is not taken as 1
        log = tk.run(line_scenario(duration=1.0))
        bounds = {"v_max": 1.0, "a_max": 10.0, name: bound}
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            tk.smoothness_check(log, **bounds)


def smoothness_loop(log, v_max, a_max):
    """Reference: the per-sample loops smoothness_check replaced."""
    t = log.commanded.times
    p = log.commanded.positions
    dts = np.diff(t)
    vel = np.diff(p, axis=0) / dts[:, None]
    speeds = np.linalg.norm(vel, axis=1)
    accels = np.linalg.norm(np.diff(vel, axis=0) / (0.5 * (dts[:-1] + dts[1:]))[:, None], axis=1)
    violations = []
    for i, s in enumerate(speeds):
        if s > v_max:
            violations.append(t[i + 1])
    for i, a in enumerate(accels):
        if a > a_max:
            violations.append(t[i + 1])
    if violations:
        return False, float(min(violations))
    return True, None
