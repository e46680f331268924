"""Closed-loop merging through controller_step: the keep decision its
ReplanEvent reports, the surviving waypoints, blending."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import trajkit as tk
from conftest import geodesic_angle
from test_simulate import curved_scenario
from test_splines import sparse_from_arrays


def line_plan(n=11, speed=0.1, t0=0.0, shift=(0.0, 0.0, 0.0)):
    """Waypoints along +x at 1 s spacing, moving at `speed` m/s."""
    t = t0 + np.arange(n, dtype=float)
    pos = np.stack([speed * (t - t0), np.zeros(n), np.zeros(n)], axis=1) + np.asarray(shift)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return tk.PendingPlan(pos, quats, np.zeros(n, dtype=int), times=t)


def untimed_plan(positions):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    return tk.PendingPlan(positions, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.zeros(n, dtype=int))


def line_state(n=11, speed=0.1, at_time=0.0, **changes):
    sparse = sparse_from_arrays(np.arange(n, dtype=float),
                                np.stack([speed * np.arange(n), np.zeros(n), np.zeros(n)],
                                         axis=1))
    active = tk.fit(sparse)
    pos, quat, grip, vel = active.sample(np.array([at_time]))
    fields = dict(current_time=at_time, current_position=pos[0], current_wxyz=quat[0],
                  current_velocity=vel[0], current_gripper=grip[0], active=active,
                  replan_interval=0.5)
    return tk.ControllerState(**{**fields, **changes})


def refresh(current_pos, plan):
    """(surviving waypoints, event) after one controller_step at t = 2 from
    current_pos that processes the replan ``plan``; checks that knots 1.. of
    the merged trajectory carry the survivors' positions, orientations (up
    to sign) and grippers, and that with no survivors nothing is merged."""
    state = line_state(at_time=2.0, current_position=current_pos)
    new_state, _, event = tk.controller_step(state, [2.01], plan)
    survivors, merged = plan.tail(event.dropped_count), new_state.active
    if len(survivors) == 0:
        assert merged is state.active
        return survivors, event
    knots = merged.position.knot_times
    at_knots = merged.position.position(knots[1:])
    # each knot before the last starts its own segment, so it is hit exactly
    assert np.array_equal(at_knots[:-1], survivors.positions[:-1])
    assert np.allclose(at_knots[-1], survivors.positions[-1], rtol=1e-12, atol=1e-12)
    signs = np.sign(np.sum(merged.wxyz[1:] * survivors.orientations, axis=1))
    assert np.array_equal(merged.wxyz[1:], signs[:, None] * survivors.orientations)
    assert np.array_equal(merged.grippers[1:], survivors.grippers)
    return survivors, event


def merge(state, plan, replan_interval):
    """The active trajectory after one controller_step that merges ``plan``
    with a transition of ``replan_interval``."""
    state = replace(state, replan_interval=replan_interval)
    return tk.controller_step(state, [state.current_time + 1e-3], plan)[0].active


def keep_reference(current, positions):
    """(k*, gamma at k*, k* dropped) of the keep test, by a loop over the
    waypoints; None when the waypoints at k* coincide and give no direction.

    k* is the lowest index at the minimum distance, the direction is the
    forward unit difference at k* (the backward one at the last waypoint),
    and k* is dropped iff gamma <= 0. gamma takes the NumPy operations the
    controller is documented to use, so a gamma of exactly 0 decides alike.
    """
    current = np.asarray(current, dtype=float)
    k, best = 0, math.inf
    for i, p in enumerate(positions):
        dist = math.sqrt(sum(x * x for x in p - current))
        if dist < best:  # strict, so a tie keeps the lower index
            k, best = i, dist
    last = k == len(positions) - 1
    diff = positions[k] - positions[k - 1] if last else positions[k + 1] - positions[k]
    norm = np.linalg.norm(diff)
    if norm == 0.0:
        return None
    gamma = float(np.dot(positions[k] - current, diff / norm))
    return k, gamma, gamma <= 0.0


class TestNearestWaypoint:
    """k* as the ReplanEvent reports it."""

    PLAN = [[1.0, 0, 0], [2, 0, 0], [3, 0, 0]]

    def test_all_ahead(self):
        assert refresh([0, 0, 0], untimed_plan(self.PLAN))[1].kstar == 0

    def test_between(self):
        assert refresh([2.1, 0, 0], untimed_plan(self.PLAN))[1].kstar == 1

    def test_tie_takes_lowest(self):
        current = np.array([1.5, 0, 0])
        assert refresh(current, untimed_plan(self.PLAN))[1].kstar == 0
        assert keep_reference(current, np.array(self.PLAN))[0] == 0


class TestForwardDirection:
    """The direction at k*, seen through gamma = (p[k*] - current) . d."""

    def test_interior_points_forward(self):
        plan = line_plan(5, speed=1.0)
        for k in range(5):
            _, event = refresh(plan.positions[k] - [0.2, 0.0, 0.0], plan)
            assert event.kstar == k and abs(event.gamma_at_kstar - 0.2) < 1e-12

    def test_last_uses_backward_difference(self):
        # along the backward difference [0, 1, 0] the last waypoint lies behind
        _, event = refresh([0.0, 1.2, 0.0], untimed_plan([[0.0, 0, 0], [0, 1, 0]]))
        assert event.kstar == 1 and abs(event.gamma_at_kstar - (-0.2)) < 1e-12
        assert event.kstar_dropped and event.dropped_count == 2

    def test_random_polyline_vs_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            pts = rng.normal(size=(n, 3))
            cur = rng.normal(size=3)
            _, event = refresh(cur, untimed_plan(pts))
            k = event.kstar
            diff = pts[k + 1] - pts[k] if k < n - 1 else pts[k] - pts[k - 1]
            expected = np.dot(pts[k] - cur, diff / np.linalg.norm(diff))
            assert abs(event.gamma_at_kstar - expected) < 1e-12

    def test_coincident_waypoints_at_kstar_undefined(self):
        # k* = 1 (the tie with 2 takes the lower index) and p[2] == p[1]
        plan = untimed_plan([[0.0, 0, 0], [1, 0, 0], [1, 0, 0]])
        with pytest.raises(tk.UndefinedDirectionError):
            refresh([1.1, 0.0, 0.0], plan)


class TestKeepTest:
    """k* is kept iff gamma > 0."""

    PLAN = [[1.0, 0, 0], [2, 0, 0], [3, 0, 0]]

    def test_ahead_keeps(self):
        _, event = refresh([0, 0, 0], untimed_plan(self.PLAN))
        assert event.gamma_at_kstar == 1.0 and not event.kstar_dropped
        assert event.dropped_count == 0

    def test_behind_drops(self):
        # oracle: direct dot product
        _, event = refresh([2.2, 0, 0], untimed_plan(self.PLAN))
        assert abs(event.gamma_at_kstar - (-0.2)) < 1e-12 and event.kstar_dropped
        assert event.dropped_count == 2

    def test_exact_boundary_drops(self):
        _, event = refresh([2, 0, 0], untimed_plan(self.PLAN))
        assert event.gamma_at_kstar == 0.0 and event.kstar_dropped

    def test_scale_invariant_decision(self, rng):
        for _ in range(100):
            pts = rng.normal(size=(int(rng.integers(2, 5)), 3))
            cur = rng.normal(size=3)
            _, event = refresh(cur, untimed_plan(pts))
            scale = float(rng.uniform(0.1, 50))
            _, scaled = refresh(scale * cur, untimed_plan(scale * pts))
            assert (scaled.kstar, scaled.kstar_dropped) == (event.kstar, event.kstar_dropped)
            gamma_s = scaled.gamma_at_kstar
            assert abs(gamma_s - scale * event.gamma_at_kstar) < 1e-9 * max(1, abs(gamma_s))


class TestRefreshPending:
    def test_behind_all_unchanged(self):
        plan = line_plan(5, speed=1.0)
        refreshed, event = refresh([-1.0, 0, 0], plan)
        assert len(refreshed) == 5 and event.dropped_count == 0
        assert np.allclose(refreshed.positions, plan.positions)

    def test_past_first_waypoint_drops_it(self):
        plan = line_plan(5, speed=1.0)  # x at 0,1,2,3,4
        refreshed, event = refresh([0.4, 0, 0], plan)
        assert np.allclose(refreshed.positions[0], [1, 0, 0])
        assert event.dropped_count == 1 and event.kstar_dropped

    def test_past_final_waypoint_empties(self):
        plan = line_plan(3, speed=1.0)
        refreshed, event = refresh([2.5, 0, 0], plan)
        assert len(refreshed) == 0 and event.dropped_count == 3

    def test_single_waypoint_kept(self):
        plan = tk.PendingPlan(np.array([[1.0, 0, 0]]), np.array([[1.0, 0.0, 0.0, 0.0]]), [0])
        refreshed, event = refresh([5.0, 0, 0], plan)
        assert len(refreshed) == 1 and event.dropped_count == 0

    def test_never_reorders_or_drops_later_indices(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            pts = rng.normal(size=(n, 3))
            plan = untimed_plan(pts)
            cur = rng.normal(size=3)
            k, _, _ = keep_reference(cur, pts)
            refreshed, event = refresh(cur, plan)
            dropped = n - len(refreshed)
            assert dropped == event.dropped_count and dropped in (k, k + 1)
            if len(refreshed):
                assert np.allclose(refreshed.positions, pts[dropped:])

    def test_times_travel_with_waypoints(self):
        plan = line_plan(5, speed=1.0)
        refreshed, _ = refresh([1.4, 0, 0], plan)
        assert refreshed.times[0] == 2.0


class TestMergeReplan:
    def test_identical_replan_matches_old(self):
        # linear plan: refit of the suffix plus Hermite bridge is the same line
        state = line_state(at_time=2.3)
        merged = merge(state, line_plan(), replan_interval=0.5)
        grid = np.linspace(2.3, 10.0, 400)
        for tau in grid:
            old_pos, _, _ = tk.eval_trajectory(state.active, tau)
            new_pos, _, _ = tk.eval_trajectory(merged, tau)
            assert np.linalg.norm(old_pos - new_pos) < 1e-6

    def test_zero_velocity_single_waypoint(self):
        state = line_state(at_time=0.0)
        state = tk.ControllerState(
            current_time=0.0,
            current_position=[0, 0, 0],
            current_wxyz=[1, 0, 0, 0],
            current_velocity=[0.0, 0.0, 0.0],
            current_gripper=0,
            active=state.active,
            replan_interval=0.5,
        )
        goal = tk.PendingPlan(np.array([[0.3, 0.1, 0.2]]),
                              np.array([[1.0, 0.0, 0.0, 0.0]]), [1])
        merged = merge(state, goal, replan_interval=2.0)
        t0, t1 = merged.domain
        assert (t0, t1) == (0.0, 2.0)  # the transition is the whole trajectory
        pos, _, grip = tk.eval_trajectory(merged, t1)
        assert np.linalg.norm(pos - [0.3, 0.1, 0.2]) < 1e-12
        # lone goals enter with the active trajectory's velocity at that time
        expected_entry = state.active.sample(np.array([t1]))[3][0]
        assert np.abs(merged.sample(np.array([t1 - 1e-12]))[3][0] - expected_entry).max() < 1e-9

    def test_shifted_plan_reaches_new_target_without_jump(self):
        state = line_state(at_time=3.0)
        shifted = line_plan(shift=(0.0, 0.02, 0.0))
        merged = merge(state, shifted, replan_interval=0.5)
        # no position jump at handoff
        old_pos, _, _ = tk.eval_trajectory(state.active, 3.0)
        new_pos, _, _ = tk.eval_trajectory(merged, 3.0)
        assert np.linalg.norm(old_pos - new_pos) < 1e-12
        # endpoint lands on the shifted target
        end_pos, _, _ = tk.eval_trajectory(merged, merged.domain[1])
        assert np.linalg.norm(end_pos - [1.0, 0.02, 0.0]) < 1e-9

    def test_velocity_continuity_at_junctions(self):
        state = line_state(at_time=2.3)
        shifted = line_plan(shift=(0.01, -0.02, 0.005))
        merged = merge(state, shifted, replan_interval=0.5)
        spline = merged.position
        # start junction: transition begins with the controller velocity
        assert np.abs(spline.velocity(2.3) - state.current_velocity).max() < 1e-9
        # entry junction: compare one-sided derivatives from the coefficients
        t_entry = spline.knot_times[1]
        h = t_entry - spline.knot_times[0]
        c = spline.coefficients
        vel_left = c[0, 1] + 2 * c[0, 2] * h + 3 * c[0, 3] * h**2
        vel_right = c[1, 1]
        assert np.abs(vel_left - vel_right).max() < 1e-9
        # and position continuity everywhere across knots
        for i in range(1, len(spline.knot_times) - 1):
            tau = spline.knot_times[i]
            left = spline.position(tau - 1e-10)
            right = spline.position(tau + 1e-10)
            assert np.linalg.norm(left - right) < 1e-8

    def test_completed_plan_returns_none(self):
        state = line_state(at_time=10.0)
        # single waypoints are kept unconditionally; use a two-point plan fully behind
        behind = tk.PendingPlan(np.array([[0.5, 0, 0], [0.6, 0, 0]]),
                                np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), [0, 0],
                                times=[5.0, 6.0])
        new_state, _, event = tk.controller_step(state, [10.001], behind)
        # plan complete: nothing survives and execution stays on the active trajectory
        assert event.dropped_count == len(behind) == 2
        assert new_state.active is state.active

    def test_orientation_blends_to_plan(self):
        state = line_state(at_time=2.0)
        n = 11
        t = np.arange(n, dtype=float)
        quats = np.tile(tk.euler_to_quaternion([0.0, 0.0, 0.7]), (n, 1))
        plan = tk.PendingPlan(np.stack([0.1 * t, 0 * t, 0 * t], axis=1), quats,
                              np.zeros(n, dtype=int), times=t)
        merged = merge(state, plan, replan_interval=0.5)
        _, q_mid, _ = tk.eval_trajectory(merged, 2.5)  # halfway through transition
        assert geodesic_angle(q_mid, tk.euler_to_quaternion([0.0, 0.0, 0.35])) < 1e-9


class TestControllerStep:
    def test_no_replans_matches_resample(self):
        state = line_state(at_time=0.0)
        rate = 20.0
        expected = tk.resample(state.active, rate)
        got = [state.current_position]
        for _ in range(len(expected) - 1):
            state, (_, pos, _, _), diag = tk.controller_step(
                state, [state.current_time + 1.0 / rate])
            got.append(pos[0])
            assert diag is None
        assert np.abs(np.array(got) - expected.positions).max() < 1e-9

    def test_identical_replan_stream_unchanged(self):
        rate, dt = 20.0, 0.05
        baseline = line_state(at_time=0.0)
        replanned = line_state(at_time=0.0)
        base_stream, replan_stream = [], []
        for k in range(1, 181):
            baseline, (_, pos_b, _, _), _ = tk.controller_step(
                baseline, [baseline.current_time + dt])
            source = line_plan() if k % 10 == 0 else None  # replan every 0.5 s
            replanned, (_, pos_r, _, _), _ = tk.controller_step(
                replanned, [replanned.current_time + dt], source)
            base_stream.append(pos_b[0])
            replan_stream.append(pos_r[0])
        diff = np.abs(np.array(base_stream) - np.array(replan_stream)).max()
        assert diff < 1e-6

    def test_empty_replan_treated_as_plan_complete(self):
        state = line_state(at_time=5.0)
        empty = tk.PendingPlan(np.empty((0, 3)), np.empty((0, 4)), [])
        new_state, (_, pos, _, _), diag = tk.controller_step(
            state, [state.current_time + 0.05], empty)
        assert diag is None and new_state.active is state.active
        # execution continues on the existing trajectory
        expected, _, _ = tk.eval_trajectory(state.active, 5.05)
        assert np.allclose(pos[0], expected)

    @pytest.mark.parametrize("times", [
        [], [2.0], [1.5], [2.1, 2.1], [2.2, 2.1], [math.nan], [2.1, math.inf],
    ], ids=["empty", "at-current", "before-current", "repeated", "decreasing", "nan", "inf"])
    def test_rejects_bad_times(self, times):
        state = line_state(at_time=2.0)
        with pytest.raises(ValueError):
            tk.controller_step(state, times)


class TestPendingPlanQuaternions:
    def test_from_sparse_converts_in_one_call(self, rng):
        eul = rng.uniform(-np.pi, np.pi, (6, 3))
        sparse = sparse_from_arrays(np.arange(6.0), rng.normal(size=(6, 3)), eul)
        plan = tk.PendingPlan.from_sparse(sparse)
        assert np.array_equal(plan.orientations, tk.eulers_to_quaternions(eul))
        assert not plan.orientations.flags.writeable

    def test_rows_canonicalized_like_unit_quaternion(self):
        rows = np.array([[-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1e-7]])
        plan = tk.PendingPlan(np.zeros((2, 3)), rows, [0, 1])
        for row, quat in zip(plan.orientations, rows):
            assert np.array_equal(row, tk.unit_quaternions([quat])[0])

    @pytest.mark.parametrize("quats", [
        np.array([[1.0, 0.0, 0.0, 0.1], [1.0, 0.0, 0.0, 0.0]]),  # not unit
        np.array([[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]]),  # not finite
        np.array([[1.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]]),
        np.ones((2, 3)),  # wrong row length
        np.ones(8) * 0.5,  # flat
        np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),  # wrong count
    ])
    def test_rejects_bad_quaternion_arrays(self, quats):
        with pytest.raises(ValueError):
            tk.PendingPlan(np.zeros((2, 3)), quats, [0, 0])


class TestControllerStateBoundary:
    def state(self, **changes):
        return line_state(at_time=2.0, **changes)

    @pytest.mark.parametrize("position", [[0.2, math.nan, 0.0], [math.inf, 0.0, 0.0],
                                          [0.0, 0.0], [[0.0, 0.0, 0.0]], 0.0])
    def test_rejects_bad_position(self, position):
        with pytest.raises(ValueError, match="current_position"):
            self.state(current_position=position)

    @pytest.mark.parametrize("velocity", [[0.0, math.nan, 0.0], [[0.0], [0.0], [0.0]]],
                             ids=["nan", "column"])
    def test_rejects_bad_velocity(self, velocity):
        with pytest.raises(ValueError, match="current_velocity"):
            self.state(current_velocity=velocity)

    @pytest.mark.parametrize("wxyz", [[1.0, 0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.0],
                                      [math.nan, 0.0, 0.0, 0.0], [1.0, math.inf, 0.0, 0.0],
                                      [1.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0]], 1.0])
    def test_rejects_bad_quaternion(self, wxyz):
        with pytest.raises(ValueError, match="quaternion"):
            self.state(current_wxyz=wxyz)

    @pytest.mark.parametrize("field", ["replan_interval", "segment_duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_durations_that_are_not_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            self.state(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "0.5", None])
    def test_rejects_times_that_are_not_finite_reals(self, value):
        with pytest.raises(ValueError, match="^current_time must be a finite real number"):
            self.state(current_time=value)

    @pytest.mark.parametrize("times, at_time", [([0.0, 1e-300, 1.0], 2.0), (None, 1e17)],
                             ids=["shifted-schedule", "re-timed-late"])
    def test_rejects_knots_that_round_together(self, times, at_time):
        # the overrun schedule is shifted by 2.5, which rounds its first two
        # knots together; at 1e17 the transition and the segments are below
        # one ulp, so the re-timed knots all round to current_time
        plan = tk.PendingPlan([[1.3, 0.0, 0.0], [1.4, 0.0, 0.0], [1.5, 0.0, 0.0]],
                              np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), np.zeros(3), times)
        with pytest.raises(ValueError, match="must be strictly increasing"):
            tk.controller_step(self.state(current_time=at_time), [at_time + 1000.0], plan)

    def test_rejects_transition_coefficients_that_overflow(self):
        state = self.state(current_velocity=[1e308, 0.0, 0.0], replan_interval=1e-3)
        with pytest.raises(ValueError, match="^coefficients must be finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            tk.controller_step(state, [2.0005], line_plan(shift=(0.0, 0.01, 0.0)))

    def test_rejects_a_sampled_position_that_overflows(self):
        # finite coefficients whose cubic overflows one time unit in
        spline = tk.PositionSpline([0.0, 2.0], [[[0.0] * 3, [0.0] * 3, [1e308] * 3, [1e308] * 3]])
        active = tk.ContinuousTrajectory(spline, np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), [0, 0])
        state = self.state(current_time=0.0, current_position=[0.0] * 3,
                           current_velocity=[0.0] * 3, active=active)
        with pytest.raises(ValueError, match="^current_position must be finite"), \
                np.errstate(over="ignore"):
            tk.controller_step(state, [1.0])

    def test_transition_spans_the_replan_interval(self):
        timed = line_plan(shift=(0.0, 0.01, 0.0))
        untimed = tk.PendingPlan(timed.positions, timed.orientations, timed.grippers)
        for interval, entry in ((0.5, 2.5), (0.25, 2.25)):
            state = self.state(replan_interval=interval)
            merged = tk.controller_step(state, [2.001], untimed)[0].active
            assert merged.position.knot_times[1] == entry

    def test_stores_canonical_read_only_arrays(self):
        state = self.state(current_position=[0.2, 0.0, 0.0], current_wxyz=[-1, 0, 0, 0])
        assert np.array_equal(state.current_wxyz, [1.0, 0.0, 0.0, 0.0])
        # the same rule, and the same bits, as unit_quaternions
        assert state.current_wxyz.tobytes() == tk.unit_quaternions([[-1, 0, 0, 0]])[0].tobytes()
        assert state.current_position.tolist() == [0.2, 0.0, 0.0]
        for column in (state.current_position, state.current_wxyz, state.current_velocity):
            assert not column.flags.writeable

    def test_step_stores_the_sampled_quaternion(self, rng):
        state = line_state(at_time=2.0)
        quat = tk.eulers_to_quaternions(rng.uniform(-3, 3, (1, 3)))[0]
        plan = tk.PendingPlan(line_plan().positions, np.tile(quat, (11, 1)), np.zeros(11),
                              times=line_plan().times)
        times = [2.01, 2.02, 2.6]
        new_state, _, _ = tk.controller_step(state, times, plan)
        _, quats, _, _ = new_state.active.sample(np.array(times))
        assert new_state.current_wxyz.tobytes() == quats[-1].tobytes()

    def test_event_records_the_keep_decision(self):
        state = line_state(at_time=2.3)
        plan = line_plan(shift=(0.0, 0.01, 0.0))
        new_state, _, event = tk.controller_step(state, [2.31], plan)
        k, gamma, dropped = keep_reference(state.current_position, plan.positions)
        assert event == tk.ReplanEvent(2.3, k + dropped, gamma, k, dropped)


class TestPendingPlanSlices:
    @pytest.mark.parametrize("timed", [True, False])
    def test_tail_equals_public_construction(self, rng, timed):
        n = 6
        plan = tk.PendingPlan(rng.normal(size=(n, 3)),
                              tk.eulers_to_quaternions(rng.uniform(-3, 3, (n, 3))),
                              rng.integers(0, 2, n), np.arange(n) + 0.5 if timed else None)
        for k in range(n + 1):
            tail = plan.tail(k)
            public = tk.PendingPlan(plan.positions[k:], plan.orientations[k:],
                                    plan.grippers[k:], None if not timed else plan.times[k:])
            assert len(tail) == len(public) == n - k
            for name in ("positions", "orientations", "grippers", "times"):
                got, want = getattr(tail, name), getattr(public, name)
                if not timed and name == "times":
                    assert got is None and want is None
                    continue
                assert np.array_equal(got, want) and got.dtype == want.dtype, name
                assert not got.flags.writeable, name


def assert_same_bits(a, b, name):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_same_columns(got, want, names):
    for name in names:
        assert_same_bits(getattr(got, name), getattr(want, name), name)
        assert not getattr(got, name).flags.writeable, name


class TestTrustedConstructors:
    """Each private ``_checked`` constructor gives what public construction
    of the same inputs gives."""

    def active(self, rng, n=6):
        t = np.cumsum(rng.uniform(0.1, 1.0, n))
        return tk.fit(sparse_from_arrays(t, rng.normal(size=(n, 3)), rng.uniform(-3, 3, (n, 3)),
                                         rng.integers(0, 2, n)))

    def test_position_spline(self, rng):
        knots = self.active(rng).position.knot_times
        coefficients = rng.normal(size=(len(knots) - 1, 4, 3))
        trusted = tk.PositionSpline._checked(knots, coefficients.copy())
        assert_same_columns(trusted, tk.PositionSpline(knots, coefficients),
                            ("knot_times", "coefficients"))
        coefficients[-1, 3, 2] = math.inf
        with pytest.raises(ValueError, match="^coefficients must be finite"):
            tk.PositionSpline._checked(knots, coefficients)

    def test_position_spline_fit(self, rng):
        fitted = self.active(rng).position
        assert_same_columns(fitted, tk.PositionSpline(fitted.knot_times, fitted.coefficients),
                            ("knot_times", "coefficients"))

    def test_continuous_trajectory(self, rng):
        spline = self.active(rng).position
        n = len(spline.knot_times)
        wxyz = tk.eulers_to_quaternions(rng.uniform(-3, 3, (n, 3)))
        assert (np.sum(wxyz[:-1] * wxyz[1:], axis=1) < 0.0).any()  # the alignment flips rows
        grippers = rng.integers(0, 2, n)
        fit_points = rng.normal(size=(n - 1, 3))
        trusted = tk.ContinuousTrajectory._checked(spline, wxyz.copy(), grippers.copy(),
                                                   fit_points)
        public = tk.ContinuousTrajectory(spline, wxyz, grippers)
        assert trusted.position is public.position
        assert_same_columns(trusted, public, ("wxyz", "grippers"))
        # only the trusted constructor records the points its tail interpolates
        assert trusted._fit_points is fit_points and public._fit_points is None

    def test_controller_state(self, rng):
        active = self.active(rng)
        times = np.linspace(*active.domain, 7)[1:]
        pos, quats, grip, vels = active.sample(times)
        t, vel = float(times[-1]), vels[-1]
        fields = (t, pos[-1], quats[-1], vel, grip[-1], active, 0.25, 0.5)
        trusted = tk.ControllerState._checked(*fields)
        public = tk.ControllerState(*fields)
        assert_same_columns(trusted, public,
                            ("current_position", "current_wxyz", "current_velocity"))
        assert trusted.current_time == public.current_time and type(trusted.current_time) is float
        assert (trusted.current_gripper == public.current_gripper
                and type(trusted.current_gripper) is int)
        for name in ("active", "replan_interval", "segment_duration"):
            assert getattr(trusted, name) is getattr(public, name), name
        # the sampled rows are copied: the block they came from stays the caller's
        assert not np.shares_memory(trusted.current_position, pos)
        assert not np.shares_memory(trusted.current_wxyz, quats)
        for name, row in (("current_position", pos[-1]), ("current_velocity", vel)):
            bad = dict(zip(("current_position", "current_velocity"), (pos[-1], vel.copy())))
            bad[name] = np.where(np.arange(3) == 1, math.nan, row)
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                tk.ControllerState._checked(t, bad["current_position"], quats[-1],
                                            bad["current_velocity"], grip[-1], active, 0.25,
                                            0.5)


class TestPendingPlanGrippers:
    @pytest.mark.parametrize("grippers", [[0.7, 1.9], [0.0, 0.5], [2, 1], [-1, 0],
                                          [math.nan, 0.0]])
    def test_rejects_values_outside_zero_one(self, grippers):
        # a float must be rejected, not truncated to an int first
        with pytest.raises(ValueError, match="gripper"):
            tk.PendingPlan(np.zeros((2, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), grippers)

    def test_stores_zero_one_as_read_only_ints(self):
        plan = tk.PendingPlan(np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
                              [1.0, 0.0, np.int64(1)])
        assert plan.grippers.dtype == int and plan.grippers.tolist() == [1, 0, 1]
        assert not plan.grippers.flags.writeable


class TestPendingPlanShapes:
    @pytest.mark.parametrize("positions, grippers", [
        (np.zeros(6), [0, 0]),
        (np.zeros((2, 3)), [[0], [0]]),
    ], ids=["flat-positions", "column-grippers"])
    def test_rejects_columns_it_would_have_to_reshape(self, positions, grippers):
        with pytest.raises(ValueError, match="shape"):
            tk.PendingPlan(positions, np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), grippers)


class TestPendingPlanFinite:
    @pytest.mark.parametrize("positions, times", [
        ([[math.nan, 0, 0], [1, 0, 0]], None),
        ([[0, 0, 0], [1, math.inf, 0]], [0.0, 1.0]),
        ([[0, 0, 0], [1, 0, 0]], [0.0, math.nan]),
        ([[0, 0, 0], [1, 0, 0]], [-math.inf, 1.0]),
    ], ids=["nan-position", "inf-position", "nan-time", "inf-time"])
    def test_rejects_non_finite(self, positions, times):
        with pytest.raises(ValueError, match="finite"):
            tk.PendingPlan(positions, np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), [0, 0], times)


coordinates = st.floats(-1.0, 1.0)


class TestRefreshPendingProperty:
    @given(arrays(float, st.tuples(st.integers(1, 8), st.just(3)), elements=coordinates),
           arrays(float, 3, elements=coordinates), st.booleans())
    def test_keeps_order_and_drops_only_a_prefix(self, positions, current, timed):
        n = len(positions)
        assume(n == 1 or np.all(np.linalg.norm(np.diff(positions, axis=0), axis=1) > 0))
        quats = tk.eulers_to_quaternions(np.outer(np.arange(n), [0.1, -0.2, 0.3]))
        times = np.arange(n) + 0.5 if timed else None
        pending = tk.PendingPlan(positions, quats, np.arange(n) % 2, times)
        refreshed, event = refresh(current, pending)
        dropped = event.dropped_count
        assert len(refreshed) == n - dropped
        assert 0 <= dropped <= n
        assert np.array_equal(refreshed.positions, pending.positions[dropped:])
        assert np.array_equal(refreshed.orientations, pending.orientations[dropped:])
        assert np.array_equal(refreshed.grippers, pending.grippers[dropped:])
        if timed:
            assert np.array_equal(refreshed.times, pending.times[dropped:])
        if n > 1:  # survivors start at the nearest waypoint, or just after it
            k, _, kstar_dropped = keep_reference(current, positions)
            assert dropped == k + kstar_dropped


quarters = st.integers(-8, 8).map(lambda i: i / 4)  # exact differences and distances
grid_point = st.tuples(quarters, quarters, quarters)


@st.composite
def keep_cases(draw):
    """(positions, current): 2-12 waypoints on a quarter grid, and a current
    position that is free, at an exact distance tie between two waypoints,
    or on the plane through a waypoint perpendicular to its direction."""
    positions = np.array(draw(st.lists(grid_point, min_size=2, max_size=12)))
    n = len(positions)
    case = draw(st.sampled_from(["free", "tie", "perpendicular"]))
    if case == "free":
        return positions, np.array(draw(grid_point))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if case == "tie":
        return positions, (positions[i] + positions[j]) / 2
    # a small offset (nothing else on the grid is nearer) along only the axes
    # the direction at i does not move in: every term of gamma is an exact 0
    diff = positions[i + 1] - positions[i] if i < n - 1 else positions[i] - positions[i - 1]
    return positions, positions[i] + np.array(draw(grid_point)) / 64 * (diff == 0)


class TestKeepDecisionProperty:
    @given(keep_cases())
    def test_event_equals_the_loop_reference(self, case):
        positions, current = case
        plan = untimed_plan(positions)
        expected = keep_reference(current, positions)
        if expected is None:
            with pytest.raises(tk.UndefinedDirectionError):
                refresh(current, plan)
            return
        k, gamma, dropped = expected
        pending, event = refresh(current, plan)
        assert (event.kstar, event.kstar_dropped, event.dropped_count) == (k, dropped,
                                                                           k + dropped)
        assert abs(event.gamma_at_kstar - gamma) <= 1e-12
        assert len(pending) == len(positions) - event.dropped_count


def refit_next(state):
    """The state with its active trajectory rebuilt through the public
    constructor, which records no fit points, so the next merge refits."""
    active = state.active
    return replace(state, active=tk.ContinuousTrajectory(active.position, active.wxyz,
                                                         active.grippers))


def drive(scenario, timed: bool, rebuild=None) -> list:
    """(state, block, event) of each controller_step of a closed loop over the
    scenario's plan, three ticks per replan interval, fed the oracle planner's
    plans (with their schedule only when ``timed``). ``rebuild``, when given,
    maps the state before each step that gets a plan."""
    active = tk.fit(scenario.initial_plan)
    t0, t_end = active.domain
    pos, quat, grip, vel = active.sample(np.array([t0]))
    state = tk.ControllerState(t0, pos[0], quat[0], vel[0], grip[0], active,
                               scenario.replan_interval, segment_duration=0.05)
    steps, delayed = [], None
    interval = scenario.replan_interval
    for k in range(1, int((t_end - t0) / interval) + 1):
        plan = tk.oracle_planner(scenario, state.current_time)
        if not timed:
            plan = tk.PendingPlan(plan.positions, plan.orientations, plan.grippers)
        if scenario.delayed_planner:
            plan, delayed = delayed, plan
        if rebuild is not None and plan is not None:
            state = rebuild(state)
        times = t0 + (k - 1 + np.arange(1, 4) / 3) * interval
        state, block, event = tk.controller_step(state, times, plan)
        steps.append((state, block, event))
    return steps


def fit_calls(monkeypatch) -> list:
    """The argument tuples of every later ``PositionSpline.fit`` call."""
    calls = []
    fit = tk.PositionSpline.fit
    monkeypatch.setattr(tk.PositionSpline, "fit",
                        classmethod(lambda cls, *args: calls.append(args) or fit(*args)))
    return calls


def assert_same_steps(got, want):
    """The blocks and merged coefficients of two drives are equal bit for bit."""
    for (state, block, _), (ref_state, ref_block, _) in zip(got, want, strict=True):
        for name, a, b in zip(("times", "positions", "wxyz", "grippers"), block, ref_block):
            assert_same_bits(a, b, name)
        assert_same_bits(state.active.position.coefficients,
                         ref_state.active.position.coefficients, "coefficients")


drift = st.floats(0.002, 0.03) | st.floats(-0.03, -0.002)  # nonzero: it moves the waypoints


class TestHeldFitReuse:
    """A merge whose active trajectory came from a merge of a plan with the
    same positions, and whose knots match the held ones, takes segments 1..
    of the active trajectory instead of refitting them."""

    def test_merges_reuse_the_held_fit(self, monkeypatch):
        calls = fit_calls(monkeypatch)
        log = tk.run(curved_scenario())
        # one fit of the initial plan, then one per merge that cannot reuse
        assert 1 < len(calls) < len(log.replan_events) / 2

    def test_a_state_built_by_hand_refits(self, monkeypatch):
        # mid-segment, with the active fit's waypoints after the first as the
        # plan: the held segments are a fit of all six waypoints, not the
        # natural fit of the last five, though knots and positions match
        t = np.arange(6.0)
        sparse = sparse_from_arrays(t, np.stack([np.sin(t), t**2 / 10, np.zeros(6)], axis=1))
        active = tk.fit(sparse)
        plan = tk.PendingPlan.from_sparse(sparse).tail(1)
        pos, quat, grip, vel = active.sample(np.array([0.5]))
        state = tk.ControllerState(0.5, pos[0], quat[0], vel[0], grip[0], active, 0.5)
        want = tk.PositionSpline.fit(plan.times, plan.positions)
        calls = fit_calls(monkeypatch)
        got = tk.controller_step(state, [0.6], plan)[0].active.position
        assert len(calls) == 1
        assert_same_bits(got.coefficients[1:], want.coefficients, "coefficients")

    def test_a_replaced_state_keeps_reusing(self, monkeypatch):
        # the fit points travel with the active trajectory, so a state that
        # dataclasses.replace rebuilds between steps still reuses the held fit
        scenario = curved_scenario()
        want = drive(scenario, True, refit_next)
        calls = fit_calls(monkeypatch)
        got = drive(scenario, True, replace)
        merges = sum(state.active is not prev.active
                     for (prev, _, _), (state, _, _) in zip(got, got[1:]))
        assert 1 < len(calls) < merges
        assert_same_steps(got, want)

    def test_a_drift_between_replans_with_the_same_knots_refits(self):
        # the drift lands between two replans whose plans have the same
        # knots, so only the positions tell the held fit is stale
        scenario = curved_scenario([tk.Perturbation(0.125, [0.015625] * 3)],
                                   replan_interval=0.015625)
        assert_same_steps(drive(scenario, True), drive(scenario, True, refit_next))

    @settings(max_examples=25)  # each example drives two loops of up to 80 merges
    @given(interval=st.floats(0.005, 0.05), timed=st.booleans(), delayed=st.booleans(),
           drifts=st.lists(st.tuples(st.floats(0.0, 0.4), arrays(float, 3, elements=drift)),
                           max_size=2))
    def test_equals_a_forced_refit_bit_for_bit(self, interval, timed, delayed, drifts):
        scenario = curved_scenario([tk.Perturbation(t, offset) for t, offset in drifts],
                                   replan_interval=interval, delayed_planner=delayed)
        got, want = drive(scenario, timed), drive(scenario, timed, refit_next)
        assert len(got) == len(want)
        for (state, block, event), (ref_state, ref_block, ref_event) in zip(got, want):
            for name, a, b in zip(("times", "positions", "wxyz", "grippers"), block, ref_block):
                assert_same_bits(a, b, name)
            assert repr(event) == repr(ref_event)  # nan and -0.0 alike
            assert state.current_time == ref_state.current_time
            for name in ("current_position", "current_wxyz", "current_velocity"):
                assert_same_bits(getattr(state, name), getattr(ref_state, name), name)
            active, ref_active = state.active, ref_state.active
            assert_same_bits(active.position.knot_times, ref_active.position.knot_times, "knots")
            assert_same_bits(active.position.coefficients, ref_active.position.coefficients,
                             "coefficients")
            assert_same_bits(active.wxyz, ref_active.wxyz, "wxyz")
            assert_same_bits(active.grippers, ref_active.grippers, "grippers")
