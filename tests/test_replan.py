"""Closed-loop merging: nearest waypoint, keep test, pending refresh, blending."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import trajkit as tk
from conftest import geodesic_angle
from test_splines import sparse_from_arrays


def line_plan(n=11, speed=0.1, t0=0.0, shift=(0.0, 0.0, 0.0)):
    """Waypoints along +x at 1 s spacing, moving at `speed` m/s."""
    t = t0 + np.arange(n, dtype=float)
    pos = np.stack([speed * (t - t0), np.zeros(n), np.zeros(n)], axis=1) + np.asarray(shift)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return tk.PendingPlan(pos, quats, np.zeros(n, dtype=int), times=t)


def line_state(n=11, speed=0.1, at_time=0.0, **changes):
    sparse = sparse_from_arrays(np.arange(n, dtype=float),
                                np.stack([speed * np.arange(n), np.zeros(n), np.zeros(n)],
                                         axis=1))
    active = tk.fit(sparse)
    pos, quat, _ = tk.eval_trajectory(active, at_time)
    fields = dict(current_time=at_time, current_position=pos, current_wxyz=quat,
                  current_velocity=active.velocity(at_time), active=active,
                  pending=line_plan(n, speed), replan_interval=0.5)
    return tk.ControllerState(**{**fields, **changes})


def refresh(current_pos, plan):
    """(pending plan, event) after one controller_step at t = 2 from
    current_pos that processes the replan ``plan``."""
    state, _, event = tk.controller_step(line_state(at_time=2.0, current_position=current_pos),
                                         [2.01], plan)
    return state.pending, event


def merge(state, plan, transition_duration):
    """The active trajectory after one controller_step that merges ``plan``."""
    state = replace(state, transition_duration=transition_duration)
    return tk.controller_step(state, [state.current_time + 1e-3], plan)[0].active


class TestNearestPendingIndex:
    def test_all_ahead(self):
        plan = tk.PendingPlan(np.array([[1.0, 0, 0], [2, 0, 0], [3, 0, 0]]),
                              np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), [0, 0, 0])
        assert tk.nearest_pending_index([0, 0, 0], plan) == 0

    def test_between(self):
        plan = tk.PendingPlan(np.array([[1.0, 0, 0], [2, 0, 0], [3, 0, 0]]),
                              np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), [0, 0, 0])
        assert tk.nearest_pending_index([2.1, 0, 0], plan) == 1

    def test_tie_takes_lowest(self):
        # oracle: exhaustive distance scan with the declared tie rule
        plan = tk.PendingPlan(np.array([[1.0, 0, 0], [2, 0, 0], [3, 0, 0]]),
                              np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), [0, 0, 0])
        current = np.array([1.5, 0, 0])
        dists = [np.linalg.norm(p - current) for p in plan.positions]
        best = min(range(3), key=lambda i: (dists[i], i))
        assert tk.nearest_pending_index(current, plan) == best == 0

    def test_empty_plan(self):
        plan = tk.PendingPlan(np.empty((0, 3)), np.empty((0, 4)), [])
        with pytest.raises(tk.EmptyPlanError):
            tk.nearest_pending_index([0, 0, 0], plan)


class TestForwardDirection:
    def test_interior_points_forward(self):
        plan = line_plan(5, speed=1.0)
        for k in range(4):
            assert np.allclose(tk.forward_direction(plan, k), [1, 0, 0])

    def test_last_uses_backward_difference(self):
        plan = tk.PendingPlan(np.array([[0.0, 0, 0], [0, 1, 0]]),
                              np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), [0, 0])
        assert np.allclose(tk.forward_direction(plan, 1), [0, 1, 0])

    def test_random_polyline_vs_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            pts = rng.normal(size=(n, 3))
            plan = tk.PendingPlan(pts, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                                  np.zeros(n, dtype=int))
            for k in range(n):
                diff = pts[k + 1] - pts[k] if k < n - 1 else pts[k] - pts[k - 1]
                expected = diff / np.linalg.norm(diff)
                assert np.allclose(tk.forward_direction(plan, k), expected, atol=1e-12)

    def test_single_waypoint_undefined(self):
        plan = tk.PendingPlan(np.array([[1.0, 0, 0]]), np.array([[1.0, 0.0, 0.0, 0.0]]), [0])
        with pytest.raises(tk.UndefinedDirectionError):
            tk.forward_direction(plan, 0)


class TestKeepTest:
    def test_ahead_keeps(self):
        gamma, keep = tk.keep_test([0, 0, 0], [1, 0, 0], [1, 0, 0])
        assert gamma == 1.0 and keep

    def test_behind_drops(self):
        # oracle: direct dot product
        gamma, keep = tk.keep_test([2.2, 0, 0], [2, 0, 0], [1, 0, 0])
        assert abs(gamma - (-0.2)) < 1e-12 and not keep

    def test_exact_boundary_drops(self):
        gamma, keep = tk.keep_test([2, 0, 0], [2, 0, 0], [1, 0, 0])
        assert gamma == 0.0 and not keep

    def test_scale_invariant_decision(self, rng):
        for _ in range(100):
            cur, wp = rng.normal(size=(2, 3))
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            gamma, keep = tk.keep_test(cur, wp, d)
            scale = float(rng.uniform(0.1, 50))
            gamma_s, keep_s = tk.keep_test(scale * cur, scale * wp, d)
            assert keep == keep_s
            assert abs(gamma_s - scale * gamma) < 1e-9 * max(1, abs(gamma_s))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            tk.keep_test([0, 0, 0], [1, 0, 0], [2, 0, 0])


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
            plan = tk.PendingPlan(pts, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                                  np.zeros(n, dtype=int))
            cur = rng.normal(size=3)
            k = tk.nearest_pending_index(cur, plan)
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
        merged = merge(state, line_plan(), transition_duration=0.5)
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
            active=state.active,
            pending=state.pending,
            replan_interval=0.5,
        )
        goal = tk.PendingPlan(np.array([[0.3, 0.1, 0.2]]),
                              np.array([[1.0, 0.0, 0.0, 0.0]]), [1])
        merged = merge(state, goal, transition_duration=2.0)
        t0, t1 = merged.domain
        assert (t0, t1) == (0.0, 2.0)  # the transition is the whole trajectory
        pos, _, grip = tk.eval_trajectory(merged, t1)
        assert np.linalg.norm(pos - [0.3, 0.1, 0.2]) < 1e-12
        # lone goals enter with the active trajectory's velocity at that time
        expected_entry = state.active.velocity(t1)
        assert np.abs(merged.velocity(t1 - 1e-12) - expected_entry).max() < 1e-9

    def test_shifted_plan_reaches_new_target_without_jump(self):
        state = line_state(at_time=3.0)
        shifted = line_plan(shift=(0.0, 0.02, 0.0))
        merged = merge(state, shifted, transition_duration=0.5)
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
        merged = merge(state, shifted, transition_duration=0.5)
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
        assert len(new_state.pending) == 0 and event.dropped_count == 2
        assert new_state.active is state.active

    def test_orientation_blends_to_plan(self):
        state = line_state(at_time=2.0)
        n = 11
        t = np.arange(n, dtype=float)
        quats = np.tile(tk.euler_to_quaternion([0.0, 0.0, 0.7]), (n, 1))
        plan = tk.PendingPlan(np.stack([0.1 * t, 0 * t, 0 * t], axis=1), quats,
                              np.zeros(n, dtype=int), times=t)
        merged = merge(state, plan, transition_duration=0.5)
        _, q_mid, _ = tk.eval_trajectory(merged, 2.5)  # halfway through transition
        assert geodesic_angle(q_mid, tk.euler_to_quaternion([0.0, 0.0, 0.35])) < 1e-9

    def test_invalid_transition_duration(self):
        with pytest.raises(ValueError, match="transition_duration"):
            line_state(at_time=2.0, transition_duration=0.0)


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
        assert diag is None
        assert len(new_state.pending) == 0
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

    @pytest.mark.parametrize("wxyz", [[1.0, 0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.0],
                                      [math.nan, 0.0, 0.0, 0.0], [1.0, math.inf, 0.0, 0.0],
                                      [1.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0]], 1.0])
    def test_rejects_bad_quaternion(self, wxyz):
        with pytest.raises(ValueError, match="quaternion"):
            self.state(current_wxyz=wxyz)

    @pytest.mark.parametrize("field", ["replan_interval", "segment_duration",
                                       "transition_duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_durations_that_are_not_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            self.state(**{field: value})

    def test_transition_duration_defaults_to_the_interval(self):
        timed = line_plan(shift=(0.0, 0.01, 0.0))
        untimed = tk.PendingPlan(timed.positions, timed.orientations, timed.grippers)
        for transition, entry in ((None, 2.5), (0.25, 2.25)):
            state = self.state(transition_duration=transition)
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
        _, quats, _ = new_state.active.sample(np.array(times))
        assert new_state.current_wxyz.tobytes() == quats[-1].tobytes()

    def test_event_records_the_keep_decision(self):
        state = line_state(at_time=2.3)
        plan = line_plan(shift=(0.0, 0.01, 0.0))
        new_state, _, event = tk.controller_step(state, [2.31], plan)
        k = tk.nearest_pending_index(state.current_position, plan)
        gamma, keep = tk.keep_test(state.current_position, plan.positions[k],
                                   tk.forward_direction(plan, k))
        assert event == tk.ReplanEvent(2.3, len(plan) - len(new_state.pending), gamma, k,
                                       not keep)
        assert event.dropped_count == (k if keep else k + 1)


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


class TestPendingPlanGrippers:
    @pytest.mark.parametrize("grippers", [[0.7, 1.9], [0.0, 0.5], [2, 1], [-1, 0],
                                          [math.nan, 0.0]])
    def test_rejects_values_outside_zero_one(self, grippers):
        # a float must be rejected, not truncated to an int first
        with pytest.raises(ValueError, match="gripper"):
            tk.PendingPlan(np.zeros((2, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), grippers)

    def test_stores_zero_one_as_read_only_ints(self):
        plan = tk.PendingPlan(np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
                              [1.0, 0.0, True])
        assert plan.grippers.dtype == int and plan.grippers.tolist() == [1, 0, 1]
        assert not plan.grippers.flags.writeable


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
        # survivors start at the nearest waypoint, or just after it
        k = tk.nearest_pending_index(current, pending)
        assert dropped in ((0,) if n == 1 else (k, k + 1))
