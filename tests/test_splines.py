"""Spline detokenizer: fitting, SLERP, evaluation, resampling, error decay."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

import trajkit as tk
from trajkit import geometry, keyframes, splines
from conftest import geodesic_angle, helix_trajectory, line_trajectory


def sparse_from_arrays(t, pos, eul=None, grip=None, frame=tk.Frame.WORLD):
    n = len(t)
    eul = np.zeros((n, 3)) if eul is None else np.asarray(eul)
    grip = np.zeros(n, dtype=int) if grip is None else np.asarray(grip)
    return tk.SparseTrajectory(t, pos, eul, grip, (True,) * n, frame)


EDGE_FLOATS = [-0.0, 0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, math.nan, math.inf, -math.inf]


class TestClamp:
    """geometry._clamp stands in for np.clip on the hot paths, bit for bit."""

    @given(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), max_size=40),
           st.sampled_from([(0.0, 1.0), (-0.0, 0.0), (0.0, 0.0), (-1.0, -0.0), (0.5, 0.5),
                            (-1.0, 1.0)]))
    def test_matches_clip_on_floats(self, values, bounds):
        x = np.array(values, dtype=float)
        assert geometry._clamp(x, *bounds).tobytes() == np.clip(x, *bounds).tobytes()
        for v in x:
            got, want = geometry._clamp(np.asarray(v), *bounds), np.clip(np.asarray(v), *bounds)
            assert type(got) is type(want) and np.asarray(got).tobytes() == want.tobytes()

    def test_matches_clip_on_indices(self):
        idx = np.arange(-3, 9) - 1
        for lo, hi in ((0, 5), (1, 7)):
            assert np.array_equal(geometry._clamp(idx, lo, hi), np.clip(idx, lo, hi))
            assert geometry._clamp(idx, lo, hi).dtype == np.clip(idx, lo, hi).dtype

    def test_one_helper_for_every_module(self):
        assert splines._clamp is keyframes._clamp is geometry._clamp


class TestFit:
    def test_one_waypoint_rejected(self):
        with pytest.raises(ValueError) as info:
            splines.PositionSpline.fit([0.0], [[1.0, 2.0, 3.0]])
        assert str(info.value) == "need at least two waypoints"

    def test_one_knot_rejected(self):
        with pytest.raises(ValueError) as info:
            splines.PositionSpline([0.0], np.zeros((0, 4, 3)))
        assert str(info.value) == "need at least two knots"

    def test_two_waypoints_linear(self):
        sparse = sparse_from_arrays([0.0, 2.0], np.array([[0, 0, 0], [1, 2, 3]]))
        traj = tk.fit(sparse)
        for s in np.linspace(0, 1, 11):
            pos, _, _ = tk.eval_trajectory(traj, 2.0 * s)
            assert np.linalg.norm(pos - s * np.array([1, 2, 3])) < 1e-9

    def test_collinear_waypoints_stay_on_line(self):
        t = np.linspace(0, 3, 7)
        direction = np.array([1.0, -2.0, 0.5])
        sparse = sparse_from_arrays(t, np.outer(t, direction))
        traj = tk.fit(sparse)
        for tau in np.linspace(0, 3, 50):
            pos, _, _ = tk.eval_trajectory(traj, tau)
            assert np.linalg.norm(pos - tau * direction) < 1e-9

    def test_matches_scipy_natural_spline(self, rng):
        # independent oracle for the tridiagonal moment solve
        t = np.sort(rng.uniform(0, 5, 9))
        t[0], t[-1] = 0.0, 5.0
        pts = rng.normal(size=(9, 3))
        sparse = sparse_from_arrays(t, pts)
        traj = tk.fit(sparse)
        oracle = CubicSpline(t, pts, bc_type="natural")
        grid = np.linspace(0, 5, 400)
        assert np.abs(traj.position.position(grid) - oracle(grid)).max() < 1e-9

    def test_shrinking_knots_reduce_error(self):
        # waypoints on (sin t, cos t, t): finer knots, smaller interior error
        errors = []
        for n in (6, 11, 21):
            t = np.linspace(0, 2 * np.pi, n)
            pts = np.stack([np.sin(t), np.cos(t), t], axis=1)
            traj = tk.fit(sparse_from_arrays(t, pts))
            grid = np.linspace(0.5, 2 * np.pi - 0.5, 300)  # interior
            truth = np.stack([np.sin(grid), np.cos(grid), grid], axis=1)
            errors.append(np.linalg.norm(traj.position.position(grid) - truth,
                                         axis=1).max())
        assert errors[0] > errors[1] > errors[2]

    def test_interpolates_knots_exactly(self, rng):
        t = np.sort(rng.uniform(0, 10, 12))
        t += np.arange(12) * 1e-6
        pts = rng.normal(size=(12, 3))
        eul = rng.uniform(-np.pi, np.pi, (12, 3))
        traj = tk.fit(sparse_from_arrays(t, pts, eul))
        for i in range(12):
            pos, quat, _ = tk.eval_trajectory(traj, t[i])
            assert np.linalg.norm(pos - pts[i]) < 1e-9
            assert geodesic_angle(quat, tk.euler_to_quaternion(eul[i])) < 1e-9

    def test_c2_continuity_at_interior_knots(self, rng):
        t = np.linspace(0, 4, 9)
        pts = rng.normal(size=(9, 3))
        spline = tk.fit(sparse_from_arrays(t, pts)).position
        for i in range(1, 8):
            left = i - 1
            h = t[i] - t[left]
            c = spline.coefficients
            val_l = c[left, 0] + c[left, 1] * h + c[left, 2] * h**2 + c[left, 3] * h**3
            vel_l = c[left, 1] + 2 * c[left, 2] * h + 3 * c[left, 3] * h**2
            acc_l = 2 * c[left, 2] + 6 * c[left, 3] * h
            assert np.abs(val_l - c[i, 0]).max() < 1e-9
            assert np.abs(vel_l - c[i, 1]).max() < 1e-9
            assert np.abs(acc_l - 2 * c[i, 2]).max() < 1e-9

    def test_natural_end_curvature_zero(self, rng):
        t = np.linspace(0, 4, 9)
        pts = rng.normal(size=(9, 3))
        c = tk.fit(sparse_from_arrays(t, pts)).position.coefficients
        h = t[-1] - t[-2]
        assert np.abs(2 * c[0, 2]).max() < 1e-9
        assert np.abs(2 * c[-1, 2] + 6 * h * c[-1, 3]).max() < 1e-9

    def test_end_velocities_clamp_the_ends(self, rng):
        # end velocities used to be ignored unless bc_type was "clamped"
        t = np.linspace(0, 4, 9)
        ends = np.array([[5.0] * 3, [9.0] * 3])
        spline = tk.PositionSpline.fit(t, rng.normal(size=(9, 3)), ends)
        assert np.abs(spline.velocity(t[[0, -1]]) - ends).max() < 1e-9

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(ValueError):
            tk.PositionSpline.fit([0.0, 1.0, 1.0], np.zeros((3, 3)))

    def test_single_waypoint_rejected(self):
        sparse = sparse_from_arrays([0.0], np.zeros((1, 3)))
        with pytest.raises(tk.InsufficientDataError):
            tk.fit(sparse)

    @pytest.mark.parametrize("times, points, ends, name", [
        ([0.0, 1.0, 2.0], [[0, 0, 0], [1, math.nan, 0], [2, 0, 0]], None, "points"),
        ([0.0, 1.0, 2.0], np.zeros((3, 3)), ([0, 0, 0], [math.inf, 0, 0]), "end_velocities"),
        ([0.0, 1.0, math.inf], np.zeros((3, 3)), None, "times"),
    ], ids=["nan-point", "inf-end-velocity", "inf-knot-time"])
    def test_non_finite_input_rejected(self, times, points, ends, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            tk.PositionSpline.fit(times, points, ends)

    @pytest.mark.parametrize("knots, coefficients, name", [
        ([0.0, 1.0], np.full((1, 4, 3), math.nan), "coefficients"),
        ([0.0, 1.0, 2.0], [np.zeros((4, 3)), np.full((4, 3), math.inf)], "coefficients"),
        ([0.0, math.inf], np.zeros((1, 4, 3)), "knot times"),
        ([math.nan, 1.0], np.zeros((1, 4, 3)), "knot times"),
    ], ids=["nan-coefficients", "inf-coefficients", "inf-last-knot", "nan-first-knot"])
    def test_constructor_rejects_non_finite(self, knots, coefficients, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            tk.PositionSpline(knots, coefficients)

    def test_overflowing_spacing_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            tk.PositionSpline.fit([-1e308, 1e308], np.zeros((2, 3)))


def slerp_pair(q0, q1, s) -> np.ndarray:
    """SLERP from wxyz row q0 to q1 at fractions s: the orientation rows of
    a two-knot trajectory on [0, 1]."""
    traj = tk.ContinuousTrajectory(tk.PositionSpline.fit([0.0, 1.0], np.zeros((2, 3))),
                                   [q0, q1], [0, 0])
    return traj.sample(np.atleast_1d(np.asarray(s, dtype=float)))[1]


class TestSlerp:
    def test_endpoints(self, rng):
        for _ in range(20):
            q0 = tk.euler_to_quaternion(rng.uniform(-np.pi, np.pi, 3))
            q1 = tk.euler_to_quaternion(rng.uniform(-np.pi, np.pi, 3))
            assert np.array_equal(slerp_pair(q0, q1, [0.0, 1.0]), [q0, q1])

    def test_geodesic_midpoint(self):
        q0 = np.array([1.0, 0.0, 0.0, 0.0])
        q1 = tk.euler_to_quaternion([np.pi, 0, 0])
        mid = slerp_pair(q0, q1, 0.5)[0]
        expected = tk.euler_to_quaternion([np.pi / 2, 0, 0])
        assert geodesic_angle(mid, expected) < 1e-9

    def test_constant_angular_velocity(self, rng):
        # oracle: axis-angle logarithm of the relative rotation
        for _ in range(100):
            q0 = tk.euler_to_quaternion(rng.uniform(-np.pi, np.pi, 3))
            q1 = tk.euler_to_quaternion(rng.uniform(-np.pi, np.pi, 3))
            total = geodesic_angle(q0, q1)
            s = rng.uniform(0, 1, 4)
            for fraction, qs in zip(s, slerp_pair(q0, q1, s)):
                assert abs(geodesic_angle(qs, q0) - fraction * total) < 1e-7

    def test_unit_norm_everywhere(self, rng):
        q0 = tk.euler_to_quaternion([0.1, 0.2, 0.3])
        q1 = tk.euler_to_quaternion([-2.9, 1.1, 2.2])
        rows = slerp_pair(q0, q1, np.linspace(0, 1, 101))
        assert np.abs(np.linalg.norm(rows, axis=1) - 1).max() < 1e-9

    def test_near_parallel_fallback(self):
        q0 = np.array([1.0, 0.0, 0.0, 0.0])
        q1 = tk.euler_to_quaternion([1e-10, 0, 0])
        mid = slerp_pair(q0, q1, 0.5)[0]
        assert abs(np.linalg.norm(mid) - 1) < 1e-12


class TestEval:
    def test_clamps_beyond_domain(self):
        sparse = sparse_from_arrays([0.0, 1.0], np.array([[0, 0, 0], [1, 0, 0]]),
                                    grip=[0, 1])
        traj = tk.fit(sparse)
        pos, _, grip = tk.eval_trajectory(traj, 5.0)
        assert np.allclose(pos, [1, 0, 0])
        assert grip == 1
        pos, _, grip = tk.eval_trajectory(traj, -5.0)
        assert np.allclose(pos, [0, 0, 0])
        assert grip == 0

    def test_gripper_changes_only_at_knots(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        sparse = sparse_from_arrays(t, np.stack([t, 0 * t, 0 * t], axis=1),
                                    grip=[0, 0, 1, 1])
        traj = tk.fit(sparse)
        grid = np.linspace(0, 3, 301)
        values = np.array([tk.eval_trajectory(traj, tau)[2] for tau in grid])
        changes = grid[1:][values[1:] != values[:-1]]
        assert len(changes) == 1
        assert abs(changes[0] - 2.0) < 0.011  # ZOH switches at the knot


    @pytest.mark.parametrize("times, match", [
        (np.array([0.5, math.nan]), "be finite"),
        (np.array([0.5, math.inf]), "be finite"),
        (np.array([0.5, -math.inf]), "be finite"),
        (np.array(["0.5", "1.5"]), "hold real numbers, not bools or strings"),
        (np.array([False, True]), "hold real numbers, not bools or strings"),
    ], ids=["nan", "inf", "-inf", "str", "bool"])
    def test_rejects_non_finite_times(self, times, match):
        traj = tk.fit(sparse_from_arrays([0.0, 1.0], np.array([[0, 0, 0], [1, 0, 0]])))
        # NaN used to give NaN rows with gripper 0, infinities were clamped,
        # "1.5" was read as 1.5 and True as 1
        t = times[-1]
        calls = [lambda: traj.sample(times), lambda: tk.eval_trajectory(traj, t),
                 lambda: traj.position.position(t), lambda: traj.position.velocity(t)]
        for call in calls:
            with pytest.raises(ValueError, match=f"^evaluation times must {match}$"):
                call()

    @pytest.mark.parametrize("call, shape", [
        (lambda traj: traj.sample(np.float64(0.5)), r"\(\)"),
        (lambda traj: traj.sample(0.5), r"\(\)"),
        (lambda traj: traj.sample(np.array([[0.5]])), r"\(1, 1\)"),
        (lambda traj: traj.sample([[0.5, 1.0], [1.5, 2.0]]), r"\(2, 2\)"),
        (lambda traj: tk.eval_trajectory(traj, np.array([0.5])), r"\(1, 1\)"),
    ], ids=["numpy-scalar", "float", "column", "matrix", "eval-one-element"])
    def test_sample_takes_only_one_dimensional_times(self, call, shape):
        # 2-D times used to warn in the SLERP and end in an IndexError, and
        # eval_trajectory of a one-element array took the same path
        traj = tk.fit(sparse_from_arrays([0.0, 1.0], np.array([[0, 0, 0], [1, 0, 0]])))
        with pytest.raises(ValueError, match=rf"^evaluation times must have shape \(n,\), got {shape}$"):
            call(traj)

    def test_velocity_takes_arrays(self):
        traj = tk.fit(sparse_from_arrays([0.0, 1.0, 2.0], np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0]])))
        times = np.array([-0.5, 0.0, 0.3, 1.0, 1.7, 2.0, 2.5])
        expected = np.array([traj.sample(times[[i]])[3][0] for i in range(len(times))])
        assert np.array_equal(traj.sample(times)[3], expected)
        assert not expected[[0, -1]].any()  # the pose holds outside the domain
        assert np.array_equal(expected[1:-1], traj.position.velocity(times[1:-1]))


class TestEndSlopeEstimates:
    @pytest.mark.parametrize("times, positions, match", [
        ([0.0, 0.0, 1.0], np.eye(3), "^times must be strictly increasing$"),
        ([0.0, 1.0, 2.0], [[0, 0, 0], [math.nan, 0, 0], [1, 0, 0]], "^positions must be finite$"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], r"^positions must have shape \(3, 3\), got \(3,\)$"),
    ], ids=["repeated-time", "nan-position", "flat-positions"])
    def test_rejects_malformed_input(self, times, positions, match):
        # each used to return NaN or scalar slopes
        with pytest.raises(ValueError, match=match):
            splines.end_slope_estimates(times, positions)

    def test_two_samples_rejected(self):
        with pytest.raises(tk.InsufficientDataError) as info:
            splines.end_slope_estimates([0.0, 1.0], np.eye(2, 3))
        assert str(info.value) == "need >= 3 samples to estimate end slopes"

    def test_exact_on_a_parabola(self):
        t = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        positions = np.stack([t * t, 2 * t, 0 * t], axis=1)
        v0, v1 = splines.end_slope_estimates(t, positions)
        assert np.allclose(v0, [0.0, 2.0, 0.0]) and np.allclose(v1, [2.0, 2.0, 0.0])


class TestGripperSchedule:
    @pytest.mark.parametrize("values", [[0.5, 1.2], [1.0, 0.3], [2, 0], [0, math.inf]])
    def test_rejects_values_outside_zero_one(self, values):
        traj = tk.fit(sparse_from_arrays([0.0, 1.0], np.array([[0, 0, 0], [1, 0, 0]])))
        # a float must be rejected, not truncated to an int first
        with pytest.raises(ValueError, match="gripper"):
            tk.ContinuousTrajectory(traj.position, traj.wxyz, values)

    def test_stores_zero_one_as_read_only_ints(self):
        traj = tk.fit(sparse_from_arrays([0.0, 1.0], np.array([[0, 0, 0], [1, 0, 0]])))
        cont = tk.ContinuousTrajectory(traj.position, traj.wxyz, [1.0, 0.0])
        assert cont.grippers.dtype == int and cont.grippers.tolist() == [1, 0]
        assert not cont.grippers.flags.writeable


class TestResample:
    def test_fencepost_count(self):
        sparse = sparse_from_arrays([0.0, 1.0], np.array([[0, 0, 0], [1, 0, 0]]))
        dense = tk.resample(tk.fit(sparse), 100.0)
        assert len(dense) == 101
        assert dense.times[0] == 0.0
        assert dense.times[-1] == 1.0

    def test_matches_per_sample_evaluation(self, rng):
        t = np.cumsum(rng.uniform(0.1, 0.5, 8))
        sparse = sparse_from_arrays(t, rng.normal(size=(8, 3)),
                                    rng.uniform(-1.5, 1.5, (8, 3)), rng.integers(0, 2, 8))
        cont = tk.fit(sparse)
        dense = tk.resample(cont, 37.0)
        for i, tau in enumerate(dense.times):
            pos, quat, grip = tk.eval_trajectory(cont, float(tau))
            assert np.array_equal(dense.positions[i], pos)
            assert np.array_equal(dense.eulers[i], tk.quaternion_to_euler(quat))
            assert dense.grippers[i] == grip

    def test_knot_hits_round_trip_waypoints(self, rng):
        t = np.arange(5, dtype=float)
        pts = rng.normal(size=(5, 3))
        eul = rng.uniform(-1.5, 1.5, (5, 3))
        sparse = sparse_from_arrays(t, pts, eul)
        dense = tk.resample(tk.fit(sparse), 2.0)  # grid covers every integer knot
        for i, tau in enumerate(t):
            j = int(np.argmin(np.abs(dense.times - tau)))
            assert abs(dense.times[j] - tau) < 1e-12
            assert np.linalg.norm(dense.positions[j] - pts[i]) < 1e-9

    def test_final_time_included_for_ragged_span(self):
        sparse = sparse_from_arrays([0.0, 1.005], np.array([[0, 0, 0], [1, 0, 0]]))
        dense = tk.resample(tk.fit(sparse), 100.0)
        assert abs(dense.times[-1] - 1.005) < 1e-12
        assert len(dense) == 102

    def test_refit_matches_at_original_knots(self, rng):
        # oracle: double interpolation
        t = np.linspace(0, 3, 7)
        pts = rng.normal(size=(7, 3)) * 0.3
        sparse = sparse_from_arrays(t, pts)
        dense = tk.resample(tk.fit(sparse), 50.0)
        refit = tk.fit(sparse_from_arrays(dense.times, dense.positions))
        for i in range(7):
            pos, _, _ = tk.eval_trajectory(refit, t[i])
            assert np.linalg.norm(pos - pts[i]) < 1e-6

    def test_rejects_bad_rate(self):
        sparse = sparse_from_arrays([0.0, 1.0], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            tk.resample(tk.fit(sparse), 0.0)

    @pytest.mark.parametrize("rate", [1e308, 1e300, 5e7 + 1.0])
    def test_rate_beyond_the_period_bound_names_the_rate(self, rate):
        # 2 s at 1e308 Hz used to escape as "OverflowError: cannot convert float
        # infinity to integer", and 1e300 Hz as NumPy's OverflowError from arange
        sparse = sparse_from_arrays([0.0, 2.0], np.zeros((2, 3)))
        with pytest.raises(ValueError) as raised:
            tk.resample(tk.fit(sparse), rate)
        assert str(raised.value) == (f"rate {rate} gives more than 100000000 sample periods "
                                     "over the 2.0 s domain")

    def test_period_bound_is_inclusive(self, monkeypatch):
        # a small bound, so that neither side of it allocates much
        monkeypatch.setattr(splines, "_MAX_PERIODS", 40)
        traj = tk.fit(sparse_from_arrays([0.0, 2.0], np.zeros((2, 3))))
        assert len(tk.resample(traj, 20.0)) == 41
        with pytest.raises(ValueError, match="^rate 20.5 gives more than 40 sample periods"):
            tk.resample(traj, 20.5)


class TestReconstructionError:
    def test_linear_data_exact(self):
        # n_sub - 1 divides the 400 sample intervals, so the sub-keyframe
        # grid lands exactly on recorded samples
        traj = line_trajectory(n=401)
        for n_sub in (5, 11, 21):
            err, per_segment = tk.reconstruction_error(traj, n_sub)
            assert err < 1e-9
            assert per_segment.shape == (1,)

    def test_helix_quartic_ratio(self):
        helix = helix_trajectory()
        e10, _ = tk.reconstruction_error(helix, 10)
        e20, _ = tk.reconstruction_error(helix, 20)
        assert e20 / e10 <= 1.0 / 8.0

    def test_helix_monotone_decrease(self):
        helix = helix_trajectory()
        errs = [tk.reconstruction_error(helix, n)[0] for n in (5, 10, 20, 40)]
        for a, b in zip(errs, errs[1:]):
            assert b < a + 1e-10

    def test_requires_dense_enough_input(self):
        traj = line_trajectory(n=30)
        with pytest.raises(tk.InsufficientDataError):
            tk.reconstruction_error(traj, 10)


angles = st.floats(-math.pi, math.pi)


@st.composite
def orientation_knots(draw):
    """(times, (n, 4) wxyz knots) with near-parallel, antipodal and w == 0 rows."""
    n = draw(st.integers(2, 6))
    times = np.cumsum([draw(st.floats(0.01, 2.0)) for _ in range(n)])
    rows = tk.eulers_to_quaternions([[draw(angles) for _ in range(3)] for _ in range(n)])
    for i in range(1, n):
        kind = draw(st.sampled_from(("free", "near-parallel", "antipodal", "w0")))
        if kind == "near-parallel":  # dot > 1 - 1e-9: the nlerp branch
            rows[i] = tk.euler_to_quaternion(
                tk.quaternion_to_euler(rows[i - 1]) + draw(st.floats(-1e-6, 1e-6)))
        elif kind == "antipodal":
            rows[i] = -rows[i - 1]
        elif kind == "w0":
            rows[i] = draw(st.sampled_from(([0.0, 0.0, -1.0, 0.0], [0.0, -0.6, 0.0, 0.8],
                                            [0.0, 0.0, 0.0, -1.0])))
    return times, rows


def sample_times(draw, knots):
    """Times before, on, between and after the knots; always the last knot."""
    span = knots[-1] - knots[0]
    return np.array([knots[0] - 1.0, knots[-1] + 1.0, *knots,
                     *(draw(st.floats(knots[0] - 0.5, knots[-1] + 0.5)) for _ in range(8)),
                     *(knots[0] + span * np.linspace(0.0, 1.0, 5))])


def draw_trajectory(draw, times, rows):
    pos = np.array([[draw(st.floats(-1, 1)) for _ in range(3)] for _ in times])
    grip = [draw(st.integers(0, 1)) for _ in times]
    return tk.ContinuousTrajectory(tk.PositionSpline.fit(times, pos), rows, grip), grip


def three_lookup_sample(traj, rows, grippers, ts):
    """Reference: the sampler as separate lookups over the same knots: the
    spline's own position lookup, one SLERP call per sample between the
    bracketing knots of a chain sign-aligned here by a loop, a
    zero-order-hold gripper lookup, and the spline's own velocity lookup,
    zeroed outside the domain."""
    knots = traj.position.knot_times
    sign, aligned = 1.0, [rows[0]]
    for prev, row in zip(rows, rows[1:]):
        sign = -sign if np.sum(prev * row) < 0.0 else sign  # flip on a negative raw dot
        aligned.append(sign * row)
    tt = np.clip(ts, knots[0], knots[-1])
    seg = np.clip(np.searchsorted(knots, tt, side="right") - 1, 0, len(knots) - 2)
    s = np.clip((tt - knots[seg]) / (knots[seg + 1] - knots[seg]), 0.0, 1.0)
    quats = np.array([splines._slerp_rows(aligned[i][None], aligned[i + 1][None], s[[j]])[0]
                      for j, i in enumerate(seg)])
    hold = np.maximum(np.searchsorted(knots, tt, side="right") - 1, 0)
    outside = ((ts < knots[0]) | (ts > knots[-1]))[:, None]
    return (traj.position.position(tt), quats, np.asarray(grippers)[hold],
            np.where(outside, 0.0, traj.position.velocity(tt)))


class TestBatchedSampler:
    """Every one-row evaluator is a call of the batched sampler."""

    @given(orientation_knots(), st.data())
    def test_equals_three_lookup_reference(self, knots, data):
        times, rows = knots
        traj, grip = draw_trajectory(data.draw, times, rows)
        ts = sample_times(data.draw, times)
        got = traj.sample(ts)
        for column, want in zip(got, three_lookup_sample(traj, rows, grip, ts), strict=True):
            assert np.array_equal(column, want)
        assert got[2][-1] == grip[-1]  # at the end of the domain: the last knot's value

    @given(orientation_knots(), st.data())
    def test_trajectory_rows_equal_eval_trajectory(self, knots, data):
        times, rows = knots
        traj, _ = draw_trajectory(data.draw, times, rows)
        ts = sample_times(data.draw, times)
        positions, quats, grippers, _ = traj.sample(ts)
        for i, t in enumerate(ts):
            p, q, g = tk.eval_trajectory(traj, float(t))
            assert np.array_equal(positions[i], p)
            assert np.array_equal(quats[i], q)
            assert grippers[i] == g

    @given(orientation_knots(), st.data())
    def test_orientation_rows_equal_scalar(self, knots, data):
        times, rows = knots
        traj, _ = draw_trajectory(data.draw, times, rows)
        ts = sample_times(data.draw, times)
        batch = traj.sample(ts)[1]
        for t, row in zip(ts, batch):
            assert np.array_equal(row, tk.eval_trajectory(traj, float(t))[1])
        assert np.all(np.abs(np.linalg.norm(batch, axis=1) - 1.0) < 1e-12)
        assert np.all(batch[:, 0] >= 0.0)

    def test_aligns_signs_by_negation_only(self, rng):
        rows = tk.eulers_to_quaternions(rng.uniform(-np.pi, np.pi, (50, 3)))
        rows[rng.integers(0, 2, 50) == 1] *= -1.0
        traj = tk.ContinuousTrajectory(tk.PositionSpline.fit(np.arange(50.0), np.zeros((50, 3))),
                                       rows, np.zeros(50, dtype=int))
        assert np.all(np.sum(traj.wxyz[:-1] * traj.wxyz[1:], axis=1) >= 0.0)
        assert np.array_equal(np.abs(traj.wxyz), np.abs(rows))
        assert not traj.wxyz.flags.writeable

    @pytest.mark.parametrize("wxyz, grippers", [
        (np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), [0, 1]),
        (np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), [0, 1, 0]),
        (np.tile([1.0, 0.0, 0.0, 0.0, 0.0], (3, 1)), [0, 1, 0]),
        (np.tile([1.0, 1e-4, 0.0, 0.0], (3, 1)), [0, 1, 0]),
        (np.tile([math.nan, 0.0, 0.0, 0.0], (3, 1)), [0, 1, 0]),
    ], ids=["short-grippers", "short-wxyz", "wide-wxyz", "not-unit-to-1e-9", "nan-row"])
    def test_needs_one_unit_row_and_one_gripper_per_knot(self, wxyz, grippers):
        spline = tk.PositionSpline.fit([0.0, 1.0, 2.0], np.zeros((3, 3)))
        with pytest.raises(ValueError):
            tk.ContinuousTrajectory(spline, wxyz, grippers)


@st.composite
def sparse_plans(draw):
    n = draw(st.integers(2, 8))
    times = np.cumsum([draw(st.floats(0.05, 2.0)) for _ in range(n)])
    pos = [[draw(st.floats(-2, 2)) for _ in range(3)] for _ in range(n)]
    eul = [[draw(angles) for _ in range(3)] for _ in range(n)]
    grip = [draw(st.integers(0, 1)) for _ in range(n)]
    return sparse_from_arrays(times, pos, eul, grip)


class TestFitInterpolatesKnots:
    @given(sparse_plans(), st.booleans())
    def test_knots_reproduced(self, sparse, clamped):
        traj = tk.fit(sparse, end_velocities=(np.zeros(3), np.ones(3)) if clamped else None)
        positions, quats, grippers, _ = traj.sample(sparse.times)
        scale = 1.0 + np.abs(sparse.positions).max()
        assert np.abs(positions - sparse.positions).max() < 1e-9 * scale
        # a knot hit returns the knot rotation itself
        assert np.array_equal(quats, tk.eulers_to_quaternions(sparse.eulers))
        assert np.array_equal(grippers, sparse.grippers)


def thomas_moments(t, y, end_velocities):
    """Reference: the spline moments by plain Thomas elimination, natural
    end rows (``end_velocities`` None) written as ``1 * m = 0``."""
    n = len(t)
    h = np.diff(t)
    slopes = np.diff(y, axis=0) / h[:, None]
    lower, diag, upper = np.zeros(n), np.ones(n), np.zeros(n)
    rhs = np.zeros((n, 3))
    lower[1:-1], diag[1:-1], upper[1:-1] = h[:-1], 2.0 * (h[:-1] + h[1:]), h[1:]
    rhs[1:-1] = 6.0 * (slopes[1:] - slopes[:-1])
    if end_velocities is not None:
        diag[0], upper[0], rhs[0] = 2.0 * h[0], h[0], 6.0 * (slopes[0] - end_velocities[0])
        lower[-1], diag[-1] = h[-1], 2.0 * h[-1]
        rhs[-1] = 6.0 * (end_velocities[1] - slopes[-1])
    for i in range(1, n):
        m = lower[i] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        rhs[i] -= m * rhs[i - 1]
    out = np.empty_like(rhs)
    out[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        out[i] = (rhs[i] - upper[i] * out[i + 1]) / diag[i]
    return out


class TestMomentSolve:
    # knot spacings above 1 s are where pivoting on a unit natural end row
    # would reorder the elimination
    @given(st.integers(2, 60), st.booleans(), st.data())
    def test_equals_thomas_elimination(self, n, clamped, data):
        h = data.draw(st.lists(st.floats(1e-3, 100.0), min_size=n - 1, max_size=n - 1))
        t = data.draw(st.floats(-50.0, 50.0)) + np.concatenate([[0.0], np.cumsum(h)])
        assume(np.all(np.diff(t) > 0))
        coords = st.floats(-10.0, 10.0)
        y = np.array(data.draw(st.lists(st.lists(coords, min_size=3, max_size=3),
                                        min_size=n, max_size=n)))
        ends = (np.array(data.draw(st.lists(coords, min_size=3, max_size=3))),
                np.array(data.draw(st.lists(coords, min_size=3, max_size=3))))
        ends = ends if clamped else None
        got = tk.splines._moment_solve(t, y, ends)[2]
        assert np.array_equal(got, thomas_moments(t, y, ends))

    @given(st.integers(2, 60), st.booleans(), st.data())
    def test_equals_solve_banded(self, n, clamped, data):
        """The Python solver against LAPACK gtsv on the same bands, signed
        zeros included (coordinates may be -0.0 or constant)."""
        h = data.draw(st.lists(st.floats(1e-3, 100.0), min_size=n - 1, max_size=n - 1))
        t = data.draw(st.floats(-50.0, 50.0)) + np.concatenate([[0.0], np.cumsum(h)])
        assume(np.all(np.diff(t) > 0))
        coords = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
        y = np.array(data.draw(st.lists(st.lists(coords, min_size=3, max_size=3),
                                        min_size=n, max_size=n)))
        ends = (np.array(data.draw(st.lists(coords, min_size=3, max_size=3))),
                np.array(data.draw(st.lists(coords, min_size=3, max_size=3))))
        hh, slopes = np.diff(t), np.diff(y, axis=0) / np.diff(t)[:, None]
        ab, rhs = np.zeros((3, n)), np.zeros((n, 3))
        ab[0, 2:], ab[2, :-2] = hh[1:], hh[:-1]
        ab[1, 1:-1], ab[1, 0], ab[1, -1] = 2.0 * (hh[:-1] + hh[1:]), 2.0 * hh[0], 2.0 * hh[-1]
        rhs[1:-1] = 6.0 * (slopes[1:] - slopes[:-1])
        if clamped:
            ab[0, 1], ab[2, -2] = hh[0], hh[-1]
            rhs[0], rhs[-1] = 6.0 * (slopes[0] - ends[0]), 6.0 * (ends[1] - slopes[-1])
        got = tk.splines._moment_solve(t, y, ends if clamped else None)[2]
        want = solve_banded((1, 1), ab, rhs)
        assert got.tobytes() == want.tobytes()
