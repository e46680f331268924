"""Geometry: projection, frame transforms, quaternions, finite differences."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

import trajkit as tk
from trajkit.geometry import SampleError, canonical_sign
from conftest import line_trajectory, make_camera, rigid, rot_z


class TestBackProject:
    def test_identity_intrinsics(self):
        cam = tk.CameraModel(np.eye(3), np.eye(4), 10, 10)
        assert np.allclose(tk.back_project([0], [0], [2.0], cam), [[0, 0, 2]])

    def test_principal_point_on_axis(self, camera):
        assert np.allclose(tk.back_project([50], [50], [1.0], camera), [[0, 0, 1]])

    def test_off_axis_pixel(self, camera):
        # oracle: general 3x3 inverse then scale by depth
        expected = 2.0 * np.linalg.inv(camera.intrinsics) @ np.array([150.0, 50.0, 1.0])
        got = tk.back_project([150], [50], [2.0], camera)
        assert np.allclose(got, [expected], atol=1e-12)
        assert np.allclose(got, [[2, 0, 2]])

    def test_nonpositive_depth_rejected(self, camera):
        with pytest.raises(ValueError, match="depth must be positive"):
            tk.back_project([50], [50], [0.0], camera)
        with pytest.raises(ValueError, match="depth must be positive"):
            tk.back_project([50], [50], [-1.0], camera)

    @pytest.mark.parametrize("u, v, d, name", [
        ([math.nan], [1.0], [math.nan], "u"), ([50.0], [50.0], [math.inf], "d"),
        ([math.inf], [50.0], [1.0], "u"), ([50.0], [-math.inf], [1.0], "v"),
        ([50.0, 50.0], [50.0, math.nan], [1.0, 1.0], "v"),
    ], ids=["nan-u-d", "inf-d", "inf-u", "inf-v", "nan-row"])
    def test_non_finite_inputs_rejected(self, camera, u, v, d, name):
        # d <= 0 lets a NaN depth through, and inf lifts to an infinite point
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            tk.back_project(u, v, d, camera)

    @pytest.mark.parametrize("u, v, d, name", [
        ([10, 20], [10, 20], 1.0, "d"), (10, 10, [1.0, 2.0], "u"),
        ([10, 20], [10], [1.0, 2.0], "v"), ([[10, 20]], [10, 20], [1.0, 2.0], "u"),
    ], ids=["scalar-d", "scalar-u", "short-v", "2-d-u"])
    def test_columns_of_one_length_only(self, camera, u, v, d, name):
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            tk.back_project(u, v, d, camera)

    def test_singular_intrinsics_rejected(self):
        k = np.array([[0.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]])
        with pytest.raises(tk.InvalidCameraError):
            tk.CameraModel(k, np.eye(4), 100, 100)

    @pytest.mark.parametrize("k", [
        [[321.4, 1.7976931348623157e308, 0.0], [0.0, 1e-7, 0.0], [0.0, 0.0, 1.0]],
        [[5e-324, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ], ids=["huge-skew", "subnormal-fx"])
    def test_intrinsics_whose_inverse_is_not_finite_rejected(self, k):
        with pytest.raises(tk.InvalidCameraError) as info:
            tk.CameraModel(k, np.eye(4), 100, 100)
        assert str(info.value) == "K is too close to singular: its inverse is not finite"

    def test_product_beyond_the_float_range_names_the_first_waypoint(self):
        # K^-1 is finite, but (u - cx) / fx times a depth of 1e16 overflows
        cam = tk.CameraModel([[321.4, 0.0, 1e300], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                             np.eye(4), 640, 480)
        assert np.isfinite(tk.back_project([0.0], [0.0], [1.0], cam)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                tk.back_project([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1e16, 1e16], cam)
        assert str(info.value) == ("the camera-frame position of waypoint 1 is beyond the "
                                   "float range")


class TestProject:
    def test_identity(self):
        cam = tk.CameraModel(np.eye(3), np.eye(4), 10, 10)
        assert np.array_equal(tk.project([[0, 0, 2]], cam), [[0.0], [0.0], [2.0]])

    def test_forward_of_back_project(self, camera):
        u, v, d = tk.project([[2, 0, 2]], camera)
        assert (u.tolist(), v.tolist(), d.tolist()) == ([150.0], [50.0], [2.0])

    def test_round_trip_random(self, camera, rng):
        p = rng.uniform([-1, -1, 0.1], [1, 1, 5], size=(1000, 3))
        u, v, d = tk.project(p, camera)
        assert np.linalg.norm(tk.back_project(u, v, d, camera) - p, axis=1).max() < 1e-9

    def test_behind_camera(self, camera):
        with pytest.raises(tk.BehindCameraError):
            tk.project([[0, 0, -1]], camera)
        with pytest.raises(tk.BehindCameraError):
            tk.project([[0, 0, 0]], camera)

    def test_one_point_is_rejected(self, camera):
        with pytest.raises(ValueError, match=r"^p_cam must have shape \(n, 3\), got \(3,\)$"):
            tk.project([0, 0, 1.0], camera)


class TestCameraToWorld:
    def test_identity_extrinsics(self, camera):
        p = np.array([[0.3, -0.2, 1.5]])
        assert np.allclose(tk.camera_to_world(p, camera), p)

    def test_pure_translation(self):
        cam = make_camera(extrinsics=rigid(np.eye(3), [1, 0, 0]))
        assert np.allclose(tk.camera_to_world([[0, 0, 1]], cam), [[1, 0, 1]])
        with pytest.raises(ValueError, match=r"^p_cam must have shape \(n, 3\), got \(3,\)$"):
            tk.camera_to_world([0, 0, 1], cam)

    def test_rotation_plus_translation(self, rng):
        # oracle: explicit homogeneous 4x4 multiply
        ext = rigid(rot_z(np.pi / 2), [0.5, -1.0, 2.0])
        cam = make_camera(extrinsics=ext)
        p = rng.normal(size=3)
        expected = (ext @ np.append(p, 1.0))[:3]
        assert np.allclose(tk.camera_to_world([p], cam), [expected], atol=1e-12)

    def test_rigidity(self, rng):
        ext = rigid(rot_z(0.7), [0.1, 0.2, 0.3])
        cam = make_camera(extrinsics=ext)
        a, b = rng.normal(size=(2, 50, 3))
        da = np.linalg.norm(a - b, axis=1)
        db = np.linalg.norm(tk.camera_to_world(a, cam) - tk.camera_to_world(b, cam), axis=1)
        assert np.abs(da - db).max() < 1e-9


@st.composite
def posed_cameras(draw):
    """A camera with skewed intrinsics and a random rigid pose."""
    fx, fy = draw(st.floats(10.0, 2000.0)), draw(st.floats(10.0, 2000.0))
    k = np.array([[fx, draw(st.floats(-5.0, 5.0)), draw(st.floats(0.0, 640.0))],
                  [0.0, fy, draw(st.floats(0.0, 480.0))], [0.0, 0.0, 1.0]])
    angles = draw(arrays(float, 3, elements=st.floats(-math.pi, math.pi)))
    rotation = Rotation.from_euler("xyz", angles).as_matrix()
    translation = draw(arrays(float, 3, elements=st.floats(-5.0, 5.0)))
    return tk.CameraModel(k, rigid(rotation, translation), 640, 480)


points_ahead = arrays(float, st.tuples(st.integers(1, 40), st.just(3)),
                      elements=st.floats(0.01, 20.0)).map(lambda p: p * [1, 1, 1] - [10, 10, 0])


class TestBatchedTransforms:
    """Each transform has one form: rows (or columns) give, bit for bit,
    what the per-point matrix-vector product gives."""

    @given(posed_cameras(), points_ahead)
    def test_project_rows_equal_per_point_product(self, cam, points):
        u, v, d = tk.project(points, cam)
        for i, p in enumerate(points):
            h = cam.intrinsics @ p
            assert (u[i], v[i], d[i]) == (h[0] / h[2], h[1] / h[2], p[2])

    @given(posed_cameras(), points_ahead)
    def test_camera_to_world_rows_equal_per_point_product(self, cam, points):
        world = tk.camera_to_world(points, cam)
        ext = cam.extrinsics_c2w
        for i, p in enumerate(points):
            assert np.array_equal(world[i], ext[:3, :3] @ p + ext[:3, 3])

    @given(posed_cameras(), points_ahead)
    def test_back_project_rows_equal_per_point_product(self, cam, uvd):
        u, v, d = uvd.T * [[32.0], [24.0], [1.0]]
        points = tk.back_project(u, v, d, cam)
        for i in range(len(d)):
            expected = d[i] * (cam.intrinsics_inv @ np.array([u[i], v[i], 1.0]))
            assert np.array_equal(points[i], expected)

    def test_first_bad_row_raises_without_warnings(self, camera):
        rows = np.array([[0.0, 0.0, 1.0], [1e300, 0.0, 1e-300], [0.0, 0.0, -2.0],
                         [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tk.BehindCameraError, match="z=-2.0"):
                tk.project(rows, camera)
            with pytest.raises(ValueError, match="got -2.0"):
                tk.back_project([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, -2.0, 0.0], camera)
        with pytest.raises(ValueError, match="must be finite"):
            tk.camera_to_world([[0.0, 0.0, 1.0], [math.nan, 0.0, 1.0]], camera)
        with pytest.raises(ValueError, match=r"^p_cam must have shape \(n, 3\), got \(1, 2\)$"):
            tk.camera_to_world([[0.0, 1.0]], camera)

    def test_inputs_are_left_writeable(self, camera):
        rows, column = np.array([[0.1, 0.2, 1.0]]), np.array([1.0])
        tk.project(rows, camera)
        tk.camera_to_world(rows, camera)
        tk.back_project(column, column, column, camera)
        assert rows.flags.writeable and column.flags.writeable


def matrix(wxyz) -> np.ndarray:
    """Rotation matrix of a wxyz row, by SciPy (which takes x, y, z, w)."""
    return Rotation.from_quat(np.roll(wxyz, -1)).as_matrix()


class TestQuaternions:
    def test_zero_euler_is_identity(self):
        q = tk.euler_to_quaternion([0, 0, 0])
        assert q.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_single_axis_z(self):
        q = tk.euler_to_quaternion([0, 0, np.pi / 2])
        assert np.allclose(q, [np.sqrt(2) / 2, 0, 0, np.sqrt(2) / 2])

    def test_matrix_round_trip_random(self, rng):
        # oracle: rotation-matrix composition via scipy intrinsic x-y-z
        for _ in range(300):
            e = rng.uniform(-np.pi, np.pi, 3)
            q = tk.euler_to_quaternion(e)
            r_ref = Rotation.from_euler("XYZ", e).as_matrix()
            assert np.abs(matrix(q) - r_ref).max() < 1e-9
            e_back = tk.quaternion_to_euler(q)
            r_back = matrix(tk.euler_to_quaternion(e_back))
            assert np.abs(r_back - r_ref).max() < 1e-9

    def test_gimbal_lock_round_trip(self):
        for ry in (np.pi / 2, -np.pi / 2):
            e = np.array([0.4, ry, -0.9])
            q = tk.euler_to_quaternion(e)
            r_back = matrix(tk.euler_to_quaternion(tk.quaternion_to_euler(q)))
            assert np.abs(r_back - matrix(q)).max() < 1e-9

    def test_unit_norm_and_canonical_sign(self, rng):
        for _ in range(200):
            e = rng.uniform(-np.pi, np.pi, 3)
            q = tk.euler_to_quaternion(e)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9
            assert q[0] >= 0.0

    def test_negated_quaternion_same_object(self):
        q = tk.euler_to_quaternion([0.3, -0.2, 2.9])
        assert np.array_equal(tk.unit_quaternions([-q])[0], q)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            tk.unit_quaternions([[1.0, 1.0, 0.0, 0.0]])

    def test_w_zero_takes_first_nonzero_sign(self):
        assert tk.unit_quaternions([[0.0, 0.0, -0.6, 0.8]]).tolist() == [[0.0, 0.0, 0.6, -0.8]]
        negative_zero_w = tk.unit_quaternions([[-0.0, 0.0, 0.0, -1.0]])
        assert np.array_equal(negative_zero_w, [[0.0, 0.0, 0.0, 1.0]])
        rows = canonical_sign(np.array([[0.0, -1.0, 0.0, 0.0], [-0.5, 0.5, -0.5, 0.5]]))
        assert rows.tolist() == [[0.0, 1.0, -0.0, -0.0], [0.5, -0.5, 0.5, -0.5]]

    def test_canonicalizing_twice_changes_nothing(self, rng):
        rows = tk.unit_quaternions(rng.normal(size=(200, 4)) * 1e-7 + [1.0, 0, 0, 0])
        assert np.array_equal(tk.unit_quaternions(rows), rows)
        for row in rows[:20]:
            assert np.array_equal(tk.unit_quaternions([row])[0], row)

    def test_one_row_conversions_check_their_row(self):
        for bad in ([1.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0]], [math.nan, 0.0, 0.0, 1.0]):
            with pytest.raises(ValueError, match="wxyz"):
                tk.quaternion_to_euler(bad)
        for bad in ([0.0, 0.0], [[0.0, 0.0, 0.0]], [0.0, math.inf, 0.0]):
            with pytest.raises(ValueError, match="euler_xyz"):
                tk.euler_to_quaternion(bad)


euler_rows = arrays(float, st.tuples(st.integers(1, 12), st.just(3)),
                    elements=st.sampled_from((0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2))
                    | st.floats(-math.pi, math.pi))
quaternion_rows = arrays(float, st.tuples(st.integers(1, 12), st.just(4)),
                         elements=st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5))
                         | st.floats(-1.0, 1.0)).filter(
    lambda q: np.all(np.linalg.norm(q, axis=1) > 0.1))


class TestBatchedConversions:
    """The one-row conversions equal rows of the batched ones, bit for bit."""

    @given(euler_rows)
    def test_eulers_to_quaternions_rows_equal_scalar(self, eulers):
        batch = tk.eulers_to_quaternions(eulers)
        for e, row in zip(eulers, batch):
            assert np.array_equal(row, tk.euler_to_quaternion(e))

    @given(quaternion_rows)
    def test_quaternions_to_eulers_rows_equal_scalar(self, raw):
        rows = tk.unit_quaternions(raw / np.linalg.norm(raw, axis=1)[:, None])
        batch = tk.quaternions_to_eulers(rows)
        for q, e in zip(rows, batch):
            assert np.array_equal(e, tk.quaternion_to_euler(q))

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros(4), np.full((1, 4), np.nan),
                                     np.array([[1.0, 1.0, 0.0, 0.0]]),
                                     np.array([[np.inf, 0.0, 0.0, 0.0]])])
    def test_unit_quaternions_rejects(self, bad):
        with pytest.raises(ValueError):
            tk.unit_quaternions(bad)

    @pytest.mark.parametrize("bad", [[[math.nan, 0.0, 0.0, 0.0]],
                                     [[1.0, 0.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0]]],
                             ids=["nan", "inf"])
    def test_quaternions_to_eulers_rejects_non_finite_rows(self, bad):
        # the gimbal branch would report rz = 0 for a NaN row
        with pytest.raises(ValueError, match="^quaternions must be finite$"):
            tk.quaternions_to_eulers(bad)


class TestFiniteDifferenceAccel:
    def test_constant_velocity_is_zero(self):
        traj = line_trajectory(n=50, euler_ramp=(0.0, 0.0, 0.5))
        _, mags = tk.finite_difference_accel(traj)
        assert mags.max() < 1e-9

    def test_quadratic_z(self):
        # oracle: analytic second derivative of z = t^2 is exactly 2
        t = np.arange(0, 2.0, 0.1)
        pos = np.stack([np.zeros_like(t), np.zeros_like(t), t**2], axis=1)
        traj = tk.DenseTrajectory(t, pos, np.zeros((len(t), 3)),
                                  np.zeros(len(t), dtype=int), tk.Frame.WORLD)
        times, mags = tk.finite_difference_accel(traj)
        assert len(times) == len(t) - 2
        assert np.abs(mags - 2.0).max() < 1e-6

    def test_velocity_reversal_peaks_at_turn(self, rng):
        # oracle: brute-force python scan of second differences
        n, k = 41, 20
        t = np.arange(n) * 0.05
        x = np.where(np.arange(n) <= k, np.arange(n), 2 * k - np.arange(n)) * 0.1
        pos = np.stack([x, np.zeros(n), np.zeros(n)], axis=1)
        traj = tk.DenseTrajectory(t, pos, np.zeros((n, 3)),
                                  np.zeros(n, dtype=int), tk.Frame.WORLD)
        _, mags = tk.finite_difference_accel(traj)

        brute = []
        for i in range(1, n - 1):
            dt1, dt2 = t[i] - t[i - 1], t[i + 1] - t[i]
            acc = 2 * ((x[i + 1] - x[i]) / dt2 - (x[i] - x[i - 1]) / dt1) / (dt1 + dt2)
            brute.append(abs(acc))
        assert np.allclose(mags, brute, atol=1e-12)
        assert int(np.argmax(mags)) + 1 == k

    def test_affine_pose_trajectory_is_zero(self, rng):
        n = 30
        t = np.sort(rng.uniform(0, 5, n))
        t += np.arange(n) * 1e-3  # enforce strict increase
        base, slope = rng.normal(size=(2, 6))
        comps = base + np.outer(t, slope)
        traj = tk.DenseTrajectory(t, comps[:, :3], comps[:, 3:],
                                  np.zeros(n, dtype=int), tk.Frame.WORLD)
        _, mags = tk.finite_difference_accel(traj)
        assert mags.max() < 1e-9

    def test_weights_scale_components(self):
        t = np.arange(0, 2.0, 0.1)
        pos = np.stack([np.zeros_like(t), np.zeros_like(t), t**2], axis=1)
        traj = tk.DenseTrajectory(t, pos, np.zeros((len(t), 3)),
                                  np.zeros(len(t), dtype=int), tk.Frame.WORLD)
        _, mags = tk.finite_difference_accel(traj, weights=[1, 1, 0.5, 1, 1, 1])
        assert np.abs(mags - 1.0).max() < 1e-6

    def test_too_few_samples(self):
        traj = line_trajectory(n=2)
        with pytest.raises(tk.InsufficientDataError):
            tk.finite_difference_accel(traj)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError) as info:
            tk.finite_difference_accel(line_trajectory(n=5), weights=[1, 1, 1, 1, 1, -0.5])
        assert str(info.value) == "weights must be non-negative"

    @pytest.mark.parametrize("x, weights, want", [
        ([0.0, 1e300, 0.0], None, math.inf),  # both differences overflow, with opposite signs
        ([0.0, 1e300, 1.7e308], None, math.nan),  # both overflow to +inf: inf - inf
        ([0.0, 1e300, 0.0], [0, 1, 1, 1, 1, 1], math.nan),  # 0 * inf
    ], ids=["inf", "inf-minus-inf", "zero-weight"])
    def test_overflow_gives_a_non_finite_magnitude_without_warning(self, x, weights, want):
        t = [0.0, 1e-10, 2e-10]
        pos = np.stack([x, [0.0, 1.0, 3.0], np.zeros(3)], axis=1)
        traj = tk.DenseTrajectory(t, pos, np.zeros((3, 3)), np.zeros(3, dtype=int),
                                  tk.Frame.WORLD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, mags = tk.finite_difference_accel(traj, weights)
        assert np.array_equal(mags, [want], equal_nan=True)


class TestValidation:
    def test_nonorthonormal_extrinsics_rejected(self):
        ext = np.eye(4)
        ext[0, 1] = 0.1
        with pytest.raises(tk.InvalidCameraError):
            make_camera(extrinsics=ext)

    def test_reflection_extrinsics_rejected(self):
        ext = np.diag([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(tk.InvalidCameraError):
            make_camera(extrinsics=ext)

    def test_lower_triangular_k_rejected(self):
        k = np.array([[100.0, 0, 50], [5.0, 100, 50], [0, 0, 1]])
        with pytest.raises(tk.InvalidCameraError):
            tk.CameraModel(k, np.eye(4), 100, 100)

    def test_k22_must_be_one(self):
        k = np.array([[100.0, 0, 50], [0, 100, 50], [0, 0, 2.0]])
        with pytest.raises(tk.InvalidCameraError) as info:
            tk.CameraModel(k, np.eye(4), 100, 100)
        assert str(info.value) == "K[2][2] must be 1, got 2.0"

    def test_extrinsics_bottom_row_must_be_0001(self):
        ext = np.eye(4)
        ext[3, 2] = 0.5
        with pytest.raises(tk.InvalidCameraError) as info:
            make_camera(extrinsics=ext)
        assert str(info.value) == "extrinsics bottom row must be [0, 0, 0, 1]"

    @pytest.mark.parametrize("entry", [1e300, -1e200, 1.0 + 2e-9])
    def test_rotation_entry_beyond_one_rejected_without_overflow(self, entry):
        ext = np.eye(4)
        ext[0, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tk.InvalidCameraError) as info:
                make_camera(extrinsics=ext)
        assert str(info.value) == "extrinsics rotation block is not orthonormal"

    def test_trajectory_needs_increasing_time(self):
        with pytest.raises(ValueError):
            tk.DenseTrajectory([0.0, 0.0], np.zeros((2, 3)),
                               np.zeros((2, 3)), [0, 0], tk.Frame.WORLD)


def build_trajectory(kind, t, pos, eul, grip):
    """Dense or sparse trajectory from columns (sparse waypoints all keyframes)."""
    if kind == "dense":
        return tk.DenseTrajectory(t, pos, eul, grip, tk.Frame.WORLD)
    return tk.SparseTrajectory(t, pos, eul, grip, (True,) * len(t), tk.Frame.WORLD)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
class TestTrajectoryColumns:
    def columns(self, n=3):
        return (np.arange(n, dtype=float), np.zeros((n, 3)), np.zeros((n, 3)),
                np.zeros(n, dtype=int))

    def test_mismatched_column_lengths(self, kind):
        t, pos, eul, grip = self.columns()
        with pytest.raises(ValueError):
            build_trajectory(kind, t, pos[:2], eul, grip)

    def test_gripper_two_names_sample(self, kind):
        t, pos, eul, grip = self.columns()
        grip[1] = 2
        with pytest.raises(ValueError) as info:
            build_trajectory(kind, t, pos, eul, grip)
        assert (info.value.index, info.value.field) == (1, "gripper")

    def test_non_finite_euler_names_sample(self, kind):
        # the column enters through the array intake, which names the column
        t, pos, eul, grip = self.columns()
        eul[2, 0] = np.inf
        with pytest.raises(SampleError) as info:
            build_trajectory(kind, t, pos, eul, grip)
        assert (info.value.index, info.value.field) == (None, None)
        assert str(info.value) == "eulers must be finite"

    def test_too_few_samples(self, kind):
        n = 1 if kind == "dense" else 0
        with pytest.raises(ValueError, match="needs >="):
            build_trajectory(kind, *self.columns(n))

    def test_columns_read_only_copies(self, kind):
        t, pos, eul, grip = self.columns()
        traj = build_trajectory(kind, t, pos, eul, grip)
        pos[0, 0] = 5.0  # the caller's array stays its own
        assert traj.positions[0, 0] == 0.0
        for column in (traj.times, traj.positions, traj.eulers, traj.grippers):
            with pytest.raises(ValueError):
                column[0] = 1
