"""Geometry: projection, frame transforms, quaternions, finite differences."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import trajkit as tk
from conftest import line_trajectory, make_camera, rigid, rot_z


class TestBackProject:
    def test_identity_intrinsics(self):
        cam = tk.CameraModel(np.eye(3), np.eye(4), 10, 10)
        assert np.allclose(tk.back_project(0, 0, 2.0, cam), [0, 0, 2])

    def test_principal_point_on_axis(self, camera):
        assert np.allclose(tk.back_project(50, 50, 1.0, camera), [0, 0, 1])

    def test_off_axis_pixel(self, camera):
        # oracle: general 3x3 inverse then scale by depth
        expected = 2.0 * np.linalg.inv(camera.intrinsics) @ np.array([150.0, 50.0, 1.0])
        got = tk.back_project(150, 50, 2.0, camera)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, [2, 0, 2])

    def test_nonpositive_depth_rejected(self, camera):
        with pytest.raises(ValueError):
            tk.back_project(50, 50, 0.0, camera)
        with pytest.raises(ValueError):
            tk.back_project(50, 50, -1.0, camera)

    def test_singular_intrinsics_rejected(self):
        k = np.array([[0.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]])
        with pytest.raises(tk.InvalidCameraError):
            tk.CameraModel(k, np.eye(4), 100, 100)


class TestProject:
    def test_identity(self):
        cam = tk.CameraModel(np.eye(3), np.eye(4), 10, 10)
        assert tk.project([0, 0, 2], cam) == (0.0, 0.0, 2.0)

    def test_forward_of_back_project(self, camera):
        u, v, d = tk.project([2, 0, 2], camera)
        assert (u, v, d) == (150.0, 50.0, 2.0)

    def test_round_trip_random(self, camera, rng):
        for _ in range(1000):
            p = rng.uniform([-1, -1, 0.1], [1, 1, 5])
            u, v, d = tk.project(p, camera)
            assert np.linalg.norm(tk.back_project(u, v, d, camera) - p) < 1e-9

    def test_behind_camera(self, camera):
        with pytest.raises(tk.BehindCameraError):
            tk.project([0, 0, -1], camera)
        with pytest.raises(tk.BehindCameraError):
            tk.project([0, 0, 0], camera)


class TestCameraToWorld:
    def test_identity_extrinsics(self, camera):
        p = np.array([0.3, -0.2, 1.5])
        assert np.allclose(tk.camera_to_world(p, camera), p)

    def test_pure_translation(self):
        cam = make_camera(extrinsics=rigid(np.eye(3), [1, 0, 0]))
        assert np.allclose(tk.camera_to_world([0, 0, 1], cam), [1, 0, 1])

    def test_rotation_plus_translation(self, rng):
        # oracle: explicit homogeneous 4x4 multiply
        ext = rigid(rot_z(np.pi / 2), [0.5, -1.0, 2.0])
        cam = make_camera(extrinsics=ext)
        p = rng.normal(size=3)
        expected = (ext @ np.append(p, 1.0))[:3]
        assert np.allclose(tk.camera_to_world(p, cam), expected, atol=1e-12)

    def test_rigidity(self, rng):
        ext = rigid(rot_z(0.7), [0.1, 0.2, 0.3])
        cam = make_camera(extrinsics=ext)
        for _ in range(50):
            a, b = rng.normal(size=(2, 3))
            da = np.linalg.norm(a - b)
            db = np.linalg.norm(tk.camera_to_world(a, cam) - tk.camera_to_world(b, cam))
            assert abs(da - db) < 1e-9


class TestQuaternions:
    def test_zero_euler_is_identity(self):
        q = tk.euler_to_quaternion([0, 0, 0])
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_single_axis_z(self):
        q = tk.euler_to_quaternion([0, 0, np.pi / 2])
        assert np.allclose(q.as_array(), [np.sqrt(2) / 2, 0, 0, np.sqrt(2) / 2])

    def test_matrix_round_trip_random(self, rng):
        # oracle: rotation-matrix composition via scipy intrinsic x-y-z
        for _ in range(300):
            e = rng.uniform(-np.pi, np.pi, 3)
            q = tk.euler_to_quaternion(e)
            r_ref = Rotation.from_euler("XYZ", e).as_matrix()
            assert np.abs(q.rotation_matrix() - r_ref).max() < 1e-9
            e_back = tk.quaternion_to_euler(q)
            r_back = tk.euler_to_quaternion(e_back).rotation_matrix()
            assert np.abs(r_back - r_ref).max() < 1e-9

    def test_gimbal_lock_round_trip(self):
        for ry in (np.pi / 2, -np.pi / 2):
            e = np.array([0.4, ry, -0.9])
            q = tk.euler_to_quaternion(e)
            r_back = tk.euler_to_quaternion(tk.quaternion_to_euler(q)).rotation_matrix()
            assert np.abs(r_back - q.rotation_matrix()).max() < 1e-9

    def test_unit_norm_and_canonical_sign(self, rng):
        for _ in range(200):
            e = rng.uniform(-np.pi, np.pi, 3)
            q = tk.euler_to_quaternion(e)
            assert abs(np.linalg.norm(q.as_array()) - 1.0) < 1e-9
            assert q.w >= 0.0

    def test_negated_quaternion_same_object(self):
        q = tk.euler_to_quaternion([0.3, -0.2, 2.9])
        negated = tk.UnitQuaternion(-q.w, -q.x, -q.y, -q.z)
        assert negated == q

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            tk.UnitQuaternion(1.0, 1.0, 0.0, 0.0)


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

    def test_trajectory_needs_increasing_time(self):
        with pytest.raises(ValueError):
            tk.DenseTrajectory([0.0, 0.0], np.zeros((2, 3)),
                               np.zeros((2, 3)), [0, 0], tk.Frame.WORLD)

    def test_gripper_binary(self):
        with pytest.raises(ValueError):
            tk.TimedSample(0.0, tk.Pose([0, 0, 0], [0, 0, 0]), 2)


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
        t, pos, eul, grip = self.columns()
        eul[2, 0] = np.inf
        with pytest.raises(ValueError) as info:
            build_trajectory(kind, t, pos, eul, grip)
        assert (info.value.index, info.value.field) == (2, None)

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
