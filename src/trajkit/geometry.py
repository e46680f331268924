"""Core 3D types and conversions.

Poses, unit quaternions, pinhole cameras, camera/world frame transforms,
and finite-difference kinematics on timestamped end-effector trajectories.
All functions are pure and safe to call concurrently.

Conventions:
    * Euler angles are intrinsic x-y-z (rotate about body x, then the new
      y, then the new z), so the rotation matrix is ``Rx @ Ry @ Rz``.
    * Quaternions are stored (w, x, y, z), unit norm, sign-canonicalized
      so that ``w >= 0``.
    * Camera intrinsics are upper-triangular with ``K[2][2] == 1``;
      extrinsics are a rigid 4x4 camera-to-world transform.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import BehindCameraError, InsufficientDataError, InvalidCameraError

__all__ = [
    "Frame",
    "Pose",
    "UnitQuaternion",
    "CameraModel",
    "TimedSample",
    "DenseTrajectory",
    "back_project",
    "project",
    "camera_to_world",
    "euler_to_quaternion",
    "quaternion_to_euler",
    "normalize_angles",
    "finite_difference_accel",
]


class Frame(str, Enum):
    """Reference frame a trajectory is expressed in."""

    CAMERA = "camera"
    WORLD = "world"


def _as_vector(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a length-{n} vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Pose:
    """End-effector pose: position in meters, intrinsic x-y-z Euler angles in radians."""

    position: np.ndarray
    euler_xyz: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vector(self.position, 3, "position"))
        object.__setattr__(self, "euler_xyz", _as_vector(self.euler_xyz, 3, "euler_xyz"))


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion (w, x, y, z) with the sign fixed so w >= 0.

    q and -q encode the same rotation; construction renormalizes and
    canonicalizes so equal rotations serialize identically.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        q = np.array([self.w, self.x, self.y, self.z], dtype=float)
        norm = float(np.linalg.norm(q))
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {norm} too far from 1")
        q /= norm
        if q[0] < 0.0 or (q[0] == 0.0 and _first_nonzero_sign(q[1:]) < 0):
            q = -q
        object.__setattr__(self, "w", float(q[0]))
        object.__setattr__(self, "x", float(q[1]))
        object.__setattr__(self, "y", float(q[2]))
        object.__setattr__(self, "z", float(q[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def rotation_matrix(self) -> np.ndarray:
        """3x3 rotation matrix for this quaternion."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def angle_to(self, other: "UnitQuaternion") -> float:
        """Geodesic rotation angle in radians between two orientations.

        Uses the chord/atan2 form, which stays accurate for tiny angles
        where acos of the dot product loses precision.
        """
        a = self.as_array()
        b = other.as_array()
        if np.dot(a, b) < 0.0:
            b = -b
        return 4.0 * math.atan2(float(np.linalg.norm(a - b)),
                                float(np.linalg.norm(a + b)))


def _first_nonzero_sign(v: np.ndarray) -> float:
    for c in v:
        if c != 0.0:
            return math.copysign(1.0, c)
    return 1.0


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsics K (pixels) and rigid camera-to-world extrinsics."""

    intrinsics: np.ndarray
    extrinsics_c2w: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=float)
        ext = np.asarray(self.extrinsics_c2w, dtype=float)
        if k.shape != (3, 3):
            raise InvalidCameraError(f"intrinsics must be 3x3, got {k.shape}")
        if ext.shape != (4, 4):
            raise InvalidCameraError(f"extrinsics must be 4x4, got {ext.shape}")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(ext))):
            raise InvalidCameraError("camera matrices must be finite")
        if abs(k[2, 2] - 1.0) > 1e-12:
            raise InvalidCameraError(f"K[2][2] must be 1, got {k[2, 2]}")
        lower = np.abs(np.tril(k, -1)).max()
        if lower > 1e-12:
            raise InvalidCameraError("K must be upper-triangular")
        if k[0, 0] == 0.0 or k[1, 1] == 0.0:
            raise InvalidCameraError("K is singular (zero focal length)")
        rot = ext[:3, :3]
        if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9:
            raise InvalidCameraError("extrinsics rotation block is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise InvalidCameraError("extrinsics rotation must have determinant +1")
        if np.abs(ext[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > 1e-12:
            raise InvalidCameraError("extrinsics bottom row must be [0, 0, 0, 1]")
        if not (int(self.width) > 0 and int(self.height) > 0):
            raise InvalidCameraError("image dimensions must be positive")
        k.flags.writeable = False
        ext.flags.writeable = False
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "extrinsics_c2w", ext)
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))

    @cached_property
    def intrinsics_inv(self) -> np.ndarray:
        inv = np.linalg.inv(self.intrinsics)
        inv.flags.writeable = False
        return inv

    @classmethod
    def simple(cls, fx: float, fy: float, cx: float, cy: float,
               width: int, height: int,
               extrinsics_c2w=None) -> "CameraModel":
        """Build from focal lengths and principal point; identity extrinsics by default."""
        k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
        ext = np.eye(4) if extrinsics_c2w is None else extrinsics_c2w
        return cls(k, ext, width, height)


@dataclass(frozen=True)
class TimedSample:
    """One trajectory sample: time, pose, and binary gripper state."""

    t: float
    pose: Pose
    gripper: int

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"timestamp must be finite, got {self.t}")
        if self.gripper not in (0, 1):
            raise ValueError(f"gripper must be 0 or 1, got {self.gripper}")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "gripper", int(self.gripper))


class SampleError(ValueError):
    """A trajectory column is invalid at sample ``index``.

    ``index`` is None when the columns as a whole are wrong (shapes,
    sample count); ``field`` names the per-sample field at fault ("t" or
    "gripper"), or is None for a non-finite value.
    """

    def __init__(self, message: str, index: int | None = None, field: str | None = None):
        self.index = index
        self.field = field
        super().__init__(message)


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def trajectory_columns(times, positions, eulers, grippers, min_samples: int) -> tuple:
    """Validate trajectory columns once and return them as read-only arrays.

    Returns ``(times (N,), positions (N, 3), eulers (N, 3), grippers (N,))``
    as float, float, float and int arrays. Every value must be finite,
    grippers must be 0 or 1, times strictly increasing, and N >= min_samples;
    a violation raises :class:`SampleError` naming the first bad sample.
    """
    t = np.array(times, dtype=float)
    p = np.array(positions, dtype=float)
    e = np.array(eulers, dtype=float)
    g = np.asarray(grippers)
    n = t.size
    if n < min_samples:
        raise SampleError(f"trajectory needs >= {min_samples} samples, got {n}")
    if t.shape != (n,) or p.shape != (n, 3) or e.shape != (n, 3) or g.shape != (n,):
        raise SampleError(
            f"column shapes do not match: times {t.shape}, positions {p.shape}, "
            f"eulers {e.shape}, grippers {g.shape}"
        )
    i = _first(~(np.isfinite(t) & np.isfinite(p).all(axis=1) & np.isfinite(e).all(axis=1)))
    if i is not None:
        raise SampleError(f"sample {i} is not finite", i)
    i = _first((g != 0) & (g != 1))
    if i is not None:
        raise SampleError(f"gripper must be 0 or 1, got {g[i]}", i, "gripper")
    i = _first(np.diff(t) <= 0)
    if i is not None:
        raise SampleError("timestamps must be strictly increasing", i + 1, "t")
    g = g.astype(int)
    for column in (t, p, e, g):
        column.flags.writeable = False
    return t, p, e, g


@dataclass(frozen=True)
class DenseTrajectory:
    """Ordered, strictly-increasing-time end-effector samples, stored as columns."""

    times: np.ndarray  # (N,)
    positions: np.ndarray  # (N, 3)
    eulers: np.ndarray  # (N, 3)
    grippers: np.ndarray  # (N,) of {0, 1}
    frame: Frame

    def __post_init__(self):
        columns = trajectory_columns(self.times, self.positions, self.eulers,
                                     self.grippers, min_samples=2)
        for name, column in zip(("times", "positions", "eulers", "grippers"), columns):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "frame", Frame(self.frame))

    def __len__(self) -> int:
        return len(self.times)


def back_project(u: float, v: float, d: float, cam: CameraModel) -> np.ndarray:
    """Lift pixel (u, v) with depth d (meters) to a camera-frame 3D point.

    Returns ``d * K^-1 @ [u, v, 1]``; the z component equals d for any
    valid upper-triangular K.
    """
    if d <= 0:
        raise ValueError(f"depth must be positive, got {d}")
    return d * (cam.intrinsics_inv @ np.array([u, v, 1.0]))


def project(p_cam, cam: CameraModel) -> tuple:
    """Project a camera-frame point onto the image plane.

    Returns (u, v, d) pixels/meters. Exact inverse of :func:`back_project`
    on the z > 0 half-space.
    """
    p = _as_vector(p_cam, 3, "p_cam")
    if p[2] <= 0:
        raise BehindCameraError(f"point has non-positive depth z={p[2]}")
    h = cam.intrinsics @ p
    return float(h[0] / h[2]), float(h[1] / h[2]), float(p[2])


def camera_to_world(p_cam, cam: CameraModel) -> np.ndarray:
    """Apply the rigid camera-to-world extrinsics to a 3D point."""
    p = _as_vector(p_cam, 3, "p_cam")
    ext = cam.extrinsics_c2w
    return ext[:3, :3] @ p + ext[:3, 3]


def euler_to_quaternion(euler_xyz) -> UnitQuaternion:
    """Convert intrinsic x-y-z Euler angles (radians) to a unit quaternion."""
    e = _as_vector(euler_xyz, 3, "euler_xyz")
    half = 0.5 * e
    cx, cy, cz = np.cos(half)
    sx, sy, sz = np.sin(half)
    # qx(a) * qy(b) * qz(c), matching R = Rx @ Ry @ Rz
    w = cx * cy * cz - sx * sy * sz
    x = sx * cy * cz + cx * sy * sz
    y = cx * sy * cz - sx * cy * sz
    z = cx * cy * sz + sx * sy * cz
    return UnitQuaternion(w, x, y, z)


def quaternion_to_euler(q: UnitQuaternion) -> np.ndarray:
    """Recover intrinsic x-y-z Euler angles from a unit quaternion.

    Round-trips through the same rotation matrix; near gimbal lock
    (|ry| -> pi/2) the returned triple is the rz = 0 representative.
    """
    r = q.rotation_matrix()
    sy = float(np.clip(r[0, 2], -1.0, 1.0))
    ry = math.asin(sy)
    if abs(sy) < 1.0 - 1e-12:
        rx = math.atan2(-r[1, 2], r[2, 2])
        rz = math.atan2(-r[0, 1], r[0, 0])
    else:
        # cos(ry) == 0: only rx +/- rz is observable, pick rz = 0
        rx = math.atan2(r[1, 0], r[1, 1]) if sy > 0 else math.atan2(-r[1, 0], r[1, 1])
        rz = 0.0
    return np.array([rx, ry, rz])


def normalize_angles(angles) -> np.ndarray:
    """Wrap angles (radians) into [-pi, pi)."""
    a = np.asarray(angles, dtype=float)
    return np.mod(a + math.pi, 2.0 * math.pi) - math.pi


def finite_difference_accel(traj: DenseTrajectory, weights=None) -> tuple:
    """Central-second-difference acceleration magnitude at interior samples.

    The 6-component pose vector (position + Euler angles, angles unwrapped
    along the trajectory to avoid +/-pi seam artifacts) is differenced
    with the non-uniform central scheme; endpoints carry no acceleration.

    Args:
        traj: trajectory with >= 3 samples.
        weights: optional per-component non-negative weights (length 6,
            default all ones) mixed into the L2 magnitude.

    Returns:
        (times, magnitudes): arrays over the interior samples
        ``traj.times[1:-1]``.
    """
    if len(traj) < 3:
        raise InsufficientDataError(
            f"need >= 3 samples for finite differences, got {len(traj)}"
        )
    if weights is None:
        w = np.ones(6)
    else:
        w = _as_vector(weights, 6, "weights")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
    t = traj.times
    comps = np.hstack([traj.positions, np.unwrap(traj.eulers, axis=0)])
    dt1 = (t[1:-1] - t[:-2])[:, None]
    dt2 = (t[2:] - t[1:-1])[:, None]
    accel = 2.0 * ((comps[2:] - comps[1:-1]) / dt2 - (comps[1:-1] - comps[:-2]) / dt1) / (dt1 + dt2)
    mags = np.linalg.norm(accel * w, axis=1)
    return t[1:-1].copy(), mags
