"""Core 3D types and conversions.

Unit quaternions as (n, 4) wxyz rows, pinhole cameras, camera/world
frame transforms, and finite-difference kinematics on timestamped
end-effector trajectories.
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
from functools import partial

import numpy as np

from .errors import BehindCameraError, InsufficientDataError, InvalidCameraError

__all__ = [
    "Frame",
    "CameraModel",
    "DenseTrajectory",
    "back_project",
    "project",
    "camera_to_world",
    "euler_to_quaternion",
    "quaternion_to_euler",
    "eulers_to_quaternions",
    "quaternions_to_eulers",
    "unit_quaternions",
    "normalize_angles",
    "finite_difference_accel",
]


class Frame(str, Enum):
    """Reference frame a trajectory is expressed in."""

    CAMERA = "camera"
    WORLD = "world"


# per intake dtype: the ndarray kinds and scalar types it takes (a bool is no
# int or float here), and what its refusal says the array must hold
_KINDS = {
    float: ("iuf", (int, np.integer, float, np.floating), "real numbers, not bools or strings"),
    int: ("iu", (int, np.integer), "integers, not fractions, bools or strings"),
    bool: ("b", (bool, np.bool_), "bools, not numbers or strings"),
}


def _check_reals(value, name: str, error=ValueError, dtype=float) -> None:
    """Raise ``error`` naming ``name`` unless ``value``, an ndarray, a number
    or lists and tuples of them to any depth, holds the kind of ``dtype``
    only (see ``_KINDS``), and for int only values in the int64 range, which
    a cast would otherwise wrap or refuse without a name."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_reals(item, name, error, dtype)
        return
    kinds, scalars, noun = _KINDS[dtype]
    if not (value.dtype.kind in kinds if isinstance(value, np.ndarray) else
            isinstance(value, scalars) and (dtype is bool or not isinstance(value, bool))):
        raise error(f"{name} must hold {noun}")
    if dtype is int and (value.dtype == np.uint64 and value.size and value.max() >= 2**63
                         if isinstance(value, np.ndarray) else not -2**63 <= int(value) < 2**63):
        raise error(f"{name} is beyond the int64 range")


def _cast(value, name: str, error=ValueError, dtype=float) -> np.ndarray:
    """``np.array(value, dtype)``; a ragged list raises ``error`` with ``<name>
    must be a rectangular array, got a ragged list`` and an int beyond the
    float range with ``<name> is beyond the float range``, not NumPy's own."""
    try:
        return np.array(value, dtype=dtype)
    except ValueError:  # "setting an array element with a sequence"
        raise error(f"{name} must be a rectangular array, got a ragged list") from None
    except OverflowError:  # "int too large to convert to float"
        raise error(f"{name} is beyond the float range") from None


def _as_array(value, shape: tuple | None, name: str, error=ValueError, dtype=float) -> np.ndarray:
    """A read-only copy of ``value`` as an array of ``dtype`` (float, int or
    bool) with exactly ``shape``; ``None`` as the leading length accepts any
    length, and ``None`` as the shape any shape. Refusals raise ``error``, in
    this order: from :func:`_cast` for a ragged list, :func:`_check_reals`,
    :func:`_cast`, then ``<name> must have shape <shape>, got <shape>`` and,
    for float, ``<name> must be finite``. Constructors store this copy, so a
    caller's array is never frozen or shared."""
    if not isinstance(value, np.ndarray):
        _cast(value, name, error, None)  # raises for a ragged list only
    _check_reals(value, name, error, dtype)
    arr = _cast(value, name, error, dtype)
    if shape is not None:
        want = arr.shape[:1] + shape[1:] if shape[0] is None and arr.ndim else shape
        if arr.shape != want:
            raise error(f"{name} must have shape {shape}, got {arr.shape}".replace("None", "n"))
    if dtype is float and not np.isfinite(arr).all():
        raise error(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _time_grid(values, name: str) -> np.ndarray:
    """:func:`_as_array` of a 1-D time grid that must be strictly increasing."""
    t = _as_array(values, (None,), name)
    if (t[1:] <= t[:-1]).any():
        raise ValueError(f"{name} must be strictly increasing")
    return t


def _finite_real(value) -> bool:
    """Whether ``value`` is an int, NumPy number or float (not a bool) with a finite float value."""
    try:
        return (isinstance(value, (int, np.integer, float, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _span_overflows(lo, hi) -> bool:
    """Whether a distance between two points of the box [lo, hi] (two lists
    of floats) can overflow: the box's squared diagonal, summed in Python
    floats, which overflow to inf without a warning, is not finite."""
    return not math.isfinite(sum((h - x) * (h - x) for h, x in zip(hi, lo)))


def _real(name: str, value) -> float:
    """``float(value)`` of a finite real, else a ``ValueError`` naming ``name``."""
    if not _finite_real(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _check_positive(name: str, value) -> float:
    """``float(value)`` of a finite real > 0, else a ``ValueError`` naming ``name``."""
    if not (_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return float(value)


def _integral(name: str, value, error=ValueError) -> int:
    """``int(value)`` of an int, NumPy int or integral float within the float
    range; raises ``error`` naming ``name`` for anything else."""
    if type(value) is int and not _finite_real(value):
        raise error(f"{name} is beyond the float range")
    if not (_finite_real(value) and float(value).is_integer()):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


# at most this many periods, ticks or waypoints that a rate or count sizes: ~10 GB
_MAX_PERIODS = 10**8


def _clamp(x, lo, hi):
    """``np.clip(x, lo, hi)`` bit for bit, without its Python-level wrapper.

    The bounds go first: ``np.maximum(lo, x)`` keeps ``lo`` on a tie, as
    clip does, so clip's choice between -0.0 and 0.0 is kept too.
    """
    return np.minimum(hi, np.maximum(lo, x))


# |norm - 1| below which a row counts as already normalized: one division by
# the norm leaves a few ulp (< 1e-15), so renormalizing is idempotent
_UNIT_ROUNDING = 1e-14


def canonical_sign(q: np.ndarray) -> np.ndarray:
    """Negate, in place, the wxyz rows whose first nonzero component is
    negative, so w >= 0 (and the first nonzero of x, y, z is positive when
    w == 0). Negation is exact. Returns ``q``."""
    if (q[:, 0] > 0.0).all():  # the common case, without the gather below
        return q
    lead = q[np.arange(len(q)), np.argmax(q != 0.0, axis=1)]
    q[lead < 0.0] *= -1.0
    return q


def unit_quaternions(rows) -> np.ndarray:
    """Validate (n, 4) wxyz rows and return a unit-norm, sign-canonical copy.

    Every row must be finite with a norm within 1e-6 of 1. Rows already
    unit to rounding are kept bit for bit, so canonicalizing twice changes
    nothing.
    """
    q = _as_array(rows, (None, 4), "quaternions")
    norms = np.linalg.norm(q, axis=1)
    off = np.abs(norms - 1.0)
    bad = _first(off > 1e-6)
    if bad is not None:
        raise ValueError(f"quaternion {bad} norm {norms[bad]} too far from 1")
    return canonical_sign(q / np.where(off > _UNIT_ROUNDING, norms, 1.0)[:, None])


@dataclass(frozen=True, eq=False)
class CameraModel:
    """Pinhole camera: intrinsics K (pixels) and rigid camera-to-world extrinsics.

    ``intrinsics_inv`` is K^-1, computed once and read-only; a K whose
    inverse is not finite is refused.
    """

    intrinsics: np.ndarray
    extrinsics_c2w: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        k = _as_array(self.intrinsics, (3, 3), "intrinsics", InvalidCameraError)
        ext = _as_array(self.extrinsics_c2w, (4, 4), "extrinsics_c2w", InvalidCameraError)
        if abs(k[2, 2] - 1.0) > 1e-12:
            raise InvalidCameraError(f"K[2][2] must be 1, got {k[2, 2]}")
        lower = np.abs(np.tril(k, -1)).max()
        if lower > 1e-12:
            raise InvalidCameraError("K must be upper-triangular")
        if k[0, 0] == 0.0 or k[1, 1] == 0.0:
            raise InvalidCameraError("K is singular (zero focal length)")
        rot = ext[:3, :3]
        # no entry of an orthonormal block exceeds 1 + 1e-9; refusing one first keeps
        # rot.T @ rot from overflowing
        if np.abs(rot).max() > 1.0 + 1e-9 or np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9:
            raise InvalidCameraError("extrinsics rotation block is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise InvalidCameraError("extrinsics rotation must have determinant +1")
        if np.abs(ext[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > 1e-12:
            raise InvalidCameraError("extrinsics bottom row must be [0, 0, 0, 1]")
        width = _integral("width", self.width, InvalidCameraError)
        height = _integral("height", self.height, InvalidCameraError)
        if not (width > 0 and height > 0):
            raise InvalidCameraError("image dimensions must be positive")
        k_inv = np.linalg.inv(k)  # finite K: inv overflows to inf or nan without a warning
        if not np.isfinite(k_inv).all():
            raise InvalidCameraError("K is too close to singular: its inverse is not finite")
        k_inv.flags.writeable = False
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "extrinsics_c2w", ext)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "intrinsics_inv", k_inv)

    @classmethod
    def simple(cls, fx: float, fy: float, cx: float, cy: float,
               width: int, height: int,
               extrinsics_c2w=None) -> "CameraModel":
        """Build from focal lengths and principal point; identity extrinsics by default."""
        k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
        ext = np.eye(4) if extrinsics_c2w is None else extrinsics_c2w
        return cls(k, ext, width, height)


class SampleError(ValueError):
    """A value that builds an object is invalid: a column of a trajectory or
    token sequence at row ``index``, or a field of a scenario.

    ``index`` is None when no row is at fault (column shapes, row count, a
    scenario field); ``field`` is the path of the value at fault relative to
    the row, or to the object when ``index`` is None, as it reads in a file
    ("t", "r[2]", "initial_plan.frame", "perturbations[2].time", ...), or
    None for a whole row or a whole column set.
    """

    def __init__(self, message: str, index: int | None = None, field: str | None = None):
        self.index = index
        self.field = field
        super().__init__(message)


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def gripper_column(values, n: int | None = None) -> np.ndarray:
    """A read-only int copy of an (n,) float column (see :func:`_as_array`;
    any length when ``n`` is None) of gripper states, each 0 or 1, so True,
    "1" and 0.7 raise a :class:`SampleError` for the gripper, not 1 or 0."""
    g = _as_array(values, (n,), "gripper", partial(SampleError, field="gripper"))
    i = _first((g != 0) & (g != 1))
    if i is not None:
        raise SampleError(f"gripper must be 0 or 1, got {g[i]}", i, "gripper")
    g = g.astype(int)
    g.flags.writeable = False
    return g


def trajectory_columns(times, positions, eulers, grippers, min_samples: int) -> tuple:
    """Validate trajectory columns once and return them as read-only arrays.

    Returns ``(times (N,), positions (N, 3), eulers (N, 3), grippers (N,))``
    through the intake (see :func:`_as_array` and :func:`gripper_column`),
    with N >= min_samples and times strictly increasing; the first sample
    out of order is named by a :class:`SampleError`.
    """
    t = _as_array(times, (None,), "times", SampleError)
    n = len(t)
    if n < min_samples:
        raise SampleError(f"trajectory needs >= {min_samples} samples, got {n}")
    p = _as_array(positions, (n, 3), "positions", SampleError)
    e = _as_array(eulers, (n, 3), "eulers", SampleError)
    g = gripper_column(grippers, n)
    i = _first(t[1:] <= t[:-1])
    if i is not None:
        raise SampleError("timestamps must be strictly increasing", i + 1, "t")
    return t, p, e, g


@dataclass(frozen=True, eq=False)
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
        # the dataclass is frozen: write past __setattr__
        vars(self).update(zip(("times", "positions", "eulers", "grippers"), columns),
                          frame=Frame(self.frame))

    def __len__(self) -> int:
        return len(self.times)


def _apply(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``m @ x`` for every row x, as a stack of matrix-vector products: this
    is bit-equal to the one-point product, while ``rows @ m.T`` is not."""
    return (m[None] @ rows[:, :, None])[..., 0]


def back_project(u, v, d, cam: CameraModel) -> np.ndarray:
    """Lift pixels (u, v) at depths d (meters), three (n,) columns of one
    length, to (n, 3) camera-frame rows ``d * K^-1 @ [u, v, 1]``. z equals
    d for any valid upper-triangular K; a column that is not finite, the
    first depth <= 0 and the first row beyond the float range raise
    ``ValueError``.
    """
    u = _as_array(u, (None,), "u")
    n = len(u)
    rows = np.stack([u, _as_array(v, (n,), "v"), np.ones(n)], axis=1)
    d = _as_array(d, (n,), "d")
    bad = d[d <= 0]
    if bad.size:
        raise ValueError(f"depth must be positive, got {bad[0]}")
    # a product beyond the float range is inf (or nan), refused below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        p = d[:, None] * _apply(cam.intrinsics_inv, rows)
    i = _first(~np.isfinite(p).all(axis=1))
    if i is not None:
        raise ValueError(f"the camera-frame position of waypoint {i} is beyond the float range")
    return p


def project(p_cam, cam: CameraModel) -> tuple:
    """Project (n, 3) camera-frame rows onto the image plane as three (n,)
    columns (u, v, d) in pixels/meters. Exact inverse of
    :func:`back_project` on the z > 0 half-space; the first point with
    z <= 0 raises :class:`BehindCameraError`.
    """
    p = _as_array(p_cam, (None, 3), "p_cam")
    behind = p[p[:, 2] <= 0, 2]
    if behind.size:
        raise BehindCameraError(f"point has non-positive depth z={behind[0]}")
    h = _apply(cam.intrinsics, p)
    return h[:, 0] / h[:, 2], h[:, 1] / h[:, 2], p[:, 2].copy()


def camera_to_world(p_cam, cam: CameraModel) -> np.ndarray:
    """Apply the rigid camera-to-world extrinsics to (n, 3) rows."""
    ext = cam.extrinsics_c2w
    return _apply(ext[:3, :3], _as_array(p_cam, (None, 3), "p_cam")) + ext[:3, 3]


def eulers_to_quaternions(eulers) -> np.ndarray:
    """Convert (n, 3) intrinsic x-y-z Euler angles (radians) to (n, 4)
    unit, sign-canonical wxyz rows."""
    half = 0.5 * _as_array(eulers, (None, 3), "eulers")
    cx, cy, cz = np.cos(half).T
    sx, sy, sz = np.sin(half).T
    # qx(a) * qy(b) * qz(c), matching R = Rx @ Ry @ Rz
    q = np.stack([cx * cy * cz - sx * sy * sz,
                  sx * cy * cz + cx * sy * sz,
                  cx * sy * cz - sx * cy * sz,
                  cx * cy * sz + sx * sy * cz], axis=1)
    q /= np.linalg.norm(q, axis=1)[:, None]
    return canonical_sign(q)


def quaternions_to_eulers(quats) -> np.ndarray:
    """Recover (n, 3) intrinsic x-y-z Euler angles from (n, 4) unit wxyz rows.

    Reads the needed entries of each row's rotation matrix; near gimbal
    lock (|ry| -> pi/2) the returned triple is the rz = 0 representative.
    """
    w, x, y, z = _as_array(quats, (None, 4), "quaternions").T
    sy = _clamp(2 * (x * z + w * y), -1.0, 1.0)
    r01 = 2 * (x * y - w * z)
    r10 = 2 * (x * y + w * z)
    r11 = 1 - 2 * (x * x + z * z)
    regular = np.abs(sy) < 1.0 - 1e-12
    # cos(ry) == 0: only rx +/- rz is observable, pick rz = 0
    rx = np.where(regular,
                  np.arctan2(-(2 * (y * z - w * x)), 1 - 2 * (x * x + y * y)),
                  np.arctan2(np.where(sy > 0, r10, -r10), r11))
    rz = np.where(regular, np.arctan2(-r01, 1 - 2 * (y * y + z * z)), 0.0)
    return np.stack([rx, np.arcsin(sy), rz], axis=1)


def euler_to_quaternion(euler_xyz) -> np.ndarray:
    """One row of :func:`eulers_to_quaternions`: a (4,) wxyz row."""
    return eulers_to_quaternions(_as_array(euler_xyz, (3,), "euler_xyz")[None])[0]


def quaternion_to_euler(wxyz) -> np.ndarray:
    """One row of :func:`quaternions_to_eulers`, for a (4,) wxyz row."""
    return quaternions_to_eulers(_as_array(wxyz, (4,), "wxyz")[None])[0]


def normalize_angles(angles) -> np.ndarray:
    """Wrap angles (radians, of any shape, finite real numbers as in
    :func:`_as_array`) into [-pi, pi)."""
    return np.mod(_as_array(angles, None, "angles") + math.pi, 2.0 * math.pi) - math.pi


def finite_difference_accel(traj: DenseTrajectory, weights=None) -> tuple:
    """Central-second-difference acceleration magnitude at interior samples.

    The 6-component pose vector (position + Euler angles, angles unwrapped
    along the trajectory to avoid +/-pi seam artifacts) is differenced
    with the non-uniform central scheme; endpoints carry no acceleration.

    Args:
        traj: trajectory with >= 3 samples.
        weights: optional per-component non-negative real (not bool) weights
            (length 6, default all ones) mixed into the L2 magnitude.

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
        w = _as_array(weights, (6,), "weights")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
    t = traj.times
    # an unwrapped angle, a difference or a magnitude beyond the float range is
    # inf, not a warning (inf - inf and 0 * inf are nan, which no alpha selects)
    with np.errstate(over="ignore", invalid="ignore"):
        comps = np.hstack([traj.positions, np.unwrap(traj.eulers, axis=0)])
        dt1 = (t[1:-1] - t[:-2])[:, None]
        dt2 = (t[2:] - t[1:-1])[:, None]
        accel = 2.0 * ((comps[2:] - comps[1:-1]) / dt2
                       - (comps[1:-1] - comps[:-2]) / dt1) / (dt1 + dt2)
        mags = np.linalg.norm(accel * w, axis=1)
    return t[1:-1].copy(), mags
