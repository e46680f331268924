"""Spline-based action detokenizer.

Fits a continuous trajectory through sparse waypoints (piecewise cubic
position, SLERP orientation chain, zero-order-hold gripper) and resamples
it at control rate. Includes the sub-keyframe reconstruction-error
harness used to verify the quartic error decay of the densify-and-refit
pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import InsufficientDataError
from .geometry import (
    DenseTrajectory,
    Frame,
    UnitQuaternion,
    _clamp,
    canonical_sign,
    eulers_to_quaternions,
    gripper_column,
    quaternions_to_eulers,
)

# Not called here since sampling is batched, but kept bound: the stage
# tracer in bench/tracing.py wraps the conversions where each module looks
# them up.
from .geometry import euler_to_quaternion, quaternion_to_euler  # noqa: F401
from .keyframes import SparseTrajectory, insert_sub_keyframes, select_keyframes

__all__ = [
    "PositionSpline",
    "OrientationTrack",
    "ContinuousTrajectory",
    "slerp",
    "fit",
    "eval_trajectory",
    "resample",
    "reconstruction_error",
    "end_slope_estimates",
]


def _cubic_moments(t: np.ndarray, y: np.ndarray, bc_type: str, end_velocities):
    """Second-derivative knot values for an interpolating cubic spline.

    bc_type "natural" pins zero curvature at both ends; "clamped" pins the
    end first derivatives to ``end_velocities = (v0, v1)``.
    """
    n = len(t)
    h = np.diff(t)
    slopes = np.diff(y, axis=0) / h[:, None]
    # the tridiagonal system in banded form: rows hold the super-, main
    # and sub-diagonal
    ab = np.zeros((3, n))
    ab[0, 2:] = h[1:]
    ab[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    ab[2, :-2] = h[:-1]
    rhs = np.zeros((n,) + y.shape[1:])
    rhs[1:-1] = 6.0 * (slopes[1:] - slopes[:-1])
    # both end rows weigh their moment by 2h (natural: 2h * m = 0), so the
    # system stays diagonally dominant, LAPACK's partial pivoting never
    # swaps rows and the moments equal plain Thomas elimination bit for bit
    ab[1, 0] = 2.0 * h[0]
    ab[1, -1] = 2.0 * h[-1]
    if bc_type == "clamped":
        v0, v1 = (np.asarray(v, dtype=float) for v in end_velocities)
        ab[0, 1] = h[0]
        rhs[0] = 6.0 * (slopes[0] - v0)
        ab[2, -2] = h[-1]
        rhs[-1] = 6.0 * (v1 - slopes[-1])
    elif bc_type != "natural":
        raise ValueError(f"unknown boundary condition {bc_type!r}")
    return solve_banded((1, 1), ab, rhs)


@dataclass(frozen=True)
class PositionSpline:
    """Piecewise cubic position curve.

    Segment i covers [knot_times[i], knot_times[i+1]] with local
    polynomial ``c[i,0] + c[i,1]*dt + c[i,2]*dt^2 + c[i,3]*dt^3`` per
    axis, dt measured from the segment start. Splines built by
    :meth:`fit` are C2 at interior knots; composites assembled by the
    replan merge are only C1 at the transition junction.
    """

    knot_times: np.ndarray
    coefficients: np.ndarray  # (n_segments, 4, 3)

    def __post_init__(self):
        t = np.asarray(self.knot_times, dtype=float)
        c = np.asarray(self.coefficients, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("need at least two knots")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot times must be strictly increasing")
        if c.shape != (len(t) - 1, 4, 3):
            raise ValueError(f"coefficients shape {c.shape} does not match knots")
        t.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "knot_times", t)
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def fit(cls, times, points, bc_type: str = "natural", end_velocities=None) -> "PositionSpline":
        """Interpolating cubic spline through (times, points).

        Natural boundaries (zero end curvature) by default; pass
        bc_type="clamped" with ``end_velocities=(v0, v1)`` to pin the end
        slopes instead, which restores fourth-order accuracy at the ends
        for smooth data.
        """
        t = np.asarray(times, dtype=float)
        y = np.asarray(points, dtype=float)
        if y.shape != (len(t), 3):
            raise ValueError(f"points shape {y.shape} does not match {len(t)} knots")
        if len(t) < 2:
            raise ValueError("need at least two waypoints")
        if np.any(np.diff(t) <= 0):
            raise ValueError("duplicate or decreasing timestamps")
        if bc_type == "clamped" and end_velocities is None:
            raise ValueError("clamped boundaries need end_velocities")
        m = _cubic_moments(t, y, bc_type, end_velocities)
        h = np.diff(t)[:, None]
        a0 = y[:-1]
        a1 = np.diff(y, axis=0) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
        a2 = m[:-1] / 2.0
        a3 = (m[1:] - m[:-1]) / (6.0 * h)
        return cls(t, np.stack([a0, a1, a2, a3], axis=1))

    @property
    def domain(self) -> tuple:
        return float(self.knot_times[0]), float(self.knot_times[-1])

    def _segment(self, t):
        idx = np.searchsorted(self.knot_times, t, side="right") - 1
        return _clamp(idx, 0, len(self.knot_times) - 2)

    def position(self, t):
        """Evaluate at scalar or array t (clamped to the domain)."""
        tt = _clamp(np.asarray(t, dtype=float), *self.domain)
        seg = self._segment(tt)
        dt = (tt - self.knot_times[seg])[..., None]
        c = self.coefficients[seg]
        out = c[..., 0, :] + dt * (c[..., 1, :] + dt * (c[..., 2, :] + dt * c[..., 3, :]))
        return out

    def velocity(self, t):
        """First derivative at scalar or array t (clamped to the domain)."""
        tt = _clamp(np.asarray(t, dtype=float), *self.domain)
        seg = self._segment(tt)
        dt = (tt - self.knot_times[seg])[..., None]
        c = self.coefficients[seg]
        return c[..., 1, :] + dt * (2.0 * c[..., 2, :] + dt * 3.0 * c[..., 3, :])

    def acceleration(self, t):
        tt = _clamp(np.asarray(t, dtype=float), *self.domain)
        seg = self._segment(tt)
        dt = (tt - self.knot_times[seg])[..., None]
        c = self.coefficients[seg]
        return 2.0 * c[..., 2, :] + dt * 6.0 * c[..., 3, :]


def _slerp_rows(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Batched SLERP (Shoemake, 1985) from rows a[i] to b[i] at fractions s[i].

    a and b are unit wxyz rows with dot(a[i], b[i]) >= 0. s == 0 and s == 1
    return the end rows exactly; nearly parallel pairs use normalized
    linear interpolation. The result is sign-canonical (w >= 0).
    """
    dot = np.sum(a * b, axis=1)
    near = dot > 1.0 - 1e-9  # nearly parallel: nlerp is exact enough
    theta = np.arccos(np.minimum(dot, 1.0))
    w_a = np.where(near, 1.0 - s, np.sin((1.0 - s) * theta))
    w_b = np.where(near, s, np.sin(s * theta))
    out = (w_a[:, None] * a + w_b[:, None] * b) / np.where(near, 1.0, np.sin(theta))[:, None]
    out /= np.linalg.norm(out, axis=1)[:, None]
    out = np.where((s == 0.0)[:, None], a, np.where((s == 1.0)[:, None], b, out))
    return canonical_sign(out)


def slerp(q0: UnitQuaternion, q1: UnitQuaternion, s: float) -> UnitQuaternion:
    """Constant-angular-velocity interpolation along the shorter geodesic.

    s = 0 returns q0 and s = 1 returns q1; when dot(q0, q1) < 0 the
    second quaternion is negated so the shorter arc is taken.
    """
    a = q0.as_array()
    b = q1.as_array()
    if np.dot(a, b) < 0.0:
        b = -b
    return UnitQuaternion(*_slerp_rows(a[None], b[None], np.array([float(s)]))[0])


@dataclass(frozen=True)
class OrientationTrack:
    """Per-knot orientations interpolated with SLERP between neighbors.

    Internally stores sign-aligned wxyz rows (consecutive dot products
    >= 0) so each segment interpolates along the shorter arc.
    """

    knot_times: np.ndarray
    wxyz: np.ndarray  # (n, 4), sign-aligned

    def __post_init__(self):
        t = np.asarray(self.knot_times, dtype=float)
        q = np.asarray(self.wxyz, dtype=float)
        if t.ndim != 1 or len(t) < 1 or q.shape != (len(t), 4):
            raise ValueError("knot_times and wxyz shapes do not match")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("knot times must be strictly increasing")
        norms = np.linalg.norm(q, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("orientation knots must be unit quaternions")
        if len(t) > 1 and np.any(np.sum(q[:-1] * q[1:], axis=1) < 0):
            raise ValueError("orientation knots must be sign-aligned")
        t.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "knot_times", t)
        object.__setattr__(self, "wxyz", q)

    @classmethod
    def from_quaternions(cls, times, quats) -> "OrientationTrack":
        """Build from (n, 4) unit wxyz knots, flipping signs for shortest arcs.

        Row i is negated when an odd number of the consecutive dot products
        up to it are negative, so every neighbor pair ends up with dot >= 0.
        """
        q = np.asarray(quats, dtype=float)
        flips = np.where(np.sum(q[:-1] * q[1:], axis=1) < 0.0, -1.0, 1.0)
        signs = np.concatenate([[1.0], np.cumprod(flips)])
        return cls(np.asarray(times, dtype=float), q * signs[:, None])

    def orientations(self, t) -> np.ndarray:
        """(n, 4) sign-canonical wxyz rows at times t (clamped to the knots)."""
        tt = np.asarray(t, dtype=float)
        times, q = self.knot_times, self.wxyz
        if len(times) == 1:
            return canonical_sign(np.repeat(q, len(tt), axis=0))
        i = _clamp(np.searchsorted(times, tt, side="right") - 1, 0, len(times) - 2)
        s = _clamp((tt - times[i]) / (times[i + 1] - times[i]), 0.0, 1.0)
        return _slerp_rows(q[i], q[i + 1], s)

    def orientation(self, t: float) -> UnitQuaternion:
        """SLERP within the bracketing knot pair (clamped to the domain)."""
        return UnitQuaternion(*self.orientations(np.array([float(t)]))[0])


@dataclass(frozen=True)
class ContinuousTrajectory:
    """Evaluable trajectory: cubic position, SLERP orientation, ZOH gripper."""

    position: PositionSpline
    orientation: OrientationTrack
    gripper_times: np.ndarray
    gripper_values: np.ndarray

    def __post_init__(self):
        gt = np.asarray(self.gripper_times, dtype=float)
        if np.shape(self.gripper_values) != gt.shape or gt.ndim != 1 or len(gt) < 1:
            raise ValueError("gripper schedule shapes do not match")
        gv = gripper_column(self.gripper_values)
        t0, t1 = self.position.domain
        for name, knots in (("orientation", self.orientation.knot_times), ("gripper", gt)):
            if abs(knots[0] - t0) > 1e-9 or abs(knots[-1] - t1) > 1e-9:
                raise ValueError(f"{name} knots do not span the position domain")
        gt.flags.writeable = False
        object.__setattr__(self, "gripper_times", gt)
        object.__setattr__(self, "gripper_values", gv)

    @property
    def domain(self) -> tuple:
        return self.position.domain

    def gripper(self, t):
        """Zero-order-hold gripper state at scalar or array t."""
        idx = np.searchsorted(self.gripper_times, t, side="right") - 1
        return self.gripper_values[np.maximum(idx, 0)]

    def sample(self, times) -> tuple:
        """Evaluate at a 1-D array of times, each clamped to the domain.

        Returns positions (n, 3), sign-canonical wxyz quaternions (n, 4)
        and grippers (n,). Every other evaluator is a call of this one.
        """
        t = _clamp(np.asarray(times, dtype=float), *self.domain)
        return self.position.position(t), self.orientation.orientations(t), self.gripper(t)

    def velocity(self, t: float) -> np.ndarray:
        """Positional velocity; zero outside the domain (the pose holds there)."""
        t0, t1 = self.domain
        if t < t0 or t > t1:
            return np.zeros(3)
        return self.position.velocity(t)


def fit(sparse: SparseTrajectory, bc_type: str = "natural", end_velocities=None) -> ContinuousTrajectory:
    """Fit a continuous trajectory through sparse waypoints.

    Positions get an interpolating cubic spline (natural boundaries by
    default), orientations a sign-aligned SLERP chain, and the gripper a
    zero-order hold that changes only at knot times.
    """
    if len(sparse) < 2:
        raise InsufficientDataError("need >= 2 waypoints to fit a trajectory")
    times = sparse.times
    spline = PositionSpline.fit(times, sparse.positions, bc_type, end_velocities)
    track = OrientationTrack.from_quaternions(times, eulers_to_quaternions(sparse.eulers))
    return ContinuousTrajectory(spline, track, times, sparse.grippers)


def eval_trajectory(traj: ContinuousTrajectory, t: float) -> tuple:
    """Evaluate (position, quaternion, gripper) at time t, clamped to the domain."""
    pos, quats, grips = traj.sample(np.array([float(t)]))
    return pos[0], UnitQuaternion(*quats[0]), grips[0]


def resample(traj: ContinuousTrajectory, rate: float) -> DenseTrajectory:
    """Sample the trajectory at a fixed rate, always including the final time.

    Samples sit at t0 + k/rate; the exact end of the domain replaces a
    coincident final grid point or is appended after it.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    t0, t1 = traj.domain
    n_steps = int(math.floor((t1 - t0) * rate + 1e-9))
    times = t0 + np.arange(n_steps + 1) / rate
    if t1 - times[-1] > 1e-9 / rate:
        times = np.append(times, t1)
    else:
        times[-1] = t1
    positions, quats, grippers = traj.sample(times)
    return DenseTrajectory(times, positions, quaternions_to_eulers(quats), grippers, Frame.WORLD)


def end_slope_estimates(times, positions) -> tuple:
    """Second-order one-sided end derivatives of densely sampled positions.

    Returns (v0, v1), the quadratic-fit velocity estimates at the first
    and last sample. Feeding these to a clamped fit removes the O(h^2)
    boundary error a natural spline incurs on curved data.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(positions, dtype=float)
    if len(t) < 3:
        raise InsufficientDataError("need >= 3 samples to estimate end slopes")

    def lagrange_derivative(ts, ys, at):
        t0, t1, t2 = ts
        w0 = (2 * at - t1 - t2) / ((t0 - t1) * (t0 - t2))
        w1 = (2 * at - t0 - t2) / ((t1 - t0) * (t1 - t2))
        w2 = (2 * at - t0 - t1) / ((t2 - t0) * (t2 - t1))
        return w0 * ys[0] + w1 * ys[1] + w2 * ys[2]

    v0 = lagrange_derivative(t[:3], y[:3], t[0])
    v1 = lagrange_derivative(t[-3:], y[-3:], t[-1])
    return v0, v1


def reconstruction_error(dense_gt: DenseTrajectory, n_sub: int,
                         alpha: float = math.inf, weights=None) -> tuple:
    """Max deviation of the keyframe -> sub-keyframe -> fit pipeline from dense truth.

    Selects keyframes on the dense trajectory, inserts ``n_sub``
    equally-spaced samples per segment, refits, and measures the largest
    position deviation at every dense sample. The refit clamps the end
    slopes to derivative estimates from the dense data, so for smooth
    curves the error decays with the fourth power of the sub-keyframe
    spacing.

    Sub-keyframe poses snap to the nearest recorded sample, which adds a
    floor of (speed * sample spacing / 2) whenever the sub-keyframe grid
    does not land on sample times; use segment lengths divisible by
    ``n_sub - 1`` samples to measure pure interpolation error.

    Returns:
        (max_err, per_segment): the global maximum and the per-keyframe-
        segment maxima.
    """
    keys = select_keyframes(dense_gt, alpha, weights)
    for i0, i1 in zip(keys.indices, keys.indices[1:]):
        if i1 - i0 + 1 < 4 * n_sub:
            raise InsufficientDataError(
                f"segment [{i0}, {i1}] has {i1 - i0 + 1} samples, "
                f"need >= {4 * n_sub} for n_sub={n_sub}"
            )
    sparse = insert_sub_keyframes(dense_gt, keys, n_sub)
    v0, v1 = end_slope_estimates(dense_gt.times, dense_gt.positions)
    cont = fit(sparse, bc_type="clamped", end_velocities=(v0, v1))
    errors = np.linalg.norm(
        cont.position.position(dense_gt.times) - dense_gt.positions, axis=1
    )
    per_segment = np.array([
        errors[i0 : i1 + 1].max() for i0, i1 in zip(keys.indices, keys.indices[1:])
    ])
    return float(errors.max()), per_segment
