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

from .errors import InsufficientDataError
from .geometry import (
    DenseTrajectory,
    Frame,
    _as_array,
    _check_positive,
    _check_reals,
    _clamp,
    _integral,
    _time_grid,
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
    "ContinuousTrajectory",
    "fit",
    "eval_trajectory",
    "resample",
    "reconstruction_error",
    "end_slope_estimates",
]


def _cubic_moments(t: np.ndarray, y: np.ndarray, end_velocities):
    """Second-derivative knot values for an interpolating cubic spline
    through (n, 3) points: natural ends, or ends clamped to the (3,) first
    derivatives ``end_velocities = (v0, v1)`` when given.
    """
    h = np.diff(t)
    slopes = np.diff(y, axis=0) / h[:, None]
    rhs = np.zeros(y.shape)
    rhs[1:-1] = 6.0 * (slopes[1:] - slopes[:-1])
    # the tridiagonal system: row i has diag[i], upper[i] towards row i + 1
    # and lower[i - 1] towards row i - 1
    hs = h.tolist()
    upper, lower = [0.0] + hs[1:], hs[:-1] + [0.0]
    # both end rows weigh their moment by 2h (natural: 2h * m = 0), so the
    # system stays diagonally dominant, LAPACK's partial pivoting never
    # swaps rows and the moments equal plain Thomas elimination bit for bit
    diag = [2.0 * hs[0]] + [2.0 * (a + b) for a, b in zip(hs, hs[1:])] + [2.0 * hs[-1]]
    if end_velocities is not None:
        v0, v1 = end_velocities
        upper[0] = hs[0]
        rhs[0] = 6.0 * (slopes[0] - v0)
        lower[-1] = hs[-1]
        rhs[-1] = 6.0 * (v1 - slopes[-1])
    # diag bounds every band entry (diag >= 2h), so this covers the system
    if not (all(map(math.isfinite, diag)) and np.all(np.isfinite(rhs))):
        raise ValueError("knot spacings or point differences overflow the moment solve")
    return _solve_tridiagonal(upper, diag, lower, rhs)


def _solve_tridiagonal(upper: list, diag: list, lower: list, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system of :func:`_cubic_moments` for its (n, 3)
    right-hand side, without pivoting; ``diag`` is overwritten.

    Thomas elimination over Python floats, the three columns side by side,
    in the operation order of LAPACK ``gtsv`` when it never swaps rows. The
    result is therefore bit-identical to ``scipy.linalg.solve_banded`` on
    these diagonally dominant systems. The ``0.0 * x[i + 2]`` term is
    gtsv's second super-diagonal, which stays zero without row swaps; it
    is kept so that signed zeros match too.
    """
    d = diag
    x, y, z = rhs.T.tolist()
    for i in range(len(d) - 1):
        f = lower[i] / d[i]
        d[i + 1] = d[i + 1] - f * upper[i]
        x[i + 1] = x[i + 1] - f * x[i]
        y[i + 1] = y[i + 1] - f * y[i]
        z[i + 1] = z[i + 1] - f * z[i]
    x[-1], y[-1], z[-1] = x[-1] / d[-1], y[-1] / d[-1], z[-1] / d[-1]
    u, p = upper[-1], d[-2]
    x[-2], y[-2], z[-2] = (x[-2] - u * x[-1]) / p, (y[-2] - u * y[-1]) / p, (z[-2] - u * z[-1]) / p
    for i in range(len(d) - 3, -1, -1):
        u, p = upper[i], d[i]
        x[i] = (x[i] - u * x[i + 1] - 0.0 * x[i + 2]) / p
        y[i] = (y[i] - u * y[i + 1] - 0.0 * y[i + 2]) / p
        z[i] = (z[i] - u * z[i + 1] - 0.0 * z[i + 2]) / p
    return np.array([x, y, z]).T


def _cubic(dt, c):
    """Segment polynomials c (..., 4, 3) at offsets dt (..., 1), by Horner's rule."""
    return c[..., 0, :] + dt * (c[..., 1, :] + dt * (c[..., 2, :] + dt * c[..., 3, :]))


def _cubic_velocity(dt, c):
    """First derivative of the segment polynomials c (..., 4, 3) at offsets dt (..., 1)."""
    return c[..., 1, :] + dt * (2.0 * c[..., 2, :] + dt * 3.0 * c[..., 3, :])


@dataclass(frozen=True, eq=False)
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
        t = _time_grid(self.knot_times, "knot times")
        if len(t) < 2:
            raise ValueError("need at least two knots")
        c = _as_array(self.coefficients, (len(t) - 1, 4, 3), "coefficients")
        object.__setattr__(self, "knot_times", t)
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def _checked(cls, knot_times, coefficients) -> "PositionSpline":
        """Wrap knots that already passed the checks above and are read-only,
        and a fresh coefficient array of the matching shape, without copying
        either. Only the coefficients' finiteness is checked: arithmetic on
        finite knots and points can still overflow."""
        if not np.isfinite(coefficients).all():
            raise ValueError("coefficients must be finite")
        coefficients.flags.writeable = False
        spline = object.__new__(cls)
        vars(spline).update(knot_times=knot_times, coefficients=coefficients)
        return spline

    @classmethod
    def fit(cls, times, points, end_velocities=None) -> "PositionSpline":
        """Interpolating cubic spline through (times, points).

        Natural ends (zero end curvature); ``end_velocities=(v0, v1)`` clamps
        the end slopes instead, which restores fourth-order accuracy at the
        ends for smooth data.
        """
        t = _time_grid(times, "times")
        y = _as_array(points, (len(t), 3), "points")
        if len(t) < 2:
            raise ValueError("need at least two waypoints")
        if end_velocities is not None:
            end_velocities = _as_array(end_velocities, (2, 3), "end_velocities")
        m = _cubic_moments(t, y, end_velocities)
        h = np.diff(t)[:, None]
        a0 = y[:-1]
        a1 = np.diff(y, axis=0) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
        a2 = m[:-1] / 2.0
        a3 = (m[1:] - m[:-1]) / (6.0 * h)
        return cls._checked(t, np.stack([a0, a1, a2, a3], axis=1))

    @property
    def domain(self) -> tuple:
        return float(self.knot_times[0]), float(self.knot_times[-1])

    def _locate(self, t) -> tuple:
        """Clamp t to the domain and find it on the knots; t must be finite.

        Returns (i, seg, dt, c): i is the index of the last knot at or
        before t, seg is i clamped to a segment, [0, n - 2], dt (..., 1) is
        t minus the start of seg and c holds the coefficients of seg.
        """
        _check_reals(t, "evaluation times")
        tt = np.asarray(t, dtype=float)
        if not np.isfinite(tt).all():
            raise ValueError("evaluation times must be finite")
        tt = _clamp(tt, *self.domain)
        i = np.searchsorted(self.knot_times, tt, side="right") - 1
        seg = _clamp(i, 0, len(self.knot_times) - 2)
        return i, seg, (tt - self.knot_times[seg])[..., None], self.coefficients[seg]

    def position(self, t):
        """Evaluate at scalar or array t (clamped to the domain)."""
        _, _, dt, c = self._locate(t)
        return _cubic(dt, c)

    def velocity(self, t):
        """First derivative at scalar or array t (clamped to the domain)."""
        _, _, dt, c = self._locate(t)
        return _cubic_velocity(dt, c)


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


def _sign_aligned(q: np.ndarray) -> np.ndarray:
    """A read-only copy of the wxyz rows ``q`` with consecutive dot products >= 0."""
    # row i is negated when an odd number of the consecutive dot products up
    # to it are negative
    flips = np.where(np.sum(q[:-1] * q[1:], axis=1) < 0.0, -1.0, 1.0)
    q = q * np.concatenate([[1.0], np.cumprod(flips)])[:, None]
    q.flags.writeable = False
    return q


@dataclass(frozen=True, eq=False)
class ContinuousTrajectory:
    """Evaluable trajectory on one knot grid, ``position.knot_times``.

    Position is the cubic ``position``; orientation is SLERP between the
    knots' ``wxyz`` rows, one per knot; the gripper holds each knot's 0/1
    value in ``grippers`` until the next knot. Construction checks the
    rows' unit norm to 1e-9 and stores them sign-aligned (consecutive dot
    products >= 0), so each segment interpolates along the shorter arc.
    """

    position: PositionSpline
    wxyz: np.ndarray  # (n_knots, 4), sign-aligned
    grippers: np.ndarray  # (n_knots,) of {0, 1}
    _fit_points = None  # not a field: set by _checked only

    def __post_init__(self):
        n = len(self.position.knot_times)
        q = _as_array(self.wxyz, (n, 4), "wxyz")
        if np.shape(self.grippers) != (n,):
            raise ValueError(f"need one gripper value for each of {n} knots")
        if not np.all(np.abs(np.linalg.norm(q, axis=1) - 1.0) <= 1e-9):
            raise ValueError("orientation knots must be unit quaternions")
        # the dataclass is frozen: write past __setattr__
        vars(self).update(wxyz=_sign_aligned(q), grippers=gripper_column(self.grippers))

    @classmethod
    def _checked(cls, position, wxyz, grippers, fit_points) -> "ContinuousTrajectory":
        """Wrap fresh columns whose rows already passed the checks above, one
        per knot of ``position``: unit wxyz rows (as :func:`unit_quaternions`
        returns them) and 0/1 int grippers. Only the sign alignment runs.
        ``fit_points``, kept as ``_fit_points``, are read-only points whose
        natural fit on ``position.knot_times[1:]`` is segments 1.., or None."""
        grippers.flags.writeable = False
        traj = object.__new__(cls)
        vars(traj).update(position=position, wxyz=_sign_aligned(wxyz), grippers=grippers,
                          _fit_points=fit_points)
        return traj

    @property
    def domain(self) -> tuple:
        return self.position.domain

    def sample(self, times) -> tuple:
        """Evaluate at a 1-D array of times, each clamped to the domain.

        Returns positions (n, 3), sign-canonical wxyz quaternions (n, 4),
        grippers (n,) and positional velocities (n, 3), from one knot
        lookup: the cubic, its derivative and the SLERP use the segment, the
        gripper the last knot at or before each time, so at the end of the
        domain it takes the last knot's value. The velocity is zero at
        times outside the domain, where the pose holds.
        """
        i, seg, dt, c = self.position._locate(times)
        knots = self.position.knot_times
        s = _clamp(dt[:, 0] / (knots[seg + 1] - knots[seg]), 0.0, 1.0)
        tt = np.asarray(times)
        outside = (tt < knots[0]) | (tt > knots[-1])
        return (_cubic(dt, c), _slerp_rows(self.wxyz[seg], self.wxyz[seg + 1], s),
                self.grippers[i], np.where(outside[:, None], 0.0, _cubic_velocity(dt, c)))


def fit(sparse: SparseTrajectory, end_velocities=None) -> ContinuousTrajectory:
    """Fit a continuous trajectory through sparse waypoints.

    Positions get an interpolating cubic spline (natural ends unless
    ``end_velocities`` clamps them), orientations a sign-aligned SLERP
    chain, and the gripper a zero-order hold that changes only at knot times.
    """
    if len(sparse) < 2:
        raise InsufficientDataError("need >= 2 waypoints to fit a trajectory")
    spline = PositionSpline.fit(sparse.times, sparse.positions, end_velocities)
    return ContinuousTrajectory(spline, eulers_to_quaternions(sparse.eulers), sparse.grippers)


def eval_trajectory(traj: ContinuousTrajectory, t: float) -> tuple:
    """One row of :meth:`ContinuousTrajectory.sample`: (position (3,), wxyz
    (4,), gripper) at time t, clamped to the domain."""
    pos, quats, grips, _ = traj.sample(np.array([t]))
    return pos[0], quats[0], grips[0]


def resample(traj: ContinuousTrajectory, rate: float) -> DenseTrajectory:
    """Sample the trajectory at a fixed rate, always including the final time.

    Samples sit at t0 + k/rate; the exact end of the domain replaces a
    coincident final grid point or is appended after it.
    """
    _check_positive("rate", rate)
    t0, t1 = traj.domain
    n_steps = int(math.floor((t1 - t0) * rate + 1e-9))
    times = t0 + np.arange(n_steps + 1) / rate
    if t1 - times[-1] > 1e-9 / rate:
        times = np.append(times, t1)
    else:
        times[-1] = t1
    positions, quats, grippers, _ = traj.sample(times)
    return DenseTrajectory(times, positions, quaternions_to_eulers(quats), grippers, Frame.WORLD)


def end_slope_estimates(times, positions) -> tuple:
    """Second-order one-sided end derivatives of densely sampled positions.

    Takes (n,) strictly increasing times and (n, 3) finite positions, n >= 3,
    and returns (v0, v1), the quadratic-fit velocity estimates at the first
    and last sample. Feeding these to a clamped fit removes the O(h^2)
    boundary error a natural spline incurs on curved data.
    """
    t = _time_grid(times, "times")
    if len(t) < 3:
        raise InsufficientDataError("need >= 3 samples to estimate end slopes")
    y = _as_array(positions, (len(t), 3), "positions")

    def lagrange_derivative(ts, ys, at):
        t0, t1, t2 = ts
        w0 = (2 * at - t1 - t2) / ((t0 - t1) * (t0 - t2))
        w1 = (2 * at - t0 - t2) / ((t1 - t0) * (t1 - t2))
        w2 = (2 * at - t0 - t1) / ((t2 - t0) * (t2 - t1))
        return w0 * ys[0] + w1 * ys[1] + w2 * ys[2]

    v0 = lagrange_derivative(t[:3], y[:3], t[0])
    v1 = lagrange_derivative(t[-3:], y[-3:], t[-1])
    return v0, v1


def reconstruction_error(dense_gt: DenseTrajectory, n_sub: int) -> tuple:
    """Max deviation of the keyframe -> sub-keyframe -> fit pipeline from dense truth.

    Takes the endpoints and the gripper toggles of the dense trajectory as
    keyframes, inserts ``n_sub`` equally-spaced samples per segment,
    refits, and measures the largest position deviation at every dense
    sample. The refit clamps the end slopes to derivative estimates from
    the dense data, so for smooth curves the error decays with the fourth
    power of the sub-keyframe spacing.

    Sub-keyframe poses snap to the nearest recorded sample, which adds a
    floor of (speed * sample spacing / 2) whenever the sub-keyframe grid
    does not land on sample times; use segment lengths divisible by
    ``n_sub - 1`` samples to measure pure interpolation error.

    Returns:
        (max_err, per_segment): the global maximum and the per-keyframe-
        segment maxima.
    """
    n_sub = _integral("samples per segment", n_sub)
    keys = select_keyframes(dense_gt, math.inf)
    for i0, i1 in zip(keys.indices, keys.indices[1:]):
        if i1 - i0 + 1 < 4 * n_sub:
            raise InsufficientDataError(
                f"segment [{i0}, {i1}] has {i1 - i0 + 1} samples, "
                f"need >= {4 * n_sub} for n_sub={n_sub}"
            )
    sparse = insert_sub_keyframes(dense_gt, keys, n_sub)
    v0, v1 = end_slope_estimates(dense_gt.times, dense_gt.positions)
    cont = fit(sparse, end_velocities=(v0, v1))
    errors = np.linalg.norm(
        cont.position.position(dense_gt.times) - dense_gt.positions, axis=1
    )
    per_segment = np.array([
        errors[i0 : i1 + 1].max() for i0, i1 in zip(keys.indices, keys.indices[1:])
    ])
    return float(errors.max()), per_segment
