"""Closed-loop replan merging.

Aligns an incoming waypoint list to the executing pose (nearest pending
waypoint, directional keep test), discards stale waypoints, and blends
the survivors into the active trajectory with a cubic Hermite transition
segment that matches position and velocity at both junctions.

A ControllerState is a single-owner state machine: exactly one agent
advances it through controller_step; replan payloads arrive as immutable
values and are merged synchronously inside a step.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyPlanError, UndefinedDirectionError
from .geometry import (
    _as_vector,
    _check_positive,
    eulers_to_quaternions,
    gripper_column,
    unit_quaternions,
)
from .keyframes import SparseTrajectory
from .splines import ContinuousTrajectory, PositionSpline

# Not called here since ticks are sampled in blocks and the state keeps its
# quaternion, but kept bound: the stage tracer in bench/tracing.py wraps
# them where this module looks them up.
from .geometry import euler_to_quaternion, quaternion_to_euler  # noqa: F401
from .splines import eval_trajectory  # noqa: F401

__all__ = [
    "PendingPlan",
    "ControllerState",
    "ReplanEvent",
    "nearest_pending_index",
    "forward_direction",
    "keep_test",
    "controller_step",
]


@dataclass(frozen=True, eq=False)
class PendingPlan:
    """Not-yet-executed waypoints in the world frame.

    ``orientations`` holds one wxyz row per waypoint; construction checks
    the rows with :func:`unit_quaternions` (finite, norm within 1e-6 of 1)
    and stores them renormalized with w >= 0. ``times`` is an optional
    execution schedule; when present the merge preserves it, otherwise
    waypoints are re-timed at a fixed segment duration.
    """

    positions: np.ndarray  # (n, 3)
    orientations: np.ndarray  # (n, 4) wxyz
    grippers: np.ndarray  # (n,) of {0, 1}
    times: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(pos)):
            raise ValueError("plan positions must be finite")
        grip = gripper_column(self.grippers)
        quats = unit_quaternions(self.orientations)
        n = len(pos)
        if len(quats) != n or len(grip) != n:
            raise ValueError("plan field lengths do not match")
        times = self.times
        if times is not None:
            times = np.asarray(times, dtype=float).reshape(-1)
            if len(times) != n:
                raise ValueError("times length does not match waypoints")
            if not np.all(np.isfinite(times)):
                raise ValueError("plan times must be finite")
            if n > 1 and np.any(np.diff(times) <= 0):
                raise ValueError("plan times must be strictly increasing")
            times.flags.writeable = False
        pos.flags.writeable = quats.flags.writeable = False
        # the dataclass is frozen: write past __setattr__
        vars(self).update(positions=pos, orientations=quats, grippers=grip, times=times)

    @classmethod
    def _checked(cls, positions, orientations, grippers, times) -> "PendingPlan":
        """Wrap columns that already passed the checks above and are read-only
        (slices of a checked plan), without checking them again."""
        plan = object.__new__(cls)
        vars(plan).update(positions=positions, orientations=orientations, grippers=grippers,
                          times=times)
        return plan

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def from_sparse(cls, sparse: SparseTrajectory) -> "PendingPlan":
        return cls(sparse.positions, eulers_to_quaternions(sparse.eulers), sparse.grippers,
                   sparse.times)

    def tail(self, start: int) -> "PendingPlan":
        """The waypoints from ``start`` on, sharing this plan's read-only columns."""
        return PendingPlan._checked(
            self.positions[start:],
            self.orientations[start:],
            self.grippers[start:],
            None if self.times is None else self.times[start:],
        )


@dataclass(frozen=True, eq=False)
class ControllerState:
    """Executing-controller snapshot advanced exclusively by controller_step.

    Construction checks the current position and wxyz quaternion (finite,
    unit as in :func:`unit_quaternions`) and stores them read-only, w >= 0.
    ``replan_interval``, ``segment_duration`` and ``transition_duration``
    (when given) must be finite and positive.
    """

    current_time: float
    current_position: np.ndarray  # (3,)
    current_wxyz: np.ndarray  # (4,)
    current_velocity: np.ndarray  # (3,)
    active: ContinuousTrajectory
    pending: PendingPlan
    replan_interval: float
    transition_duration: float | None = None  # defaults to replan_interval
    segment_duration: float = 1.0  # re-timing spacing for schedule-free plans

    def __post_init__(self):
        _check_positive("replan_interval", self.replan_interval)
        _check_positive("segment_duration", self.segment_duration)
        if self.transition_duration is not None:
            _check_positive("transition_duration", self.transition_duration)
        pos = _as_vector(self.current_position, 3, "current_position")
        quat = unit_quaternions([self.current_wxyz])[0]
        vel = np.asarray(self.current_velocity, dtype=float).reshape(3)
        quat.flags.writeable = vel.flags.writeable = False
        vars(self).update(current_position=pos, current_wxyz=quat, current_velocity=vel)
        if self.current_time < self.active.domain[0] - 1e-9:
            raise ValueError("current_time precedes the active trajectory domain")


def nearest_pending_index(current_pos, pending: PendingPlan) -> int:
    """Index of the pending waypoint closest to the current position.

    Ties break toward the lowest index.
    """
    if len(pending) == 0:
        raise EmptyPlanError("no pending waypoints")
    p = np.asarray(current_pos, dtype=float).reshape(3)
    dists = np.linalg.norm(pending.positions - p, axis=1)
    return int(np.argmin(dists))


def forward_direction(pending: PendingPlan, k_star: int) -> np.ndarray:
    """Unit preferred-motion direction at waypoint k_star.

    Forward difference toward the next waypoint, or backward difference
    from the previous one when k_star is last.
    """
    n = len(pending)
    if n < 2:
        raise UndefinedDirectionError("forward direction needs >= 2 waypoints")
    if not 0 <= k_star < n:
        raise ValueError(f"k_star {k_star} out of range")
    if k_star < n - 1:
        diff = pending.positions[k_star + 1] - pending.positions[k_star]
    else:
        diff = pending.positions[k_star] - pending.positions[k_star - 1]
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        raise UndefinedDirectionError("coincident waypoints give no direction")
    return diff / norm


def keep_test(current_pos, waypoint, forward_dir) -> tuple:
    """Directional consistency margin gamma = (waypoint - current) . dir.

    The waypoint is kept iff gamma > 0 (strictly); gamma == 0 drops it.
    """
    d = np.asarray(forward_dir, dtype=float).reshape(3)
    if abs(np.linalg.norm(d) - 1.0) > 1e-6:
        raise ValueError("forward_dir must be a unit vector")
    gamma = float(np.dot(np.asarray(waypoint, dtype=float).reshape(3)
                         - np.asarray(current_pos, dtype=float).reshape(3), d))
    return gamma, gamma > 0.0


@dataclass(frozen=True)
class ReplanEvent:
    """One merge decision: when it happened and what the keep test saw."""

    time: float
    dropped_count: int
    gamma_at_kstar: float  # nan when the keep was unconditional
    kstar: int
    kstar_dropped: bool


def _keep_from(current_pos, pending: PendingPlan) -> tuple:
    """(index of the first surviving waypoint, k*, gamma at k*) of a refresh."""
    if len(pending) == 0:
        raise EmptyPlanError("cannot refresh an empty plan")
    if len(pending) == 1:
        # single goal: keep unconditionally, direction is undefined
        return 0, 0, math.nan
    k = nearest_pending_index(current_pos, pending)
    direction = forward_direction(pending, k)
    gamma, keep = keep_test(current_pos, pending.positions[k], direction)
    return (k if keep else k + 1), k, gamma


def _hermite_coeffs(p0, v0, p1, v1, duration: float) -> np.ndarray:
    """Local cubic coefficients matching position and velocity at both ends."""
    d = duration
    a0 = p0
    a1 = v0
    a2 = 3.0 * (p1 - p0) / d**2 - (2.0 * v0 + v1) / d
    a3 = 2.0 * (p0 - p1) / d**3 + (v0 + v1) / d**2
    return np.stack([a0, a1, a2, a3])


def _plan_knots(state: ControllerState, plan: PendingPlan, transition_duration: float) -> np.ndarray:
    """Knot times for the refreshed plan, preserving its schedule when it
    still lies ahead and re-timing otherwise."""
    t_now = state.current_time
    if plan.times is not None:
        if plan.times[0] > t_now + 1e-9:
            return plan.times.copy()
        # schedule already overrun: shift it so the first knot lands at
        # the end of the transition window
        return plan.times + (t_now + transition_duration - plan.times[0])
    return t_now + transition_duration + np.arange(len(plan)) * state.segment_duration


def _merge_refreshed(state: ControllerState, plan: PendingPlan) -> ContinuousTrajectory:
    """Blend a refreshed (non-empty) plan into the active trajectory."""
    transition_duration = (state.replan_interval if state.transition_duration is None
                           else state.transition_duration)
    t_now = state.current_time
    knots_rest = _plan_knots(state, plan, transition_duration)
    t_entry = float(knots_rest[0])

    if len(plan) >= 2:
        remainder = PositionSpline.fit(knots_rest, plan.positions, bc_type="natural")
        v_entry = remainder.velocity(t_entry)
        rest_coeffs = remainder.coefficients
    else:
        # lone goal: no plan velocity exists, carry the active trajectory's
        # velocity at the entry time (zero past its end) so an unchanged
        # plan tail keeps the executing profile
        v_entry = state.active.velocity(t_entry)
        rest_coeffs = np.empty((0, 4, 3))

    transition = _hermite_coeffs(state.current_position, state.current_velocity,
                                 plan.positions[0], v_entry, t_entry - t_now)[None]  # one segment
    knots = np.concatenate([[t_now], knots_rest])
    spline = PositionSpline(knots, np.concatenate([transition, rest_coeffs], axis=0))
    return ContinuousTrajectory(spline, np.vstack([state.current_wxyz, plan.orientations]),
                                np.concatenate([[state.active.gripper(t_now)], plan.grippers]))


def controller_step(state: ControllerState, times,
                    replan_source: PendingPlan | None = None) -> tuple:
    """Merge an optional replan at current_time, then command the ticks at ``times``.

    ``times`` is a non-empty 1-D array of finite, strictly increasing tick
    times after current_time; all of them are sampled from the active
    trajectory in one call. Returns (new_state, (times, positions, wxyz,
    grippers), event), with one sign-canonical wxyz row per tick.
    new_state holds the last tick's time, position, quaternion and
    velocity, and event is the :class:`ReplanEvent` of a processed replan,
    stamped with the merge time (the incoming current_time), or None.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) == 0 or not np.all(np.isfinite(t)):
        raise ValueError("times must be a non-empty 1-D array of finite values")
    if t[0] <= state.current_time or np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing and after current_time")
    event = None
    active, pending = state.active, state.pending
    if replan_source is not None and len(replan_source) == 0:
        # planner reports nothing left: plan complete, keep executing
        pending = replan_source
    elif replan_source is not None:
        start, k, gamma = _keep_from(state.current_position, replan_source)
        event = ReplanEvent(state.current_time, start, gamma, k, start > k)
        pending = replan_source.tail(start)
        if len(pending) > 0:
            active = _merge_refreshed(state, pending)

    pos, quats, grip = active.sample(t)
    t_last = float(t[-1])
    new_state = replace(state, current_time=t_last, current_position=pos[-1],
                        current_wxyz=quats[-1], current_velocity=active.velocity(t_last),
                        active=active, pending=pending)
    return new_state, (t, pos, quats, grip), event
