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
from .geometry import Pose, TimedSample, euler_to_quaternion, quaternion_to_euler
from .keyframes import SparseTrajectory
from .splines import (
    ContinuousTrajectory,
    OrientationTrack,
    PositionSpline,
    eval_trajectory,
)

__all__ = [
    "PendingPlan",
    "ControllerState",
    "nearest_pending_index",
    "forward_direction",
    "keep_test",
    "refresh_pending",
    "merge_replan",
    "controller_step",
]


@dataclass(frozen=True)
class PendingPlan:
    """Not-yet-executed waypoints in the world frame.

    ``times`` is an optional execution schedule; when present the merge
    preserves it, otherwise waypoints are re-timed at a fixed segment
    duration.
    """

    positions: np.ndarray  # (n, 3)
    orientations: tuple  # UnitQuaternion per waypoint
    grippers: np.ndarray  # (n,) of {0, 1}
    times: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        grip = np.asarray(self.grippers, dtype=int).reshape(-1)
        quats = tuple(self.orientations)
        n = len(pos)
        if len(quats) != n or len(grip) != n:
            raise ValueError("plan field lengths do not match")
        if not set(np.unique(grip)) <= {0, 1}:
            raise ValueError("gripper values must be 0 or 1")
        times = self.times
        if times is not None:
            times = np.asarray(times, dtype=float).reshape(-1)
            if len(times) != n:
                raise ValueError("times length does not match waypoints")
            if n > 1 and np.any(np.diff(times) <= 0):
                raise ValueError("plan times must be strictly increasing")
            times.flags.writeable = False
        pos.flags.writeable = False
        grip.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "orientations", quats)
        object.__setattr__(self, "grippers", grip)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def from_sparse(cls, sparse: SparseTrajectory) -> "PendingPlan":
        quats = tuple(euler_to_quaternion(e) for e in sparse.eulers)
        return cls(sparse.positions, quats, sparse.grippers, sparse.times)

    def tail(self, start: int) -> "PendingPlan":
        return PendingPlan(
            self.positions[start:],
            self.orientations[start:],
            self.grippers[start:],
            None if self.times is None else self.times[start:],
        )


@dataclass(frozen=True)
class ControllerState:
    """Executing-controller snapshot advanced exclusively by controller_step."""

    current_time: float
    current_pose: Pose
    current_velocity: np.ndarray
    active: ContinuousTrajectory
    pending: PendingPlan
    replan_interval: float
    transition_duration: float | None = None  # defaults to replan_interval
    segment_duration: float = 1.0  # re-timing spacing for schedule-free plans

    def __post_init__(self):
        if self.replan_interval <= 0:
            raise ValueError("replan_interval must be positive")
        vel = np.asarray(self.current_velocity, dtype=float).reshape(3)
        vel.flags.writeable = False
        object.__setattr__(self, "current_velocity", vel)
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
class RefreshDiagnostics:
    """What a pending-set refresh decided, for logging and re-checking."""

    k_star: int
    gamma: float  # nan when the keep was unconditional (single waypoint)
    dropped_count: int
    k_star_dropped: bool


def _refresh(current_pos, pending: PendingPlan) -> tuple:
    if len(pending) == 0:
        raise EmptyPlanError("cannot refresh an empty plan")
    if len(pending) == 1:
        # single goal: keep unconditionally, direction is undefined
        return pending, RefreshDiagnostics(0, math.nan, 0, False)
    k = nearest_pending_index(current_pos, pending)
    direction = forward_direction(pending, k)
    gamma, keep = keep_test(current_pos, pending.positions[k], direction)
    start = k if keep else k + 1
    return pending.tail(start), RefreshDiagnostics(k, gamma, start, not keep)


def refresh_pending(current_pos, pending: PendingPlan) -> PendingPlan:
    """Drop waypoints already passed: everything before the nearest one,
    plus the nearest itself when it fails the keep test.

    Ordering of survivors is preserved; the result may be empty when the
    plan is complete.
    """
    refreshed, _ = _refresh(current_pos, pending)
    return refreshed


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
    transition_duration = state.transition_duration or state.replan_interval
    t_now = state.current_time
    p_now = state.current_pose.position
    v_now = state.current_velocity
    q_now = euler_to_quaternion(state.current_pose.euler_xyz)
    g_now = state.active.gripper(t_now)

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

    transition = _hermite_coeffs(p_now, v_now, plan.positions[0], v_entry,
                                 t_entry - t_now)[None]  # one segment
    spline = PositionSpline(
        np.concatenate([[t_now], knots_rest]),
        np.concatenate([transition, rest_coeffs], axis=0),
    )
    track = OrientationTrack.from_quaternions(
        np.concatenate([[t_now], knots_rest]), (q_now, *plan.orientations)
    )
    gripper_values = np.concatenate([[g_now], plan.grippers])
    return ContinuousTrajectory(spline, track,
                                np.concatenate([[t_now], knots_rest]), gripper_values)


def merge_replan(state: ControllerState, new_waypoints: PendingPlan,
                 transition_duration: float | None = None) -> ContinuousTrajectory | None:
    """Merge a freshly inferred plan into the executing trajectory.

    The incoming waypoints are refreshed against the current position;
    a cubic Hermite transition then connects the current position and
    velocity to the first surviving waypoint (entering with the refitted
    remainder's initial velocity), and the remainder of the old
    trajectory is discarded. Returns None when the refreshed plan is
    empty, signaling plan completion.
    """
    if transition_duration is not None and transition_duration <= 0:
        raise ValueError("transition_duration must be positive")
    refreshed, _ = _refresh(state.current_pose.position, new_waypoints)
    if len(refreshed) == 0:
        return None
    if transition_duration is not None:
        state = replace(state, transition_duration=transition_duration)
    return _merge_refreshed(state, refreshed)


def controller_step(state: ControllerState, dt: float,
                    replan_source: PendingPlan | None = None) -> tuple:
    """Advance the controller by dt, optionally merging a replan first.

    Returns (new_state, commanded_sample, diagnostics) where diagnostics
    is a :class:`RefreshDiagnostics` when a replan was processed and None
    otherwise.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    diagnostics = None
    if replan_source is not None and len(replan_source) == 0:
        # planner reports nothing left: plan complete, keep executing
        state = replace(state, pending=replan_source)
    elif replan_source is not None:
        refreshed, diagnostics = _refresh(state.current_pose.position, replan_source)
        if len(refreshed) > 0:
            state = replace(state, active=_merge_refreshed(state, refreshed),
                            pending=refreshed)
        else:
            state = replace(state, pending=refreshed)

    t_next = state.current_time + dt
    pos, quat, grip = eval_trajectory(state.active, t_next)
    pose = Pose(pos, quaternion_to_euler(quat))
    commanded = TimedSample(float(t_next), pose, int(grip))
    new_state = replace(
        state,
        current_time=t_next,
        current_pose=pose,
        current_velocity=state.active.velocity(t_next),
    )
    return new_state, commanded, diagnostics
