"""Closed-loop replan merging.

Aligns an incoming waypoint list to the executing pose (nearest pending
waypoint, directional keep test), discards stale waypoints, and blends
the survivors into the active trajectory with a cubic Hermite transition
segment that matches position and velocity at both junctions.

A ControllerState is a single-owner state machine: exactly one agent
advances it through controller_step; replan payloads arrive as immutable
values and are merged synchronously inside a step, whose ReplanEvent
reports the keep decision.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedDirectionError
from .geometry import (
    _as_array,
    _check_positive,
    _real,
    _time_grid,
    eulers_to_quaternions,
    gripper_column,
    unit_quaternions,
)
from .keyframes import SparseTrajectory
from .splines import ContinuousTrajectory, PositionSpline, _cubic_velocity

# Not called here since ticks are sampled in blocks and the state keeps its
# quaternion, but kept bound: the stage tracer in bench/tracing.py wraps
# them where this module looks them up.
from .geometry import euler_to_quaternion, quaternion_to_euler  # noqa: F401
from .splines import eval_trajectory  # noqa: F401

__all__ = [
    "PendingPlan",
    "ControllerState",
    "ReplanEvent",
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
        pos = _as_array(self.positions, (None, 3), "plan positions")
        grip = gripper_column(self.grippers)
        quats = unit_quaternions(self.orientations)
        n = len(pos)
        if len(quats) != n or len(grip) != n:
            raise ValueError("plan field lengths do not match")
        times = self.times
        if times is not None:
            times = _time_grid(times, "plan times")
            if len(times) != n:
                raise ValueError("times length does not match waypoints")
        quats.flags.writeable = False
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

    The current fields are the last commanded tick. Construction checks
    ``current_time`` (a finite real, not before the active trajectory's
    domain), the position and velocity (finite (3,) rows), wxyz quaternion
    (unit as in :func:`unit_quaternions`, stored with w >= 0) and gripper
    (as in :func:`gripper_column`, stored as an int), and stores read-only
    copies of the rows.
    ``replan_interval`` (also the length of the transition segment a merge
    inserts) and ``segment_duration`` must be finite and positive.
    """

    current_time: float
    current_position: np.ndarray  # (3,)
    current_wxyz: np.ndarray  # (4,)
    current_velocity: np.ndarray  # (3,)
    current_gripper: int  # 0 or 1
    active: ContinuousTrajectory
    replan_interval: float
    segment_duration: float = 1.0  # re-timing spacing for schedule-free plans

    def __post_init__(self):
        _check_positive("replan_interval", self.replan_interval)
        _check_positive("segment_duration", self.segment_duration)
        t = _real("current_time", self.current_time)
        pos = _as_array(self.current_position, (3,), "current_position")
        quat = unit_quaternions([self.current_wxyz])[0]
        vel = _as_array(self.current_velocity, (3,), "current_velocity")
        grip = int(gripper_column([self.current_gripper])[0])
        quat.flags.writeable = False
        vars(self).update(current_time=t, current_position=pos, current_wxyz=quat,
                          current_velocity=vel, current_gripper=grip)
        if t < self.active.domain[0] - 1e-9:
            raise ValueError("current_time precedes the active trajectory domain")

    @classmethod
    def _checked(cls, current_time, current_position, current_wxyz, current_velocity,
                 current_gripper, active, replan_interval, segment_duration) -> "ControllerState":
        """Wrap fields whose checks above the caller has proven: a float time
        in ``active``'s domain, one sampled tick's position, wxyz, velocity
        and 0/1 gripper, and the durations of a checked state. The position
        and quaternion rows are copied, since they are views of blocks the
        caller hands out; the position and velocity are checked finite,
        since sampling finite coefficients can still overflow."""
        pos, quat = current_position.copy(), current_wxyz.copy()
        if not np.isfinite(pos).all():
            raise ValueError("current_position must be finite")
        if not np.isfinite(current_velocity).all():
            raise ValueError("current_velocity must be finite")
        for row in (pos, quat, current_velocity):
            row.flags.writeable = False
        state = object.__new__(cls)
        vars(state).update(current_time=current_time, current_position=pos, current_wxyz=quat,
                           current_velocity=current_velocity,
                           current_gripper=int(current_gripper), active=active,
                           replan_interval=replan_interval, segment_duration=segment_duration)
        return state


@dataclass(frozen=True)
class ReplanEvent:
    """One merge decision: when it happened and what the keep test in
    controller_step saw; ``dropped_count`` is k*, or k* + 1 if k* was dropped."""

    time: float
    dropped_count: int
    gamma_at_kstar: float  # nan when the keep was unconditional
    kstar: int
    kstar_dropped: bool


def _keep_from(current_pos: np.ndarray, pending: PendingPlan) -> tuple:
    """(first surviving index, k*, gamma at k*) of a non-empty plan: k* is the nearest
    waypoint (lowest index on ties), kept iff gamma = (p[k*] - current) . d > 0 with d
    the unit forward (at the last: backward) difference. A lone goal is kept, gamma nan."""
    positions = pending.positions
    n = len(positions)
    if n == 1:
        return 0, 0, math.nan
    k = int(np.argmin(np.linalg.norm(positions - current_pos, axis=1)))
    diff = positions[k + 1] - positions[k] if k < n - 1 else positions[k] - positions[k - 1]
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        raise UndefinedDirectionError("coincident waypoints give no direction")
    gamma = float(np.dot(positions[k] - current_pos, diff / norm))
    return (k if gamma > 0.0 else k + 1), k, gamma


def _hermite_coeffs(p0, v0, p1, v1, duration: float) -> np.ndarray:
    """Local cubic coefficients matching position and velocity at both ends."""
    d = duration
    a0 = p0
    a1 = v0
    a2 = 3.0 * (p1 - p0) / d**2 - (2.0 * v0 + v1) / d
    a3 = 2.0 * (p0 - p1) / d**3 + (v0 + v1) / d**2
    return np.stack([a0, a1, a2, a3])


def _plan_knots(state: ControllerState, plan: PendingPlan) -> np.ndarray:
    """Knot times of the merged trajectory: current_time, then the refreshed
    plan's knots, preserving its schedule when it still lies ahead and
    re-timing otherwise; the transition spans ``replan_interval``.

    A schedule that lies ahead is already checked; a shifted or re-timed one
    is checked here, since a large offset can round adjacent knots together.
    """
    t_now, transition = state.current_time, state.replan_interval
    if plan.times is not None and plan.times[0] > t_now + 1e-9:
        knots = np.concatenate([[t_now], plan.times])
        knots.flags.writeable = False
        return knots
    if plan.times is not None:
        # schedule already overrun: shift it so the first knot lands at
        # the end of the transition window
        rest = plan.times + (t_now + transition - plan.times[0])
    else:
        rest = t_now + transition + np.arange(len(plan)) * state.segment_duration
    return _time_grid(np.concatenate([[t_now], rest]), "knot times")


def _merge_refreshed(state: ControllerState, plan: PendingPlan) -> ContinuousTrajectory:
    """Blend a refreshed (non-empty) plan into the active trajectory.

    When the active trajectory came from a merge of a plan with these
    positions and has these knots after its transition, its segments 1..
    are the natural fit of the plan, so they are reused, not refit.
    """
    t_now = state.current_time
    knots = _plan_knots(state, plan)
    t_entry = float(knots[1])
    held, fit_points = state.active.position, state.active._fit_points

    if len(plan) == 1:
        rest_coeffs = np.empty((0, 4, 3))
    elif (fit_points is not None and np.array_equal(fit_points, plan.positions)
            and np.array_equal(held.knot_times[1:], knots[1:])):
        rest_coeffs = held.coefficients[1:]
    else:
        rest_coeffs = PositionSpline.fit(knots[1:], plan.positions).coefficients
    # t_entry is the first knot of rest_coeffs, at dt = 0, where the derivative's 0 * (...)
    # still turns a -0.0 slope into 0.0. A lone goal has no plan velocity: it carries the
    # active trajectory's (zero past its end), so an unchanged plan tail keeps the profile.
    v_entry = (_cubic_velocity(0.0, rest_coeffs[0]) if len(plan) > 1
               else state.active.sample(knots[1:2])[3][0])

    transition = _hermite_coeffs(state.current_position, state.current_velocity,
                                 plan.positions[0], v_entry, t_entry - t_now)[None]  # one segment
    spline = PositionSpline._checked(knots, np.concatenate([transition, rest_coeffs], axis=0))
    return ContinuousTrajectory._checked(
        spline, np.vstack([state.current_wxyz, plan.orientations]),
        np.concatenate([[state.current_gripper], plan.grippers]),
        plan.positions if len(plan) > 1 else None)


def controller_step(state: ControllerState, times,
                    replan_source: PendingPlan | None = None) -> tuple:
    """Merge an optional replan at current_time, then command the ticks at ``times``.

    ``times`` is a non-empty 1-D array of finite, strictly increasing tick
    times after current_time; all of them are sampled from the active
    trajectory in one call. Returns (new_state, (times, positions, wxyz,
    grippers), event), with one sign-canonical wxyz row per tick.
    new_state holds the last tick's time, position, quaternion, velocity
    and gripper, and event is the :class:`ReplanEvent` of a processed replan,
    stamped with the merge time (the incoming current_time), or None. The
    waypoints a replan merges are ``replan_source.tail(event.dropped_count)``.
    """
    t = _time_grid(times, "times")
    if len(t) == 0 or t[0] <= state.current_time:
        raise ValueError("times must be non-empty and after current_time")
    event, active = None, state.active
    # an empty plan means the planner reports nothing left: keep executing
    if replan_source is not None and len(replan_source) > 0:
        start, k, gamma = _keep_from(state.current_position, replan_source)
        event = ReplanEvent(state.current_time, start, gamma, k, start > k)
        if start < len(replan_source):
            active = _merge_refreshed(state, replan_source.tail(start))

    pos, quats, grip, vel = active.sample(t)
    new_state = ControllerState._checked(float(t[-1]), pos[-1], quats[-1], vel[-1], grip[-1],
                                         active, state.replan_interval, state.segment_duration)
    return new_state, (t, pos, quats, grip), event
