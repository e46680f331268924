"""Kinematic closed-loop simulation harness.

Drives the replan controller against a perfect-tracking point
end-effector with an oracle planner and a perturbation schedule, logging
the commanded stream and every replan event. Deterministic: identical
scenarios produce bit-identical logs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .geometry import DenseTrajectory, Frame, Pose, quaternion_to_euler
from .keyframes import SparseTrajectory
from .replan import ControllerState, PendingPlan, controller_step
from .splines import eval_trajectory, fit

__all__ = [
    "Perturbation",
    "Scenario",
    "ReplanEvent",
    "ExecutionLog",
    "oracle_planner",
    "run",
    "smoothness_check",
]


@dataclass(frozen=True)
class Perturbation:
    """Target drift: from ``time`` on, remaining waypoints shift by ``offset``."""

    time: float
    offset: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offset, dtype=float).reshape(3)
        off.flags.writeable = False
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "offset", off)


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: plan, drift schedule, replan cadence, duration."""

    initial_plan: SparseTrajectory  # world frame
    perturbations: tuple
    replan_interval: float
    control_rate: float
    duration: float
    replan_enabled: bool = True
    delayed_planner: bool = False  # plans apply one interval after request

    def __post_init__(self):
        if self.control_rate <= 0:
            raise ValueError("control_rate must be positive")
        if self.replan_interval <= 0:
            raise ValueError("replan_interval must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.initial_plan.frame is not Frame.WORLD:
            raise ValueError("scenario plans must be in the world frame")
        perts = tuple(self.perturbations)
        for p in perts:
            if not 0.0 <= p.time <= self.duration:
                raise ValueError(f"perturbation time {p.time} outside [0, {self.duration}]")
        object.__setattr__(self, "perturbations", perts)


@dataclass(frozen=True)
class ReplanEvent:
    """One merge decision: when it happened and what the keep test saw."""

    time: float
    dropped_count: int
    gamma_at_kstar: float  # nan when the keep was unconditional
    kstar: int
    kstar_dropped: bool


@dataclass(frozen=True)
class ExecutionLog:
    commanded: DenseTrajectory
    replan_events: tuple
    final_error: float


def _active_offset(scenario: Scenario, t: float) -> np.ndarray:
    total = np.zeros(3)
    for p in scenario.perturbations:
        if p.time <= t:
            total = total + p.offset
    return total


def oracle_planner(scenario: Scenario, t: float) -> PendingPlan:
    """Ground-truth stand-in for model inference.

    Returns the initial plan's strictly-future waypoints (schedule
    preserved) with every perturbation active at time t added to each of
    them. Deterministic in (scenario, t).
    """
    plan = PendingPlan.from_sparse(scenario.initial_plan)
    start = int(np.searchsorted(plan.times, t, side="right"))
    offset = _active_offset(scenario, t)
    tail = plan.tail(start)
    return PendingPlan(tail.positions + offset, tail.orientations, tail.grippers, tail.times)


def run(scenario: Scenario) -> ExecutionLog:
    """Execute the scenario and log commanded samples plus replan events.

    The follower is kinematic (tracks the commanded sample exactly). The
    loop steps at the control rate, requests a fresh plan every
    replan_interval, and stops at the scenario duration or when the
    active trajectory is exhausted, whichever comes first.
    """
    active = fit(scenario.initial_plan)
    t0, t_end = active.domain
    dt = 1.0 / scenario.control_rate

    pos0, quat0, grip0 = eval_trajectory(active, t0)
    state = ControllerState(
        current_time=t0,
        current_pose=Pose(pos0, quaternion_to_euler(quat0)),
        current_velocity=active.velocity(t0),
        active=active,
        pending=PendingPlan.from_sparse(scenario.initial_plan),
        replan_interval=scenario.replan_interval,
    )

    times, positions, eulers, grippers = [t0], [pos0], [state.current_pose.euler_xyz], [grip0]
    events = []
    pending_delayed: PendingPlan | None = None
    replan_tick = 1
    stop_time = min(t0 + scenario.duration, t_end)

    k = 1
    while True:
        # step times computed multiplicatively so replan requests land on
        # the exact waypoint/tick grid instead of drifting by accumulation
        t_next = t0 + k * dt
        if t_next > stop_time + 1e-9:
            break
        replan_source = None
        next_replan = t0 + replan_tick * scenario.replan_interval
        if scenario.replan_enabled and state.current_time >= next_replan - 1e-9:
            requested = oracle_planner(scenario, state.current_time)
            if scenario.delayed_planner:
                replan_source, pending_delayed = pending_delayed, requested
            else:
                replan_source = requested
            replan_tick += 1
        merge_time = state.current_time
        state, commanded, diag = controller_step(state, t_next - state.current_time,
                                                 replan_source)
        if diag is not None:
            events.append(ReplanEvent(merge_time, diag.dropped_count, diag.gamma,
                                      diag.k_star, diag.k_star_dropped))
        times.append(commanded.t)
        positions.append(commanded.pose.position)
        eulers.append(commanded.pose.euler_xyz)
        grippers.append(commanded.gripper)
        k += 1

    commanded_traj = DenseTrajectory(times, positions, eulers, grippers, Frame.WORLD)
    target = scenario.initial_plan.positions[-1] + _active_offset(scenario, times[-1])
    final_error = float(np.linalg.norm(commanded_traj.positions[-1] - target))
    return ExecutionLog(commanded_traj, tuple(events), final_error)


def smoothness_check(log: ExecutionLog, v_max: float, a_max: float) -> tuple:
    """Verify finite-difference speed and acceleration bounds on the log.

    Returns (passed, first_violation_time); the timestamp is None when
    the log is within bounds everywhere, including across replan merges.
    """
    traj = log.commanded
    if len(traj) < 3:
        raise InsufficientDataError("smoothness check needs >= 3 samples")
    t = traj.times
    p = traj.positions
    dts = np.diff(t)
    vel = np.diff(p, axis=0) / dts[:, None]
    speeds = np.linalg.norm(vel, axis=1)
    accels = np.linalg.norm(np.diff(vel, axis=0) / (0.5 * (dts[:-1] + dts[1:]))[:, None], axis=1)

    violations = []
    for i, s in enumerate(speeds):
        if s > v_max:
            violations.append(t[i + 1])
    for i, a in enumerate(accels):
        if a > a_max:
            violations.append(t[i + 1])
    if violations:
        return False, float(min(violations))
    return True, None
