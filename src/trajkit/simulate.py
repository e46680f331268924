"""Kinematic closed-loop simulation harness.

Drives the replan controller against a perfect-tracking point
end-effector with an oracle planner and a perturbation schedule, logging
the commanded stream and every replan event. Deterministic: identical
scenarios produce bit-identical logs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientDataError
from .geometry import (
    DenseTrajectory,
    Frame,
    _as_array,
    _check_positive,
    _real,
    quaternions_to_eulers,
)
from .keyframes import SparseTrajectory
from .replan import ControllerState, PendingPlan, controller_step
from .splines import fit

# Not called here since the log is converted once per run and the first tick is sampled
# as a block, but kept bound: the stage tracer in bench/tracing.py wraps them here.
from .geometry import quaternion_to_euler  # noqa: F401
from .splines import eval_trajectory  # noqa: F401

__all__ = [
    "Perturbation",
    "Scenario",
    "ExecutionLog",
    "oracle_planner",
    "run",
    "smoothness_check",
]


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Target drift: from ``time`` on, remaining waypoints shift by ``offset``."""

    time: float
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "time", _real("perturbation time", self.time))
        object.__setattr__(self, "offset", _as_array(self.offset, (3,), "perturbation offset"))


@dataclass(frozen=True, eq=False)
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
        _check_positive("control_rate", self.control_rate)
        _check_positive("replan_interval", self.replan_interval)
        _check_positive("duration", self.duration)
        if self.initial_plan.frame is not Frame.WORLD:
            raise ValueError("scenario plans must be in the world frame")
        perts = tuple(self.perturbations)
        for p in perts:
            if not 0.0 <= p.time <= self.duration:
                raise ValueError(f"perturbation time {p.time} outside [0, {self.duration}]")
        object.__setattr__(self, "perturbations", perts)

    @cached_property
    def base_plan(self) -> PendingPlan:
        """The initial plan as pending waypoints, converted once per scenario."""
        return PendingPlan.from_sparse(self.initial_plan)


@dataclass(frozen=True, eq=False)
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
    plan = scenario.base_plan
    start = int(np.searchsorted(plan.times, t, side="right"))
    positions = plan.positions[start:] + _active_offset(scenario, t)
    positions.flags.writeable = False
    # the other columns are slices of the checked base plan
    return PendingPlan._checked(positions, plan.orientations[start:], plan.grippers[start:],
                                plan.times[start:])


def run(scenario: Scenario) -> ExecutionLog:
    """Execute the scenario and log commanded samples plus replan events.

    The follower is kinematic (tracks the commanded sample exactly). The
    loop steps at the control rate, requests a fresh plan every
    replan_interval, and stops at the scenario duration or when the
    active trajectory is exhausted, whichever comes first.

    Between two requests the active trajectory cannot change, so each
    controller_step commands a whole block of ticks, from one request to
    the next. The commanded wxyz rows become Euler angles in one
    conversion of the whole run.
    """
    active = fit(scenario.initial_plan)
    t0, t_end = active.domain
    dt = 1.0 / scenario.control_rate
    interval = scenario.replan_interval

    # tick k runs at grid[k] = t0 + k * dt, computed multiplicatively so
    # replan requests land on the exact waypoint/tick grid instead of
    # drifting by accumulation
    stop = min(t0 + scenario.duration, t_end) + 1e-9
    grid = t0 + np.arange(int((stop - t0) / dt) + 2) * dt
    grid = grid[:np.searchsorted(grid, stop, side="right")]
    n_ticks = len(grid) - 1

    pos0, quat0, grip0, vel0 = active.sample(grid[:1])
    state = ControllerState(t0, pos0[0], quat0[0], vel0[0], grip0[0], active, interval)
    times, positions, quats, grippers = [grid[:1]], [pos0], [quat0], [grip0]
    events = []
    pending_delayed: PendingPlan | None = None
    replan_tick = 1
    k = 1
    while k <= n_ticks:
        replan_source = None
        if scenario.replan_enabled and state.current_time >= t0 + replan_tick * interval - 1e-9:
            requested = oracle_planner(scenario, state.current_time)
            if scenario.delayed_planner:
                replan_source, pending_delayed = pending_delayed, requested
            else:
                replan_source = requested
            replan_tick += 1
        # the block ends at the first tick after which the request test
        # above passes again
        last = n_ticks
        if scenario.replan_enabled:
            due = int(np.searchsorted(grid, t0 + replan_tick * interval - 1e-9))
            last = min(max(k, due), n_ticks)

        state, (t, pos, wxyz, grip), event = controller_step(state, grid[k:last + 1],
                                                             replan_source)
        if event is not None:
            events.append(event)
        times.append(t)
        positions.append(pos)
        quats.append(wxyz)
        grippers.append(grip)
        k = last + 1

    commanded_traj = DenseTrajectory(np.concatenate(times), np.concatenate(positions),
                                     quaternions_to_eulers(np.concatenate(quats)),
                                     np.concatenate(grippers), Frame.WORLD)
    target = scenario.initial_plan.positions[-1] + _active_offset(scenario,
                                                                  commanded_traj.times[-1])
    final_error = float(np.linalg.norm(commanded_traj.positions[-1] - target))
    return ExecutionLog(commanded_traj, tuple(events), final_error)


def smoothness_check(log: ExecutionLog, v_max: float, a_max: float) -> tuple:
    """Verify finite-difference speed and acceleration bounds on the log.

    Returns (passed, first_violation_time); the timestamp is None when
    the log is within bounds everywhere, including across replan merges.
    Both bounds must be finite and positive.
    """
    _check_positive("v_max", v_max)
    _check_positive("a_max", a_max)
    traj = log.commanded
    if len(traj) < 3:
        raise InsufficientDataError("smoothness check needs >= 3 samples")
    t = traj.times
    p = traj.positions
    dts = np.diff(t)
    vel = np.diff(p, axis=0) / dts[:, None]
    speeds = np.linalg.norm(vel, axis=1)
    accels = np.linalg.norm(np.diff(vel, axis=0) / (0.5 * (dts[:-1] + dts[1:]))[:, None], axis=1)

    # speed i and acceleration i are both stamped t[i + 1]; times increase,
    # so the earliest violation is the lowest flagged index
    flagged = np.concatenate([np.flatnonzero(speeds > v_max), np.flatnonzero(accels > a_max)])
    if flagged.size:
        return False, float(t[flagged.min() + 1])
    return True, None
