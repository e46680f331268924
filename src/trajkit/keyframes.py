"""Kinematic keyframe selection and sub-keyframe densification.

A sample is a keyframe when the finite-difference acceleration magnitude
of its pose exceeds a threshold, when the gripper state toggles, or when
it is a trajectory endpoint. Segments between keyframes are densified
with equally-time-spaced sub-keyframes whose poses come from the nearest
recorded sample, keeping supervision on observed data.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientDataError
from .geometry import (DenseTrajectory, Frame, _clamp, finite_difference_accel,
                       trajectory_columns)

__all__ = [
    "KeyframeReason",
    "KeyframeSet",
    "SparseTrajectory",
    "select_keyframes",
    "insert_sub_keyframes",
    "gripper_change_indices",
]


class KeyframeReason(str, Enum):
    ACCEL_THRESHOLD = "accel_threshold"
    GRIPPER_CHANGE = "gripper_change"
    FORCED_ENDPOINT = "forced_endpoint"


@dataclass(frozen=True)
class KeyframeSet:
    """Ordered keyframe indices into a source trajectory, with the reason(s) each fired."""

    indices: tuple
    reasons: tuple  # frozenset[KeyframeReason] per index

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        reasons = tuple(frozenset(r) for r in self.reasons)
        if len(indices) != len(reasons):
            raise ValueError("indices and reasons must have equal length")
        if len(indices) < 2:
            raise ValueError("a keyframe set needs at least the two endpoints")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("keyframe indices must be strictly increasing")
        if indices[0] != 0:
            raise ValueError("first keyframe must be sample 0")
        if any(not r for r in reasons):
            raise ValueError("every keyframe needs at least one reason")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "reasons", reasons)


@dataclass(frozen=True)
class SparseTrajectory:
    """Keyframes plus sub-keyframes: the sparse planning/supervision representation.

    Stored as the same read-only columns as :class:`DenseTrajectory`, plus
    one keyframe flag per waypoint.
    """

    times: np.ndarray  # (N,)
    positions: np.ndarray  # (N, 3)
    eulers: np.ndarray  # (N, 3)
    grippers: np.ndarray  # (N,) of {0, 1}
    keyframe_flags: tuple
    frame: Frame

    def __post_init__(self):
        columns = trajectory_columns(self.times, self.positions, self.eulers,
                                     self.grippers, min_samples=1)
        flags = tuple(bool(f) for f in self.keyframe_flags)
        if len(flags) != len(columns[0]):
            raise ValueError("keyframe_flags must align with waypoints")
        for name, column in zip(("times", "positions", "eulers", "grippers"), columns):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "keyframe_flags", flags)
        object.__setattr__(self, "frame", Frame(self.frame))

    def __len__(self) -> int:
        return len(self.times)


def gripper_change_indices(traj: DenseTrajectory) -> np.ndarray:
    """Indices k where gripper(k-1) != gripper(k) (the later side of each toggle)."""
    g = traj.grippers
    return np.flatnonzero(g[1:] != g[:-1]) + 1


def select_keyframes(traj: DenseTrajectory, alpha: float, weights=None) -> KeyframeSet:
    """Select keyframes by acceleration threshold and gripper discontinuity.

    An interior sample is a keyframe when it is the acceleration-magnitude
    maximum of a maximal run of consecutive samples exceeding ``alpha``
    (ties resolve to the earliest index), or when the gripper toggles at
    it. Both endpoints are always keyframes. No other filtering is
    applied.

    Args:
        traj: demonstration with >= 3 samples.
        alpha: acceleration threshold, > 0.
        weights: optional per-component weights for the magnitude
            (see :func:`finite_difference_accel`).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if len(traj) < 3:
        raise InsufficientDataError(
            f"keyframe selection needs >= 3 samples, got {len(traj)}"
        )
    _, mags = finite_difference_accel(traj, weights)

    reasons: dict[int, set] = {}

    def mark(idx: int, reason: KeyframeReason):
        reasons.setdefault(idx, set()).add(reason)

    mark(0, KeyframeReason.FORCED_ENDPOINT)
    mark(len(traj) - 1, KeyframeReason.FORCED_ENDPOINT)

    # interior index i+1 holds magnitude mags[i]
    above = np.flatnonzero(mags > alpha)
    if above.size:
        run_starts = np.flatnonzero(np.diff(above) > 1) + 1
        for run in np.split(above, run_starts):
            peak = run[int(np.argmax(mags[run]))]
            mark(int(peak) + 1, KeyframeReason.ACCEL_THRESHOLD)

    for idx in gripper_change_indices(traj):
        mark(int(idx), KeyframeReason.GRIPPER_CHANGE)

    ordered = sorted(reasons)
    return KeyframeSet(tuple(ordered), tuple(frozenset(reasons[i]) for i in ordered))


def insert_sub_keyframes(traj: DenseTrajectory, keys: KeyframeSet, n: int) -> SparseTrajectory:
    """Densify each keyframe segment with n equally-time-spaced samples.

    Each consecutive keyframe pair contributes ``n`` waypoints (both ends
    included, shared endpoints merged), so the output has
    ``(n - 1) * n_segments + 1`` waypoints. Interior waypoints take the
    pose and gripper of the nearest-in-time recorded sample (ties go to
    the earlier sample) while keeping the exact grid timestamp.

    Args:
        n: samples per segment including both endpoints; n == 2 returns
            exactly the keyframes.
    """
    if n < 2:
        raise ValueError(f"samples per segment must be >= 2, got {n}")
    if keys.indices[-1] != len(traj) - 1 or keys.indices[0] != 0:
        raise ValueError("keyframe set does not match trajectory length")
    times = traj.times
    idx = np.asarray(keys.indices)
    grids = np.linspace(times[idx[:-1]], times[idx[1:]], n, axis=1)
    # segment endpoints land exactly on their keyframe samples, so one
    # nearest-sample lookup serves every grid point
    taus = np.concatenate([grids[0, :1], grids[:, 1:].ravel()])
    src = _nearest_sample(times, taus)
    segment_flags = [False] * (n - 2) + [True]
    flags = [True] + segment_flags * len(grids)
    return SparseTrajectory(taus, traj.positions[src], traj.eulers[src], traj.grippers[src],
                            flags, traj.frame)


def _nearest_sample(times: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Index of the sample nearest to each tau; equidistant ties pick the earlier one."""
    hi = _clamp(np.searchsorted(times, taus), 1, len(times) - 1)
    lo = hi - 1
    return np.where(taus - times[lo] <= times[hi] - taus, lo, hi)
