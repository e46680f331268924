"""Shared fixtures and builders for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import settings

from trajkit import CameraModel, DenseTrajectory, Frame, TokenSequence

# property tests draw the same examples on every run, with no per-example
# deadline: wall-clock timing on a shared host is too noisy to gate on
settings.register_profile("trajkit", derandomize=True, deadline=None)
settings.load_profile("trajkit")


def make_camera(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100,
                extrinsics=None) -> CameraModel:
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    ext = np.eye(4) if extrinsics is None else extrinsics
    return CameraModel(k, ext, width, height)


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rigid(rotation: np.ndarray, translation) -> np.ndarray:
    t = np.eye(4)
    t[:3, :3] = rotation
    t[:3, 3] = translation
    return t


def line_trajectory(n=101, t1=1.0, start=(0.0, 0.0, 0.0), end=(1.0, 0.0, 0.0),
                    euler_ramp=(0.0, 0.0, 0.0), gripper=0,
                    frame=Frame.WORLD) -> DenseTrajectory:
    """Constant-velocity line with optional linear single-axis euler ramp."""
    t = np.linspace(0.0, t1, n)
    s = (t / t1)[:, None]
    pos = np.asarray(start) + s * (np.asarray(end) - np.asarray(start))
    eul = s * np.asarray(euler_ramp)
    grip = np.full(n, gripper, dtype=int)
    return DenseTrajectory(t, pos, eul, grip, frame)


def helix_trajectory(n=8893, turns=1.0, rise=0.3, frame=Frame.WORLD) -> DenseTrajectory:
    """Smooth analytic helix; n-1 = 8892 divides every grid in {4, 9, 19, 39}."""
    t = np.linspace(0.0, 2.0 * np.pi * turns, n)
    pos = np.stack([np.sin(t), np.cos(t), rise * t], axis=1)
    return DenseTrajectory(t, pos, np.zeros((n, 3)),
                           np.zeros(n, dtype=int), frame)


def geodesic_angle(a, b) -> float:
    """Rotation angle in radians between two wxyz rows, q and -q alike.

    The chord/atan2 form stays accurate for tiny angles, where acos of the
    dot product loses precision.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.dot(a, b) < 0.0:
        b = -b
    return 4.0 * math.atan2(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def token_sequence(spec, anchor, blocks) -> TokenSequence:
    """A TokenSequence from (d, u, v, g, (rx, ry, rz)) tuples, one per block."""
    d, u, v, g, r = zip(*blocks)
    return TokenSequence(spec, anchor, d, u, v, g, r)


def assert_same_tokens(a: TokenSequence, b: TokenSequence) -> None:
    assert a.spec == b.spec and a.anchor == b.anchor
    for name in ("d", "u", "v", "g", "r"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.fixture
def camera() -> CameraModel:
    return make_camera()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
