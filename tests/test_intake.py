"""Intake: constructors store copies and never freeze or share a caller's array,
integer fields take integral values only, scalar real fields take finite
reals only, and array fields take real numbers only."""

import math

import numpy as np
import pytest

import trajkit as tk

IDENTITY = [1.0, 0.0, 0.0, 0.0]


def camera(args):
    args.update(k=np.array([[100.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]]),
                ext=np.eye(4))
    return tk.CameraModel(args["k"], args["ext"], 100, 100)


def columns(args):
    args.update(t=np.arange(4.0), p=np.ones((4, 3)), e=np.zeros((4, 3)),
                g=np.zeros(4, dtype=int))
    return args["t"], args["p"], args["e"], args["g"]


def dense(args):
    return tk.DenseTrajectory(*columns(args), tk.Frame.WORLD)


def sparse(args):
    return tk.SparseTrajectory(*columns(args), (True,) * 4, tk.Frame.WORLD)


def tokens(args):
    args.update(d=np.array([3, 4]), u=np.array([10, 20]), v=np.array([30, 40]),
                g=np.array([0, 1]), r=np.array([[1, 2, 3], [4, 5, 6]]))
    return tk.TokenSequence(tk.QuantizationSpec(width=100, height=100),
                            tk.Anchor(50.0, 50.0, 1.0, "sensor"),
                            args["d"], args["u"], args["v"], args["g"], args["r"])


def plan(args):
    args.update(p=np.zeros((3, 3)), q=np.tile(IDENTITY, (3, 1)), g=np.zeros(3),
                t=np.arange(3.0))
    return tk.PendingPlan(args["p"], args["q"], args["g"], args["t"])


def still():
    spline = tk.PositionSpline.fit([0.0, 1.0], np.zeros((2, 3)))
    return tk.ContinuousTrajectory(spline, np.tile(IDENTITY, (2, 1)), [0, 0])


def state(args):
    args.update(p=np.zeros(3), q=np.array(IDENTITY), v=np.ones(3))
    return tk.ControllerState(0.5, args["p"], args["q"], args["v"], 0, still(), 0.1)


def spline(args):
    args.update(t=np.array([0.0, 1.0, 2.0]), c=np.ones((2, 4, 3)))
    return tk.PositionSpline(args["t"], args["c"])


def spline_fit(args):
    args.update(t=np.array([0.0, 1.0, 2.0]), p=np.eye(3), v0=np.ones(3), v1=np.ones(3))
    return tk.PositionSpline.fit(args["t"], args["p"], (args["v0"], args["v1"]))


def continuous(args):
    args.update(q=np.tile(IDENTITY, (3, 1)), g=np.array([0, 1, 1]))
    return tk.ContinuousTrajectory(spline({}), args["q"], args["g"])


def perturbation(args):
    args.update(offset=np.array([0.1, 0.0, 0.0]))
    return tk.Perturbation(1.0, args["offset"])


def stored(obj) -> dict:
    return {name: value.copy() for name, value in vars(obj).items()
            if isinstance(value, np.ndarray)}


@pytest.mark.parametrize("build", [camera, dense, sparse, tokens, plan, state, spline,
                                   spline_fit, continuous, perturbation],
                         ids=lambda build: build.__name__)
def test_caller_arrays_stay_writable_and_unshared(build):
    args = {}
    obj = build(args)
    before = stored(obj)
    for name, array in args.items():
        assert array.flags.writeable, name
        array += 1
    after = stored(obj)
    assert before.keys() == after.keys()
    for name in before:
        assert np.array_equal(before[name], after[name]), name


K = [[100.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]]
ENDPOINT = frozenset([tk.KeyframeReason.FORCED_ENDPOINT])


INTEGER_FIELDS = pytest.mark.parametrize("build, read, field, error", [
    (lambda x: tk.CameraModel(K, np.eye(4), x, 99), lambda c: c.width, "width",
     tk.InvalidCameraError),
    (lambda x: tk.CameraModel(K, np.eye(4), 100, x), lambda c: c.height, "height",
     tk.InvalidCameraError),
    (lambda x: tk.QuantizationSpec(width=x, height=50), lambda s: s.width, "width", ValueError),
    (lambda x: tk.QuantizationSpec(width=100, height=x), lambda s: s.height, "height",
     ValueError),
    (lambda x: tk.QuantizationSpec(100, 50, depth_bins=x), lambda s: s.depth_bins,
     "depth_bins", ValueError),
    (lambda x: tk.QuantizationSpec(100, 50, angle_bins=x), lambda s: s.angle_bins,
     "angle_bins", ValueError),
    (lambda x: tk.KeyframeSet((0, x, 5), (ENDPOINT,) * 3), lambda k: k.indices[1], "indices",
     ValueError),
], ids=["camera-width", "camera-height", "spec-width", "spec-height", "spec-depth-bins",
        "spec-angle-bins", "keyframe-index"])


@INTEGER_FIELDS
def test_integer_fields_reject_fractions(build, read, field, error):
    # a fraction used to be truncated: 2.7 stored as 2
    with pytest.raises(error, match=f"^{field} must be an integer, got 2.7$"):
        build(2.7)
    for integral in (3.0, np.int64(3)):  # integral floats and NumPy ints stay valid
        value = read(build(integral))
        assert value == 3 and type(value) is int


@INTEGER_FIELDS
@pytest.mark.parametrize("value", ["4", True, np.True_, None, [4]],
                         ids=["str", "bool", "numpy-bool", "none", "list"])
def test_integer_fields_reject_strings_and_bools(build, read, field, error, value):
    # "100" used to be stored as 100 and True as 1
    with pytest.raises(error, match=f"^{field} must be an integer, got "):
        build(value)


@INTEGER_FIELDS
def test_integer_fields_reject_ints_beyond_the_float_range(build, read, field, error):
    # 10**400 used to escape as an OverflowError; the message does not echo it
    with pytest.raises(error, match=f"^{field} is beyond the float range$"):
        build(10**400)


REAL_FIELDS = pytest.mark.parametrize("build, read, field", [
    (lambda x: tk.Anchor(x, 50, 1.0), lambda a: a.u, "anchor u"),
    (lambda x: tk.Anchor(50, x, 1.0), lambda a: a.v, "anchor v"),
    (lambda x: tk.Anchor(50, 50, x), lambda a: a.d, "anchor d"),
    (lambda x: tk.QuantizationSpec(100, 100, depth_min=x), lambda s: s.depth_min, "depth_min"),
    (lambda x: tk.QuantizationSpec(100, 100, depth_max=x), lambda s: s.depth_max, "depth_max"),
    (lambda x: tk.QuantizationSpec(100, 100, depth_mode="anchor_relative", depth_delta_max=x),
     lambda s: s.depth_delta_max, "depth_delta_max"),
    (lambda x: tk.Perturbation(x, [0.1, 0.0, 0.0]), lambda p: p.time, "perturbation time"),
], ids=["anchor-u", "anchor-v", "anchor-d", "depth-min", "depth-max", "depth-delta-max",
        "perturbation-time"])


@REAL_FIELDS
@pytest.mark.parametrize("value", ["1", True, np.True_, [1.0], math.nan, math.inf, 10**400],
                         ids=["str", "bool", "numpy-bool", "list", "nan", "inf", "huge"])
def test_real_fields_reject_everything_but_finite_reals(build, read, field, value):
    # True used to be stored as 1.0, and "1" raised a TypeError
    with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got "):
        build(value)
    for real in (2, np.int64(2), np.float32(2.0)):  # ints and NumPy numbers stay valid
        stored = read(build(real))
        assert stored == 2.0 and type(stored) is float


@pytest.mark.parametrize("value", [True, "0.1", None, 10**400])
def test_positive_reals_reject_bools_and_strings(value):
    # True used to pass as 1 and "0.1" raised a TypeError
    with pytest.raises(ValueError, match="^tau must be finite and positive, got "):
        tk.coverage([[0.0, 0.0]], [[0.0, 0.0]], value)


@pytest.mark.parametrize("build, field, error", [
    (lambda x: tk.PositionSpline.fit([0.0, x, 2.0], np.eye(3)), "times", ValueError),
    (lambda x: tk.PositionSpline.fit([0.0, 1.0, 2.0], [[x, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "points", ValueError),
    (lambda x: tk.unit_quaternions([[x, 0, 0, 0]]), "quaternions", ValueError),
    (lambda x: tk.DenseTrajectory([0.0, x], np.zeros((2, 3)), np.zeros((2, 3)), [0, 0],
                                  tk.Frame.WORLD), "times", ValueError),
    (lambda x: tk.CameraModel(K[:2] + [[0.0, 0.0, x]], np.eye(4), 100, 100), "camera matrices",
     tk.InvalidCameraError),
    (lambda x: tk.DenseTrajectory([0.0, 1.0], np.zeros((2, 3)), np.zeros((2, 3)), [0, x],
                                  tk.Frame.WORLD), "gripper", ValueError),
    (lambda x: tk.PendingPlan(np.zeros((2, 3)), np.tile(IDENTITY, (2, 1)), [0, x]), "gripper",
     ValueError),
    (lambda x: tk.ControllerState(0.5, np.zeros(3), IDENTITY, np.zeros(3), x, still(), 0.1),
     "gripper", ValueError),
    (lambda x: still().sample([0.5, x]), "evaluation times", ValueError),
    (lambda x: tk.eval_trajectory(still(), x), "evaluation times", ValueError),
    (lambda x: tk.quantize([0.5, x], 0.0, 1.0, 4), "value", ValueError),
    (lambda x: tk.normalize_angles([0.5, x]), "angles", ValueError),
], ids=["spline-times", "spline-points", "quaternions", "dense-times", "camera-intrinsics",
        "dense-grippers", "plan-grippers", "state-gripper", "sample-times", "eval-time",
        "quantize-values", "angles"])
@pytest.mark.parametrize("value", [True, np.True_, "1.5"], ids=["bool", "numpy-bool", "str"])
def test_array_fields_reject_bools_and_strings(build, field, error, value):
    # inside a list, True used to be read as 1.0 and "1.5" as 1.5, and a
    # gripper True as 1
    with pytest.raises(error, match=f"^{field} must hold real numbers, not bools or strings$"):
        build(value)
    build(1.0)  # the same list of reals is valid
