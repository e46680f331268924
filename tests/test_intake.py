"""Intake: constructors store copies and never freeze or share a caller's array,
integer fields take integral values only, scalar real fields take finite
reals only, array fields take real numbers only, and int columns take
integers of the int64 range only."""

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
    (lambda x: tk.CameraModel(K[:2] + [[0.0, 0.0, x]], np.eye(4), 100, 100), "intrinsics",
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


# every caller array that enters through geometry._as_array, with a valid
# value, the name its messages use, its error type and the start of its shape
# message (None: any shape is valid)
HAS_SHAPE = "must have shape "
ARRAY_INTAKES = pytest.mark.parametrize("build, valid, field, error, shape_message", [
    (lambda x: tk.CameraModel(x, np.eye(4), 100, 100), K, "intrinsics", tk.InvalidCameraError,
     HAS_SHAPE),
    (lambda x: tk.CameraModel(K, x, 100, 100), np.eye(4), "extrinsics_c2w",
     tk.InvalidCameraError, HAS_SHAPE),
    (tk.unit_quaternions, [IDENTITY], "quaternions", ValueError, HAS_SHAPE),
    # a metric reads its own shape first, so a ragged list is named as a shape
    (lambda x: tk.dtw(x, [[0.0, 1.0, 2.0]]), [[1.0, 2.0, 3.0]], "a", ValueError,
     r"must be an \(N, 2\) or \(N, 3\) array"),
    (lambda x: tk.dtw([[0.0, 1.0, 2.0]], x), [[1.0, 2.0, 3.0]], "b", ValueError,
     r"must be an \(N, 2\) or \(N, 3\) array"),
    (lambda x: still().sample(x), [0.5, 1.0], "evaluation times", ValueError, HAS_SHAPE),
    (lambda x: still().position.position(x), [0.5, 1.0], "evaluation times", ValueError, None),
    (tk.normalize_angles, [0.5, 4.0], "angles", ValueError, None),
    (lambda x: tk.PositionSpline.fit([0.0, 1.0], x), np.eye(2, 3), "points", ValueError,
     HAS_SHAPE),
    (lambda x: tk.PendingPlan(x, np.tile(IDENTITY, (2, 1)), [0, 0]), np.eye(2, 3),
     "plan positions", ValueError, HAS_SHAPE),
], ids=["camera-intrinsics", "camera-extrinsics", "quaternions", "metric-a", "metric-b",
        "sample-times", "position-times", "angles", "spline-points", "plan-positions"])


@ARRAY_INTAKES
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_array_intakes_reject_non_finite_values(build, valid, field, error, shape_message, bad):
    # normalize_angles([inf]) used to return nan, and a camera named both
    # matrices as one
    array = np.array(valid, dtype=float)
    build(array)
    array.flat[-1] = bad
    with pytest.raises(error, match=f"^{field} must be finite$"):
        build(array)


@ARRAY_INTAKES
def test_array_intakes_check_the_shape(build, valid, field, error, shape_message):
    # one more leading axis: a (1, 3, 3) camera matrix, (1, 1, 4) quaternions
    stacked = np.array(valid, dtype=float)[None]
    if shape_message is None:  # element-wise: the result keeps the shape
        assert np.shape(build(stacked))[:stacked.ndim] == stacked.shape
        return
    with pytest.raises(error, match=f"^{field} {shape_message}"):
        build(stacked)


def ragged(value) -> list:
    """``value`` as nested lists with its last number wrapped in a list."""
    rows = np.array(value, dtype=float).tolist()
    inner = rows
    while isinstance(inner[-1], list):
        inner = inner[-1]
    inner[-1] = [inner[-1]]
    return rows


RAGGED = "must be a rectangular array, got a ragged list$"


@ARRAY_INTAKES
def test_array_intakes_name_a_ragged_list(build, valid, field, error, shape_message):
    # NumPy's own "setting an array element with a sequence" used to escape:
    # a ValueError naming no field, even where the intake raises another type
    with pytest.raises(error, match=f"^{field} {RAGGED}"):
        build(ragged(valid))


@ARRAY_INTAKES
def test_array_intakes_name_an_int_beyond_the_float_range(build, valid, field, error,
                                                          shape_message):
    # NumPy's own "int too large to convert to float" used to escape as an
    # OverflowError naming no field
    rows = np.array(valid, dtype=float).tolist()
    inner = rows
    while isinstance(inner[-1], list):
        inner = inner[-1]
    inner[-1] = 10**400
    with pytest.raises(error, match=f"^{field} is beyond the float range$"):
        build(rows)


@pytest.mark.parametrize("build, error, message", [
    (lambda: tk.CameraModel([[10**400, 0, 0], [0, 1, 0], [0, 0, 1]], np.eye(4), 10, 10),
     tk.InvalidCameraError, "intrinsics is beyond the float range"),
    (lambda: tk.quantize([10**400], 0.0, 1.0, 4), ValueError, "value is beyond the float range"),
    (lambda: tk.dtw([[10**400, 0, 0]], [[0.0, 0, 0]]), ValueError, "a is beyond the float range"),
], ids=["camera", "quantize", "dtw"])
def test_an_int_beyond_the_float_range_is_named_like_a_scalar_one(build, error, message):
    # worded as _integral words an integer field beyond the float range
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("build, valid, field", [
    (lambda x: tk.quantize(x, 0.0, 1.0, 4), [[0.5], [0.2]], "value"),
    (lambda x: tk.DenseTrajectory(x, np.zeros((2, 3)), np.zeros((2, 3)), [0, 0],
                                  tk.Frame.WORLD), [0.0, 1.0], "times"),
    (lambda x: tk.DenseTrajectory([0.0, 1.0], x, np.zeros((2, 3)), [0, 0], tk.Frame.WORLD),
     np.zeros((2, 3)), "positions"),
    (lambda x: tk.DenseTrajectory([0.0, 1.0], np.zeros((2, 3)), x, [0, 0], tk.Frame.WORLD),
     np.zeros((2, 3)), "eulers"),
    (lambda x: tk.DenseTrajectory([0.0, 1.0], np.zeros((2, 3)), np.zeros((2, 3)), x,
                                  tk.Frame.WORLD), [0, 1], "gripper"),
    (lambda x: tk.PendingPlan(np.zeros((2, 3)), np.tile(IDENTITY, (2, 1)), x), [0, 1],
     "gripper"),
    (lambda x: tk.SparseTrajectory([0.0, 1.0], np.zeros((2, 3)), np.zeros((2, 3)), [0, 0],
                                   x, tk.Frame.WORLD), [True, False], "keyframe_flags"),
    (lambda x: tk.TokenSequence(tk.QuantizationSpec(width=100, height=100),
                                tk.Anchor(50.0, 50.0, 1.0), [3, 4], [10, 20], [30, 40],
                                [0, 1], x), [[1, 2, 3], [4, 5, 6]], "r"),
], ids=["quantize", "dense-times", "dense-positions", "dense-eulers", "dense-grippers",
        "plan-grippers", "sparse-flags", "token-angles"])
def test_columns_name_a_ragged_list(build, valid, field):
    build(valid)
    bad = ragged(valid)
    if isinstance(valid[0], bool):  # keep the flags bools
        bad[-1] = [bool(bad[-1][0])]
    with pytest.raises(ValueError, match=f"^{field} {RAGGED}"):
        build(bad)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_normalize_angles_rejects_a_lone_non_finite_angle(angle):
    # np.mod gave nan for each of them
    with pytest.raises(ValueError, match="^angles must be finite$"):
        tk.normalize_angles([angle])


def tokens_with(field, value):
    """A two-block token sequence with the column ``field`` set to ``value``."""
    columns = {"d": [3, 4], "u": [10, 20], "v": [30, 40], "g": [0, 1],
               "r": [[1, 2, 3], [4, 5, 6]], field: value}
    return tk.TokenSequence(tk.QuantizationSpec(width=100, height=100),
                            tk.Anchor(50.0, 50.0, 1.0), **columns)


# every int column that enters through geometry._as_array, with a valid value and
# the name its messages use
INT_INTAKES = pytest.mark.parametrize("build, valid, field", [
    *((lambda x, key=key: tokens_with(key, x), [[1, 2, 3], [4, 5, 6]] if key == "r" else [0, 1],
       key) for key in "duvgr"),
    (lambda x: tk.dequantize(x, 0.0, 1.0, 4), [[1, 2], [3, 0]], "index"),
], ids=["token-d", "token-u", "token-v", "token-g", "token-r", "dequantize-index"])


def with_last(valid, value) -> list:
    """``valid`` as nested lists with its last number replaced by ``value``."""
    rows = np.array(valid).tolist()
    inner = rows
    while isinstance(inner[-1], list):
        inner = inner[-1]
    inner[-1] = value
    return rows


@INT_INTAKES
@pytest.mark.parametrize("value", [True, np.True_, "1", 1.5, 1.0, np.float64(1.0)],
                         ids=["bool", "numpy-bool", "str", "fraction", "float", "numpy-float"])
def test_int_intakes_reject_bools_strings_and_fractions(build, valid, field, value):
    # a bool inside an int list used to be read as 1
    build(valid)
    with pytest.raises(ValueError) as info:
        build(with_last(valid, value))
    assert str(info.value) == f"{field} must hold integers, not fractions, bools or strings"


@INT_INTAKES
def test_int_intakes_name_a_ragged_list(build, valid, field):
    with pytest.raises(ValueError, match=f"^{field} {RAGGED}"):
        build(ragged(valid))


@INT_INTAKES
@pytest.mark.parametrize("bad", [
    lambda valid: with_last(valid, 2**63), lambda valid: with_last(valid, -2**63 - 1),
    lambda valid: with_last(valid, 10**400), lambda valid: with_last(valid, np.uint64(2**63)),
    lambda valid: np.array(with_last(valid, 2**63), dtype=np.uint64),
], ids=["2**63", "-2**63-1", "10**400", "uint64", "uint64-array"])
def test_int_intakes_name_an_int_beyond_int64(build, valid, field, bad):
    # a uint64 array holding 2**63 was read as a token or bin index of that size, an
    # int64 cast would wrap it to -2**63, and a Python int beyond int64 escaped as an
    # error naming no field or, in a token column, as a message for all five columns
    with pytest.raises(ValueError) as info:
        build(bad(valid))
    assert str(info.value) == f"{field} is beyond the int64 range"
