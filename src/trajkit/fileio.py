"""Versioned JSON file formats for trajectories, tokens, scenarios, and logs.

All formats round-trip losslessly: floats serialize via Python's
shortest round-trip repr, so load(save(x)) == x bit-exactly. Every file
is exactly the text of ``json.dumps(payload, indent=2)``. Validation
errors name the JSON path of the offending field
(e.g. ``samples[3].gripper``), and writes are atomic (temp file +
rename) so a failed save never leaves a partial file behind.
"""

import json
import math
import os
import secrets
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import SchemaError
from .geometry import CameraModel, DenseTrajectory, Frame, SampleError
from .keyframes import SparseTrajectory
from .metrics import MetricReport
from .replan import ReplanEvent
from .simulate import ExecutionLog, Perturbation, Scenario
from .tokens import Anchor, DepthMode, QuantizationSpec, TokenBlock, TokenSequence

__all__ = [
    "load_bundle",
    "save_bundle",
    "load_sparse_bundle",
    "save_sparse_bundle",
    "load_token_file",
    "save_token_file",
    "load_scenario",
    "save_scenario",
    "load_execution_log",
    "save_execution_log",
    "save_metric_report",
]

FORMAT_VERSION = 1
_UNITS = {"length": "meters", "time": "seconds", "angle": "radians"}


class _SampleRows:
    """A trajectory's ``samples`` array inside a payload.

    :func:`_encode` writes it from one ``%r`` row template over the
    ``.tolist()`` columns, which is the text ``json.dumps(indent=2)``
    gives for the per-sample objects: JSON numbers are ``int.__repr__``
    and ``float.__repr__``.
    """

    def __init__(self, traj):
        self.columns = (traj.times, traj.positions, traj.eulers, traj.grippers)

    def encode(self, level: int) -> str:
        times, positions, eulers, grippers = self.columns
        for column in (times, positions, eulers):
            bad = column[~np.isfinite(column)]
            if bad.size:
                raise ValueError("Out of range float values are not JSON compliant: "
                                 + repr(float(bad[0])))
        if not len(times):
            return "[]"
        a, b, c = ("\n" + "  " * (level + k) for k in (1, 2, 3))
        triple = "[" + c + ("," + c).join(["%r"] * 3) + b + "]"
        row = ("{" + b + '"t": %r,' + b + '"pos": ' + triple + "," + b + '"euler_xyz": '
               + triple + "," + b + '"gripper": %r' + a + "}")
        rows = zip(times.tolist(), *positions.T.tolist(), *eulers.T.tolist(),
                   grippers.tolist())
        return "[" + a + ("," + a).join(map(row.__mod__, rows)) + "\n" + "  " * level + "]"


def _holds_rows(value) -> bool:
    return isinstance(value, _SampleRows) or (
        isinstance(value, dict) and any(map(_holds_rows, value.values())))


def _encode(value, level: int) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` as it reads nested
    ``level`` objects deep, with every :class:`_SampleRows` written from
    its row template."""
    if isinstance(value, _SampleRows):
        return value.encode(level)
    pad = "\n" + "  " * level
    if isinstance(value, dict) and _holds_rows(value):
        items = (f"{json.dumps(key)}: {_encode(item, level + 1)}" for key, item in value.items())
        return "{" + pad + "  " + ("," + pad + "  ").join(items) + pad + "}"
    # an indented dump has no raw newline inside a string, only between lines
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", pad)


def _write_json(payload: dict, path) -> None:
    """Serialize fully, then atomically replace the target file."""
    _write_text(_encode(payload, 0) + "\n", path)


def _write_text(text: str, path) -> None:
    """Write through a fresh temp file beside the target, then atomically
    replace the target; the temp file is removed if any step fails. Its
    mode is 0o666 less the umask, as ``open`` gives (not mkstemp's 0o600).
    """
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(str(path), "top-level value must be an object")
    return data


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else key


def _get(obj: dict, key: str, kind, path: str, optional: bool = False):
    if key not in obj:
        if optional:
            return None
        raise SchemaError(_join(path, key), "missing required field")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(_join(path, key), f"expected a number, got {type(value).__name__}")
        return _float(value, _join(path, key))
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(_join(path, key), f"expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, kind):
        raise SchemaError(_join(path, key),
                          f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _float(value, path: str) -> float:
    """A JSON number as a float; an integer beyond the float range is a SchemaError."""
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(path, "number out of float range") from None


def _number_list(obj: dict, key: str, n: int, path: str, kind=float) -> list:
    """Exactly n JSON numbers (integers only when ``kind`` is int)."""
    values = _get(obj, key, list, path)
    where = _join(path, key)
    if len(values) != n:
        raise SchemaError(where, f"expected {n} numbers, got {len(values)}")
    allowed = (int, float) if kind is float else int
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, allowed):
            noun = "a number" if kind is float else "an integer"
            raise SchemaError(f"{where}[{i}]", f"expected {noun}")
    if kind is int:
        return list(values)
    return [_float(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _check_version(data: dict, path: str) -> None:
    version = _get(data, "version", int, path)
    if version != FORMAT_VERSION:
        raise SchemaError(_join(path, "version"), f"unsupported version {version}")


# ---------------------------------------------------------------------------
# trajectories: one samples parser and writer for bundles, scenarios and logs


def _frame(obj: dict, path: str) -> Frame:
    value = _get(obj, "frame", str, path)
    try:
        return Frame(value)
    except ValueError:
        raise SchemaError(_join(path, "frame"), f"must be 'camera' or 'world', got {value!r}")


_NUMBER = {int, float}  # JSON numbers; type(True) is bool, not int
_SAMPLE_FIELDS = itemgetter("t", "pos", "euler_xyz", "gripper")


def _typed_columns(samples: list):
    """The sample columns as arrays when every field of every sample has its
    type and length, checked a whole column at a time; else None."""
    if not samples or set(map(type, samples)) != {dict}:
        return None
    try:
        times, positions, eulers, grippers = zip(*map(_SAMPLE_FIELDS, samples))
    except KeyError:
        return None
    triples_ok = all(set(map(type, col)) == {list} and set(map(len, col)) == {3}
                     and set(map(type, chain.from_iterable(col))) <= _NUMBER
                     for col in (positions, eulers))
    if not (triples_ok and set(map(type, times)) <= _NUMBER
            and set(map(type, grippers)) == {int} and set(grippers) <= {0, 1}):
        return None
    n = len(times)
    try:
        return (np.fromiter(times, float, n),
                np.fromiter(chain.from_iterable(positions), float, 3 * n).reshape(n, 3),
                np.fromiter(chain.from_iterable(eulers), float, 3 * n).reshape(n, 3),
                np.fromiter(grippers, int, n))
    except OverflowError:  # an integer beyond the float range
        return None


def _per_sample_columns(samples: list, samples_path: str) -> tuple:
    """The sample columns as lists, checking each field of each sample in
    order; the first fault raises a SchemaError naming its path."""
    times, positions, eulers, grippers = [], [], [], []
    for i, s in enumerate(samples):
        spath = f"{samples_path}[{i}]"
        if not isinstance(s, dict):
            raise SchemaError(spath, "expected an object")
        times.append(_get(s, "t", float, spath))
        positions.append(_number_list(s, "pos", 3, spath))
        eulers.append(_number_list(s, "euler_xyz", 3, spath))
        gripper = _get(s, "gripper", int, spath)
        if gripper not in (0, 1):
            raise SchemaError(f"{spath}.gripper", f"must be 0 or 1, got {gripper}")
        grippers.append(gripper)
    return times, positions, eulers, grippers


def _parse_trajectory(obj: dict, path: str, frame: Frame, sparse: bool):
    """The ``samples`` (and for sparse, ``keyframe_flags``) of ``obj`` as a
    DenseTrajectory or SparseTrajectory.

    Field types are checked on whole columns; only when that check fails
    does the per-sample pass run, to name the first faulty field. Values
    (finiteness, time order, sample count) are checked on whole columns by
    the trajectory constructor, whose first bad index becomes the error
    path.
    """
    samples_path = _join(path, "samples")
    samples = _get(obj, "samples", list, path)
    columns = _typed_columns(samples)
    if columns is None:
        columns = _per_sample_columns(samples, samples_path)
    times, positions, eulers, grippers = columns
    if sparse:
        flags_path = _join(path, "keyframe_flags")
        flags = _get(obj, "keyframe_flags", list, path)
        if len(flags) != len(times):
            raise SchemaError(flags_path, "length does not match samples")
        if not set(map(type, flags)) <= {bool}:
            i = next(i for i, f in enumerate(flags) if not isinstance(f, bool))
            raise SchemaError(f"{flags_path}[{i}]", "expected a boolean")
    try:
        if sparse:
            return SparseTrajectory(times, positions, eulers, grippers, flags, frame)
        return DenseTrajectory(times, positions, eulers, grippers, frame)
    except SampleError as exc:
        where = samples_path if exc.index is None else f"{samples_path}[{exc.index}]"
        raise SchemaError(where if exc.field is None else f"{where}.{exc.field}",
                          str(exc)) from exc


def _camera_to_dict(cam: CameraModel) -> dict:
    return {
        "intrinsics": [float(x) for x in cam.intrinsics.reshape(-1)],
        "extrinsics_c2w": [float(x) for x in cam.extrinsics_c2w.reshape(-1)],
        "width": cam.width,
        "height": cam.height,
    }


def _camera_from_dict(obj, path: str) -> CameraModel:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    k = np.array(_number_list(obj, "intrinsics", 9, path)).reshape(3, 3)
    ext = np.array(_number_list(obj, "extrinsics_c2w", 16, path)).reshape(4, 4)
    width = _get(obj, "width", int, path)
    height = _get(obj, "height", int, path)
    try:
        return CameraModel(k, ext, width, height)
    except Exception as exc:
        raise SchemaError(path, str(exc)) from exc


def _bundle_payload(traj, cam, meta, keyframe_flags=None) -> dict:
    payload = {
        "version": FORMAT_VERSION,
        "frame": traj.frame.value,
        "units": dict(_UNITS),
    }
    if cam is not None:
        payload["camera"] = _camera_to_dict(cam)
    payload["samples"] = _SampleRows(traj)
    if keyframe_flags is not None:
        payload["keyframe_flags"] = list(keyframe_flags)
    if meta is not None:
        payload["meta"] = meta
    return payload


def _parse_bundle(data: dict, sparse: bool) -> tuple:
    _check_version(data, "")
    frame = _frame(data, "")
    units = _get(data, "units", dict, "")
    for key, expected in _UNITS.items():
        if units.get(key) != expected:
            raise SchemaError(f"units.{key}", f"must be {expected!r}")
    cam = None
    if "camera" in data:
        cam = _camera_from_dict(data["camera"], "camera")
    if frame is Frame.CAMERA and cam is None:
        raise SchemaError("camera", "required when frame is 'camera'")
    return _parse_trajectory(data, "", frame, sparse), cam


def save_bundle(traj: DenseTrajectory, cam: CameraModel | None, path, meta=None) -> None:
    _write_json(_bundle_payload(traj, cam, meta), path)


def load_bundle(path) -> tuple:
    """Load a dense trajectory bundle -> (DenseTrajectory, CameraModel | None)."""
    return _parse_bundle(_read_json(path), sparse=False)


def save_sparse_bundle(sparse: SparseTrajectory, cam: CameraModel | None, path,
                       meta=None) -> None:
    _write_json(_bundle_payload(sparse, cam, meta, sparse.keyframe_flags), path)


def load_sparse_bundle(path) -> tuple:
    """Load a sparse trajectory bundle -> (SparseTrajectory, CameraModel | None)."""
    return _parse_bundle(_read_json(path), sparse=True)


# ---------------------------------------------------------------------------
# token files


def save_token_file(tokens: TokenSequence, path) -> None:
    spec = tokens.spec
    payload = {
        "version": FORMAT_VERSION,
        "quantization": {
            "depth": {"min": spec.depth_min, "max": spec.depth_max, "bins": spec.depth_bins},
            "uv": {"width": spec.width, "height": spec.height},
            "angle": {"bins": spec.angle_bins},
            "depth_mode": spec.depth_mode.value,
            "depth_delta_max": spec.depth_delta_max,
        },
        "anchor": {
            "u": tokens.anchor.u,
            "v": tokens.anchor.v,
            "d": tokens.anchor.d,
            "source": tokens.anchor.depth_source.value,
        },
        "blocks": [
            {"d": b.d_token, "u": b.u_token, "v": b.v_token, "g": b.g_token,
             "r": list(b.r_tokens)}
            for b in tokens.blocks
        ],
    }
    _write_json(payload, path)


def parse_quantization(obj, path: str = "quantization") -> QuantizationSpec:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    depth = _get(obj, "depth", dict, path)
    uv = _get(obj, "uv", dict, path)
    angle = _get(obj, "angle", dict, path)
    mode_str = _get(obj, "depth_mode", str, path)
    try:
        mode = DepthMode(mode_str)
    except ValueError:
        raise SchemaError(f"{path}.depth_mode", f"unknown mode {mode_str!r}")
    delta = obj.get("depth_delta_max")
    if delta is not None and (isinstance(delta, bool) or not isinstance(delta, (int, float))):
        raise SchemaError(f"{path}.depth_delta_max", "expected a number or null")
    try:
        return QuantizationSpec(
            width=_get(uv, "width", int, f"{path}.uv"),
            height=_get(uv, "height", int, f"{path}.uv"),
            depth_min=_get(depth, "min", float, f"{path}.depth"),
            depth_max=_get(depth, "max", float, f"{path}.depth"),
            depth_bins=_get(depth, "bins", int, f"{path}.depth"),
            angle_bins=_get(angle, "bins", int, f"{path}.angle"),
            depth_mode=mode,
            depth_delta_max=None if delta is None else _float(delta, f"{path}.depth_delta_max"),
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def load_token_file(path) -> TokenSequence:
    data = _read_json(path)
    _check_version(data, "")
    spec = parse_quantization(_get(data, "quantization", dict, ""))
    anchor_obj = _get(data, "anchor", dict, "")
    try:
        anchor = Anchor(
            _get(anchor_obj, "u", float, "anchor"),
            _get(anchor_obj, "v", float, "anchor"),
            _get(anchor_obj, "d", float, "anchor"),
            _get(anchor_obj, "source", str, "anchor"),
        )
    except ValueError as exc:
        raise SchemaError("anchor", str(exc)) from exc
    blocks = []
    for i, b in enumerate(_get(data, "blocks", list, "")):
        bpath = f"blocks[{i}]"
        if not isinstance(b, dict):
            raise SchemaError(bpath, "expected an object")
        r = _number_list(b, "r", 3, bpath, int)
        try:
            blocks.append(TokenBlock(
                _get(b, "d", int, bpath),
                _get(b, "u", int, bpath),
                _get(b, "v", int, bpath),
                _get(b, "g", int, bpath),
                tuple(r),
            ))
        except ValueError as exc:
            raise SchemaError(bpath, str(exc)) from exc
    try:
        return TokenSequence(spec, anchor, tuple(blocks))
    except ValueError as exc:
        raise SchemaError("blocks", str(exc)) from exc


# ---------------------------------------------------------------------------
# scenarios and execution logs


def save_scenario(scenario: Scenario, path) -> None:
    plan = scenario.initial_plan
    payload = {
        "version": FORMAT_VERSION,
        "initial_plan": {
            "frame": plan.frame.value,
            "samples": _SampleRows(plan),
            "keyframe_flags": list(plan.keyframe_flags),
        },
        "perturbations": [
            {"time": p.time, "offset": [float(x) for x in p.offset]}
            for p in scenario.perturbations
        ],
        "replan_interval": scenario.replan_interval,
        "control_rate": scenario.control_rate,
        "duration": scenario.duration,
        "replan_enabled": scenario.replan_enabled,
        "delayed_planner": scenario.delayed_planner,
    }
    _write_json(payload, path)


def load_scenario(path) -> Scenario:
    data = _read_json(path)
    _check_version(data, "")
    plan_obj = _get(data, "initial_plan", dict, "")
    plan = _parse_trajectory(plan_obj, "initial_plan", _frame(plan_obj, "initial_plan"),
                             sparse=True)
    perts = []
    for i, p in enumerate(_get(data, "perturbations", list, "")):
        ppath = f"perturbations[{i}]"
        if not isinstance(p, dict):
            raise SchemaError(ppath, "expected an object")
        perts.append(Perturbation(_get(p, "time", float, ppath),
                                  _number_list(p, "offset", 3, ppath)))
    try:
        return Scenario(
            initial_plan=plan,
            perturbations=tuple(perts),
            replan_interval=_get(data, "replan_interval", float, ""),
            control_rate=_get(data, "control_rate", float, ""),
            duration=_get(data, "duration", float, ""),
            # an absent flag keeps its default
            replan_enabled=_get(data, "replan_enabled", bool, "", optional=True) is not False,
            delayed_planner=_get(data, "delayed_planner", bool, "", optional=True) is True,
        )
    except ValueError as exc:
        raise SchemaError("", str(exc)) from exc


def save_execution_log(log: ExecutionLog, path) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "commanded": {
            "frame": log.commanded.frame.value,
            "samples": _SampleRows(log.commanded),
        },
        "replan_events": [
            {
                "time": e.time,
                "dropped_count": e.dropped_count,
                "gamma_at_kstar": None if math.isnan(e.gamma_at_kstar) else e.gamma_at_kstar,
                "kstar": e.kstar,
                "kstar_dropped": e.kstar_dropped,
            }
            for e in log.replan_events
        ],
        "final_error": log.final_error,
    }
    _write_json(payload, path)


def load_execution_log(path) -> ExecutionLog:
    data = _read_json(path)
    _check_version(data, "")
    cmd = _get(data, "commanded", dict, "")
    commanded = _parse_trajectory(cmd, "commanded", _frame(cmd, "commanded"), sparse=False)
    events = []
    for i, e in enumerate(_get(data, "replan_events", list, "")):
        epath = f"replan_events[{i}]"
        if not isinstance(e, dict):
            raise SchemaError(epath, "expected an object")
        gamma = e.get("gamma_at_kstar")
        events.append(ReplanEvent(
            _get(e, "time", float, epath),
            _get(e, "dropped_count", int, epath),
            math.nan if gamma is None else _get(e, "gamma_at_kstar", float, epath),
            _get(e, "kstar", int, epath),
            _get(e, "kstar_dropped", bool, epath),
        ))
    return ExecutionLog(commanded, tuple(events), _get(data, "final_error", float, ""))


def save_metric_report(report: MetricReport, path) -> None:
    """Write a report keyed by exactly the ten row names plus "config"."""
    _write_json(report.as_dict(), path)
