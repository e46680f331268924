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
from .tokens import Anchor, DepthMode, QuantizationSpec, TokenSequence

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


class _Rows:
    """An array of per-record objects inside a payload, held as columns.

    ``columns`` maps each key, in file order, to an (n,) column (one
    number per record) or an (n, k) column (a list of k numbers).
    :func:`_encode` writes it from one ``%r`` row template over the
    ``.tolist()`` columns, which is the text ``json.dumps(indent=2)``
    gives for the per-record objects: JSON numbers are ``int.__repr__``
    and ``float.__repr__``.
    """

    def __init__(self, columns: dict):
        self.columns = columns

    def encode(self, level: int) -> str:
        for column in self.columns.values():
            bad = column[~np.isfinite(column)]
            if bad.size:
                raise ValueError("Out of range float values are not JSON compliant: "
                                 + repr(float(bad[0])))
        if not len(next(iter(self.columns.values()))):
            return "[]"
        a, b, c = ("\n" + "  " * (level + k) for k in (1, 2, 3))
        fields = (json.dumps(key) + ": " + ("%r" if column.ndim == 1 else
                                           "[" + c + ("," + c).join(["%r"] * column.shape[1])
                                           + b + "]")
                  for key, column in self.columns.items())
        row = "{" + b + ("," + b).join(fields) + a + "}"
        rows = zip(*chain.from_iterable([column.tolist()] if column.ndim == 1 else column.T.tolist()
                                        for column in self.columns.values()))
        return "[" + a + ("," + a).join(map(row.__mod__, rows)) + "\n" + "  " * level + "]"


def _sample_rows(traj) -> _Rows:
    return _Rows({"t": traj.times, "pos": traj.positions, "euler_xyz": traj.eulers,
                  "gripper": traj.grippers})


def _holds_rows(value) -> bool:
    return isinstance(value, _Rows) or (
        isinstance(value, dict) and any(map(_holds_rows, value.values())))


def _encode(value, level: int) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` as it reads nested
    ``level`` objects deep, with every :class:`_Rows` written from its row
    template."""
    if isinstance(value, _Rows):
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
_BIT = "bit"  # an integer field that must be 0 or 1
# (key, kind, width) of each per-record field, in the order the per-record
# pass checks them; kind is float, int or _BIT, width 0 for one number and
# k for a list of k numbers
_SAMPLE_FIELDS = (("t", float, 0), ("pos", float, 3), ("euler_xyz", float, 3),
                  ("gripper", _BIT, 0))
_TOKEN_FIELDS = (("r", int, 3), ("d", int, 0), ("u", int, 0), ("v", int, 0), ("g", _BIT, 0))


def _typed_columns(records: list, fields: tuple):
    """The columns of ``fields`` as arrays when every field of every record
    has its type and length, checked a whole column at a time; else None."""
    if not records or set(map(type, records)) != {dict}:
        return None
    try:
        raw = zip(*map(itemgetter(*(key for key, _, _ in fields)), records))
    except KeyError:
        return None
    columns = []
    for (_, kind, width), values in zip(fields, raw):
        if width:
            if set(map(type, values)) != {list} or set(map(len, values)) != {width}:
                return None
            values = list(chain.from_iterable(values))
        types = set(map(type, values))
        if not (types <= _NUMBER if kind is float else types == {int}):
            return None
        if kind is _BIT and not set(values) <= {0, 1}:
            return None
        try:
            column = np.fromiter(values, float if kind is float else int, len(values))
        except OverflowError:  # an integer beyond the float or int64 range
            return None
        columns.append(column.reshape(len(records), width) if width else column)
    return tuple(columns)


def _per_record_columns(records: list, fields: tuple, path: str) -> tuple:
    """The columns of ``fields`` as lists, checking each field of each
    record in order; the first fault raises a SchemaError naming its path."""
    columns = tuple([] for _ in fields)
    for i, record in enumerate(records):
        rpath = f"{path}[{i}]"
        if not isinstance(record, dict):
            raise SchemaError(rpath, "expected an object")
        for (key, kind, width), column in zip(fields, columns):
            number = float if kind is float else int
            value = (_number_list(record, key, width, rpath, number) if width
                     else _get(record, key, number, rpath))
            if kind is _BIT and value not in (0, 1):
                raise SchemaError(_join(rpath, key), f"must be 0 or 1, got {value}")
            column.append(value)
    return columns


def _row_error(exc: SampleError, rows_path: str) -> SchemaError:
    """The SchemaError naming the row and field of a column constructor's error."""
    where = rows_path if exc.index is None else f"{rows_path}[{exc.index}]"
    return SchemaError(where if exc.field is None else f"{where}.{exc.field}", str(exc))


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
    times, positions, eulers, grippers = (
        _typed_columns(samples, _SAMPLE_FIELDS)
        or _per_record_columns(samples, _SAMPLE_FIELDS, samples_path))
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
        raise _row_error(exc, samples_path) from exc


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
    payload["samples"] = _sample_rows(traj)
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
        "blocks": _Rows({"d": tokens.d, "u": tokens.u, "v": tokens.v, "g": tokens.g,
                         "r": tokens.r}),
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
    if delta is not None:  # null, or a number
        delta = _get(obj, "depth_delta_max", float, path)
    try:
        return QuantizationSpec(
            width=_get(uv, "width", int, f"{path}.uv"),
            height=_get(uv, "height", int, f"{path}.uv"),
            depth_min=_get(depth, "min", float, f"{path}.depth"),
            depth_max=_get(depth, "max", float, f"{path}.depth"),
            depth_bins=_get(depth, "bins", int, f"{path}.depth"),
            angle_bins=_get(angle, "bins", int, f"{path}.angle"),
            depth_mode=mode,
            depth_delta_max=delta,
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
    try:
        spec.depth_grid(anchor)
    except ValueError as exc:
        raise SchemaError("quantization", str(exc)) from exc
    blocks = _get(data, "blocks", list, "")
    r, d, u, v, g = (_typed_columns(blocks, _TOKEN_FIELDS)
                     or _per_record_columns(blocks, _TOKEN_FIELDS, "blocks"))
    try:
        return TokenSequence(spec, anchor, d, u, v, g, r)
    except SampleError as exc:
        raise _row_error(exc, "blocks") from exc
    except ValueError as exc:  # the anchor lies outside the image
        raise SchemaError("blocks", str(exc)) from exc


# ---------------------------------------------------------------------------
# scenarios and execution logs


def save_scenario(scenario: Scenario, path) -> None:
    plan = scenario.initial_plan
    payload = {
        "version": FORMAT_VERSION,
        "initial_plan": {
            "frame": plan.frame.value,
            "samples": _sample_rows(plan),
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
        time, offset = _get(p, "time", float, ppath), _number_list(p, "offset", 3, ppath)
        try:
            perts.append(Perturbation(time, offset))
        except ValueError as exc:
            raise SchemaError(ppath, str(exc)) from exc
    durations = {}
    for key in ("replan_interval", "control_rate", "duration"):
        durations[key] = value = _get(data, key, float, "")
        if not (math.isfinite(value) and value > 0):
            raise SchemaError(key, f"must be finite and positive, got {value}")
    try:
        return Scenario(
            initial_plan=plan,
            perturbations=tuple(perts),
            **durations,
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
            "samples": _sample_rows(log.commanded),
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
