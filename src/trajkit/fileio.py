"""Versioned JSON file formats for trajectories, tokens, scenarios, and logs.

All formats round-trip losslessly: floats serialize via Python's
shortest round-trip repr, so load(save(x)) == x bit-exactly. Every file
is exactly the text of ``json.dumps(payload, indent=2)``. Each JSON
object in a file is read through one field table of (key, kind, width)
by :func:`_fields` (each array of records by :func:`_records`) and
written through the same table by :func:`_object` (arrays of records as
:class:`_Rows` columns). A validation error names the JSON path of the
first faulty field in table order (e.g. ``samples[3].gripper``), and a
constructor's refusal the path of what it builds, through :func:`_build`.
Writes are atomic (temp file + rename): a failed save leaves no partial file.
"""

import json
import math
import os
from enum import Enum
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import InvalidCameraError, SchemaError
from .geometry import CameraModel, DenseTrajectory, Frame, SampleError, _finite_real
from .keyframes import SparseTrajectory
from .metrics import MetricReport
from .replan import ReplanEvent
from .simulate import ExecutionLog, Perturbation, Scenario
from .tokens import Anchor, DepthMode, DepthSource, QuantizationSpec, TokenSequence

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
    A symlink to a regular file keeps its link and has its target replaced;
    any other target that exists but is not a regular file is refused.
    """
    path = os.fspath(path)
    if os.path.lexists(path) and not os.path.isfile(path):
        raise OSError(f"{path} is not a regular file")
    if os.path.islink(path):
        path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x")  # O_CREAT | O_EXCL, so the file unlinked below is always ours
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_json(path, parse_float=float) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=parse_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(str(path), "top-level value must be an object")
    return data


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else key


def _get(obj: dict, key: str, kind, path: str):
    """``obj[key]`` checked as one value of ``kind`` (see the field tables below)."""
    if kind is _NAN and obj.get(key) is None:
        return math.nan
    if key not in obj:
        raise SchemaError(_join(path, key), "missing required field")
    value = obj[key]
    if kind is float or kind is _NAN:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(_join(path, key), f"expected a number, got {type(value).__name__}")
        return _float(value, _join(path, key))
    if kind is int or kind is _BIT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(_join(path, key), f"expected an integer, got {type(value).__name__}")
        if kind is _BIT and value not in (0, 1):
            raise SchemaError(_join(path, key), f"must be 0 or 1, got {value}")
        return value
    json_type = str if issubclass(kind, Enum) else kind
    if not isinstance(value, json_type):
        raise SchemaError(_join(path, key),
                          f"expected {json_type.__name__}, got {type(value).__name__}")
    if json_type is kind:
        return value
    try:
        return kind(value)
    except ValueError:
        *names, last = (repr(member.value) for member in kind)
        raise SchemaError(_join(path, key),
                          f"must be {', '.join(names)} or {last}, got {value!r}") from None


def _float(value, path: str) -> float:
    """A JSON number as a float; NaN, Infinity and ints beyond the float range are SchemaErrors."""
    if not _finite_real(value):
        raise SchemaError(path, "number out of float range" if isinstance(value, int)
                          else f"must be finite, got {value}")
    return float(value)


def _number_list(obj: dict, key: str, n: int, path: str, kind) -> list:
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


_NUMBER = {int, float}  # JSON numbers; type(True) is bool, not int
_BIT = "bit"  # an integer field that must be 0 or 1
_NAN = "nan"  # a number field that reads as NaN when absent or null
# (key, kind, width) of each field of a JSON object, in the order _fields
# checks them; kind is float, int, _BIT, _NAN, an Enum (a str naming one of its
# members' values, read as that member) or the JSON type (str, bool or dict) of
# one value, width 0 for one value and k for a list of k numbers
_SAMPLE_FIELDS = (("t", float, 0), ("pos", float, 3), ("euler_xyz", float, 3),
                  ("gripper", _BIT, 0))
_TOKEN_FIELDS = (("r", int, 3), ("d", int, 0), ("u", int, 0), ("v", int, 0), ("g", _BIT, 0))
_CAMERA_FIELDS = (("intrinsics", float, 9), ("extrinsics_c2w", float, 16), ("width", int, 0),
                  ("height", int, 0))
_QUANTIZATION_FIELDS = (("depth", dict, 0), ("uv", dict, 0), ("angle", dict, 0),
                        ("depth_mode", DepthMode, 0))
_DEPTH_FIELDS = (("min", float, 0), ("max", float, 0), ("bins", int, 0))
_UV_FIELDS = (("width", int, 0), ("height", int, 0))
_ANGLE_FIELDS = (("bins", int, 0),)
_ANCHOR_FIELDS = (("u", float, 0), ("v", float, 0), ("d", float, 0), ("source", DepthSource, 0))
_PERTURBATION_FIELDS = (("time", float, 0), ("offset", float, 3))
_EVENT_FIELDS = (("time", float, 0), ("dropped_count", int, 0), ("gamma_at_kstar", _NAN, 0),
                 ("kstar", int, 0), ("kstar_dropped", bool, 0))


def _typed_columns(records: list, fields: tuple):
    """The columns of ``fields`` as arrays when every field of every record
    has its type and length and is finite, checked a whole column at a
    time; else None."""
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
        if kind is float and not np.isfinite(column).all():  # NaN or Infinity literals
            return None
        columns.append(column.reshape(len(records), width) if width else column)
    return tuple(columns)


def _fields(obj, fields: tuple, path: str) -> list:
    """The values of ``fields`` in ``obj``, the JSON object at ``path``,
    checked in table order; the first fault raises a SchemaError naming its
    path."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    return [_number_list(obj, key, width, path, kind) if width else _get(obj, key, kind, path)
            for key, kind, width in fields]


def _object(fields: tuple, values) -> dict:
    """The JSON object of ``values`` under ``fields``, the inverse of
    :func:`_fields`: keys in table order, an array as its flat list and a
    NaN in a ``_NAN`` field as null."""
    return {key: np.ravel(value).tolist() if width
            else None if kind is _NAN and math.isnan(value) else value
            for (key, kind, width), value in zip(fields, values, strict=True)}


def _build(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, the object at JSON path ``where``. A refusal
    it raises (a ``ValueError`` or an :class:`InvalidCameraError`) becomes the
    SchemaError at ``where[index].field`` with the same message, ``index``
    and ``field`` being a :class:`SampleError`'s, each left out when None."""
    try:
        return build(*args, **kwargs)
    except (ValueError, InvalidCameraError) as exc:
        index, field = (exc.index, exc.field) if isinstance(exc, SampleError) else (None, None)
        at = where if index is None else f"{where}[{index}]"
        raise SchemaError(at if field is None else _join(at, field), str(exc)) from exc


def _records(obj: dict, key: str, fields: tuple, path: str, build):
    """``build(*columns)`` of the records ``obj[key]``, ``obj`` being at ``path``,
    through :func:`_build` at ``<path>.<key>``.

    The columns of ``fields`` are taken whole by :func:`_typed_columns` when
    every record is well formed, else record by record by :func:`_fields`,
    which names the first faulty field.
    """
    where = _join(path, key)
    records = _get(obj, key, list, path)
    columns = _typed_columns(records, fields)
    if columns is None:
        rows = [_fields(record, fields, f"{where}[{i}]") for i, record in enumerate(records)]
        columns = tuple(zip(*rows)) if rows else ((),) * len(fields)
    return _build(where, build, *columns)


def _parse_trajectory(obj: dict, path: str, frame: Frame, sparse: bool):
    """The ``samples`` (and for sparse, ``keyframe_flags``, checked after the
    samples) of ``obj`` as a DenseTrajectory or SparseTrajectory."""

    def build(times, positions, eulers, grippers):
        if not sparse:
            return DenseTrajectory(times, positions, eulers, grippers, frame)
        flags, where = _get(obj, "keyframe_flags", list, path), _join(path, "keyframe_flags")
        if len(flags) != len(times):
            raise SchemaError(where, "length does not match samples")
        if not set(map(type, flags)) <= {bool}:
            i = next(i for i, f in enumerate(flags) if not isinstance(f, bool))
            raise SchemaError(f"{where}[{i}]", "expected a boolean")
        return SparseTrajectory(times, positions, eulers, grippers, flags, frame)

    return _records(obj, "samples", _SAMPLE_FIELDS, path, build)


def _camera_from_dict(obj, path: str) -> CameraModel:
    k, ext, width, height = _fields(obj, _CAMERA_FIELDS, path)
    return _build(path, CameraModel, np.reshape(k, (3, 3)), np.reshape(ext, (4, 4)), width, height)


def _float_literal(value):
    """A float literal that ``parse_float=str.encode`` left as bytes, as the
    float the decoder would have made; any other value as it is."""
    return float(value) if isinstance(value, bytes) else value


def _load_camera(path) -> CameraModel:
    """The camera block of the bundle at ``path``, without a float per sample.

    The whole file is parsed, so invalid JSON anywhere raises as in a full
    load, but each float literal stays its bytes (JSON never yields bytes).
    Only the block's fields and the items of its list fields become floats,
    by the decoder's own correctly rounded ``float``: those are all the
    numbers :func:`_camera_from_dict` reads, and it refuses anything deeper
    whatever that holds, so the camera and every error are a full parse's.
    """
    data = _read_json(path, parse_float=str.encode)
    if "camera" not in data:
        raise SchemaError("camera", f"{path} carries no camera block")
    block = data["camera"]
    if isinstance(block, dict):
        block = {key: [*map(_float_literal, value)] if isinstance(value, list)
                 else _float_literal(value) for key, value in block.items()}
    return _camera_from_dict(block, "camera")


def _bundle_payload(traj, cam, meta, keyframe_flags=None) -> dict:
    payload = {
        "version": FORMAT_VERSION,
        "frame": traj.frame.value,
        "units": dict(_UNITS),
    }
    if cam is not None:
        payload["camera"] = _object(_CAMERA_FIELDS, (cam.intrinsics, cam.extrinsics_c2w,
                                                     cam.width, cam.height))
    payload["samples"] = _sample_rows(traj)
    if keyframe_flags is not None:
        payload["keyframe_flags"] = keyframe_flags.tolist()
    if meta is not None:
        payload["meta"] = meta
    return payload


def _parse_bundle(data: dict, sparse: bool) -> tuple:
    _check_version(data, "")
    frame = _get(data, "frame", Frame, "")
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
    spec, anchor = tokens.spec, tokens.anchor
    bins = (_object(_DEPTH_FIELDS, (spec.depth_min, spec.depth_max, spec.depth_bins)),
            _object(_UV_FIELDS, (spec.width, spec.height)),
            _object(_ANGLE_FIELDS, (spec.angle_bins,)), spec.depth_mode)
    payload = {
        "version": FORMAT_VERSION,
        "quantization": {**_object(_QUANTIZATION_FIELDS, bins),
                         "depth_delta_max": spec.depth_delta_max},
        "anchor": _object(_ANCHOR_FIELDS, (anchor.u, anchor.v, anchor.d,
                                           anchor.depth_source)),
        "blocks": _Rows({"d": tokens.d, "u": tokens.u, "v": tokens.v, "g": tokens.g,
                         "r": tokens.r}),
    }
    _write_json(payload, path)


def parse_quantization(obj, path: str = "quantization") -> QuantizationSpec:
    depth, uv, angle, mode = _fields(obj, _QUANTIZATION_FIELDS, path)
    delta = obj.get("depth_delta_max")
    if delta is not None:  # null, or a number
        delta = _get(obj, "depth_delta_max", float, path)
    width, height = _fields(uv, _UV_FIELDS, f"{path}.uv")
    depth_min, depth_max, depth_bins = _fields(depth, _DEPTH_FIELDS, f"{path}.depth")
    (angle_bins,) = _fields(angle, _ANGLE_FIELDS, f"{path}.angle")
    return _build(path, QuantizationSpec, width, height, depth_min, depth_max, depth_bins,
                  angle_bins, mode, delta)


def load_token_file(path) -> TokenSequence:
    data = _read_json(path)
    _check_version(data, "")
    spec = parse_quantization(_get(data, "quantization", dict, ""))
    anchor = _build("anchor", Anchor,
                    *_fields(_get(data, "anchor", dict, ""), _ANCHOR_FIELDS, "anchor"))
    _build("quantization", spec.depth_grid, anchor)
    return _records(data, "blocks", _TOKEN_FIELDS, "",
                    lambda r, d, u, v, g: TokenSequence(spec, anchor, d, u, v, g, r))


# ---------------------------------------------------------------------------
# scenarios and execution logs


def save_scenario(scenario: Scenario, path) -> None:
    plan = scenario.initial_plan
    payload = {
        "version": FORMAT_VERSION,
        "initial_plan": {
            "frame": plan.frame.value,
            "samples": _sample_rows(plan),
            "keyframe_flags": plan.keyframe_flags.tolist(),
        },
        "perturbations": [_object(_PERTURBATION_FIELDS, (p.time, p.offset))
                          for p in scenario.perturbations],
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
    plan = _parse_trajectory(plan_obj, "initial_plan", _get(plan_obj, "frame", Frame,
                                                            "initial_plan"), sparse=True)
    perts = _records(data, "perturbations", _PERTURBATION_FIELDS, "",
                     lambda times, offsets: list(map(Perturbation, times, offsets)))
    durations = {}
    for key in ("replan_interval", "control_rate", "duration"):
        durations[key] = value = _get(data, key, float, "")
        if not value > 0:
            raise SchemaError(key, f"must be finite and positive, got {value}")
    # an absent flag keeps Scenario's default
    flags = {key: _get(data, key, bool, "") for key in ("replan_enabled", "delayed_planner")
             if key in data}
    return _build("", Scenario, initial_plan=plan, perturbations=perts, **durations, **flags)


def save_execution_log(log: ExecutionLog, path) -> None:
    payload = {
        "version": FORMAT_VERSION,
        "commanded": {
            "frame": log.commanded.frame.value,
            "samples": _sample_rows(log.commanded),
        },
        "replan_events": [_object(_EVENT_FIELDS, (e.time, e.dropped_count, e.gamma_at_kstar,
                                                  e.kstar, e.kstar_dropped))
                          for e in log.replan_events],
        "final_error": log.final_error,
    }
    _write_json(payload, path)


def load_execution_log(path) -> ExecutionLog:
    data = _read_json(path)
    _check_version(data, "")
    cmd = _get(data, "commanded", dict, "")
    commanded = _parse_trajectory(cmd, "commanded", _get(cmd, "frame", Frame, "commanded"),
                                  sparse=False)
    events = _records(data, "replan_events", _EVENT_FIELDS, "",
                      lambda *columns: tuple(map(ReplanEvent, *columns)))
    return ExecutionLog(commanded, events, _get(data, "final_error", float, ""))


def save_metric_report(report: MetricReport, path) -> None:
    """Write a report keyed by exactly the ten row names plus "config"."""
    _write_json(report.as_dict(), path)
