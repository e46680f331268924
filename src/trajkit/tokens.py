"""Anchor-conditioned waypoint token encoding and decoding.

A sparse camera-frame trajectory becomes one token block per waypoint
(depth bin, integer pixel UV, gripper bit, three Euler-angle bins),
conditioned on a depth-augmented anchor and stored as columns. Decoding
back-projects the blocks through the camera intrinsics to camera-frame
waypoints. Encoding and decoding work on whole columns.

Quantization is uniform with clamping: ``index = floor((v - lo) / bin_width)``
and dequantization returns the bin center, so round-trip error is at most
half a bin. Depth tokens are absolute by default; the anchor-relative
mode quantizes the offset from the anchor depth over a symmetric range.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DepthRangeError, OutOfFrameError, SchemaError
from .geometry import (CameraModel, Frame, SampleError, _check_positive, _check_reals, _clamp,
                       _first, _integral, _real, back_project, normalize_angles, project)
from .keyframes import SparseTrajectory

__all__ = [
    "DepthSource",
    "DepthMode",
    "Anchor",
    "QuantizationSpec",
    "TokenSequence",
    "quantize",
    "dequantize",
    "encode_sequence",
    "decode_sequence",
    "anchor_depth_from_prior",
]


class DepthSource(str, Enum):
    SENSOR = "sensor"
    MONOCULAR_ESTIMATOR = "monocular_estimator"
    PRIOR_SCALE = "prior_scale"


class DepthMode(str, Enum):
    ABSOLUTE = "absolute"
    ANCHOR_RELATIVE = "anchor_relative"


@dataclass(frozen=True)
class Anchor:
    """Image-plane anchor point with externally supplied depth (meters)."""

    u: float
    v: float
    d: float
    depth_source: DepthSource = DepthSource.SENSOR

    def __post_init__(self):
        for name in ("u", "v", "d"):
            object.__setattr__(self, name, _real(f"anchor {name}", getattr(self, name)))
        if self.u < 0 or self.v < 0:
            raise ValueError(f"anchor pixel ({self.u}, {self.v}) must be non-negative")
        if self.d <= 0:
            raise ValueError(f"anchor depth must be positive, got {self.d}")
        object.__setattr__(self, "depth_source", DepthSource(self.depth_source))


@dataclass(frozen=True)
class QuantizationSpec:
    """Bin layout for depth, image UV, and Euler-angle tokens.

    UV tokens are raw integer pixels over [0, width) x [0, height);
    angles share a uniform grid over [-pi, pi). The depth grid must stay
    in front of the camera: ``depth_min > 0`` in absolute mode, and in
    anchor-relative mode ``anchor.d - depth_delta_max > 0``, checked where
    a spec meets its anchor.
    """

    width: int
    height: int
    depth_min: float = 0.1
    depth_max: float = 3.0
    depth_bins: int = 256
    angle_bins: int = 256
    depth_mode: DepthMode = DepthMode.ABSOLUTE
    depth_delta_max: float | None = None

    def __post_init__(self):
        for name in ("width", "height", "depth_bins", "angle_bins"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.depth_bins < 2 or self.angle_bins < 2:
            raise ValueError("bin counts must be >= 2")
        object.__setattr__(self, "depth_min", _real("depth_min", self.depth_min))
        object.__setattr__(self, "depth_max", _real("depth_max", self.depth_max))
        if self.depth_delta_max is not None:
            delta = _real("depth_delta_max", self.depth_delta_max)
            object.__setattr__(self, "depth_delta_max", delta)
        if not self.depth_max > self.depth_min:
            raise ValueError("depth_max must exceed depth_min")
        mode = DepthMode(self.depth_mode)
        object.__setattr__(self, "depth_mode", mode)
        if mode is DepthMode.ABSOLUTE and not self.depth_min > 0:
            raise ValueError(f"depth_min must be positive in absolute mode, got {self.depth_min}")
        if mode is DepthMode.ANCHOR_RELATIVE:
            if self.depth_delta_max is None or self.depth_delta_max <= 0:
                raise ValueError("anchor_relative mode needs depth_delta_max > 0")

    @classmethod
    def for_camera(cls, cam: CameraModel, **overrides) -> "QuantizationSpec":
        return cls(width=cam.width, height=cam.height, **overrides)

    def depth_grid(self, anchor: Anchor) -> tuple:
        """(offset, lo, hi): depth tokens bin ``depth - offset`` over [lo, hi].

        Raises ``ValueError`` when an anchor-relative grid reaches depth <= 0.
        """
        if self.depth_mode is DepthMode.ANCHOR_RELATIVE:
            if not anchor.d - self.depth_delta_max > 0:
                raise ValueError(f"anchor depth {anchor.d} minus depth_delta_max "
                                 f"{self.depth_delta_max} must be positive")
            return anchor.d, -self.depth_delta_max, self.depth_delta_max
        return 0.0, self.depth_min, self.depth_max


@dataclass(frozen=True, eq=False)
class TokenSequence:
    """Anchor plus one token block per waypoint, held as read-only int
    columns named as in the token file: depth bin ``d``, pixel ``u`` and
    ``v``, gripper bit ``g`` (each (n,)) and Euler-angle bins ``r`` (n, 3).
    CLS/IMG/TXT/EOS markers are structural only and implied by the
    serialized layout. A token outside its grid raises a
    :class:`SampleError` naming the first bad block and its field.
    """

    spec: QuantizationSpec
    anchor: Anchor
    d: np.ndarray
    u: np.ndarray
    v: np.ndarray
    g: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        s = self.spec
        grid = {"d": ("depth", s.depth_bins), "u": ("UV", s.width), "v": ("UV", s.height),
                "g": ("gripper", 2), "r": ("angle", s.angle_bins)}
        cols = {key: np.asarray(getattr(self, key)) for key in grid}
        n = len(cols["d"]) if cols["d"].ndim else 0
        if n == 0:
            raise SampleError("token sequence needs at least one block")
        if any(c.dtype.kind not in "biu" or c.shape != ((n, 3) if key == "r" else (n,))
               for key, c in cols.items()):
            raise SampleError("token columns must be int64-range integer arrays, (n,) and "
                              "(n, 3) for r")
        if not (0 <= self.anchor.u < s.width and 0 <= self.anchor.v < s.height):
            raise ValueError("anchor lies outside the image bounds")
        s.depth_grid(self.anchor)  # raises when the grid reaches depth <= 0
        rows = {key: c.reshape(n, -1) for key, c in cols.items()}  # r is (n, 3), the rest (n, 1)
        bad = {key: ~((0 <= c) & (c < grid[key][1])) for key, c in rows.items()}
        i = _first(np.hstack(list(bad.values())).any(axis=1))
        if i is not None:  # name the first bad field of the first bad block
            key = next(key for key in grid if bad[key][i].any())
            j = _first(bad[key][i])
            noun, hi = grid[key]
            raise SampleError(f"block {i}: {noun} token {rows[key][i, j]} out of [0, {hi})", i,
                              f"r[{j}]" if key == "r" else key)
        for key, c in cols.items():
            c = c.astype(int)
            c.flags.writeable = False
            object.__setattr__(self, key, c)

    def __len__(self) -> int:
        return len(self.d)


def _check_grid(lo: float, hi: float, bins: int) -> tuple:
    """(lo, hi, bins) as checked floats lo < hi and an int bins >= 2."""
    lo, hi, bins = _real("lo", lo), _real("hi", hi), _integral("bins", bins)
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if not hi > lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    return lo, hi, bins


def quantize(value, lo: float, hi: float, bins: int):
    """Uniform bin index of each value over [lo, hi], clamped into [0, bins-1].

    Element-wise: an array gives an int array of its shape, a scalar a
    NumPy int. Infinities clamp to the end bins; NaN, bools and strings raise ``ValueError``.
    """
    lo, hi, bins = _check_grid(lo, hi, bins)
    _check_reals(value, "value")
    x = np.asarray(value, dtype=float)
    if np.isnan(x).any():
        raise ValueError("cannot quantize NaN")
    idx = np.floor((_clamp(x, lo, hi) - lo) / (hi - lo) * bins).astype(int)
    return np.minimum(idx, bins - 1)


def dequantize(index, lo: float, hi: float, bins: int):
    """Center of bin ``index`` over [lo, hi], element-wise over an array.

    ``index`` must be integers: an int, a NumPy integer or an integer
    array, never a bool or a float (a fraction is no bin number).
    """
    lo, hi, bins = _check_grid(lo, hi, bins)
    i = np.asarray(index)
    if not np.issubdtype(i.dtype, np.integer):
        raise ValueError(f"index must be an integer or an integer array, got {i.dtype}")
    bad = ~((0 <= i) & (i < bins))
    if bad.any():
        raise ValueError(f"bin index {i[bad][0]} out of [0, {bins})")
    return lo + (i + 0.5) * (hi - lo) / bins


def encode_sequence(sparse: SparseTrajectory, anchor: Anchor, cam: CameraModel,
                    spec: QuantizationSpec) -> TokenSequence:
    """Tokenize a camera-frame sparse trajectory against an anchor.

    Each waypoint is projected through the camera (UV rounded to integer
    pixels, half-values up), its depth quantized per the quantization
    depth mode, and its Euler angles wrapped into [-pi, pi) and binned.
    The first failing waypoint raises :class:`BehindCameraError` (z <= 0),
    :class:`OutOfFrameError` (outside the image) or
    :class:`DepthRangeError` (outside the depth range), in that order.
    """
    if sparse.frame is not Frame.CAMERA:
        raise ValueError("encode_sequence expects a camera-frame trajectory")
    if (spec.width, spec.height) != (cam.width, cam.height):
        raise SchemaError("spec.uv", "quantization UV dimensions do not match the camera")
    behind = _first(sparse.positions[:, 2] <= 0)
    u, v, d = project(sparse.positions[:behind], cam)  # the rows before the first behind
    u_tok, v_tok = np.floor(u + 0.5), np.floor(v + 0.5)
    outside = ~((0 <= u_tok) & (u_tok < spec.width) & (0 <= v_tok) & (v_tok < spec.height))
    offset, lo, hi = spec.depth_grid(anchor)
    depth = d - offset
    i = _first(outside | ~((lo <= depth) & (depth <= hi)))
    if i is not None:
        if outside[i]:
            raise OutOfFrameError(i, float(u[i]), float(v[i]))
        raise DepthRangeError(i, float(depth[i]), lo, hi)
    if behind is not None:
        project(sparse.positions[behind:behind + 1], cam)  # raises BehindCameraError
    r = quantize(normalize_angles(sparse.eulers), -math.pi, math.pi, spec.angle_bins)
    return TokenSequence(spec, anchor, quantize(depth, lo, hi, spec.depth_bins),
                         u_tok.astype(int), v_tok.astype(int), sparse.grippers, r)


def decode_sequence(tokens: TokenSequence, cam: CameraModel) -> SparseTrajectory:
    """Reconstruct camera-frame waypoints from a token sequence.

    Depth and angles dequantize to bin centers (anchor depth added back
    in anchor-relative mode) and UV tokens back-project through the
    camera intrinsics. Every bin center is in front of the camera, since
    the spec and the sequence reject grids that reach depth <= 0.
    Timestamps are the abstract indices 0..N-1; real timing is assigned
    downstream by the detokenizer.
    """
    spec = tokens.spec
    if (spec.width, spec.height) != (cam.width, cam.height):
        raise SchemaError("spec.uv", "quantization UV dimensions do not match the camera")
    offset, lo, hi = spec.depth_grid(tokens.anchor)
    depth = offset + dequantize(tokens.d, lo, hi, spec.depth_bins)
    positions = back_project(tokens.u, tokens.v, depth, cam)
    eulers = dequantize(tokens.r, -math.pi, math.pi, spec.angle_bins)
    n = len(tokens)
    return SparseTrajectory(np.arange(n, dtype=float), positions, eulers, tokens.g,
                            np.ones(n, bool), Frame.CAMERA)


def anchor_depth_from_prior(object_pixel_extent: float, object_metric_extent: float,
                            cam: CameraModel) -> float:
    """Estimate anchor depth from a known object size via similar triangles.

    d = f * metric_extent / pixel_extent with f the mean of the two focal
    lengths.
    """
    _check_positive("object_pixel_extent", object_pixel_extent)
    _check_positive("object_metric_extent", object_metric_extent)
    k = cam.intrinsics
    focal = 0.5 * (k[0, 0] + k[1, 1])
    return focal * object_metric_extent / object_pixel_extent
