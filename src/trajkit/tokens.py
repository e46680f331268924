"""Anchor-conditioned waypoint token encoding and decoding.

A sparse camera-frame trajectory becomes a sequence of per-waypoint token
blocks (depth bin, integer pixel UV, gripper bit, three Euler-angle bins)
conditioned on a depth-augmented anchor. Decoding back-projects each
block through the camera intrinsics to camera-frame waypoints.

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
from .geometry import CameraModel, Frame, back_project, normalize_angles, project
from .keyframes import SparseTrajectory

__all__ = [
    "DepthSource",
    "DepthMode",
    "Anchor",
    "QuantizationSpec",
    "TokenBlock",
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
        if not all(math.isfinite(x) for x in (self.u, self.v, self.d)):
            raise ValueError("anchor coordinates must be finite")
        if self.u < 0 or self.v < 0:
            raise ValueError(f"anchor pixel ({self.u}, {self.v}) must be non-negative")
        if self.d <= 0:
            raise ValueError(f"anchor depth must be positive, got {self.d}")
        for name in ("u", "v", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "depth_source", DepthSource(self.depth_source))


@dataclass(frozen=True)
class QuantizationSpec:
    """Bin layout for depth, image UV, and Euler-angle tokens.

    UV tokens are raw integer pixels over [0, width) x [0, height);
    angles share a uniform grid over [-pi, pi).
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
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if self.depth_bins < 2 or self.angle_bins < 2:
            raise ValueError("bin counts must be >= 2")
        if not self.depth_max > self.depth_min:
            raise ValueError("depth_max must exceed depth_min")
        for name in ("width", "height", "depth_bins", "angle_bins"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "depth_min", float(self.depth_min))
        object.__setattr__(self, "depth_max", float(self.depth_max))
        mode = DepthMode(self.depth_mode)
        object.__setattr__(self, "depth_mode", mode)
        if mode is DepthMode.ANCHOR_RELATIVE:
            if self.depth_delta_max is None or self.depth_delta_max <= 0:
                raise ValueError("anchor_relative mode needs depth_delta_max > 0")
        if self.depth_delta_max is not None:
            object.__setattr__(self, "depth_delta_max", float(self.depth_delta_max))

    @classmethod
    def for_camera(cls, cam: CameraModel, **overrides) -> "QuantizationSpec":
        return cls(width=cam.width, height=cam.height, **overrides)


@dataclass(frozen=True)
class TokenBlock:
    """Quantized per-waypoint tuple: depth, pixel UV, gripper, Euler bins."""

    d_token: int
    u_token: int
    v_token: int
    g_token: int
    r_tokens: tuple

    def __post_init__(self):
        r = tuple(int(x) for x in self.r_tokens)
        if len(r) != 3:
            raise ValueError("r_tokens must have exactly 3 entries")
        if self.g_token not in (0, 1):
            raise ValueError(f"gripper token must be 0 or 1, got {self.g_token}")
        for name in ("d_token", "u_token", "v_token", "g_token"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "r_tokens", r)


@dataclass(frozen=True)
class TokenSequence:
    """Anchor plus ordered token blocks; CLS/IMG/TXT/EOS markers are structural
    only and implied by the serialized layout."""

    spec: QuantizationSpec
    anchor: Anchor
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("token sequence needs at least one block")
        s = self.spec
        if not (0 <= self.anchor.u < s.width and 0 <= self.anchor.v < s.height):
            raise ValueError("anchor lies outside the image bounds")
        for i, b in enumerate(blocks):
            if not 0 <= b.d_token < s.depth_bins:
                raise ValueError(f"block {i}: depth token {b.d_token} out of range")
            if not (0 <= b.u_token < s.width and 0 <= b.v_token < s.height):
                raise ValueError(f"block {i}: UV token out of range")
            if any(not 0 <= r < s.angle_bins for r in b.r_tokens):
                raise ValueError(f"block {i}: angle token out of range")
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def quantize(value: float, lo: float, hi: float, bins: int) -> int:
    """Uniform bin index of value over [lo, hi], clamped into [0, bins-1]."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if not hi > lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    x = min(max(float(value), lo), hi)
    idx = int(math.floor((x - lo) / (hi - lo) * bins))
    return min(idx, bins - 1)


def dequantize(index: int, lo: float, hi: float, bins: int) -> float:
    """Center of bin ``index`` over [lo, hi]."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if not hi > lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    if not 0 <= index < bins:
        raise ValueError(f"bin index {index} out of [0, {bins})")
    return lo + (index + 0.5) * (hi - lo) / bins


def _pixel_token(x: float) -> int:
    """Nearest integer pixel, half-values rounding up."""
    return int(math.floor(x + 0.5))


def encode_sequence(sparse: SparseTrajectory, anchor: Anchor, cam: CameraModel,
                    spec: QuantizationSpec) -> TokenSequence:
    """Tokenize a camera-frame sparse trajectory against an anchor.

    Each waypoint is projected through the camera (UV rounded to integer
    pixels), its depth quantized per the quantization depth mode, and its
    Euler angles wrapped into [-pi, pi) and binned. Waypoints that project
    outside the image raise :class:`OutOfFrameError` with their index;
    depths outside the quantizer range raise :class:`DepthRangeError`.
    """
    if sparse.frame is not Frame.CAMERA:
        raise ValueError("encode_sequence expects a camera-frame trajectory")
    if (spec.width, spec.height) != (cam.width, cam.height):
        raise SchemaError("spec.uv", "quantization UV dimensions do not match the camera")
    blocks = []
    for i, (position, euler, gripper) in enumerate(
            zip(sparse.positions, sparse.eulers, sparse.grippers)):
        u, v, d = project(position, cam)
        u_tok, v_tok = _pixel_token(u), _pixel_token(v)
        if not (0 <= u_tok < spec.width and 0 <= v_tok < spec.height):
            raise OutOfFrameError(i, u, v)
        if spec.depth_mode is DepthMode.ANCHOR_RELATIVE:
            delta = d - anchor.d
            if abs(delta) > spec.depth_delta_max:
                raise DepthRangeError(i, delta, -spec.depth_delta_max, spec.depth_delta_max)
            d_tok = quantize(delta, -spec.depth_delta_max, spec.depth_delta_max, spec.depth_bins)
        else:
            if not spec.depth_min <= d <= spec.depth_max:
                raise DepthRangeError(i, d, spec.depth_min, spec.depth_max)
            d_tok = quantize(d, spec.depth_min, spec.depth_max, spec.depth_bins)
        angles = normalize_angles(euler)
        r_toks = tuple(quantize(a, -math.pi, math.pi, spec.angle_bins) for a in angles)
        blocks.append(TokenBlock(d_tok, u_tok, v_tok, gripper, r_toks))
    return TokenSequence(spec, anchor, tuple(blocks))


def decode_sequence(tokens: TokenSequence, cam: CameraModel) -> SparseTrajectory:
    """Reconstruct camera-frame waypoints from a token sequence.

    Depth and angles dequantize to bin centers (anchor depth added back
    in anchor-relative mode) and UV tokens back-project through the
    camera intrinsics. Timestamps are the abstract indices 0..N-1; real
    timing is assigned downstream by the detokenizer.
    """
    spec = tokens.spec
    if (spec.width, spec.height) != (cam.width, cam.height):
        raise SchemaError("spec.uv", "quantization UV dimensions do not match the camera")
    n = len(tokens.blocks)
    positions = np.empty((n, 3))
    eulers = np.empty((n, 3))
    for i, b in enumerate(tokens.blocks):
        if spec.depth_mode is DepthMode.ANCHOR_RELATIVE:
            d = tokens.anchor.d + dequantize(
                b.d_token, -spec.depth_delta_max, spec.depth_delta_max, spec.depth_bins
            )
        else:
            d = dequantize(b.d_token, spec.depth_min, spec.depth_max, spec.depth_bins)
        positions[i] = back_project(float(b.u_token), float(b.v_token), d, cam)
        eulers[i] = [dequantize(r, -math.pi, math.pi, spec.angle_bins) for r in b.r_tokens]
    grippers = [b.g_token for b in tokens.blocks]
    return SparseTrajectory(np.arange(n, dtype=float), positions, eulers, grippers,
                            (True,) * n, Frame.CAMERA)


def anchor_depth_from_prior(u: float, v: float, object_pixel_extent: float,
                            object_metric_extent: float, cam: CameraModel) -> float:
    """Estimate anchor depth from a known object size via similar triangles.

    d = f * metric_extent / pixel_extent with f the mean of the two focal
    lengths.
    """
    if object_pixel_extent <= 0 or object_metric_extent <= 0:
        raise ValueError("object extents must be positive")
    k = cam.intrinsics
    focal = 0.5 * (k[0, 0] + k[1, 1])
    return focal * object_metric_extent / object_pixel_extent
