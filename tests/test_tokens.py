"""Token codec: quantization, encoding, decoding, anchor depth priors."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import trajkit as tk
from trajkit.geometry import SampleError
from conftest import make_camera, token_sequence
from test_splines import sparse_from_arrays


def quantize_oracle(value, lo, hi, bins):
    """Independent floor-with-clamp reference."""
    width = (hi - lo) / bins
    v = min(max(value, lo), hi)
    return min(int((v - lo) // width), bins - 1)


class TestQuantize:
    def test_range_endpoints(self):
        assert tk.quantize(0.0, 0.0, 2.0, 4) == 0
        assert tk.quantize(2.0, 0.0, 2.0, 4) == 3

    def test_floor_example(self):
        assert tk.quantize(0.6, 0.0, 2.0, 4) == 1
        assert tk.dequantize(1, 0.0, 2.0, 4) == 0.75

    def test_matches_oracle(self, rng):
        for _ in range(500):
            lo = float(rng.uniform(-5, 0))
            hi = lo + float(rng.uniform(0.5, 10))
            bins = int(rng.integers(2, 300))
            v = float(rng.uniform(lo - 1, hi + 1))
            assert tk.quantize(v, lo, hi, bins) == quantize_oracle(v, lo, hi, bins)

    def test_round_trip_within_half_bin(self, rng):
        lo, hi, bins = 0.1, 3.0, 256
        half = (hi - lo) / (2 * bins)
        values = rng.uniform(lo, hi, 10_000)
        for v in values:
            back = tk.dequantize(tk.quantize(v, lo, hi, bins), lo, hi, bins)
            assert abs(back - v) <= half + 1e-12

    def test_out_of_range_clamps(self):
        assert tk.quantize(-10.0, 0.0, 1.0, 8) == 0
        assert tk.quantize(10.0, 0.0, 1.0, 8) == 7

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            tk.quantize(0.5, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            tk.quantize(0.5, 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            tk.dequantize(4, 0.0, 1.0, 4)

    @pytest.mark.parametrize("index", [1.5, True, np.array([0.5, 2.7]), np.float64(2.0),
                                       np.array([True, False]), "1"],
                             ids=["float", "bool", "floats", "integral-float", "bools", "str"])
    def test_dequantize_index_must_be_integers(self, index):
        # a fraction or a bool is no bin number
        with pytest.raises(ValueError) as info:
            tk.dequantize(index, 0.0, 1.0, 4)
        assert str(info.value) == "index must hold integers, not fractions, bools or strings"

    @pytest.mark.parametrize("bins", [2.5, "4", True, None, math.nan, math.inf])
    def test_bins_must_be_an_integer(self, bins):
        for call in (tk.quantize, tk.dequantize):
            with pytest.raises(ValueError, match="^bins must be an integer"):
                call(1, 0.0, 1.0, bins)

    def test_integral_float_bins_give_int_indices(self):
        got = tk.quantize([0.1, 0.6], 0.0, 1.0, 4.0)
        assert got.dtype == tk.quantize([0.1, 0.6], 0.0, 1.0, 4).dtype and got.tolist() == [0, 2]
        assert tk.dequantize(np.array([0, 2]), 0.0, 1.0, 4.0).tolist() == [0.125, 0.625]

    @pytest.mark.parametrize("name, lo, hi", [
        ("hi", 0.0, math.inf), ("lo", -math.inf, 1.0), ("lo", math.nan, 1.0),
        ("hi", 0.0, True), ("lo", False, 1.0), ("hi", 0.0, "1"), ("lo", None, 1.0),
    ])
    def test_range_ends_must_be_finite_reals(self, name, lo, hi):
        for call in (tk.quantize, tk.dequantize):
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
                call(0, lo, hi, 4)


def quantize_reference(value, lo, hi, bins):
    """The scalar quantizer, one Python float at a time."""
    x = min(max(float(value), lo), hi)
    return min(int(math.floor((x - lo) / (hi - lo) * bins)), bins - 1)


grids = st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.integers(2, 1000)).map(
    lambda g: (g[0], g[0] + g[1], g[2]))


class TestElementWise:
    @given(grids, st.lists(st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0]),
                           min_size=1, max_size=20))
    def test_quantize_equals_scalar_reference(self, grid, values):
        got = tk.quantize(np.array(values), *grid)
        assert got.dtype == int
        assert got.tolist() == [quantize_reference(x, *grid) for x in values]

    @given(grids, st.data())
    def test_dequantize_equals_scalar_reference(self, grid, data):
        lo, hi, bins = grid
        index = data.draw(st.lists(st.integers(0, bins - 1), min_size=1, max_size=20))
        got = tk.dequantize(np.array(index), lo, hi, bins)
        assert got.tolist() == [lo + (i + 0.5) * (hi - lo) / bins for i in index]

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            tk.quantize(math.nan, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            tk.quantize([0.5, math.nan], 0.0, 1.0, 4)
        with pytest.raises(ValueError, match="bin index 4"):
            tk.dequantize([0, 4, 5], 0.0, 1.0, 4)


def camera_frame_sparse(points, eulers=None, grips=None):
    pts = np.asarray(points, dtype=float)
    return sparse_from_arrays(np.arange(len(pts), dtype=float), pts, eulers, grips,
                              frame=tk.Frame.CAMERA)


class TestEncode:
    def test_waypoint_at_anchor_relative_center_bin(self, camera):
        spec = tk.QuantizationSpec.for_camera(
            camera, depth_mode=tk.DepthMode.ANCHOR_RELATIVE, depth_delta_max=0.5)
        anchor = tk.Anchor(50.0, 50.0, 2.0)
        sparse = camera_frame_sparse([[0.0, 0.0, 2.0]])  # principal axis at anchor depth
        seq = tk.encode_sequence(sparse, anchor, camera, spec)
        assert seq.d[0] == spec.depth_bins // 2

    def test_hand_quantized_block(self):
        # oracle: project + quantize by hand; floor scheme puts depth 3.0
        # of [1, 5] x 4 bins in bin 2
        cam = tk.CameraModel(np.eye(3), np.eye(4), 10, 10)
        spec = tk.QuantizationSpec(width=10, height=10, depth_min=1.0,
                                   depth_max=5.0, depth_bins=4)
        sparse = camera_frame_sparse([[0.0, 0.0, 3.0]])
        seq = tk.encode_sequence(sparse, tk.Anchor(5.0, 5.0, 1.0), cam, spec)
        assert (seq.u[0], seq.v[0], seq.d[0]) == (0, 0, 2)

    def test_out_of_frame_names_waypoint(self, camera):
        spec = tk.QuantizationSpec.for_camera(camera)
        sparse = camera_frame_sparse([[0.0, 0.0, 1.0], [5.0, 0.0, 1.0]])
        with pytest.raises(tk.OutOfFrameError) as info:
            tk.encode_sequence(sparse, tk.Anchor(50, 50, 1.0), camera, spec)
        assert info.value.waypoint_index == 1

    def test_depth_out_of_range(self, camera):
        spec = tk.QuantizationSpec.for_camera(camera, depth_min=0.5, depth_max=2.0)
        sparse = camera_frame_sparse([[0.0, 0.0, 3.0]])
        with pytest.raises(tk.DepthRangeError):
            tk.encode_sequence(sparse, tk.Anchor(50, 50, 1.0), camera, spec)

    def test_world_frame_rejected(self, camera):
        spec = tk.QuantizationSpec.for_camera(camera)
        sparse = sparse_from_arrays([0.0], np.array([[0.0, 0.0, 1.0]]),
                                    frame=tk.Frame.WORLD)
        with pytest.raises(ValueError):
            tk.encode_sequence(sparse, tk.Anchor(50, 50, 1.0), camera, spec)

    def test_gripper_passthrough(self, camera, rng):
        spec = tk.QuantizationSpec.for_camera(camera)
        grips = rng.integers(0, 2, 12)
        pts = np.column_stack([rng.uniform(-0.3, 0.3, 12), rng.uniform(-0.3, 0.3, 12),
                               rng.uniform(0.5, 2.5, 12)])
        sparse = camera_frame_sparse(pts, grips=grips)
        seq = tk.encode_sequence(sparse, tk.Anchor(50, 50, 1.0), camera, spec)
        decoded = tk.decode_sequence(seq, camera)
        assert list(decoded.grippers) == list(grips)


def encode_reference(sparse, anchor, cam, spec):
    """The per-waypoint encoder: one project and scalar quantize per
    waypoint, raising for the first failing one in the order behind the
    camera, out of frame, depth out of range."""
    d_col, u_col, v_col, r_col = [], [], [], []
    relative = spec.depth_mode is tk.DepthMode.ANCHOR_RELATIVE
    for i, (position, euler) in enumerate(zip(sparse.positions, sparse.eulers)):
        u, v, d = (float(c[0]) for c in tk.project([position], cam))
        u_tok, v_tok = math.floor(u + 0.5), math.floor(v + 0.5)
        if not (0 <= u_tok < spec.width and 0 <= v_tok < spec.height):
            raise tk.OutOfFrameError(i, u, v)
        if relative:
            lo, hi, depth = -spec.depth_delta_max, spec.depth_delta_max, d - anchor.d
            if abs(depth) > hi:
                raise tk.DepthRangeError(i, depth, lo, hi)
        else:
            lo, hi, depth = spec.depth_min, spec.depth_max, d
            if not lo <= depth <= hi:
                raise tk.DepthRangeError(i, depth, lo, hi)
        d_col.append(quantize_reference(depth, lo, hi, spec.depth_bins))
        u_col.append(u_tok)
        v_col.append(v_tok)
        r_col.append([quantize_reference(a, -math.pi, math.pi, spec.angle_bins)
                      for a in tk.normalize_angles(euler)])
    return d_col, u_col, v_col, sparse.grippers.tolist(), r_col


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (tk.TrajkitError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "waypoint_index", None)


SPECS = {
    "absolute": dict(depth_min=0.5, depth_max=2.0, depth_bins=97, angle_bins=31),
    "relative": dict(depth_mode=tk.DepthMode.ANCHOR_RELATIVE, depth_delta_max=0.4,
                     depth_bins=64, angle_bins=256),
}


@st.composite
def waypoints(draw, in_frame: bool):
    """Camera-frame waypoints drawn by pixel and depth; with in_frame False
    some lie behind the camera, outside the image or off the depth grid."""
    n = draw(st.integers(1, 12))
    uvd = draw(arrays(float, (n, 3), elements=st.floats(0.0, 1.0)))
    u, v = uvd[:, 0] * 98.0, uvd[:, 1] * 98.0
    d = 0.9 + 0.6 * uvd[:, 2]
    points = tk.back_project(u, v, d, make_camera())
    if not in_frame:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            points[i] = draw(st.sampled_from([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0],
                                              [3.0, 0.0, 1.0], [0.0, -1.0, 1.0],
                                              [1e10, 0.0, 1e-10], [0.0, 0.0, 2.5],
                                              [0.0, 0.0, 0.2], [0.1, 0.1, 1.6]]))
    eulers = draw(arrays(float, (n, 3), elements=st.floats(-10.0, 10.0)))
    grips = draw(arrays(int, n, elements=st.integers(0, 1)))
    return camera_frame_sparse(points, eulers, grips)


class TestEncodeBatched:
    @pytest.mark.parametrize("mode", sorted(SPECS))
    @given(sparse=waypoints(in_frame=False))
    def test_equals_per_waypoint_reference(self, mode, sparse):
        cam = make_camera()
        spec = tk.QuantizationSpec.for_camera(cam, **SPECS[mode])
        anchor = tk.Anchor(50, 50, 1.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(tk.encode_sequence, sparse, anchor, cam, spec)
        want = outcome(encode_reference, sparse, anchor, cam, spec)
        if got[0] == "ok" and want[0] == "ok":
            seq = got[1]
            assert [c.tolist() for c in (seq.d, seq.u, seq.v, seq.g, seq.r)] == list(want[1])
            assert all(c.dtype == int and not c.flags.writeable
                       for c in (seq.d, seq.u, seq.v, seq.g, seq.r))
        else:
            assert got == want

    @pytest.mark.parametrize("mode", sorted(SPECS))
    @given(sparse=waypoints(in_frame=True))
    def test_decoded_within_half_bins(self, mode, sparse):
        cam = make_camera()
        spec = tk.QuantizationSpec.for_camera(cam, **SPECS[mode])
        anchor = tk.Anchor(50, 50, 1.2)
        seq = tk.encode_sequence(sparse, anchor, cam, spec)
        decoded = tk.decode_sequence(seq, cam)
        u, v, d = tk.project(sparse.positions, cam)
        u2, v2, d2 = tk.project(decoded.positions, cam)
        eps = 1e-9
        assert np.abs(u2 - u).max() <= 0.5 + eps and np.abs(v2 - v).max() <= 0.5 + eps
        span = 2 * spec.depth_delta_max if mode == "relative" else spec.depth_max - spec.depth_min
        assert np.abs(d2 - d).max() <= span / (2 * spec.depth_bins) + eps
        wrapped = tk.normalize_angles(decoded.eulers - sparse.eulers)
        assert np.abs(wrapped).max() <= math.pi / spec.angle_bins + eps
        assert np.array_equal(decoded.grippers, sparse.grippers)

    def test_first_failing_waypoint_in_parent_order(self, camera):
        spec = tk.QuantizationSpec.for_camera(camera, depth_min=0.5, depth_max=2.0)
        anchor = tk.Anchor(50, 50, 1.0)
        ok, behind, outside, deep = [0, 0, 1], [0, 0, -1], [5, 0, 1], [0, 0, 3]
        for rows, error, index in [([ok, deep, behind], tk.DepthRangeError, 1),
                                   ([ok, behind, outside], tk.BehindCameraError, None),
                                   ([outside, deep], tk.OutOfFrameError, 0),
                                   ([[5, 0, 3], ok], tk.OutOfFrameError, 0)]:
            with pytest.raises(error) as info:
                tk.encode_sequence(camera_frame_sparse(rows), anchor, camera, spec)
            assert getattr(info.value, "waypoint_index", None) == index

    @pytest.mark.parametrize("mode, anchor_depth, depth, last", [
        ("absolute", 1.0, 0.5, False), ("absolute", 1.0, 2.0, True),
        ("relative", 1.0, 0.6, False), ("relative", 0.5, 0.9, True),  # offsets exactly -+0.4
    ])
    def test_depth_range_bounds_are_inclusive(self, camera, mode, anchor_depth, depth, last):
        spec = tk.QuantizationSpec.for_camera(camera, **SPECS[mode])
        seq = tk.encode_sequence(camera_frame_sparse([[0, 0, depth]]),
                                 tk.Anchor(50, 50, anchor_depth), camera, spec)
        assert seq.d.tolist() == [spec.depth_bins - 1 if last else 0]

    def test_non_positive_decoded_depth_raises(self, camera):
        # bin 0 would decode to depth 0.2 - 0.5 < 0: the sequence is rejected
        # where the anchor meets the spec, before anything decodes
        spec = tk.QuantizationSpec.for_camera(
            camera, depth_mode=tk.DepthMode.ANCHOR_RELATIVE, depth_delta_max=0.5)
        with pytest.raises(ValueError, match="depth_delta_max 0.5 must be positive"):
            token_sequence(spec, tk.Anchor(50, 50, 0.2),
                           [(200, 50, 50, 0, (0, 0, 0)), (0, 50, 50, 0, (0, 0, 0))])


class TestDecode:
    def test_single_block_principal_point(self, camera):
        spec = tk.QuantizationSpec.for_camera(camera)
        seq = token_sequence(spec, tk.Anchor(50, 50, 1.0), [(10, 50, 50, 0, (128, 128, 128))])
        decoded = tk.decode_sequence(seq, camera)
        pos = decoded.positions[0]
        assert abs(pos[0]) < 1e-12 and abs(pos[1]) < 1e-12  # on the optical axis

    def test_synthetic_timestamps(self, camera):
        spec = tk.QuantizationSpec.for_camera(camera)
        blocks = [(5, 40 + i, 50, 0, (0, 0, 0)) for i in range(4)]
        decoded = tk.decode_sequence(token_sequence(spec, tk.Anchor(50, 50, 1.0), blocks),
                                     camera)
        assert list(decoded.times) == [0.0, 1.0, 2.0, 3.0]

    def test_matches_hand_rolled_oracle(self, camera, rng):
        spec = tk.QuantizationSpec.for_camera(camera)
        k_inv = np.linalg.inv(camera.intrinsics)
        for _ in range(20):
            blocks = [
                (int(rng.integers(0, 256)), int(rng.integers(0, 100)),
                 int(rng.integers(0, 100)), int(rng.integers(0, 2)),
                 tuple(int(x) for x in rng.integers(0, 256, 3)))
                for _ in range(20)
            ]
            seq = token_sequence(spec, tk.Anchor(50, 50, 1.0), blocks)
            decoded = tk.decode_sequence(seq, camera)
            for position, (d_tok, u_tok, v_tok, _, _) in zip(decoded.positions, blocks):
                d = 0.1 + (d_tok + 0.5) * (3.0 - 0.1) / 256
                expected = d * k_inv @ np.array([u_tok, v_tok, 1.0])
                assert np.allclose(position, expected, atol=0)

    def test_camera_mismatch_rejected(self, camera):
        spec = tk.QuantizationSpec(width=64, height=64)
        seq = token_sequence(spec, tk.Anchor(10, 10, 1.0), [(0, 0, 0, 0, (0, 0, 0))])
        with pytest.raises(ValueError) as info:
            tk.decode_sequence(seq, camera)
        assert str(info.value) == "quantization UV dimensions do not match the camera"


class TestRoundTrip:
    def quantization_bound(self, cam, spec, u, v, d_decoded):
        """Worst-case position error from half-pixel UV and half-bin depth."""
        k_inv = np.linalg.inv(cam.intrinsics)
        half_bin = (spec.depth_max - spec.depth_min) / (2 * spec.depth_bins)
        uv_term = d_decoded * np.linalg.norm(k_inv, 2) * math.sqrt(0.5)
        depth_term = half_bin * np.linalg.norm(k_inv @ np.array([u, v, 1.0]))
        return uv_term + depth_term

    def test_position_error_within_analytic_bound(self, camera, rng):
        spec = tk.QuantizationSpec.for_camera(camera)
        n = 2000
        us = rng.uniform(0, 99, n)
        vs = rng.uniform(0, 99, n)
        ds = rng.uniform(0.15, 2.95, n)
        pts = tk.back_project(us, vs, ds, camera)
        sparse = camera_frame_sparse(pts)
        seq = tk.encode_sequence(sparse, tk.Anchor(50, 50, 1.0), camera, spec)
        decoded = tk.decode_sequence(seq, camera)
        for i in range(n):
            d_dec = tk.dequantize(seq.d[i], spec.depth_min,
                                  spec.depth_max, spec.depth_bins)
            bound = self.quantization_bound(camera, spec, us[i], vs[i], d_dec)
            err = np.linalg.norm(decoded.positions[i] - pts[i])
            assert err <= bound + 1e-12

    def test_euler_round_trip_within_half_bin(self, camera, rng):
        spec = tk.QuantizationSpec.for_camera(camera)
        half = 2 * math.pi / (2 * spec.angle_bins)
        eulers = rng.uniform(-math.pi, math.pi - 1e-9, (50, 3))
        pts = np.tile([0.0, 0.0, 1.0], (50, 1))
        sparse = camera_frame_sparse(pts, eulers=eulers)
        decoded = tk.decode_sequence(
            tk.encode_sequence(sparse, tk.Anchor(50, 50, 1.0), camera, spec), camera)
        assert np.abs(decoded.eulers - eulers).max() <= half + 1e-12

    def test_anchor_relative_round_trip(self, camera, rng):
        spec = tk.QuantizationSpec.for_camera(
            camera, depth_mode=tk.DepthMode.ANCHOR_RELATIVE, depth_delta_max=0.4)
        anchor = tk.Anchor(50, 50, 1.5)
        ds = rng.uniform(1.2, 1.8, 30)
        pts = tk.back_project(np.full(30, 50), np.full(30, 50), ds, camera)
        sparse = camera_frame_sparse(pts)
        seq = tk.encode_sequence(sparse, anchor, camera, spec)
        decoded = tk.decode_sequence(seq, camera)
        half_bin = 2 * 0.4 / (2 * spec.depth_bins)
        assert np.abs(decoded.positions[:, 2] - ds).max() <= half_bin + 1e-12


class TestAnchorDepthFromPrior:
    def test_similar_triangles(self, camera):
        assert tk.anchor_depth_from_prior(50.0, 0.5, camera) == 1.0

    def test_inverse_proportionality(self, camera):
        d1 = tk.anchor_depth_from_prior(40.0, 0.5, camera)
        d2 = tk.anchor_depth_from_prior(80.0, 0.5, camera)
        assert abs(d1 - 2 * d2) < 1e-12

    def test_synthetic_cube_recovery(self, camera):
        # oracle: forward pinhole projection of a cube's vertical edge
        d_true = 1.7
        edge_m = 0.2
        _, (top, bottom), _ = tk.project([[0.0, -edge_m / 2, d_true], [0.0, edge_m / 2, d_true]],
                                         camera)
        d_est = tk.anchor_depth_from_prior(bottom - top, edge_m, camera)
        assert abs(d_est - d_true) / d_true < 0.01

    def test_zero_extent_rejected(self, camera):
        with pytest.raises(ValueError):
            tk.anchor_depth_from_prior(0.0, 0.5, camera)
        with pytest.raises(ValueError):
            tk.anchor_depth_from_prior(10.0, 0.0, camera)

    @pytest.mark.parametrize("pixel, metric", [(math.nan, 0.5), (10.0, math.nan),
                                               (math.inf, 0.5)])
    def test_non_finite_extent_rejected(self, camera, pixel, metric):
        with pytest.raises(ValueError, match="extent must be finite and positive"):
            tk.anchor_depth_from_prior(pixel, metric, camera)


class TestSpecValidation:
    @pytest.mark.parametrize("u, v, d, message", [
        (-1, 5, 1.0, "anchor pixel (-1.0, 5.0) must be non-negative"),
        (5, -0.5, 1.0, "anchor pixel (5.0, -0.5) must be non-negative"),
        (5, 5, 0, "anchor depth must be positive, got 0.0"),
        (5, 5, -2.5, "anchor depth must be positive, got -2.5"),
    ])
    def test_bad_anchors(self, u, v, d, message):
        with pytest.raises(ValueError) as info:
            tk.Anchor(u, v, d)
        assert str(info.value) == message

    @pytest.mark.parametrize("width, height", [(0, 10), (10, 0), (-3, 10)])
    def test_dimensions_below_one(self, width, height):
        with pytest.raises(ValueError) as info:
            tk.QuantizationSpec(width=width, height=height)
        assert str(info.value) == "image dimensions must be positive"

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            tk.QuantizationSpec(width=100, height=100, depth_bins=1)
        with pytest.raises(ValueError):
            tk.QuantizationSpec(width=100, height=100, depth_min=2.0, depth_max=1.0)
        with pytest.raises(ValueError):
            tk.QuantizationSpec(width=100, height=100,
                                depth_mode=tk.DepthMode.ANCHOR_RELATIVE)

    @pytest.mark.parametrize("field, value", [
        ("depth_min", -math.inf), ("depth_max", math.inf), ("depth_max", math.nan),
        ("depth_delta_max", math.inf), ("depth_delta_max", math.nan),
    ])
    def test_non_finite_depth_range_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            tk.QuantizationSpec(width=100, height=100, **{field: value})

    @pytest.mark.parametrize("depth_min", [-1.0, 0.0, -0.0])
    def test_absolute_grid_must_stay_positive(self, depth_min):
        with pytest.raises(ValueError, match="depth_min"):
            tk.QuantizationSpec(width=320, height=240, depth_min=depth_min, depth_max=2.0)

    @pytest.mark.parametrize("anchor_depth", [0.4, 0.3])  # the grid reaches 0.0 and -0.1
    def test_anchor_relative_grid_must_stay_positive(self, camera, anchor_depth):
        spec = tk.QuantizationSpec.for_camera(
            camera, depth_mode=tk.DepthMode.ANCHOR_RELATIVE, depth_delta_max=0.4)
        anchor = tk.Anchor(50, 50, anchor_depth)
        with pytest.raises(ValueError, match="depth_delta_max"):
            token_sequence(spec, anchor, [(0, 50, 50, 0, (0, 0, 0))])
        with pytest.raises(ValueError, match="depth_delta_max"):
            tk.encode_sequence(camera_frame_sparse([[0.0, 0.0, anchor_depth]]), anchor,
                               camera, spec)

    def test_block_ranges_checked(self):
        spec = tk.QuantizationSpec(width=10, height=10, depth_bins=4)
        with pytest.raises(ValueError):
            token_sequence(spec, tk.Anchor(5, 5, 1.0), [(4, 0, 0, 0, (0, 0, 0))])
        with pytest.raises(ValueError):
            token_sequence(spec, tk.Anchor(5, 5, 1.0), [(0, 10, 0, 0, (0, 0, 0))])

    @pytest.mark.parametrize("blocks, index, field", [
        ([(0, 0, 0, 0, (0, 0, 0)), (0, 0, 0, 2, (0, 0, 0))], 1, "g"),
        ([(0, 0, 0, 0, (0, 0, 0)), (4, 0, 0, 0, (0, 0, 0))], 1, "d"),
        ([(0, 0, 10, 0, (0, 0, 0)), (0, -1, 0, 0, (0, 0, 0))], 0, "v"),
        ([(0, 0, 0, 0, (0, 0, 0)), (0, -1, 0, 0, (0, 0, 0))], 1, "u"),
        ([(0, 0, 0, 0, (0, 256, -1))], 0, "r[1]"),
        ([(4, 0, 0, 2, (0, 0, 0))], 0, "d"),  # fields in file order
    ])
    def test_first_bad_block_is_named(self, blocks, index, field):
        spec = tk.QuantizationSpec(width=10, height=10, depth_bins=4)
        with pytest.raises(SampleError) as info:
            token_sequence(spec, tk.Anchor(5, 5, 1.0), blocks)
        assert (info.value.index, info.value.field) == (index, field)
        assert str(info.value).startswith(f"block {index}: ")

    @pytest.mark.parametrize("columns", [
        ([0.0], [0], [0], [0], [[0, 0, 0]]), ([0], [0], [0], [0], [[0, 0]]),
        ([0, 0], [0], [0], [0], [[0, 0, 0]]), ([0], [0], [0], [0], [0, 0, 0]),
    ], ids=["float-depth", "short-r", "long-d", "flat-r"])
    def test_columns_must_be_integer_and_aligned(self, columns):
        with pytest.raises(ValueError):
            tk.TokenSequence(tk.QuantizationSpec(width=10, height=10), tk.Anchor(5, 5, 1.0),
                             *columns)

    @pytest.mark.parametrize("field", ["d", "u", "v", "g", "r"])
    def test_bool_columns_rejected(self, field):
        # a bool column used to be read as 0 and 1
        columns = {"d": [0, 1], "u": [0, 1], "v": [0, 1], "g": [0, 1], "r": [[0, 1, 0], [1, 0, 1]]}
        columns[field] = np.array(columns[field], dtype=bool)
        with pytest.raises(SampleError) as info:
            tk.TokenSequence(tk.QuantizationSpec(width=10, height=10), tk.Anchor(5, 5, 1.0),
                             **columns)
        assert str(info.value) == f"{field} must hold integers, not fractions, bools or strings"

    def test_columns_are_read_only_copies(self):
        d = np.array([1, 2])
        seq = tk.TokenSequence(tk.QuantizationSpec(width=10, height=10), tk.Anchor(5, 5, 1.0),
                               d, [0, 1], [2, 3], np.array([1, 0], dtype=np.uint8),
                               [[0, 1, 2], [3, 4, 5]])
        d[0] = 7
        assert seq.d.tolist() == [1, 2] and seq.g.tolist() == [1, 0] and len(seq) == 2
        assert all(getattr(seq, c).dtype == int and not getattr(seq, c).flags.writeable
                   for c in "duvgr")

    def test_empty_sequence_rejected(self):
        spec = tk.QuantizationSpec(width=10, height=10)
        with pytest.raises(ValueError):
            tk.TokenSequence(spec, tk.Anchor(5, 5, 1.0), [], [], [], [], [])
