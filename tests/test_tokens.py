"""Token codec: quantization, encoding, decoding, anchor depth priors."""

import math

import numpy as np
import pytest

import trajkit as tk
from conftest import make_camera
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
        assert seq.blocks[0].d_token == spec.depth_bins // 2

    def test_hand_quantized_block(self):
        # oracle: project + quantize by hand; floor scheme puts depth 2.0
        # of [0, 4] x 4 bins in bin 2
        cam = tk.CameraModel(np.eye(3), np.eye(4), 10, 10)
        spec = tk.QuantizationSpec(width=10, height=10, depth_min=0.0,
                                   depth_max=4.0, depth_bins=4)
        sparse = camera_frame_sparse([[0.0, 0.0, 2.0]])
        seq = tk.encode_sequence(sparse, tk.Anchor(5.0, 5.0, 1.0), cam, spec)
        b = seq.blocks[0]
        assert (b.u_token, b.v_token, b.d_token) == (0, 0, 2)

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


class TestDecode:
    def test_single_block_principal_point(self, camera):
        spec = tk.QuantizationSpec.for_camera(camera)
        seq = tk.TokenSequence(spec, tk.Anchor(50, 50, 1.0),
                               (tk.TokenBlock(10, 50, 50, 0, (128, 128, 128)),))
        decoded = tk.decode_sequence(seq, camera)
        pos = decoded.positions[0]
        assert abs(pos[0]) < 1e-12 and abs(pos[1]) < 1e-12  # on the optical axis

    def test_synthetic_timestamps(self, camera):
        spec = tk.QuantizationSpec.for_camera(camera)
        blocks = tuple(tk.TokenBlock(5, 40 + i, 50, 0, (0, 0, 0)) for i in range(4))
        decoded = tk.decode_sequence(tk.TokenSequence(spec, tk.Anchor(50, 50, 1.0), blocks),
                                     camera)
        assert list(decoded.times) == [0.0, 1.0, 2.0, 3.0]

    def test_matches_hand_rolled_oracle(self, camera, rng):
        spec = tk.QuantizationSpec.for_camera(camera)
        k_inv = np.linalg.inv(camera.intrinsics)
        for _ in range(20):
            blocks = tuple(
                tk.TokenBlock(int(rng.integers(0, 256)), int(rng.integers(0, 100)),
                              int(rng.integers(0, 100)), int(rng.integers(0, 2)),
                              tuple(int(x) for x in rng.integers(0, 256, 3)))
                for _ in range(20)
            )
            seq = tk.TokenSequence(spec, tk.Anchor(50, 50, 1.0), blocks)
            decoded = tk.decode_sequence(seq, camera)
            for position, b in zip(decoded.positions, blocks):
                d = 0.1 + (b.d_token + 0.5) * (3.0 - 0.1) / 256
                expected = d * k_inv @ np.array([b.u_token, b.v_token, 1.0])
                assert np.allclose(position, expected, atol=0)

    def test_camera_mismatch_rejected(self, camera):
        spec = tk.QuantizationSpec(width=64, height=64)
        seq = tk.TokenSequence(spec, tk.Anchor(10, 10, 1.0),
                               (tk.TokenBlock(0, 0, 0, 0, (0, 0, 0)),))
        with pytest.raises(tk.SchemaError):
            tk.decode_sequence(seq, camera)


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
        pts = np.array([tk.back_project(u, v, d, camera) for u, v, d in zip(us, vs, ds)])
        sparse = camera_frame_sparse(pts)
        seq = tk.encode_sequence(sparse, tk.Anchor(50, 50, 1.0), camera, spec)
        decoded = tk.decode_sequence(seq, camera)
        for i in range(n):
            d_dec = tk.dequantize(seq.blocks[i].d_token, spec.depth_min,
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
        pts = np.array([tk.back_project(50, 50, d, camera) for d in ds])
        sparse = camera_frame_sparse(pts)
        seq = tk.encode_sequence(sparse, anchor, camera, spec)
        decoded = tk.decode_sequence(seq, camera)
        half_bin = 2 * 0.4 / (2 * spec.depth_bins)
        assert np.abs(decoded.positions[:, 2] - ds).max() <= half_bin + 1e-12


class TestAnchorDepthFromPrior:
    def test_similar_triangles(self, camera):
        assert tk.anchor_depth_from_prior(50, 50, 50.0, 0.5, camera) == 1.0

    def test_inverse_proportionality(self, camera):
        d1 = tk.anchor_depth_from_prior(50, 50, 40.0, 0.5, camera)
        d2 = tk.anchor_depth_from_prior(50, 50, 80.0, 0.5, camera)
        assert abs(d1 - 2 * d2) < 1e-12

    def test_synthetic_cube_recovery(self, camera):
        # oracle: forward pinhole projection of a cube's vertical edge
        d_true = 1.7
        edge_m = 0.2
        top = tk.project([0.0, -edge_m / 2, d_true], camera)
        bottom = tk.project([0.0, edge_m / 2, d_true], camera)
        pixel_extent = bottom[1] - top[1]
        d_est = tk.anchor_depth_from_prior(50, 50, pixel_extent, edge_m, camera)
        assert abs(d_est - d_true) / d_true < 0.01

    def test_zero_extent_rejected(self, camera):
        with pytest.raises(ValueError):
            tk.anchor_depth_from_prior(50, 50, 0.0, 0.5, camera)
        with pytest.raises(ValueError):
            tk.anchor_depth_from_prior(50, 50, 10.0, 0.0, camera)


class TestSpecValidation:
    def test_bad_specs(self):
        with pytest.raises(ValueError):
            tk.QuantizationSpec(width=100, height=100, depth_bins=1)
        with pytest.raises(ValueError):
            tk.QuantizationSpec(width=100, height=100, depth_min=2.0, depth_max=1.0)
        with pytest.raises(ValueError):
            tk.QuantizationSpec(width=100, height=100,
                                depth_mode=tk.DepthMode.ANCHOR_RELATIVE)

    def test_block_ranges_checked(self):
        spec = tk.QuantizationSpec(width=10, height=10, depth_bins=4)
        with pytest.raises(ValueError):
            tk.TokenSequence(spec, tk.Anchor(5, 5, 1.0),
                             (tk.TokenBlock(4, 0, 0, 0, (0, 0, 0)),))
        with pytest.raises(ValueError):
            tk.TokenSequence(spec, tk.Anchor(5, 5, 1.0),
                             (tk.TokenBlock(0, 10, 0, 0, (0, 0, 0)),))

    def test_empty_sequence_rejected(self):
        spec = tk.QuantizationSpec(width=10, height=10)
        with pytest.raises(ValueError):
            tk.TokenSequence(spec, tk.Anchor(5, 5, 1.0), ())
