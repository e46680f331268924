"""CLI pipelines: sparsify, tokenize, detokenize, metrics, simulate, plot-data."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajkit as tk
from trajkit import cli, fileio
from trajkit.cli import cli_main
from conftest import line_trajectory, make_camera, rigid, rot_z, token_sequence
from test_simulate import line_scenario

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def line_bundle(tmp_path):
    """Linear constant-gripper world-frame bundle, 101 samples over 1 s."""
    path = tmp_path / "line.json"
    traj = line_trajectory(n=101, euler_ramp=(0.0, 0.0, 0.4))
    fileio.save_bundle(traj, None, path)
    return path, traj


@pytest.fixture
def camera_bundle(tmp_path):
    """Camera-frame bundle carrying the camera block, straight depth push."""
    path = tmp_path / "cam_line.json"
    cam = make_camera()
    t = np.linspace(0.0, 1.0, 101)
    pos = np.stack([0.2 * t, -0.1 * t, 1.0 + 0.5 * t], axis=1)
    traj = tk.DenseTrajectory(t, pos, np.zeros((101, 3)),
                              np.zeros(101, dtype=int), tk.Frame.CAMERA)
    fileio.save_bundle(traj, cam, path)
    return path, traj, cam


class TestKeyframesDetokenizePipeline:
    def test_linear_identity(self, tmp_path, line_bundle):
        bundle_path, traj = line_bundle
        sparse_path = tmp_path / "sparse.json"
        out_path = tmp_path / "dense.json"
        assert cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "5.0",
                         "--subframes", "11", "--out", str(sparse_path)]) == 0
        assert cli_main(["detokenize", "--sparse", str(sparse_path), "--rate", "100",
                         "--out", str(out_path)]) == 0
        rebuilt, _ = fileio.load_bundle(out_path)
        assert rebuilt.frame is tk.Frame.WORLD
        assert np.abs(rebuilt.times - traj.times).max() < 1e-9
        assert np.abs(rebuilt.positions - traj.positions).max() < 1e-9
        assert np.abs(rebuilt.eulers - traj.eulers).max() < 1e-9
        assert np.array_equal(rebuilt.grippers, traj.grippers)

    def test_weights_flag_accepted(self, tmp_path, line_bundle):
        bundle_path, _ = line_bundle
        out = tmp_path / "s.json"
        code = cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "1.0",
                         "--weights", "1", "1", "1", "0.5", "0.5", "0.5",
                         "--subframes", "5", "--out", str(out)])
        assert code == 0
        sparse, _ = fileio.load_sparse_bundle(out)
        assert len(sparse) == 5


class TestTokenizeDetokenize:
    def test_round_trip_within_quantization(self, tmp_path, camera_bundle):
        bundle_path, traj, cam = camera_bundle
        sparse_path = tmp_path / "sparse.json"
        tokens_path = tmp_path / "tokens.json"
        dense_path = tmp_path / "dense.json"
        assert cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "5.0",
                         "--subframes", "12", "--out", str(sparse_path)]) == 0
        assert cli_main(["tokenize", "--input", str(sparse_path),
                         "--camera-from", str(bundle_path),
                         "--anchor", "50,50,1.2", "--out", str(tokens_path)]) == 0
        assert cli_main(["detokenize", "--input", str(tokens_path),
                         "--camera-from", str(bundle_path), "--rate", "10",
                         "--segment-duration", "0.5", "--out", str(dense_path)]) == 0
        rebuilt, _ = fileio.load_bundle(dense_path)
        assert rebuilt.frame is tk.Frame.WORLD
        # identity extrinsics: decoded positions approximate the camera-frame
        # waypoints within the quantization bound (coarse check)
        start = rebuilt.positions[0]
        assert np.linalg.norm(start - traj.positions[0]) < 0.02

    def test_detokenize_sparse_moves_a_camera_frame_bundle_to_the_world(self, tmp_path):
        cam = make_camera(extrinsics=rigid(rot_z(0.3), [1.0, -2.0, 0.5]))
        pos = np.array([[0.1, 0.2, 1.0], [0.3, -0.1, 1.5]])
        sparse, out = tmp_path / "sparse.json", tmp_path / "dense.json"
        fileio.save_sparse_bundle(tk.SparseTrajectory([0.0, 1.0], pos, np.zeros((2, 3)), [0, 0],
                                                      (True, True), tk.Frame.CAMERA), cam, sparse)
        assert cli_main(["detokenize", "--sparse", str(sparse), "--rate", "4",
                         "--out", str(out)]) == 0
        dense, _ = fileio.load_bundle(out)
        assert dense.frame is tk.Frame.WORLD and len(dense) == 5
        # two waypoints: the spline is the chord between their world positions
        world = tk.camera_to_world(pos, cam)
        assert np.abs(dense.positions - (world[0] + np.outer(dense.times, world[1] - world[0])
                                         )).max() < 1e-12

    def test_custom_spec_file(self, tmp_path, camera_bundle):
        bundle_path, _, _ = camera_bundle
        sparse_path = tmp_path / "sparse.json"
        spec_path = tmp_path / "spec.json"
        tokens_path = tmp_path / "tokens.json"
        cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "5.0",
                  "--subframes", "4", "--out", str(sparse_path)])
        spec_path.write_text(json.dumps({
            "depth": {"min": 0.5, "max": 2.5, "bins": 64},
            "uv": {"width": 100, "height": 100},
            "angle": {"bins": 32},
            "depth_mode": "absolute",
            "depth_delta_max": None,
        }))
        assert cli_main(["tokenize", "--input", str(sparse_path),
                         "--camera-from", str(bundle_path), "--spec", str(spec_path),
                         "--anchor", "50,50,1.2", "--out", str(tokens_path)]) == 0
        tokens = fileio.load_token_file(tokens_path)
        assert tokens.spec.depth_bins == 64

    def test_tokenize_takes_the_input_bundles_camera(self, tmp_path, camera_bundle):
        # keyframes writes the camera into the sparse bundle, so --camera-from
        # is optional and naming the dense bundle changes nothing
        bundle_path, _, _ = camera_bundle
        sparse_path = tmp_path / "sparse.json"
        assert cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "5.0",
                         "--subframes", "12", "--out", str(sparse_path)]) == 0
        outs = [tmp_path / "own.json", tmp_path / "from.json"]
        for extra, out in zip(([], ["--camera-from", str(bundle_path)]), outs):
            assert cli_main(["tokenize", "--input", str(sparse_path), *extra,
                             "--anchor", "50,50,1.2", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_detokenize_tokens_without_camera_names_the_flag(self, tmp_path, capsys):
        tokens, out = tmp_path / "tokens.json", tmp_path / "dense.json"
        cam = make_camera()
        fileio.save_token_file(token_sequence(tk.QuantizationSpec.for_camera(cam),
                                              tk.Anchor(50, 50, 1.0),
                                              [(40, 30, 60, 0, (100, 140, 20))] * 2), tokens)
        code = cli_main(["detokenize", "--input", str(tokens), "--rate", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and "--camera-from" in err

    def test_camera_from_without_camera_block_is_a_schema_error(self, tmp_path, capsys,
                                                                 camera_bundle, line_bundle):
        bundle_path, _, _ = camera_bundle
        world_path, _ = line_bundle  # saved without a camera block
        sparse_path, out = tmp_path / "sparse.json", tmp_path / "tokens.json"
        assert cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "5.0",
                         "--subframes", "4", "--out", str(sparse_path)]) == 0
        capsys.readouterr()
        code = cli_main(["tokenize", "--input", str(sparse_path), "--camera-from",
                         str(world_path), "--anchor", "50,50,1.2", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == f"error: camera: {world_path} carries no camera block\n"

    # (edit of the --camera-from bundle's JSON text, the error it gives); "@"
    # holds the place of intrinsics[0], as json.dumps cannot write some
    # literals, and gets back its own value where an edit leaves it
    CAMERA_FAULTS = {
        "invalid-json-after-block": (lambda text: text[:-1], None),
        "overflow": (lambda text: text.replace('"@"', "1e400"),
                     "camera.intrinsics[0]: must be finite, got inf"),
        "nan": (lambda text: text.replace('"@"', "NaN"),
                "camera.intrinsics[0]: must be finite, got nan"),
        "number-as-string": (lambda text: text.replace('"@"', '"100.0"'),
                             "camera.intrinsics[0]: expected a number"),
        "float-width": (lambda text: text.replace('"width": 100', '"width": 100.0'),
                        "camera.width: expected an integer, got float"),
        "width-beyond-float-range": (lambda text: text.replace('"width": 100', '"width": 1e400'),
                                     "camera.width: expected an integer, got float"),
    }

    @pytest.mark.parametrize("fault", sorted(CAMERA_FAULTS))
    def test_camera_from_faults_are_validation_errors(self, tmp_path, capsys, camera_bundle,
                                                      fault):
        # --camera-from reads only the camera block's numbers, but a file that
        # is not valid JSON anywhere is still refused, with a full load's error
        bundle_path, _, _ = camera_bundle
        sparse_path, out = tmp_path / "sparse.json", tmp_path / "tokens.json"
        assert cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "5.0",
                         "--subframes", "4", "--out", str(sparse_path)]) == 0
        capsys.readouterr()
        data = json.loads(bundle_path.read_text())
        k0, data["camera"]["intrinsics"][0] = data["camera"]["intrinsics"][0], "@"
        edit, message = self.CAMERA_FAULTS[fault]
        damaged = tmp_path / "damaged.json"
        damaged.write_text(edit(json.dumps(data)).replace('"@"', repr(k0)))
        code = cli_main(["tokenize", "--input", str(sparse_path), "--camera-from",
                         str(damaged), "--anchor", "50,50,1.2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        if message is None:
            assert err.startswith(f"error: {damaged}: not valid JSON: ") and err.count("\n") == 1
        else:
            assert err == f"error: {message}\n"

    def test_camera_from_duplicate_camera_key_takes_the_last(self, tmp_path, capsys,
                                                            camera_bundle):
        # as in a full parse, the last of two "camera" keys is the block read
        bundle_path, _, _ = camera_bundle
        sparse_path, own, out = (tmp_path / n for n in ("sparse.json", "own.json", "out.json"))
        assert cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "5.0",
                         "--subframes", "4", "--out", str(sparse_path)]) == 0
        argv = ["tokenize", "--input", str(sparse_path), "--anchor", "50,50,1.2"]
        assert cli_main([*argv, "--camera-from", str(bundle_path), "--out", str(own)]) == 0
        text = bundle_path.read_text().rstrip()
        bad = '"camera": {"width": 1.5}'
        good_last, bad_last = tmp_path / "good_last.json", tmp_path / "bad_last.json"
        good_last.write_text("{" + bad + "," + text[1:])
        bad_last.write_text(text[:-1] + "," + bad + "}")
        capsys.readouterr()
        assert cli_main([*argv, "--camera-from", str(good_last), "--out", str(out)]) == 0
        assert out.read_bytes() == own.read_bytes()
        out.unlink()
        assert cli_main([*argv, "--camera-from", str(bad_last), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: camera.intrinsics: missing required field\n"
        assert not out.exists()

    def test_to_world_moves_positions_and_keeps_orientations(self, tmp_path):
        # yawed 90 degrees and offset: positions move by the extrinsics, while
        # orientation tokens pass through unchanged
        ext = rigid(rot_z(np.pi / 2), [0.5, -0.25, 1.0])
        cam = make_camera(extrinsics=ext)
        bundle, tokens, out = (tmp_path / n for n in ("cam.json", "tokens.json", "dense.json"))
        fileio.save_bundle(line_trajectory(n=3, frame=tk.Frame.CAMERA), cam, bundle)
        seq = token_sequence(tk.QuantizationSpec.for_camera(cam), tk.Anchor(50, 50, 1.0),
                             [(40, 30, 60, 0, (100, 140, 20)), (80, 70, 45, 1, (128, 10, 250)),
                              (120, 55, 50, 1, (3, 128, 200))])
        fileio.save_token_file(seq, tokens)
        assert cli_main(["detokenize", "--input", str(tokens), "--camera-from", str(bundle),
                         "--rate", "1", "--segment-duration", "1", "--out", str(out)]) == 0
        rebuilt, _ = fileio.load_bundle(out)
        decoded = tk.decode_sequence(seq, cam)
        assert np.allclose(rebuilt.times, [0.0, 1.0, 2.0], atol=1e-12)
        world = np.array([ext[:3, :3] @ p + ext[:3, 3] for p in decoded.positions])
        assert np.abs(rebuilt.positions - world).max() < 1e-12
        assert np.abs(tk.eulers_to_quaternions(rebuilt.eulers)
                      - tk.eulers_to_quaternions(decoded.eulers)).max() < 1e-9
        assert rebuilt.grippers[:2].tolist() == [0, 1]


class TestMetricsCommand:
    def test_self_comparison_zeros_and_ones(self, tmp_path, line_bundle):
        bundle_path, _ = line_bundle
        out = tmp_path / "report.json"
        assert cli_main(["metrics", "--pred", str(bundle_path), "--ref",
                         str(bundle_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["cover f1"] == 1.0
        assert report["cover precision"] == 1.0
        for name in ("dtw", "frechet", "hausdorff", "max orth dist",
                     "mean orth dist", "median orth dist", "startpoint err",
                     "endpoint err"):
            assert report[name] == 0.0
        assert report["config"]["tau"] == 0.05

    def test_directory_mode(self, tmp_path, line_bundle):
        bundle_path, traj = line_bundle
        pred_dir, ref_dir = tmp_path / "pred", tmp_path / "ref"
        pred_dir.mkdir()
        ref_dir.mkdir()
        for d in (pred_dir, ref_dir):
            fileio.save_bundle(traj, None, d / "run0.json")
            fileio.save_bundle(traj, None, d / "run1.json")
        out = tmp_path / "agg.json"
        assert cli_main(["metrics", "--pred", str(pred_dir), "--ref", str(ref_dir),
                         "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert sorted(data["pairs"]) == ["run0.json", "run1.json"]
        assert data["pairs"]["run0.json"]["dtw"] == 0.0

    @pytest.mark.parametrize("pred_is_dir", [True, False])
    def test_a_file_and_a_directory_rejected(self, tmp_path, line_bundle, capsys, pred_is_dir):
        bundle, directory = str(line_bundle[0]), str(tmp_path)
        pred, ref = (directory, bundle) if pred_is_dir else (bundle, directory)
        out = tmp_path / "report.json"
        assert cli_main(["metrics", "--pred", pred, "--ref", ref, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --pred and --ref must both be files or both directories\n")
        assert not out.exists()

    def test_directories_without_a_common_bundle_rejected(self, tmp_path, capsys):
        pred_dir, ref_dir, out = tmp_path / "pred", tmp_path / "ref", tmp_path / "agg.json"
        for d, name in ((pred_dir, "run0.json"), (ref_dir, "run1.json")):
            d.mkdir()
            fileio.save_bundle(line_trajectory(), None, d / name)
            (d / "notes.txt").write_text("a common name that is no bundle\n")
        assert cli_main(["metrics", "--pred", str(pred_dir), "--ref", str(ref_dir),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: no matching .json bundles in the two directories\n")
        assert not out.exists()

    @staticmethod
    def _overflowing_pair(pred_path, ref_path):
        t = np.array([0.0, 1.0])
        for path, pos in ((pred_path, [[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                          (ref_path, [[-1e200, 0.0, 0.0], [0.0, 1.0, 0.0]])):
            fileio.save_bundle(tk.DenseTrajectory(t, np.array(pos), np.zeros((2, 3)),
                                                  np.zeros(2, dtype=int), tk.Frame.WORLD),
                               None, path)

    @staticmethod
    def _metrics_process(pred, ref, out):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-c", "from trajkit.cli import main; main()", "metrics",
             "--pred", str(pred), "--ref", str(ref), "--out", str(out)],
            capture_output=True, text=True, env=env)

    def test_overflowing_distances_print_one_error_line(self, tmp_path):
        # a pair whose distances overflow fails with the one error line, naming
        # both bundles: no RuntimeWarning from the kernels, no report holding
        # inf or nan
        pred, ref, out = tmp_path / "pred.json", tmp_path / "ref.json", tmp_path / "report.json"
        self._overflowing_pair(pred, ref)
        result = self._metrics_process(pred, ref, out)
        assert result.returncode == 1
        assert result.stderr == (f"error: {pred} vs {ref}: a and b span too wide a range: "
                                 "the distances between their points overflow\n")
        assert not out.exists()

    def test_directory_mode_names_the_overflowing_pair(self, tmp_path):
        pred_dir, ref_dir, out = tmp_path / "pred", tmp_path / "ref", tmp_path / "agg.json"
        for d in (pred_dir, ref_dir):
            d.mkdir()
            fileio.save_bundle(line_trajectory(), None, d / "run0.json")
        self._overflowing_pair(pred_dir / "run1.json", ref_dir / "run1.json")
        result = self._metrics_process(pred_dir, ref_dir, out)
        assert result.returncode == 1
        assert result.stderr == (f"error: {pred_dir / 'run1.json'} vs {ref_dir / 'run1.json'}: "
                                 "a and b span too wide a range: the distances between their "
                                 "points overflow\n")
        assert not out.exists()


class TestSimulateCommand:
    def test_runs_scenario(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        out = tmp_path / "log.json"
        fileio.save_scenario(line_scenario([tk.Perturbation(3.0, [0.0, 0.02, 0.0])]),
                             scenario_path)
        assert cli_main(["simulate", "--scenario", str(scenario_path),
                         "--out", str(out)]) == 0
        log = fileio.load_execution_log(out)
        assert log.final_error < 1e-3


class TestPlotData:
    def test_csv_shape_and_speed(self, tmp_path, line_bundle):
        bundle_path, traj = line_bundle
        out = tmp_path / "plot.csv"
        assert cli_main(["plot-data", "--input", str(bundle_path),
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x,y,z,speed"
        assert len(lines) == len(traj) + 1
        speed = float(lines[1].split(",")[4])
        assert abs(speed - 1.0) < 1e-9  # 1 m over 1 s

    def test_rows_equal_the_per_value_repr(self, tmp_path, rng):
        # every value is written as repr(float(x)), signed zeros, subnormal-scale
        # and integral-looking floats included
        n = 500
        pos = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 18, (n, 1))
        pos.flat[rng.choice(pos.size, 30, replace=False)] = [-0.0, 1e-300, 1e17] * 10
        t = np.cumsum(rng.uniform(1e-3, 1.0, n))
        bundle, out = tmp_path / "b.json", tmp_path / "plot.csv"
        fileio.save_bundle(tk.DenseTrajectory(t, pos, np.zeros((n, 3)), np.zeros(n, dtype=int),
                                              tk.Frame.WORLD), None, bundle)
        assert cli_main(["plot-data", "--input", str(bundle), "--out", str(out)]) == 0
        traj, _ = fileio.load_bundle(bundle)
        t, p = traj.times, traj.positions
        seg_speed = np.linalg.norm(np.diff(p, axis=0), axis=1) / np.diff(t)
        speeds = np.append(seg_speed, seg_speed[-1])
        lines = ["t,x,y,z,speed"] + [
            ",".join(repr(float(x)) for x in (t[i], p[i, 0], p[i, 1], p[i, 2], speeds[i]))
            for i in range(n)]
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_keeps_a_file_named_like_a_temp_file(self, tmp_path, line_bundle):
        bundle_path, _ = line_bundle
        out = tmp_path / "out.csv"
        user_file = tmp_path / "out.csv.tmp"
        user_file.write_text("keep me\n")
        assert cli_main(["plot-data", "--input", str(bundle_path), "--out", str(out)]) == 0
        assert user_file.read_text() == "keep me\n"
        assert out.read_text().startswith("t,x,y,z,speed\n")

    def test_failed_write_leaves_no_temp_file(self, tmp_path, line_bundle, capsys):
        bundle_path, _ = line_bundle
        out = tmp_path / "out.csv"
        out.mkdir()  # a file cannot replace a directory
        assert cli_main(["plot-data", "--input", str(bundle_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["line.json", "out.csv"]

    @pytest.mark.parametrize("t, x, segment", [
        ([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0], 0),  # a distance over a tiny time
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1e308, -1e308], 2),  # a distance beyond the range
    ])
    def test_speed_beyond_the_float_range_is_one_error_line(self, tmp_path, capsys, t, x,
                                                            segment):
        n = len(t)
        bundle, out = tmp_path / "b.json", tmp_path / "plot.csv"
        fileio.save_bundle(tk.DenseTrajectory(t, np.stack([x, np.zeros(n), np.zeros(n)], axis=1),
                                              np.zeros((n, 3)), np.zeros(n, dtype=int),
                                              tk.Frame.WORLD), None, bundle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["plot-data", "--input", str(bundle), "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (f"error: the speed of segment {segment} (samples "
                                           f"{segment} to {segment + 1}) is beyond the float "
                                           "range\n")


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli_main(["keyframes", "--nonsense"]) == 2
        assert cli_main(["unknown-subcommand"]) == 2

    def test_validation_error_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        out = tmp_path / "out.json"
        code = cli_main(["keyframes", "--input", str(bad), "--alpha", "1.0",
                         "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_huge_integer_is_a_validation_error(self, tmp_path, capsys):
        bundle = tmp_path / "huge.json"
        fileio.save_bundle(line_trajectory(n=4), None, bundle)
        text = bundle.read_text()
        bundle.write_text(text.replace('"t": 0.0', '"t": ' + "9" * 400, 1))
        code = cli_main(["keyframes", "--input", str(bundle), "--alpha", "1.0",
                         "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: samples[0].t: ")

    def test_token_integer_beyond_float_range_is_a_validation_error(self, tmp_path, capsys):
        # used to print "internal error: OverflowError"; the value is not echoed
        cam = make_camera()
        bundle, tokens = tmp_path / "cam.json", tmp_path / "tokens.json"
        fileio.save_bundle(line_trajectory(n=3, frame=tk.Frame.CAMERA), cam, bundle)
        fileio.save_token_file(token_sequence(tk.QuantizationSpec.for_camera(cam),
                                              tk.Anchor(50, 50, 1.0),
                                              [(40, 30, 60, 0, (100, 140, 20))] * 2), tokens)
        data = json.loads(tokens.read_text())
        data["quantization"]["angle"]["bins"] = 10**400
        tokens.write_text(json.dumps(data))
        code = cli_main(["detokenize", "--input", str(tokens), "--camera-from", str(bundle),
                         "--rate", "1", "--out", str(tmp_path / "dense.json")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: quantization: angle_bins is beyond the float range\n"

    @pytest.mark.parametrize("anchor", ["a,b,c", "50,50", "50,50,1.2,0", "50,,1.2"])
    def test_anchor_that_is_not_three_numbers_names_the_flag(self, tmp_path, capsys, anchor):
        # "a,b,c" used to print "error: could not convert string to float: 'a'"
        cam = make_camera()
        sparse, out = tmp_path / "sparse.json", tmp_path / "tokens.json"
        fileio.save_sparse_bundle(line_scenario().initial_plan, cam, sparse)
        code = cli_main(["tokenize", "--input", str(sparse), "--anchor", anchor,
                         "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == \
            f"error: --anchor needs three numbers u,v,d, got {anchor!r}\n"

    def test_non_finite_perturbation_is_a_validation_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        fileio.save_scenario(line_scenario([tk.Perturbation(3.0, [0.02, 0, 0])]), scenario)
        data = json.loads(scenario.read_text())
        data["perturbations"][0]["offset"][0] = float("nan")
        scenario.write_text(json.dumps(data))
        code = cli_main(["simulate", "--scenario", str(scenario),
                         "--out", str(tmp_path / "log.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: perturbations[0]")

    @pytest.mark.parametrize("field", ["control_rate", "duration", "replan_interval"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "0", "-0.5"])
    def test_durations_must_be_finite_and_positive(self, tmp_path, capsys, field, value):
        # json accepts NaN and Infinity; the loader must reject them by name
        scenario = tmp_path / "scenario.json"
        fileio.save_scenario(line_scenario(), scenario)
        data = json.loads(scenario.read_text())
        data[field] = "@"
        scenario.write_text(json.dumps(data).replace('"@"', value))
        out = tmp_path / "log.json"
        code = cli_main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        # NaN and Infinity are rejected as literals, before the range check
        want = "finite and positive" if math.isfinite(float(value)) else "finite"
        assert err == f"error: {field}: must be {want}, got {float(value)}\n"

    @pytest.mark.parametrize("flag, value", [
        ("--rate", "nan"), ("--rate", "inf"), ("--segment-duration", "nan"),
        ("--segment-duration", "inf"), ("--tau", "nan"), ("--tau", "inf"), ("--alpha", "nan"),
    ])
    def test_non_finite_numeric_flag_is_a_validation_error(self, tmp_path, capsys, line_bundle,
                                                           flag, value):
        bundle, out = str(line_bundle[0]), tmp_path / "out.json"
        sparse = tmp_path / "sparse.json"
        fileio.save_sparse_bundle(
            tk.SparseTrajectory([0.0, 1.0], np.eye(2, 3), np.zeros((2, 3)), [0, 0],
                                (True, True), tk.Frame.WORLD), None, sparse)
        argv = {
            "--rate": ["detokenize", "--sparse", str(sparse), "--rate", value],
            "--segment-duration": ["detokenize", "--sparse", str(sparse), "--rate", "10",
                                   "--segment-duration", value],
            "--tau": ["metrics", "--pred", bundle, "--ref", bundle, "--tau", value],
            "--alpha": ["keyframes", "--input", bundle, "--alpha", value],
        }[flag]
        assert cli_main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert flag.lstrip("-") in err and "internal error" not in err, err
        assert not out.exists()

    def test_rate_beyond_the_period_bound_is_a_validation_error(self, tmp_path, capsys):
        # printed "error: internal error: OverflowError: ..." before the bound
        sparse, out = tmp_path / "sparse.json", tmp_path / "out.json"
        fileio.save_sparse_bundle(
            tk.SparseTrajectory([0.0, 1.0], np.eye(2, 3), np.zeros((2, 3)), [0, 0],
                                (True, True), tk.Frame.WORLD), None, sparse)
        code = cli_main(["detokenize", "--sparse", str(sparse), "--rate", "1e300",
                         "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == ("error: rate 1e+300 gives more than 100000000 sample "
                                           "periods over the 1.0 s domain\n")

    def test_missing_file_is_1(self, tmp_path):
        code = cli_main(["plot-data", "--input", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_help_is_0(self):
        assert cli_main(["--help"]) == 0

    def test_internal_error_is_1_without_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "plot-data", broken)
        code = cli_main(["plot-data", "--input", str(tmp_path / "in.json"),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: internal error: RuntimeError: boom\n"


class TestParserReuse:
    def test_one_parser_per_process_answers_like_a_fresh_one(self, tmp_path, line_bundle,
                                                             capsys):
        bundle = str(line_bundle[0])

        def argvs(tag):
            return [
                ["metrics", "--pred", bundle, "--ref", bundle,
                 "--out", str(tmp_path / f"report_{tag}.json")],
                ["keyframes", "--input", bundle, "--alpha", "2.0",
                 "--out", str(tmp_path / f"sparse_{tag}.json")],
                ["detokenize", "--input", "tokens.json", "--sparse", "sparse.json",
                 "--rate", "50", "--out", str(tmp_path / f"dense_{tag}.json")],
                ["--help"],
                ["metrics", "--pred", bundle, "--ref", bundle,
                 "--out", str(tmp_path / f"again_{tag}.json")],
            ]

        def run(argv):
            code = cli_main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        assert cli._build_parser() is cli._build_parser()
        reused = [run(argv) for argv in argvs("reused")]
        fresh = []
        for argv in argvs("fresh"):
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
        assert "not allowed with argument" in reused[2][2]
        assert reused[3][1].startswith("usage: trajkit")
        assert reused == fresh
        for name in ("report", "sparse", "again"):
            assert (tmp_path / f"{name}_reused.json").read_bytes() == \
                (tmp_path / f"{name}_fresh.json").read_bytes()
        assert not (tmp_path / "dense_reused.json").exists()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path, line_bundle):
        bundle_path, _ = line_bundle
        outs = []
        for tag in ("a", "b"):
            sparse = tmp_path / f"sparse_{tag}.json"
            report = tmp_path / f"report_{tag}.json"
            cli_main(["keyframes", "--input", str(bundle_path), "--alpha", "2.0",
                      "--subframes", "11", "--out", str(sparse)])
            cli_main(["metrics", "--pred", str(bundle_path), "--ref",
                      str(bundle_path), "--out", str(report)])
            outs.append((sparse.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]


def golden_runs() -> list:
    """Every subcommand with each golden file in each of its file arguments,
    the other arguments fixed; the CI job without extras makes the same sweep."""
    bundle, sparse, tokens = (str(DATA / f"golden_{kind}.json")
                              for kind in ("bundle", "sparse", "tokens"))
    runs = []
    for path in sorted(map(str, DATA.glob("golden_*.json"))):
        runs += [
            ["keyframes", "--input", path, "--alpha", "0.5"],
            ["tokenize", "--input", path, "--anchor", "320,240,1.0"],
            ["tokenize", "--input", sparse, "--camera-from", path, "--anchor", "320,240,1.0"],
            ["detokenize", "--input", path, "--camera-from", bundle, "--rate", "10"],
            ["detokenize", "--input", tokens, "--camera-from", path, "--rate", "10"],
            ["detokenize", "--sparse", path, "--rate", "10"],
            ["metrics", "--pred", path, "--ref", path],
            ["simulate", "--scenario", path],
            ["plot-data", "--input", path],
        ]
    return runs


def output_numbers(text: str, command: str) -> list:
    """Every number in a subcommand's output: the CSV cells of plot-data,
    else every number in the JSON document."""
    if command == "plot-data":
        return [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]
    numbers, stack = [], [json.loads(text)]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack += value.values()
        elif isinstance(value, list):
            stack += value
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers.append(value)
    return numbers


class TestExtremeFiniteInputs:
    """A golden file with one number set to a finite extreme, run with warnings
    raised as errors: exit 1 with one stderr line that names the refusal."""

    def run(self, tmp_path, capsys, argv) -> str:
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main([*argv, "--out", str(out)])
        assert code == 1 and not out.exists()
        return capsys.readouterr().err

    def golden_with(self, tmp_path, name, where, value) -> str:
        """The golden file ``name`` with the number at key path ``where`` set to ``value``."""
        data = json.loads((DATA / name).read_text())
        node = data
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_intrinsics_without_a_finite_inverse(self, tmp_path, capsys):
        # the skew over the golden camera's fy of 1e-7 makes K^-1 overflow
        cam = self.golden_with(tmp_path, "golden_bundle.json", ("camera", "intrinsics", 1),
                               1.7976931348623157e308)
        err = self.run(tmp_path, capsys, ["detokenize", "--input",
                                          str(DATA / "golden_tokens.json"), "--camera-from",
                                          cam, "--rate", "10"])
        assert err == "error: camera: K is too close to singular: its inverse is not finite\n"

    def test_back_projection_beyond_the_float_range(self, tmp_path, capsys):
        # cx = 1e300 over fx = 321.4 at the golden anchor depth of 1e22
        cam = self.golden_with(tmp_path, "golden_bundle.json", ("camera", "intrinsics", 2), 1e300)
        err = self.run(tmp_path, capsys, ["detokenize", "--input",
                                          str(DATA / "golden_tokens.json"), "--camera-from",
                                          cam, "--rate", "10"])
        assert err == ("error: the camera-frame position of waypoint 0 is beyond the float "
                       "range\n")

    def test_scenario_plan_beyond_a_finite_distance(self, tmp_path, capsys):
        scenario = self.golden_with(tmp_path, "golden_scenario.json",
                                    ("initial_plan", "samples", 2, "pos", 0), 1e300)
        err = self.run(tmp_path, capsys, ["simulate", "--scenario", scenario])
        assert err == ("error: scenario plan position 2 is too far from the positions before "
                       "it: the distances between them overflow\n")

    def test_sub_keyframes_beyond_the_size_bound(self, tmp_path, capsys):
        # 7.28 TiB of waypoints used to end in an internal MemoryError
        err = self.run(tmp_path, capsys, ["keyframes", "--input", str(DATA / "golden_bundle.json"),
                                          "--alpha", "0.5", "--subframes", "1000000000000"])
        assert err == ("error: 1000000000000 samples per segment over 6 keyframe segments give "
                       "more than 100000000 waypoints\n")

    @pytest.mark.parametrize("rate, shown", [(1e12, "1000000000000.0"), (1e308, "1e+308")])
    def test_control_rate_beyond_the_size_bound(self, tmp_path, capsys, rate, shown):
        # 1e12 used to end in an internal MemoryError and 1e308 in NumPy's "Maximum
        # allowed size exceeded"
        scenario = self.golden_with(tmp_path, "golden_scenario.json", ("control_rate",), rate)
        err = self.run(tmp_path, capsys, ["simulate", "--scenario", scenario])
        assert err == (f"error: control_rate {shown} gives more than 100000000 ticks over the "
                       "0.5 s run\n")

    def test_segment_duration_whose_times_overflow(self, tmp_path, capsys):
        # three intervals of 1e308 s used to overflow in a multiply
        err = self.run(tmp_path, capsys, ["detokenize", "--input", str(DATA / "golden_tokens.json"),
                                          "--camera-from", str(DATA / "golden_bundle.json"),
                                          "--rate", "10", "--segment-duration", "1e308"])
        assert err == ("error: --segment-duration 1e+308 over 3 waypoint intervals gives times "
                       "beyond the float range\n")


# the finite extremes the sweep below sets numbers of the golden files to
EXTREMES = [1e300, -1e300, 5e-324, -5e-324, 0.0, -0.0, sys.float_info.max, 1e154, -1e154, 1e9,
            1e-9]
# a scenario's run length is its duration times its control rate, with a replan
# every interval; the sweep leaves these fields alone, so that every run stays short
RUN_LENGTH = {"duration", "control_rate", "replan_interval"}


def number_paths(node, path=()) -> list:
    """The key path of every number in a parsed JSON document, but not of
    the run-length fields at its top level."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [where for key, child in items if path or key not in RUN_LENGTH
                for where in number_paths(child, (*path, key))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


GOLDEN_RUNS = golden_runs()
GOLDEN_TEXT = {str(path): path.read_text() for path in DATA.glob("golden_*.json")}


class TestExtremeFiniteSweep:
    """Every golden_runs() command, run with warnings raised as errors on
    golden files in which one to three numbers are set to finite extremes:
    the exit code is 0, 1 or 2; an exit of 1 leaves one stderr line that is
    not an internal error; and an exit of 0 leaves only finite numbers in
    the output."""

    @settings(max_examples=2500)  # about 11 s on a 2-vCPU x86_64 host
    @given(data=st.data())
    def test_exit_0_with_finite_output_or_exit_1_with_one_error_line(self, tmp_path_factory,
                                                                     data):
        argv = data.draw(st.sampled_from(GOLDEN_RUNS))
        docs = {arg: json.loads(GOLDEN_TEXT[arg]) for arg in argv if arg in GOLDEN_TEXT}
        for _ in range(data.draw(st.integers(1, 3))):
            doc = docs[data.draw(st.sampled_from(sorted(docs)))]
            *where, last = data.draw(st.sampled_from(number_paths(doc)))
            node = doc
            for key in where:
                node = node[key]
            node[last] = data.draw(st.sampled_from(EXTREMES))
        directory = tmp_path_factory.getbasetemp()
        for i, (arg, doc) in enumerate(docs.items()):
            copy = directory / f"sweep_{i}.json"
            copy.write_text(json.dumps(doc))
            argv = [str(copy) if a == arg else a for a in argv]
        out, err = directory / "sweep_out", io.StringIO()
        out.unlink(missing_ok=True)
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli_main([*argv, "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert all(map(math.isfinite, output_numbers(out.read_text(), argv[0])))
        if code == 1:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert not err.startswith("error: internal error"), err


class TestGoldenFiles:
    @pytest.mark.parametrize("argv", golden_runs(),
                             ids=lambda argv: " ".join(Path(a).name for a in argv))
    def test_exit_0_with_finite_output_or_exit_1_with_one_error_line(self, tmp_path, capsys,
                                                                     argv):
        # warnings raise, so a RuntimeWarning would surface as an internal error
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            numbers = output_numbers(out.read_text(), argv[0])
            assert numbers and all(map(math.isfinite, numbers))
        else:
            assert code == 1 and not out.exists()
            assert err.count("\n") == 1 and err.endswith("\n")
            assert err.startswith("error: ") and not err.startswith("error: internal error")

    def test_the_sweep_reaches_both_exits(self, tmp_path, capsys):
        # the overflowing golden values are refused by plot-data and detokenize --sparse
        codes = {}
        for argv in golden_runs():
            if argv[0] in ("plot-data", "detokenize", "keyframes"):
                out = str(tmp_path / "out")
                codes.setdefault(argv[0], set()).add(cli_main([*argv, "--out", out]))
        assert codes == {"keyframes": {0, 1}, "detokenize": {0, 1}, "plot-data": {1}}
