"""CLI pipelines: sparsify, tokenize, detokenize, metrics, simulate, plot-data."""

import json

import numpy as np
import pytest

import trajkit as tk
from trajkit import cli, fileio
from trajkit.cli import cli_main
from conftest import line_trajectory, make_camera, rigid, rot_z, token_sequence
from test_simulate import line_scenario


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
        assert err == f"error: {field}: must be finite and positive, got {float(value)}\n"

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
