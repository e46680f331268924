"""File formats: bit-exact round trips and path-naming validation."""

import json
import math
import os

import numpy as np
import pytest

import trajkit as tk
from trajkit import cli, fileio
from conftest import assert_same_tokens, line_trajectory, make_camera, token_sequence
from test_simulate import line_scenario
from test_splines import sparse_from_arrays


class TestBundleRoundTrip:
    def test_minimal_bundle_bit_exact(self, tmp_path):
        path = tmp_path / "line.json"
        traj = line_trajectory(n=2)
        fileio.save_bundle(traj, None, path)
        loaded, cam = fileio.load_bundle(path)
        assert cam is None
        assert loaded.frame == traj.frame
        assert np.array_equal(loaded.times, traj.times)
        assert np.array_equal(loaded.positions, traj.positions)

    def test_randomized_bundle_field_equality(self, tmp_path, rng):
        n = 10_000
        t = np.cumsum(rng.uniform(1e-4, 0.1, n))
        traj = tk.DenseTrajectory(
            t, rng.normal(size=(n, 3)), rng.uniform(-math.pi, math.pi, (n, 3)),
            rng.integers(0, 2, n), tk.Frame.CAMERA)
        cam = make_camera(fx=321.4, fy=319.9, cx=159.25, cy=119.75,
                          width=320, height=240)
        path = tmp_path / "rand.json"
        fileio.save_bundle(traj, cam, path)
        loaded, cam2 = fileio.load_bundle(path)
        assert np.array_equal(loaded.times, traj.times)
        assert np.array_equal(loaded.positions, traj.positions)
        assert np.array_equal(loaded.eulers, traj.eulers)
        assert np.array_equal(loaded.grippers, traj.grippers)
        assert np.array_equal(cam2.intrinsics, cam.intrinsics)
        assert np.array_equal(cam2.extrinsics_c2w, cam.extrinsics_c2w)

    def test_save_load_save_byte_identical(self, tmp_path, rng):
        traj = tk.DenseTrajectory(
            np.array([0.0, 1 / 3, 2 / 3]), rng.normal(size=(3, 3)) * math.pi,
            rng.normal(size=(3, 3)), [0, 1, 0], tk.Frame.WORLD)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        fileio.save_bundle(traj, None, p1)
        loaded, _ = fileio.load_bundle(p1)
        fileio.save_bundle(loaded, None, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sparse_round_trip(self, tmp_path, rng):
        t = np.arange(6, dtype=float)
        sparse = sparse_from_arrays(t, rng.normal(size=(6, 3)),
                                    grip=rng.integers(0, 2, 6))
        flags = (True, False, True, False, False, True)
        sparse = tk.SparseTrajectory(sparse.times, sparse.positions, sparse.eulers,
                                     sparse.grippers, flags, tk.Frame.WORLD)
        path = tmp_path / "sparse.json"
        fileio.save_sparse_bundle(sparse, None, path)
        loaded, _ = fileio.load_sparse_bundle(path)
        assert loaded.keyframe_flags.tolist() == list(flags)
        assert np.array_equal(loaded.positions, sparse.positions)

    def test_meta_preserved_opaque(self, tmp_path):
        traj = line_trajectory(n=3)
        path = tmp_path / "meta.json"
        meta = {"instruction": "pick up the roller", "variants": ["grab it"]}
        fileio.save_bundle(traj, None, path, meta=meta)
        assert json.loads(path.read_text())["meta"] == meta


UNITS = {"length": "meters", "time": "seconds", "angle": "radians"}

# the three containers that share the samples parser: wrap(samples) -> payload
CONTAINERS = {
    "bundle": (
        lambda samples: {"version": 1, "frame": "world", "units": UNITS, "samples": samples},
        fileio.load_bundle, ""),
    "scenario": (
        lambda samples: {"version": 1,
                         "initial_plan": {"frame": "world", "samples": samples,
                                          "keyframe_flags": [True] * len(samples)},
                         "perturbations": [], "replan_interval": 0.5,
                         "control_rate": 100.0, "duration": 1.0},
        fileio.load_scenario, "initial_plan."),
    "log": (
        lambda samples: {"version": 1, "commanded": {"frame": "world", "samples": samples},
                         "replan_events": [], "final_error": 0.0},
        fileio.load_execution_log, "commanded."),
}

# fault name -> (damage four samples at t = 0..3 in place, expected path)
SAMPLE_FAULTS = {
    "gripper": (lambda s: s[1].update(gripper=3), "samples[1].gripper"),
    "repeated-t": (lambda s: s[1].update(t=0.0), "samples[1].t"),
    "missing-pos": (lambda s: s[0].pop("pos"), "samples[0].pos"),
    "nan-pos": (lambda s: s[1]["pos"].__setitem__(2, math.nan), "samples[1].pos[2]"),
    "bool-in-pos": (lambda s: s[0]["pos"].__setitem__(1, True), "samples[0].pos[1]"),
    "interior-t-decrease": (lambda s: s[2].update(t=0.5), "samples[2].t"),
    # integers too large for a float
    "huge-t": (lambda s: s[2].update(t=-10**400), "samples[2].t"),
    "huge-pos": (lambda s: s[2]["pos"].__setitem__(1, 10**400), "samples[2].pos[1]"),
    "huge-euler": (lambda s: s[3]["euler_xyz"].__setitem__(0, 10**400),
                   "samples[3].euler_xyz[0]"),
}


class TestBundleValidation:
    def write(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        return path

    def base_payload(self):
        return {
            "version": 1,
            "frame": "world",
            "units": {"length": "meters", "time": "seconds", "angle": "radians"},
            "samples": [
                {"t": 0.0, "pos": [0, 0, 0], "euler_xyz": [0, 0, 0], "gripper": 0},
                {"t": 1.0, "pos": [1, 0, 0], "euler_xyz": [0, 0, 0], "gripper": 0},
            ],
        }

    def test_camera_required_for_camera_frame(self, tmp_path):
        payload = self.base_payload()
        payload["frame"] = "camera"
        with pytest.raises(tk.SchemaError) as info:
            fileio.load_bundle(self.write(tmp_path, payload))
        assert "camera" in str(info.value)

    @pytest.mark.parametrize("container", sorted(CONTAINERS))
    @pytest.mark.parametrize("fault", list(SAMPLE_FAULTS))
    def test_sample_fault_names_path(self, tmp_path, container, fault):
        samples = [
            {"t": float(i), "pos": [i, 0, 0], "euler_xyz": [0, 0, 0], "gripper": 0}
            for i in range(4)
        ]
        damage, where = SAMPLE_FAULTS[fault]
        damage(samples)
        wrap, load, prefix = CONTAINERS[container]
        with pytest.raises(tk.SchemaError) as info:
            load(self.write(tmp_path, wrap(samples)))
        assert info.value.path == prefix + where

    def test_unsupported_version(self, tmp_path):
        payload = self.base_payload()
        payload["version"] = 9
        with pytest.raises(tk.SchemaError):
            fileio.load_bundle(self.write(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(tk.SchemaError):
            fileio.load_bundle(path)

    def test_wrong_units_rejected(self, tmp_path):
        payload = self.base_payload()
        payload["units"]["length"] = "feet"
        with pytest.raises(tk.SchemaError) as info:
            fileio.load_bundle(self.write(tmp_path, payload))
        assert "units.length" in str(info.value)


class TestTokenFile:
    def make_sequence(self):
        spec = tk.QuantizationSpec(width=64, height=48, depth_bins=128,
                                   angle_bins=64)
        blocks = [(d, u, v, g, (r, r, r))
                  for d, u, v, g, r in [(0, 0, 0, 0, 0), (64, 32, 24, 1, 63),
                                        (127, 63, 47, 0, 1)]]
        return token_sequence(spec, tk.Anchor(10.5, 20.25, 1.375), blocks)

    def test_round_trip_bit_exact(self, tmp_path):
        seq = self.make_sequence()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        fileio.save_token_file(seq, p1)
        loaded = fileio.load_token_file(p1)
        assert_same_tokens(loaded, seq)
        fileio.save_token_file(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float_angle_token_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        fileio.save_token_file(self.make_sequence(), path)
        data = json.loads(path.read_text())
        data["blocks"][1]["r"][2] = 12.7
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError) as info:
            fileio.load_token_file(path)
        assert info.value.path == "blocks[1].r[2]"

    @pytest.mark.parametrize("damage, where", [
        (lambda d: d["blocks"][1].update(g=2), "blocks[1].g"),
        (lambda d: (d["blocks"][0].update(g=2), d["blocks"][2].update(u=1.5)), "blocks[0].g"),
        (lambda d: d["blocks"][0].update(d=999), "blocks[0].d"),
        (lambda d: d["blocks"][2].update(u=64), "blocks[2].u"),
        (lambda d: d["blocks"][2].update(v=-1), "blocks[2].v"),
        (lambda d: d["blocks"][0]["r"].__setitem__(1, 64), "blocks[0].r[1]"),
        (lambda d: d["blocks"][0].update(d=10**400), "blocks"),
        (lambda d: d["blocks"][2]["r"].__setitem__(2, 2**63), "blocks"),
        (lambda d: d["blocks"][0].update(r=[1, 2]), "blocks[0].r"),
        (lambda d: d["blocks"][0].pop("v"), "blocks[0].v"),
        (lambda d: d["blocks"].__setitem__(1, 5), "blocks[1]"),
        (lambda d: d.update(blocks=[]), "blocks"),
        (lambda d: d["anchor"].update(u=64.0), "blocks"),
    ], ids=["gripper", "gripper-first", "depth-bin", "u-pixel", "v-pixel", "angle-bin",
            "huge-depth", "huge-angle", "short-r", "missing-v", "not-object", "empty",
            "anchor-outside"])
    def test_malformed_block_names_path(self, tmp_path, damage, where):
        path = tmp_path / "t.json"
        fileio.save_token_file(self.make_sequence(), path)
        data = json.loads(path.read_text())
        damage(data)
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError) as info:
            fileio.load_token_file(path)
        assert info.value.path == where

    @pytest.mark.parametrize("damage", [
        lambda q: q["depth"].update(max=math.inf), lambda q: q["depth"].update(min=-math.inf),
        lambda q: q["depth"].update(min=math.nan),
        lambda q: q.update(depth_mode="anchor_relative", depth_delta_max=math.inf),
    ], ids=["inf-max", "inf-min", "nan-min", "inf-delta"])
    def test_non_finite_quantization_rejected(self, tmp_path, damage):
        path = tmp_path / "t.json"
        fileio.save_token_file(self.make_sequence(), path)
        data = json.loads(path.read_text())
        damage(data["quantization"])
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError) as info:
            fileio.load_token_file(path)
        assert info.value.path.startswith("quantization")

    @pytest.mark.parametrize("damage", [
        lambda q: q["depth"].update(min=-1.0), lambda q: q["depth"].update(min=0.0),
        lambda q: q.update(depth_mode="anchor_relative", depth_delta_max=1.375),
        lambda q: q.update(depth_mode="anchor_relative", depth_delta_max=2.0),
    ], ids=["negative-min", "zero-min", "relative-to-zero", "relative-below-zero"])
    def test_grid_reaching_non_positive_depth_names_quantization(self, tmp_path, damage):
        path = tmp_path / "t.json"
        fileio.save_token_file(self.make_sequence(), path)  # anchor depth 1.375
        data = json.loads(path.read_text())
        damage(data["quantization"])
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError, match="depth") as info:
            fileio.load_token_file(path)
        assert info.value.path == "quantization"

    def test_out_of_range_block_rejected(self, tmp_path):
        seq = self.make_sequence()
        path = tmp_path / "t.json"
        fileio.save_token_file(seq, path)
        data = json.loads(path.read_text())
        data["blocks"][0]["d"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError):
            fileio.load_token_file(path)


class TestScenarioAndLog:
    @pytest.mark.parametrize("damage, where", [
        (lambda p: p.update(time=math.nan), "perturbations[0].time"),
        (lambda p: p["offset"].__setitem__(1, math.nan), "perturbations[0].offset[1]"),
        (lambda p: p["offset"].__setitem__(0, -math.inf), "perturbations[0].offset[0]"),
    ], ids=["nan-time", "nan-offset", "inf-offset"])
    def test_non_finite_perturbation_names_path(self, tmp_path, damage, where):
        path = tmp_path / "scenario.json"
        fileio.save_scenario(line_scenario([tk.Perturbation(3.0, [0.02, 0, 0])]), path)
        data = json.loads(path.read_text())
        damage(data["perturbations"][0])
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError) as info:
            fileio.load_scenario(path)
        assert info.value.path == where

    def test_scenario_round_trip(self, tmp_path):
        scenario = line_scenario([tk.Perturbation(3.0, [0.02, 0, 0])],
                                 delayed_planner=True)
        path = tmp_path / "scenario.json"
        fileio.save_scenario(scenario, path)
        loaded = fileio.load_scenario(path)
        assert loaded.replan_interval == scenario.replan_interval
        assert loaded.delayed_planner is True
        assert np.array_equal(loaded.initial_plan.positions,
                              scenario.initial_plan.positions)
        assert loaded.perturbations[0].time == 3.0

    @pytest.mark.parametrize("key", ["replan_enabled", "delayed_planner"])
    def test_scenario_flags_must_be_booleans(self, tmp_path, key):
        path = tmp_path / "scenario.json"
        fileio.save_scenario(line_scenario(), path)
        data = json.loads(path.read_text())
        data[key] = "false"
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError) as info:
            fileio.load_scenario(path)
        assert info.value.path == key

    def test_absent_scenario_flags_keep_defaults(self, tmp_path):
        path = tmp_path / "scenario.json"
        fileio.save_scenario(line_scenario(replan_enabled=False, delayed_planner=True), path)
        data = json.loads(path.read_text())
        del data["replan_enabled"], data["delayed_planner"]
        path.write_text(json.dumps(data))
        loaded = fileio.load_scenario(path)
        assert loaded.replan_enabled is True and loaded.delayed_planner is False

    @pytest.mark.parametrize("damage, where", [
        (lambda d: d["replan_events"].__setitem__(0, 5), "replan_events[0]"),
        (lambda d: d["commanded"].update(frame="moon"), "commanded.frame"),
        (lambda d: d["replan_events"][0].update(gamma_at_kstar="x"),
         "replan_events[0].gamma_at_kstar"),
        (lambda d: d["commanded"]["samples"].pop(), "commanded.samples"),
    ], ids=["event-not-object", "unknown-frame", "string-gamma", "one-sample"])
    def test_malformed_log_names_path(self, tmp_path, damage, where):
        path = tmp_path / "log.json"
        fileio.save_execution_log(tk.run(line_scenario(duration=2.0)), path)
        data = json.loads(path.read_text())
        data["commanded"]["samples"] = data["commanded"]["samples"][:2]
        assert data["replan_events"]
        damage(data)
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError) as info:
            fileio.load_execution_log(path)
        assert info.value.path == where

    def test_log_round_trip_with_nan_gamma(self, tmp_path):
        log = tk.run(line_scenario(duration=10.0))
        assert any(math.isnan(e.gamma_at_kstar) for e in log.replan_events)
        path = tmp_path / "log.json"
        fileio.save_execution_log(log, path)
        loaded = fileio.load_execution_log(path)
        assert loaded.final_error == log.final_error
        assert np.array_equal(loaded.commanded.positions, log.commanded.positions)
        for a, b in zip(loaded.replan_events, log.replan_events):
            assert (a.time, a.dropped_count, a.kstar, a.kstar_dropped) == \
                   (b.time, b.dropped_count, b.kstar, b.kstar_dropped)
            assert (math.isnan(a.gamma_at_kstar) and math.isnan(b.gamma_at_kstar)) \
                or a.gamma_at_kstar == b.gamma_at_kstar

    def test_metric_report_keys_are_exactly_rows_plus_config(self, tmp_path, rng):
        report = tk.full_report(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        path = tmp_path / "report.json"
        fileio.save_metric_report(report, path)
        data = json.loads(path.read_text())
        assert set(data) == set(tk.REPORT_ROW_NAMES) | {"config"}


class TestHugeNumbers:
    """A JSON integer too large for a float is a SchemaError naming its path."""

    @pytest.mark.parametrize("save, obj, load, damage, where", [
        (lambda o, p: fileio.save_bundle(line_trajectory(n=3), make_camera(), p), None,
         fileio.load_bundle,
         lambda d: d["camera"]["intrinsics"].__setitem__(4, 10**400), "camera.intrinsics[4]"),
        (fileio.save_token_file, TestTokenFile().make_sequence(), fileio.load_token_file,
         lambda d: d["anchor"].update(d=10**400), "anchor.d"),
        (fileio.save_token_file, TestTokenFile().make_sequence(), fileio.load_token_file,
         lambda d: d["quantization"].update(depth_delta_max=10**400),
         "quantization.depth_delta_max"),
        (fileio.save_scenario, line_scenario([tk.Perturbation(3.0, [0.02, 0, 0])]),
         fileio.load_scenario,
         lambda d: d["perturbations"][0]["offset"].__setitem__(2, -10**400),
         "perturbations[0].offset[2]"),
        (fileio.save_scenario, line_scenario(), fileio.load_scenario,
         lambda d: d.update(duration=10**400), "duration"),
        (fileio.save_execution_log, tk.run(line_scenario(duration=2.0)),
         fileio.load_execution_log, lambda d: d.update(final_error=10**400), "final_error"),
    ], ids=["camera", "anchor", "depth-delta", "perturbation", "duration", "final-error"])
    def test_names_path(self, tmp_path, save, obj, load, damage, where):
        path = tmp_path / "file.json"
        save(obj, path)
        data = json.loads(path.read_text())
        damage(data)
        path.write_text(json.dumps(data))
        with pytest.raises(tk.SchemaError) as info:
            load(path)
        assert info.value.path == where


class TestNonFiniteLiterals:
    """JSON's non-standard NaN and Infinity literals are SchemaErrors naming
    their path, so every file that loads can be saved back."""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("save, obj, load, damage, where", [
        (fileio.save_execution_log, tk.run(line_scenario(duration=2.0)),
         fileio.load_execution_log, lambda d: d.update(final_error="@"), "final_error"),
        (fileio.save_execution_log, tk.run(line_scenario(duration=2.0)),
         fileio.load_execution_log, lambda d: d["replan_events"][0].update(time="@"),
         "replan_events[0].time"),
        (lambda o, p: fileio.save_bundle(line_trajectory(n=3), make_camera(), p), None,
         fileio.load_bundle,
         lambda d: d["camera"]["intrinsics"].__setitem__(0, "@"), "camera.intrinsics[0]"),
        (fileio.save_token_file, TestTokenFile().make_sequence(), fileio.load_token_file,
         lambda d: d["anchor"].update(u="@"), "anchor.u"),
    ], ids=["final-error", "event-time", "camera", "anchor"])
    def test_names_path(self, tmp_path, save, obj, load, damage, where, literal):
        path = tmp_path / "file.json"
        save(obj, path)
        data = json.loads(path.read_text())
        damage(data)
        path.write_text(json.dumps(data).replace('"@"', literal))
        with pytest.raises(tk.SchemaError) as info:
            load(path)
        assert info.value.path == where
        assert str(info.value) == f"{where}: must be finite, got {float(literal)}"


class TestAtomicWrites:
    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.json"
        with pytest.raises(OSError):
            fileio.save_bundle(line_trajectory(n=3), None, target)
        assert not target.exists()

    def test_no_stray_temp_files(self, tmp_path):
        path = tmp_path / "out.json"
        fileio.save_bundle(line_trajectory(n=3), None, path)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_outputs_honour_the_umask(self, tmp_path):
        # a plain open() under umask 022 gives 0644; a temp-file writer must too
        previous = os.umask(0o022)
        try:
            bundle, csv = tmp_path / "out.json", tmp_path / "out.csv"
            fileio.save_bundle(line_trajectory(n=3), None, bundle)
            assert cli.cli_main(["plot-data", "--input", str(bundle), "--out", str(csv)]) == 0
            os.umask(0o077)
            private = tmp_path / "private.json"
            fileio.save_bundle(line_trajectory(n=3), None, private)
        finally:
            os.umask(previous)
        assert oct(bundle.stat().st_mode & 0o777) == oct(0o644)
        assert oct(csv.stat().st_mode & 0o777) == oct(0o644)
        assert oct(private.stat().st_mode & 0o777) == oct(0o600)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json",
                                                               "private.json"]


def _controller_state():
    scenario = line_scenario()
    active = tk.fit(scenario.initial_plan)
    return tk.ControllerState(0.0, active.position.position(0.0), active.wxyz[0],
                              active.sample(np.array([0.0]))[3][0], active.grippers[0], active,
                              0.5)


ARRAY_VALUES = {
    "CameraModel": make_camera,
    "DenseTrajectory": lambda: line_trajectory(n=5),
    "SparseTrajectory": lambda: line_scenario().initial_plan,
    "TokenSequence": lambda: token_sequence(
        tk.QuantizationSpec.for_camera(make_camera()), tk.Anchor(50, 50, 1.0),
        [(1, 2, 3, 0, (4, 5, 6)), (7, 8, 9, 1, (10, 11, 12))]),
    "PendingPlan": lambda: line_scenario().base_plan,
    "ControllerState": _controller_state,
    "PositionSpline": lambda: tk.fit(line_scenario().initial_plan).position,
    "ContinuousTrajectory": lambda: tk.fit(line_scenario().initial_plan),
    "Perturbation": lambda: tk.Perturbation(0.1, [0.0, 0.02, 0.0]),
    "Scenario": lambda: line_scenario([tk.Perturbation(0.1, [0.0, 0.02, 0.0])]),
    "ExecutionLog": lambda: tk.ExecutionLog(line_trajectory(n=5), (), 0.0),
}


class TestArrayValueEquality:
    """Array-holding values compare by identity; columns compare with np.array_equal."""

    @pytest.mark.parametrize("name", ARRAY_VALUES)
    def test_equal_copies_compare_without_raising(self, name):
        a, b = ARRAY_VALUES[name](), ARRAY_VALUES[name]()
        assert type(a).__name__ == name
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True
