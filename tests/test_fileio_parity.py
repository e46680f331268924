"""The fast JSON paths in fileio against their plain references.

Writers: every file is exactly ``json.dumps(payload, indent=2,
allow_nan=False) + "\\n"`` of the payload built here per sample.
Loader: the whole-column type check gives the same columns, or the same
SchemaError, as the per-sample pass alone; the same holds for token
blocks and the per-block pass. Golden files in ``tests/data/`` were
written by the ``json.dumps`` writers (commit 7097109; the token file by
the ``json.dumps`` token writer of commit 00a0cf5; the scenario by
``save_scenario`` of commit 53a8785) from :func:`golden_objects`, and pin
the format.
"""

import json
import math
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import trajkit as tk
from trajkit import fileio
from conftest import assert_same_tokens, make_camera

DATA = Path(__file__).parent / "data"
UNITS = {"length": "meters", "time": "seconds", "angle": "radians"}

# floats whose repr switches form, the smallest subnormal, and signed zero
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, 1e-5, 1e15, 9999999999999998.0,
           0.1, 1 / 3, -2.5e-308, 1.7976931348623157e308, 123456789.125]

finite = st.sampled_from(AWKWARD) | st.floats(allow_nan=False, allow_infinity=False)
json_scalar = (st.none() | st.booleans() | st.integers() | finite
               | st.text(alphabet='[]{}",:\\ \n\tab"samples"é☃', max_size=12))
meta_values = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet='[]{}":ab \n', max_size=6), inner, max_size=3),
    max_leaves=8)


@st.composite
def columns(draw, min_samples=1):
    times = sorted(set(draw(st.lists(finite, min_size=min_samples, max_size=6))))
    if len(times) < min_samples:
        times = [0.0, 1.0][:min_samples]
    n = len(times)
    triples = st.lists(st.lists(finite, min_size=3, max_size=3), min_size=n, max_size=n)
    grippers = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    return times, draw(triples), draw(triples), grippers


def sample_dicts(traj) -> list:
    return [{"t": t, "pos": p, "euler_xyz": e, "gripper": g}
            for t, p, e, g in zip(traj.times.tolist(), traj.positions.tolist(),
                                  traj.eulers.tolist(), traj.grippers.tolist())]


def camera_dict(cam) -> dict:
    return {"intrinsics": cam.intrinsics.reshape(-1).tolist(),
            "extrinsics_c2w": cam.extrinsics_c2w.reshape(-1).tolist(),
            "width": cam.width, "height": cam.height}


def bundle_payload(traj, cam, meta, flags=None) -> dict:
    payload = {"version": 1, "frame": traj.frame.value, "units": UNITS}
    if cam is not None:
        payload["camera"] = camera_dict(cam)
    payload["samples"] = sample_dicts(traj)
    if flags is not None:
        payload["keyframe_flags"] = list(flags)
    if meta is not None:
        payload["meta"] = meta
    return payload


def scenario_payload(sc) -> dict:
    plan = sc.initial_plan
    return {
        "version": 1,
        "initial_plan": {"frame": plan.frame.value, "samples": sample_dicts(plan),
                         "keyframe_flags": plan.keyframe_flags.tolist()},
        "perturbations": [{"time": p.time, "offset": p.offset.tolist()}
                          for p in sc.perturbations],
        "replan_interval": sc.replan_interval,
        "control_rate": sc.control_rate,
        "duration": sc.duration,
        "replan_enabled": sc.replan_enabled,
        "delayed_planner": sc.delayed_planner,
    }


def log_payload(log) -> dict:
    return {
        "version": 1,
        "commanded": {"frame": log.commanded.frame.value,
                      "samples": sample_dicts(log.commanded)},
        "replan_events": [
            {"time": e.time, "dropped_count": e.dropped_count,
             "gamma_at_kstar": None if math.isnan(e.gamma_at_kstar) else e.gamma_at_kstar,
             "kstar": e.kstar, "kstar_dropped": e.kstar_dropped}
            for e in log.replan_events],
        "final_error": log.final_error,
    }


def token_payload(seq) -> dict:
    spec, anchor = seq.spec, seq.anchor
    return {
        "version": 1,
        "quantization": {
            "depth": {"min": spec.depth_min, "max": spec.depth_max, "bins": spec.depth_bins},
            "uv": {"width": spec.width, "height": spec.height},
            "angle": {"bins": spec.angle_bins},
            "depth_mode": spec.depth_mode.value,
            "depth_delta_max": spec.depth_delta_max,
        },
        "anchor": {"u": anchor.u, "v": anchor.v, "d": anchor.d,
                   "source": anchor.depth_source.value},
        "blocks": [{"d": d, "u": u, "v": v, "g": g, "r": r}
                   for d, u, v, g, r in zip(seq.d.tolist(), seq.u.tolist(), seq.v.tolist(),
                                            seq.g.tolist(), seq.r.tolist())],
    }


@st.composite
def token_sequences(draw):
    width, height = draw(st.integers(1, 700)), draw(st.integers(1, 500))
    depth_bins, angle_bins = draw(st.integers(2, 300)), draw(st.integers(2, 300))
    mode = draw(st.sampled_from(list(tk.DepthMode)))
    positive = st.sampled_from([5e-324, 1e-7, 1 / 3, 1e16, 1e22]) | st.floats(1e-300, 1e300)
    # the depth grid stays in front of the camera: an absolute one starts at
    # depth_min > 0, an anchor-relative one at anchor depth - delta > 0
    relative = mode is tk.DepthMode.ANCHOR_RELATIVE
    bounds = finite if relative else positive
    lo, hi = sorted(draw(st.lists(bounds, min_size=2, max_size=2, unique=True)))
    delta, depth = draw(positive if relative else st.none() | positive), draw(positive)
    if relative:
        delta, depth = sorted((delta, depth))
        assume(delta < depth)
    spec = tk.QuantizationSpec(width, height, lo, hi, depth_bins, angle_bins, mode, delta)
    anchor = tk.Anchor(draw(st.floats(0, width, exclude_max=True)),
                       draw(st.sampled_from([0.0, 5e-324]) | st.floats(0, height,
                                                                        exclude_max=True)),
                       depth, draw(st.sampled_from(list(tk.DepthSource))))
    n = draw(st.integers(1, 6))
    column = lambda hi, shape=n: draw(arrays(int, shape, elements=st.integers(0, hi - 1)))
    return tk.TokenSequence(spec, anchor, column(depth_bins), column(width), column(height),
                            column(2), column(angle_bins, (n, 3)))


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


class TestWritersEqualJsonDumps:
    @given(columns(min_samples=2), st.booleans(), st.none() | meta_values,
           st.sampled_from(list(tk.Frame)))
    def test_bundle(self, tmp_path_factory, cols, with_camera, meta, frame):
        traj = tk.DenseTrajectory(*cols, frame)
        cam = make_camera(fx=321.4, cy=1 / 3) if with_camera else None
        path = tmp_path_factory.getbasetemp() / "writer.json"
        fileio.save_bundle(traj, cam, path, meta=meta)
        assert path.read_text() == dumps(bundle_payload(traj, cam, meta))

    @given(columns(), st.data(), st.none() | meta_values)
    def test_sparse_bundle(self, tmp_path_factory, cols, data, meta):
        flags = data.draw(st.lists(st.booleans(), min_size=len(cols[0]),
                                   max_size=len(cols[0])))
        sparse = tk.SparseTrajectory(*cols, flags, tk.Frame.WORLD)
        path = tmp_path_factory.getbasetemp() / "writer.json"
        fileio.save_sparse_bundle(sparse, make_camera(), path, meta=meta)
        assert path.read_text() == dumps(bundle_payload(sparse, make_camera(), meta, flags))

    @given(columns(), st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1e-7]),
                                         st.lists(finite, min_size=3, max_size=3)),
                               max_size=2),
           st.booleans(), st.booleans())
    def test_scenario(self, tmp_path_factory, cols, perts, enabled, delayed):
        plan = tk.SparseTrajectory(*cols, (True,) * len(cols[0]), tk.Frame.WORLD)
        scenario = tk.Scenario(plan, tuple(tk.Perturbation(t, o) for t, o in perts),
                               1e-7, 1e22, 0.5, enabled, delayed)
        path = tmp_path_factory.getbasetemp() / "writer.json"
        fileio.save_scenario(scenario, path)
        assert path.read_text() == dumps(scenario_payload(scenario))

    @given(columns(min_samples=2), st.lists(
        st.tuples(finite, st.integers(0, 9), st.sampled_from([math.nan, -0.0, 5e-324]),
                  st.integers(-1, 9), st.booleans()), max_size=3), finite)
    def test_log(self, tmp_path_factory, cols, events, final_error):
        log = tk.ExecutionLog(tk.DenseTrajectory(*cols, tk.Frame.WORLD),
                              tuple(tk.ReplanEvent(*e) for e in events), final_error)
        path = tmp_path_factory.getbasetemp() / "writer.json"
        fileio.save_execution_log(log, path)
        assert path.read_text() == dumps(log_payload(log))

    @given(token_sequences())
    def test_token_file(self, tmp_path_factory, seq):
        path = tmp_path_factory.getbasetemp() / "writer.json"
        fileio.save_token_file(seq, path)
        assert path.read_text() == dumps(token_payload(seq))

    @given(token_sequences())
    def test_token_file_save_load_save(self, tmp_path_factory, seq):
        first, second = (tmp_path_factory.getbasetemp() / name for name in ("a.json", "b.json"))
        fileio.save_token_file(seq, first)
        loaded = fileio.load_token_file(first)
        assert_same_tokens(loaded, seq)
        fileio.save_token_file(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["times", "positions", "eulers"])
    def test_non_finite_row_value_raises(self, tmp_path, column, bad):
        # a duck-typed trajectory: the real constructors reject non-finite values
        cols = {"times": np.array([0.0, 1.0, 2.0]), "positions": np.zeros((3, 3)),
                "eulers": np.zeros((3, 3)), "grippers": np.zeros(3, dtype=int)}
        cols[column] = cols[column].copy()
        cols[column].flat[-1] = bad
        traj = types.SimpleNamespace(frame=tk.Frame.WORLD, **cols)
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            fileio.save_bundle(traj, None, path)
        with pytest.raises(ValueError, match="not JSON compliant"):
            json.dumps(bundle_payload(traj, None, None), indent=2, allow_nan=False)
        assert list(tmp_path.iterdir()) == []

    def test_meta_with_row_text_is_kept_verbatim(self, tmp_path):
        traj = tk.DenseTrajectory([0.0, 1.0], np.zeros((2, 3)), np.zeros((2, 3)), [0, 1],
                                  tk.Frame.WORLD)
        meta = {"samples": [{"t": 0.0}], "note": '"samples": [\n  {\n', "]": "}"}
        path = tmp_path / "out.json"
        fileio.save_bundle(traj, None, path, meta=meta)
        text = path.read_text()
        assert text == dumps(bundle_payload(traj, None, meta))
        assert json.loads(text)["meta"] == meta


# ---------------------------------------------------------------------------
# loader: whole-column check against the per-sample pass


def outcome(obj, path, sparse, per_sample_only):
    """What _parse_trajectory gives: the columns as bytes, or the error."""
    check = (lambda records, fields: None) if per_sample_only else fileio._typed_columns
    with mock.patch.object(fileio, "_typed_columns", check):
        try:
            traj = fileio._parse_trajectory(obj, path, tk.Frame.WORLD, sparse)
        except tk.SchemaError as exc:
            return "schema", exc.path, str(exc)
        except Exception as exc:  # any other escape must match too
            return type(exc).__name__, str(exc)
    cols = (traj.times, traj.positions, traj.eulers, traj.grippers)
    flags = traj.keyframe_flags.tolist() if sparse else None
    return "ok", [(c.dtype.str, c.shape, c.tobytes()) for c in cols], flags


NOT_A_NUMBER = st.sampled_from([True, False, "1.0", None, [1.0], {}])
BIG_INTS = st.sampled_from([10**400, -10**400, 2**53 + 1, -(2**53 + 1), 2**63, 2**64 + 1,
                            10**308, 2**1024 - 2**970, 2**1024 - 2**971])


FAULTS = ["bad-number", "missing-key", "extra-key", "not-object", "short-euler", "gripper",
          "int-t", "big-int", "nan"]


def damage(draw, samples: list, i: int, kind: str) -> None:
    """Apply the fault ``kind`` to sample i."""
    s = samples[i]
    field = draw(st.sampled_from(["t", "pos", "euler_xyz"]))
    j = draw(st.integers(0, 2))
    if kind in ("bad-number", "big-int"):
        value = draw(NOT_A_NUMBER if kind == "bad-number" else BIG_INTS)
        if field == "t":
            s["t"] = value
        else:
            s[field][j] = value
    elif kind == "missing-key":
        del s[draw(st.sampled_from(["t", "pos", "euler_xyz", "gripper"]))]
    elif kind == "extra-key":
        s[draw(st.sampled_from(["x", "T", "keyframe"]))] = draw(NOT_A_NUMBER)
    elif kind == "not-object":
        samples[i] = draw(st.sampled_from([[0.0, [0, 0, 0]], 3, "sample", None, True]))
    elif kind == "short-euler":
        s["euler_xyz"] = s["euler_xyz"][:2]
    elif kind == "gripper":
        s["gripper"] = draw(st.sampled_from([2, -1, True, False, 1.0, "1", None]))
    elif kind == "int-t":
        s["t"] = int(s["t"])
    elif kind == "nan":
        s["pos"][j] = draw(st.sampled_from([math.nan, math.inf]))


@st.composite
def sample_objects(draw, fault: str):
    """(samples, keyframe_flags): valid samples with some ints among the
    floats, one damaged by ``fault``, maybe a second one damaged by any
    fault, and maybe bad flags."""
    times, pos, eul, grip = draw(columns())
    ints = st.integers(-2**60, 2**60)
    samples = [{"t": t, "pos": [draw(ints) if draw(st.booleans()) else v for v in p],
                "euler_xyz": list(e), "gripper": g}
               for t, p, e, g in zip(times, pos, eul, grip)]
    first, *rest = draw(st.permutations(range(len(samples))))
    damage(draw, samples, first, fault)
    if rest and draw(st.booleans()):
        damage(draw, samples, rest[0], draw(st.sampled_from(FAULTS)))
    flags = [True] * len(samples)
    if draw(st.booleans()):
        flags = draw(st.sampled_from([flags[1:], flags + [False], [1] * len(flags),
                                      flags[:-1] + [None]]))
    return samples, flags


class TestColumnCheckMatchesPerSamplePass:
    @pytest.mark.parametrize("fault", ["none"] + FAULTS)
    @settings(max_examples=60)
    @given(data=st.data(), sparse=st.booleans(), path=st.sampled_from(["", "commanded"]))
    def test_same_columns_or_same_error(self, fault, data, sparse, path):
        samples, flags = data.draw(sample_objects(fault))
        obj = {"samples": samples, "keyframe_flags": flags}
        assert outcome(obj, path, sparse, False) == outcome(obj, path, sparse, True)

    @given(columns())
    def test_clean_samples_take_the_column_check(self, cols):
        samples = [{"t": t, "pos": p, "euler_xyz": e, "gripper": g}
                   for t, p, e, g in zip(*cols)]
        assert fileio._typed_columns(samples, fileio._SAMPLE_FIELDS) is not None

    @pytest.mark.parametrize("flags, where", [
        ([True, 1, False], "keyframe_flags[1]"), ([True, False, None], "keyframe_flags[2]"),
        ([True, False], "keyframe_flags")])
    def test_bad_keyframe_flags_name_path(self, flags, where):
        samples = [{"t": float(i), "pos": [i, 0, 0], "euler_xyz": [0, 0, 0], "gripper": 0}
                   for i in range(3)]
        with pytest.raises(tk.SchemaError) as info:
            fileio._parse_trajectory({"samples": samples, "keyframe_flags": flags},
                                     "", tk.Frame.WORLD, True)
        assert info.value.path == where

    def test_huge_integer_reaches_the_per_sample_error(self):
        samples = [{"t": 0.0, "pos": [0, 0, 0], "euler_xyz": [0, 0, 0], "gripper": 0},
                   {"t": 1.0, "pos": [0, 10**400, 0], "euler_xyz": [0, 0, 0], "gripper": 0}]
        with pytest.raises(tk.SchemaError) as info:
            fileio._parse_trajectory({"samples": samples}, "", tk.Frame.WORLD, False)
        assert info.value.path == "samples[1].pos[1]"
        assert str(info.value) == "samples[1].pos[1]: number out of float range"


TOKEN_HEADER = {
    "version": 1,
    "quantization": {"depth": {"min": 0.1, "max": 3.0, "bins": 16}, "uv": {"width": 8,
                     "height": 6}, "angle": {"bins": 12}, "depth_mode": "absolute",
                     "depth_delta_max": None},
    "anchor": {"u": 4.0, "v": 3.0, "d": 1.0, "source": "sensor"},
}
TOKEN_FAULTS = ["bad-number", "big-int", "missing-key", "extra-key", "not-object", "short-r",
                "gripper", "out-of-grid"]


def damage_block(draw, blocks: list, i: int, kind: str) -> None:
    """Apply the fault ``kind`` to block i."""
    b = blocks[i]
    key = draw(st.sampled_from(["d", "u", "v", "g", "r"]))
    j = draw(st.integers(0, 2))
    if kind in ("bad-number", "big-int", "out-of-grid"):
        value = draw(NOT_A_NUMBER | st.just(1.0) if kind == "bad-number" else
                     BIG_INTS | st.sampled_from([2**63 - 1, -2**63, -2**63 - 1])
                     if kind == "big-int" else st.sampled_from([-1, 6, 8, 12, 16, 2]))
        if key == "r":
            b["r"][j] = value
        else:
            b[key] = value
    elif kind == "missing-key":
        del b[key]
    elif kind == "extra-key":
        b[draw(st.sampled_from(["x", "D", "t"]))] = draw(NOT_A_NUMBER)
    elif kind == "not-object":
        blocks[i] = draw(st.sampled_from([[0, 0, 0, 0, [0, 0, 0]], 3, "block", None]))
    elif kind == "short-r":
        b["r"] = b["r"][:draw(st.integers(0, 2))]
    elif kind == "gripper":
        b["g"] = draw(st.sampled_from([2, -1, True, False, 1.0, "1", None, 10**400]))


@st.composite
def token_blocks(draw, fault: str):
    """Valid blocks for TOKEN_HEADER, one damaged by ``fault`` and maybe a
    second one damaged by any fault."""
    n = draw(st.integers(1, 5))
    cell = lambda hi: draw(st.integers(0, hi - 1))
    blocks = [{"d": cell(16), "u": cell(8), "v": cell(6), "g": cell(2),
               "r": [cell(12), cell(12), cell(12)]} for _ in range(n)]
    first, *rest = draw(st.permutations(range(n)))
    damage_block(draw, blocks, first, fault)
    if rest and draw(st.booleans()):
        damage_block(draw, blocks, rest[0], draw(st.sampled_from(TOKEN_FAULTS)))
    return blocks


def token_outcome(blocks, per_block_only):
    """What load_token_file gives: the columns as bytes, or the error."""
    check = (lambda records, fields: None) if per_block_only else fileio._typed_columns
    data = dict(json.loads(json.dumps(TOKEN_HEADER)), blocks=json.loads(json.dumps(blocks)))
    with mock.patch.object(fileio, "_typed_columns", check), \
            mock.patch.object(fileio, "_read_json", lambda path: data):
        try:
            seq = fileio.load_token_file("tokens.json")
        except tk.SchemaError as exc:
            return "schema", exc.path, str(exc)
        except Exception as exc:  # any other escape must match too
            return type(exc).__name__, str(exc)
    return "ok", [(c.dtype.str, c.shape, c.tobytes()) for c in (seq.d, seq.u, seq.v, seq.g,
                                                                 seq.r)]


class TestTokenColumnCheckMatchesPerBlockPass:
    @pytest.mark.parametrize("fault", ["none"] + TOKEN_FAULTS)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_same_columns_or_same_error(self, fault, data):
        blocks = data.draw(token_blocks(fault)) if fault != "none" else data.draw(
            token_blocks("extra-key"))
        got = token_outcome(blocks, False)
        assert got == token_outcome(blocks, True)
        assert got[0] in ("ok", "schema")

    def test_clean_blocks_take_the_column_check(self):
        blocks = [{"d": 1, "u": 2, "v": 3, "g": 1, "r": [4, 5, 6]}] * 3
        assert fileio._typed_columns(blocks, fileio._TOKEN_FIELDS) is not None

    def test_empty_blocks_name_the_array(self):
        assert token_outcome([], False) == token_outcome([], True) == (
            "schema", "blocks", "blocks: token sequence needs at least one block")


# ---------------------------------------------------------------------------
# golden files


def awkward_columns(n: int) -> tuple:
    values = np.resize(AWKWARD, (n, 6)) * np.where(np.arange(6) % 2, -1.0, 1.0)
    times = [-1e22, -0.0, 5e-324, 1e-7, 0.1, 1 / 3, 1e15, 1e16, 1e22][:n]
    return times, values[:, :3], values[:, 3:], [0, 1, 1, 0, 1, 0, 0, 1, 1][:n]


def golden_objects() -> dict:
    """file name -> (writer name, positional arguments, meta)."""
    cam = make_camera(fx=321.4, fy=1e-7, cx=1 / 3, cy=5e-324, width=640, height=480)
    dense = tk.DenseTrajectory(*awkward_columns(9), tk.Frame.CAMERA)
    flags = (True, False, False, True, True)
    sparse = tk.SparseTrajectory(*awkward_columns(5), flags, tk.Frame.WORLD)
    commanded = tk.DenseTrajectory(*awkward_columns(4), tk.Frame.WORLD)
    events = (tk.ReplanEvent(1e-7, 2, math.nan, -1, False),
              tk.ReplanEvent(0.1, 0, -0.0, 3, True))
    log = tk.ExecutionLog(commanded, events, 5e-324)
    spec = tk.QuantizationSpec(640, 480, 1e-7, 1e16, 300, 7, tk.DepthMode.ANCHOR_RELATIVE, 1 / 3)
    tokens = tk.TokenSequence(spec, tk.Anchor(1 / 3, 5e-324, 1e22, tk.DepthSource.PRIOR_SCALE),
                              [0, 299, 150, 7], [0, 639, 1, 320], [0, 479, 478, 0], [0, 1, 1, 0],
                              [[0, 6, 3], [6, 0, 1], [2, 2, 5], [6, 6, 6]])
    meta = {"instruction": 'pick "the" [red] {cube}', "samples": [], "x": [-0.0, 1e22]}
    # a half-second world plan that `trajkit simulate` runs, both flags off their defaults
    plan = tk.SparseTrajectory([0.0, 0.1, 0.2, 1 / 3, 0.5],
                               [[0.0, -0.0, 0.5], [0.1, 1e-7, 0.5], [0.2, 1 / 3, 0.25],
                                [-0.0, 0.1, 1e-5], [0.125, -0.2, 0.0]],
                               [[0.0, -0.0, 0.0], [0.1, 0.0, -1 / 3], [0.2, 1e-7, 0.0],
                                [-0.0, 0.1, 0.5], [0.0, 0.0, -0.0]],
                               [0, 1, 1, 0, 0], (True, False, True, False, True),
                               tk.Frame.WORLD)
    scenario = tk.Scenario(plan, (tk.Perturbation(0.25, [0.01, -0.0, 1e-7]),), 0.1, 50.0, 0.5,
                           False, True)
    return {
        "golden_bundle.json": ("save_bundle", (dense, cam), meta),
        "golden_sparse.json": ("save_sparse_bundle", (sparse, cam), None),
        "golden_log.json": ("save_execution_log", (log,), None),
        "golden_tokens.json": ("save_token_file", (tokens,), None),
        "golden_scenario.json": ("save_scenario", (scenario,), None),
    }


LOADERS = {"save_bundle": fileio.load_bundle, "save_sparse_bundle": fileio.load_sparse_bundle,
           "save_execution_log": fileio.load_execution_log,
           "save_token_file": fileio.load_token_file, "save_scenario": fileio.load_scenario}


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(golden_objects()))
    def test_writer_reproduces_golden_bytes(self, tmp_path, name):
        writer, args, meta = golden_objects()[name]
        path = tmp_path / name
        kwargs = {} if meta is None else {"meta": meta}
        getattr(fileio, writer)(*args, path, **kwargs)
        assert path.read_bytes() == (DATA / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(golden_objects()))
    def test_golden_loads_bit_exact(self, name):
        writer, args, _ = golden_objects()[name]
        loaded = LOADERS[writer](DATA / name)
        if writer == "save_token_file":
            assert_same_tokens(loaded, args[0])
            return
        if writer == "save_execution_log":
            got, want = loaded.commanded, args[0].commanded
            assert loaded.final_error == args[0].final_error
        elif writer == "save_scenario":
            got, want = loaded.initial_plan, args[0].initial_plan
            for field in ("replan_interval", "control_rate", "duration", "replan_enabled",
                          "delayed_planner"):
                assert repr(getattr(loaded, field)) == repr(getattr(args[0], field)), field
            assert [(p.time, p.offset.tobytes()) for p in loaded.perturbations] == [
                (p.time, p.offset.tobytes()) for p in args[0].perturbations]
        else:
            (got, cam), want = loaded, args[0]
            assert cam.intrinsics.tobytes() == args[1].intrinsics.tobytes()
        for column in ("times", "positions", "eulers", "grippers"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column
        # flags load for a sparse bundle only, and then equal the written ones
        assert hasattr(got, "keyframe_flags") == hasattr(want, "keyframe_flags")
        if hasattr(want, "keyframe_flags"):
            assert got.keyframe_flags.tolist() == want.keyframe_flags.tolist()


# ---------------------------------------------------------------------------
# save -> load -> save


@st.composite
def columns_like(draw, traj):
    """Columns of the golden trajectory's length, with drawn finite values."""
    n = len(traj.times)
    times = sorted(draw(st.lists(finite, min_size=n, max_size=n, unique=True)))
    triples = arrays(float, (n, 3), elements=finite)
    return times, draw(triples), draw(triples), draw(arrays(int, n, elements=st.integers(0, 1)))


def assert_save_load_save(save, load, obj, directory):
    """save(obj, path), then load it and save what it returns: same bytes."""
    first, second = directory / "a.json", directory / "b.json"
    save(obj, first)
    save(load(first), second)
    assert first.read_bytes() == second.read_bytes()


class TestSaveLoadSave:
    """Each writer's output survives a load and a second save byte for byte.
    Objects take the shape of the golden file of their kind (the scenario
    plan that of the golden sparse bundle) and drawn finite values."""

    GOLDEN = golden_objects()
    positive = st.floats(1e-300, 1e300) | st.sampled_from([5e-324, 1e-7, 1 / 3, 1e22])

    @given(st.data())
    def test_dense_bundle(self, tmp_path_factory, data):
        (dense, cam), meta = self.GOLDEN["golden_bundle.json"][1:]
        traj = tk.DenseTrajectory(*data.draw(columns_like(dense)), dense.frame)
        assert_save_load_save(lambda obj, path: fileio.save_bundle(*obj, path, meta=meta),
                              fileio.load_bundle, (traj, cam), tmp_path_factory.getbasetemp())

    @given(st.data())
    def test_sparse_bundle(self, tmp_path_factory, data):
        sparse, cam = self.GOLDEN["golden_sparse.json"][1]
        traj = tk.SparseTrajectory(*data.draw(columns_like(sparse)), sparse.keyframe_flags,
                                   sparse.frame)
        assert_save_load_save(lambda obj, path: fileio.save_sparse_bundle(*obj, path),
                              fileio.load_sparse_bundle, (traj, cam),
                              tmp_path_factory.getbasetemp())

    @given(st.data(), st.lists(st.tuples(st.floats(0.0, 1.0), arrays(float, 3, elements=finite)),
                               max_size=3), positive, positive, positive, st.booleans(),
           st.booleans())
    def test_scenario(self, tmp_path_factory, data, perts, interval, rate, duration,
                      enabled, delayed):
        sparse = self.GOLDEN["golden_sparse.json"][1][0]
        plan = tk.SparseTrajectory(*data.draw(columns_like(sparse)), sparse.keyframe_flags,
                                   tk.Frame.WORLD)
        scenario = tk.Scenario(plan, tuple(tk.Perturbation(s * duration, o) for s, o in perts),
                               interval, rate, duration, enabled, delayed)
        assert_save_load_save(fileio.save_scenario, fileio.load_scenario, scenario,
                              tmp_path_factory.getbasetemp())

    @given(st.data(), finite)
    def test_execution_log(self, tmp_path_factory, data, final_error):
        golden = self.GOLDEN["golden_log.json"][1][0]
        commanded = tk.DenseTrajectory(*data.draw(columns_like(golden.commanded)),
                                       golden.commanded.frame)
        events = tuple(tk.ReplanEvent(data.draw(finite), data.draw(st.integers(0, 9)),
                                      data.draw(st.just(math.nan) | finite),
                                      data.draw(st.integers(-1, 9)), data.draw(st.booleans()))
                       for _ in golden.replan_events)
        assert_save_load_save(fileio.save_execution_log, fileio.load_execution_log,
                              tk.ExecutionLog(commanded, events, final_error),
                              tmp_path_factory.getbasetemp())


# ---------------------------------------------------------------------------
# mutated files


def mutation_documents() -> dict:
    """name -> (parsed JSON document, loader, saver of what the loader returns):
    the golden files and a scenario whose plan is the golden sparse trajectory."""
    docs = {}
    for name, (writer, _, _) in golden_objects().items():
        save = getattr(fileio, writer)
        if writer in ("save_bundle", "save_sparse_bundle"):
            save = (lambda save: lambda loaded, path: save(*loaded, path))(save)
        docs[name] = json.loads((DATA / name).read_text()), LOADERS[writer], save
    sparse = golden_objects()["golden_sparse.json"][1][0]
    scenario = tk.Scenario(sparse, (tk.Perturbation(0.5, [0.1, -0.0, 1e22]),), 0.1, 100.0, 1.0,
                           True, True)
    docs["scenario"] = scenario_payload(scenario), fileio.load_scenario, fileio.save_scenario
    return docs


MUTATION_DOCUMENTS = mutation_documents()
DELETE = object()
# what a mutated node becomes: json.dumps writes NaN and the infinities as the
# non-standard literals the reader accepts, and 10**400 as an integer literal
REPLACEMENTS = [DELETE, None, "x", True, False, 0, -0.0, 1e308, 10**400, math.nan, math.inf,
                -math.inf, [], {}]


def draw_node(data, document) -> tuple:
    """(parent, key) of a node drawn by descending from the root: a child is
    drawn at each level, then either taken or descended into, so the few
    scalar fields weigh as much as the many sample values."""
    node = document
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child) or data.draw(st.booleans()):
            return node, key
        node = child


def mutate(data, document: dict, focus=None) -> None:
    """Replace or delete one or two nodes of ``document`` in place. With a
    ``focus`` key, half the nodes are drawn under ``document[focus]`` while
    that is a non-empty object or array."""
    for _ in range(data.draw(st.integers(1, 2))):
        if not document:
            break
        root = document.get(focus)
        if not (isinstance(root, (dict, list)) and root and data.draw(st.booleans())):
            root = document
        parent, key = draw_node(data, root)
        replacement = data.draw(st.sampled_from(REPLACEMENTS))
        if replacement is DELETE:
            del parent[key]
        else:
            parent[key] = json.loads(json.dumps(replacement))


class TestMutatedFiles:
    """Replacing or deleting one or two nodes of a valid file either gives a
    SchemaError or a file that loads, and what it loads saves without error
    (the writers refuse non-finite numbers, so the loaders must too)."""

    @settings(max_examples=80)
    @pytest.mark.parametrize("name", sorted(MUTATION_DOCUMENTS))
    @given(st.data())
    def test_raises_schema_error_or_loads_and_saves(self, tmp_path_factory, name, data):
        document, load, save = MUTATION_DOCUMENTS[name]
        document = json.loads(json.dumps(document))  # a deep copy
        mutate(data, document)
        directory = tmp_path_factory.getbasetemp()
        (directory / "mutated.json").write_text(json.dumps(document))
        try:
            loaded = load(directory / "mutated.json")
        except tk.SchemaError:
            return
        save(loaded, directory / "saved.json")


def camera_outcome(read, path) -> tuple:
    """The camera ``read`` gives, as exact bytes and ints, or its SchemaError."""
    try:
        cam = read(path)
    except tk.SchemaError as exc:
        return "error", exc.path, str(exc)
    return (cam.intrinsics.tobytes(), cam.extrinsics_c2w.tobytes(),
            type(cam.width), cam.width, type(cam.height), cam.height)


def full_parse_camera(path) -> tk.CameraModel:
    """The camera block through a full parse, every float literal a float."""
    data = fileio._read_json(path)
    if "camera" not in data:
        raise tk.SchemaError("camera", f"{path} carries no camera block")
    return fileio._camera_from_dict(data["camera"], "camera")


class TestCameraRead:
    """``_load_camera`` (floats only for the camera block) gives a
    bit-equal camera, or the same SchemaError, as a full parse of the same
    mutated dense bundle."""

    @settings(max_examples=80)
    @given(st.data())
    def test_same_camera_or_same_error(self, tmp_path_factory, data):
        document = json.loads(json.dumps(MUTATION_DOCUMENTS["golden_bundle.json"][0]))
        mutate(data, document, focus="camera")
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(document))
        assert (camera_outcome(fileio._load_camera, path)
                == camera_outcome(full_parse_camera, path))

    def test_golden_camera(self):
        path = DATA / "golden_bundle.json"
        assert (camera_outcome(fileio._load_camera, path)
                == camera_outcome(lambda p: fileio.load_bundle(p)[1], path))

    def test_deeply_nested_field(self, tmp_path):
        # refused as a full parse refuses it, with no recursion through the nesting
        document = json.loads(json.dumps(MUTATION_DOCUMENTS["golden_bundle.json"][0]))
        document["camera"]["intrinsics"][0] = json.loads("[" * 600 + "1.5" + "]" * 600)
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(document))
        outcome = camera_outcome(fileio._load_camera, path)
        assert outcome == camera_outcome(full_parse_camera, path)
        assert outcome[:2] == ("error", "camera.intrinsics[0]")
