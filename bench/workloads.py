"""Seeded inputs, CLI ops and output checks for the benchmark workloads.

Inputs are written straight to the documented JSON formats with the
standard library, so the library under test only ever sees files. The
checks are independent NumPy re-derivations of what each op must
produce; they compare with tolerances, never bit patterns, so a change
that only moves last bits still passes.

Workloads:
    prep         dense camera-frame bundle -> keyframes -> tokenize ->
                 detokenize (one op = three CLI calls; item = dense sample)
    eval         one single-pair ``metrics`` call (item = scored point pair)
    closed-loop  one ``simulate`` call (item = control tick)
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

UNITS = {"length": "meters", "time": "seconds", "angle": "radians"}
REPORT_ROWS = (
    "cover f1", "cover precision", "dtw", "endpoint err", "frechet", "hausdorff",
    "max orth dist", "mean orth dist", "median orth dist", "startpoint err",
)

# prep pipeline settings, shared by the CLI arguments and the checks
CAM_K = np.array([[320.0, 0.0, 160.0], [0.0, 320.0, 120.0], [0.0, 0.0, 1.0]])
CAM_W, CAM_H = 320, 240
DENSE_RATE = 200.0
SUBFRAMES = 12
SEGMENT_DURATION = 0.1
REBUILD_RATE = 100.0
DEPTH_MIN, DEPTH_MAX, DEPTH_BINS, ANGLE_BINS = 0.1, 3.0, 256, 256
ANCHOR = "160,120,1.0"
TAU = 0.015

# checks compare floats with these slacks
ABS_TOL = 1e-9
REL_TOL = 1e-9


@dataclass
class Item:
    """One op's inputs: the CLI calls to make and what the checks need."""

    name: str
    units: int  # work items one op completes
    argvs: list  # CLI argument lists, run in order
    out: Path  # the op's output directory
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (rng, workdir) -> list[Item]
    check: object  # (item) -> list[str] of failures
    corrupt: object  # (item) -> None, damages one output file for the self-test


def _write(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload))


def _samples(t, pos, eul, grip) -> list:
    return [
        {"t": float(t[i]), "pos": [float(x) for x in pos[i]],
         "euler_xyz": [float(x) for x in eul[i]], "gripper": int(grip[i])}
        for i in range(len(t))
    ]


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One seeded value in each of n equal strata of [lo, hi), in stratum
    order. Input sets pair strata by fixed rules, so every seed gets the same
    size mix and only the values within strata and the shapes change."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n


def _rotation(axis, angle: float) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    x = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * x + (1.0 - math.cos(angle)) * (x @ x)


def _min_jerk(n: int, cuts: np.ndarray, vias: np.ndarray) -> np.ndarray:
    """Rest-to-rest minimum-jerk motion through ``vias`` with segment
    boundaries at sample indices ``cuts``."""
    out = np.empty((n, vias.shape[1]))
    for s in range(len(vias) - 1):
        a, b = cuts[s], cuts[s + 1]
        tau = np.linspace(0.0, 1.0, b - a + 1)[:, None]
        out[a:b + 1] = vias[s] + tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2) * (vias[s + 1] - vias[s])
    return out


def _wrap(a):
    return np.mod(np.asarray(a) + math.pi, 2.0 * math.pi) - math.pi


# ---------------------------------------------------------------------------
# prep: keyframes -> tokenize -> detokenize


def make_prep(rng, workdir: Path, n_items: int = 24) -> list:
    items = []
    for i, n in enumerate(_stratified(rng, 1000, 4000, n_items).astype(int)):
        # segment and toggle counts cycle independently of length
        n_seg, n_toggle = 1 + i % 3, 1 + (i // 3) % 3
        weights = rng.uniform(0.6, 1.4, n_seg)
        cuts = np.round(np.concatenate([[0.0], np.cumsum(weights) / weights.sum()]) * (n - 1)).astype(int)
        # camera-frame vias that project well inside the image at depths 0.6-1.4 m
        vias = rng.uniform([-0.18, -0.12, 0.6], [0.18, 0.12, 1.4], (n_seg + 1, 3))
        eul_vias = rng.uniform(-0.3, 0.3, (n_seg + 1, 3))
        pos = _min_jerk(n, cuts, vias)
        eul = _min_jerk(n, cuts, eul_vias)
        # threshold at half the smallest per-segment peak of the 6-component
        # acceleration, so each segment yields two acceleration keyframes
        d6 = np.hstack([np.diff(vias, axis=0), np.diff(eul_vias, axis=0)])
        seg_s = np.diff(cuts) / DENSE_RATE
        alpha = 0.5 * float(np.min(5.7735 * np.linalg.norm(d6, axis=1) / seg_s**2))
        toggles = np.sort(rng.choice(np.arange(20, n - 20), n_toggle, replace=False))
        grip = np.zeros(n, dtype=int)
        for k in toggles:
            grip[k:] ^= 1
        rot = _rotation(rng.normal(size=3), rng.uniform(0.2, 1.2))
        ext = np.eye(4)
        ext[:3, :3] = rot
        ext[:3, 3] = rng.uniform(-0.5, 0.5, 3)
        t = np.arange(n) / DENSE_RATE
        out = workdir / f"prep{i:02d}"
        out.mkdir()
        dense = out / "dense.json"
        _write({
            "version": 1, "frame": "camera", "units": UNITS,
            "camera": {"intrinsics": [float(x) for x in CAM_K.ravel()],
                       "extrinsics_c2w": [float(x) for x in ext.ravel()],
                       "width": CAM_W, "height": CAM_H},
            "samples": _samples(t, pos, eul, grip),
        }, dense)
        argvs = [
            ["keyframes", "--input", str(dense), "--alpha", repr(alpha),
             "--subframes", str(SUBFRAMES), "--out", str(out / "sparse.json")],
            ["tokenize", "--input", str(out / "sparse.json"), "--camera-from", str(dense),
             "--anchor", ANCHOR, "--out", str(out / "tokens.json")],
            ["detokenize", "--input", str(out / "tokens.json"), "--camera-from", str(dense),
             "--rate", repr(REBUILD_RATE), "--segment-duration", repr(SEGMENT_DURATION),
             "--out", str(out / "rebuilt.json")],
        ]
        must_key = np.concatenate([[0.0, t[-1]], t[toggles]])
        items.append(Item(f"prep{i:02d}", int(n), argvs, out, {"ext": ext, "must_key": must_key}))
    return items


def _read(path: Path):
    return json.loads(path.read_text())


def _rebuilt_count(n_waypoints: int) -> int:
    span = (n_waypoints - 1) * SEGMENT_DURATION
    steps = int(math.floor(span * REBUILD_RATE + 1e-9))
    return steps + 1 + (1 if span - steps / REBUILD_RATE > 1e-9 / REBUILD_RATE else 0)


def check_prep(item: Item) -> list:
    fails = []
    sparse = _read(item.out / "sparse.json")
    tokens = _read(item.out / "tokens.json")
    rebuilt = _read(item.out / "rebuilt.json")
    flags = sparse["keyframe_flags"]
    wps = sparse["samples"]
    n_wp, n_key = len(wps), sum(flags)
    if n_wp != (SUBFRAMES - 1) * (n_key - 1) + 1:
        fails.append(f"{n_wp} waypoints for {n_key} keyframes")
    # endpoints and gripper toggles are always keyframes
    key_t = np.array([w["t"] for w, f in zip(wps, flags) if f])
    if key_t.size == 0 or np.any(np.min(np.abs(item.expect["must_key"][:, None] - key_t), axis=1) > ABS_TOL):
        fails.append("an endpoint or gripper toggle is not a keyframe")
    blocks = tokens["blocks"]
    if len(blocks) != n_wp:
        return fails + [f"{len(blocks)} token blocks for {n_wp} waypoints"]
    q = tokens["quantization"]
    if (q["depth"] != {"min": DEPTH_MIN, "max": DEPTH_MAX, "bins": DEPTH_BINS}
            or q["angle"]["bins"] != ANGLE_BINS or q["depth_mode"] != "absolute"):
        fails.append("unexpected quantization block")

    # decoded tokens within half a bin of the sparse waypoints, in (u, v, d, angles)
    p = np.array([w["pos"] for w in wps])
    h = p @ CAM_K.T
    uvd = np.column_stack([h[:, 0] / h[:, 2], h[:, 1] / h[:, 2], p[:, 2]])
    tok = np.array([[b["u"], b["v"], b["d"], b["g"], *b["r"]] for b in blocks], dtype=float)
    d_bin = (DEPTH_MAX - DEPTH_MIN) / DEPTH_BINS
    a_bin = 2.0 * math.pi / ANGLE_BINS
    d_dec = DEPTH_MIN + (tok[:, 2] + 0.5) * d_bin
    r_dec = -math.pi + (tok[:, 4:] + 0.5) * a_bin
    eul = _wrap(np.array([w["euler_xyz"] for w in wps]))
    if np.any(np.abs(tok[:, :2] - uvd[:, :2]) > 0.5 + ABS_TOL):
        fails.append("pixel token beyond half a pixel")
    if np.any(np.abs(d_dec - uvd[:, 2]) > 0.5 * d_bin + ABS_TOL):
        fails.append("depth token beyond half a bin")
    if np.any(np.abs(_wrap(r_dec - eul)) > 0.5 * a_bin + ABS_TOL):
        fails.append("angle token beyond half a bin")
    if np.any(tok[:, 3] != [w["gripper"] for w in wps]):
        fails.append("gripper token differs from waypoint")

    # rebuilt bundle: span and count from the rate, knots at the decoded tokens
    rs = rebuilt["samples"]
    if rebuilt["frame"] != "world" or len(rs) != _rebuilt_count(n_wp):
        return fails + [f"rebuilt has {len(rs)} samples, expected {_rebuilt_count(n_wp)}"]
    if abs(rs[0]["t"]) > ABS_TOL or abs(rs[-1]["t"] - (n_wp - 1) * SEGMENT_DURATION) > ABS_TOL:
        fails.append("rebuilt span does not follow --segment-duration")
    cam_pts = d_dec[:, None] * (np.column_stack([tok[:, :2], np.ones(n_wp)]) @ np.linalg.inv(CAM_K).T)
    ext = item.expect["ext"]
    world = cam_pts @ ext[:3, :3].T + ext[:3, 3]
    stride = int(round(SEGMENT_DURATION * REBUILD_RATE))
    knots = [rs[min(i * stride, len(rs) - 1)] for i in range(n_wp)]
    got = np.array([s["pos"] for s in knots])
    if np.any(np.abs(got - world) > ABS_TOL):
        fails.append(f"rebuilt knot off decoded token by {np.abs(got - world).max():.3g} m")
    # the gripper holds each token's bit until the next knot
    mids = [rs[i * stride + stride // 2]["gripper"] for i in range(n_wp - 1)]
    if mids != [b["g"] for b in blocks[:-1]]:
        fails.append("rebuilt gripper differs from the held token bit")
    return fails


def corrupt_prep(item: Item) -> None:
    path = item.out / "tokens.json"
    data = _read(path)
    data["blocks"][len(data["blocks"]) // 2]["u"] += 3
    _write(data, path)


# ---------------------------------------------------------------------------
# eval: one single-pair similarity report


def _curve(rng, s: np.ndarray) -> np.ndarray:
    """Smooth 3-D curve over s in [0, 1] from a few random harmonics."""
    amp = rng.uniform(0.05, 0.3, (3, 3))
    freq = rng.uniform(0.5, 2.0, (3, 3))
    phase = rng.uniform(0.0, 2.0 * math.pi, (3, 3))
    return np.stack([
        np.sum(amp[d] * np.sin(2.0 * math.pi * freq[d] * s[:, None] + phase[d]), axis=1)
        for d in range(3)
    ], axis=1)


def _world_bundle(t, pos) -> dict:
    n = len(t)
    return {"version": 1, "frame": "world", "units": UNITS,
            "samples": _samples(t, pos, np.zeros((n, 3)), np.zeros(n, dtype=int))}


def make_eval(rng, workdir: Path, n_items: int = 48) -> list:
    items = []
    ref_sizes = _stratified(rng, 100, 301, n_items).astype(int)
    pred_sizes = _stratified(rng, 100, 301, n_items).astype(int)
    for i in range(n_items):
        n_ref, n_pred = int(ref_sizes[i]), int(pred_sizes[(7 * i + 3) % n_items])
        s_pred = np.linspace(0.0, 1.0, n_pred)
        warp = s_pred + rng.uniform(-0.08, 0.08) * np.sin(math.pi * s_pred)
        noise = rng.normal(0.0, 0.003, (n_pred, 3)) + rng.uniform(-0.01, 0.01, 3)
        state = rng.bit_generator.state
        ref = _curve(rng, np.linspace(0.0, 1.0, n_ref))
        rng.bit_generator.state = state  # the same curve, time-warped, for the prediction
        pred = _curve(rng, warp) + noise
        out = workdir / f"eval{i:02d}"
        out.mkdir()
        _write(_world_bundle(np.linspace(0.0, 2.0, n_ref), ref), out / "ref.json")
        _write(_world_bundle(np.linspace(0.0, 2.0, n_pred), pred), out / "pred.json")
        argvs = [["metrics", "--pred", str(out / "pred.json"), "--ref", str(out / "ref.json"),
                  "--tau", repr(TAU), "--out", str(out / "report.json")]]
        items.append(Item(f"eval{i:02d}", n_ref * n_pred, argvs, out))
    return items


def _le(a: float, b: float) -> bool:
    return a <= b + ABS_TOL + REL_TOL * abs(b)


def check_eval(item: Item) -> list:
    report = _read(item.out / "report.json")
    if set(report) != set(REPORT_ROWS) | {"config"}:
        return [f"report keys {sorted(report)}"]
    r, cfg = report, report["config"]
    fails = []
    chain = [("max orth dist", r["max orth dist"]), ("hausdorff", r["hausdorff"]),
             ("frechet", r["frechet"]), ("dtw_raw", cfg["dtw_raw"])]
    for (na, a), (nb, b) in zip(chain, chain[1:]):
        if not _le(a, b):
            fails.append(f"{na} {a} > {nb} {b}")
    for name in ("startpoint err", "endpoint err"):
        if not _le(r[name], r["frechet"]):
            fails.append(f"{name} exceeds frechet")
    for name, v in (("cover f1", r["cover f1"]), ("cover precision", r["cover precision"]),
                    ("cover_recall", cfg["cover_recall"])):
        if not 0.0 <= v <= 1.0:
            fails.append(f"{name} {v} outside [0, 1]")
    if not _le(r["mean orth dist"], r["max orth dist"]) or not _le(r["median orth dist"], r["max orth dist"]):
        fails.append("mean/median orth dist exceeds max")
    ref = item.expect.get("reference")
    if ref is not None:
        for name, want in ref.items():
            got = cfg["dtw_raw"] if name == "dtw_raw" else r[name]
            if abs(got - want) > ABS_TOL + REL_TOL * abs(want):
                fails.append(f"{name} {got!r} differs from reference {want!r}")
    return fails


def corrupt_eval(item: Item) -> None:
    path = item.out / "report.json"
    data = _read(path)
    data["hausdorff"] = 1.5 * data["frechet"] + 1e-3
    _write(data, path)


def reference_values(item: Item) -> dict:
    """The report values the eval check compares against for the default seed."""
    report = _read(item.out / "report.json")
    values = {name: report[name] for name in REPORT_ROWS}
    values["dtw_raw"] = report["config"]["dtw_raw"]
    return values


# ---------------------------------------------------------------------------
# closed-loop: one simulate call


def make_closed_loop(rng, workdir: Path, n_items: int = 32) -> list:
    items = []
    lengths = _stratified(rng, 30, 61, n_items).astype(int)
    durations = _stratified(rng, 0.4, 0.6, n_items)
    for i in range(n_items):
        n_wp = int(lengths[i])
        # 1-3 drifts; two scenarios in five use the delayed planner
        n_drift, delayed = 1 + i % 3, i % 5 < 2
        spacing = float(rng.uniform(0.012, 0.02))
        times = np.arange(n_wp) * spacing
        s = np.linspace(0.0, 1.0, n_wp)
        start = rng.uniform(-0.2, 0.2, 3)
        pos = start + 0.25 * _curve(rng, 0.4 * s) + np.outer(s, rng.uniform(-0.2, 0.2, 3))
        eul = np.outer(s, rng.uniform(-0.6, 0.6, 3))
        grip = (s >= rng.uniform(0.3, 0.9)).astype(int)
        duration = float(durations[(5 * i + 2) % n_items])
        perts = []
        for pt in np.sort(rng.uniform(0.05, duration - 0.05, n_drift)):
            k = min(int(pt / spacing), n_wp - 2)
            motion = pos[k + 1] - pos[k]
            motion = motion / np.linalg.norm(motion)
            mag = float(rng.uniform(0.01, 0.03))
            # backward drifts make the keep test drop the nearest waypoint
            direction = -motion if rng.uniform() < 0.5 else rng.normal(size=3)
            perts.append({"time": float(pt),
                          "offset": [float(x) for x in mag * direction / np.linalg.norm(direction)]})
        out = workdir / f"loop{i:02d}"
        out.mkdir()
        scenario = {
            "version": 1,
            "initial_plan": {"frame": "world", "samples": _samples(times, pos, eul, grip),
                             "keyframe_flags": [True] * n_wp},
            "perturbations": perts,
            "replan_interval": 0.01,
            "control_rate": 1000.0,
            "duration": duration,
            "replan_enabled": True,
            "delayed_planner": delayed,
        }
        _write(scenario, out / "scenario.json")
        ticks = _tick_times(0.0, 1.0 / 1000.0, min(duration, float(times[-1])))
        argvs = [["simulate", "--scenario", str(out / "scenario.json"),
                  "--out", str(out / "log.json")]]
        chord_speed = float(np.max(np.linalg.norm(np.diff(pos, axis=0), axis=1)) / spacing)
        items.append(Item(f"loop{i:02d}", len(ticks) - 1, argvs, out,
                          {"scenario": scenario, "ticks": ticks, "digest": None,
                           "chord_speed": chord_speed}))
    return items


def _tick_times(t0: float, dt: float, stop_span: float) -> list:
    stop = t0 + stop_span
    ticks, k = [t0], 1
    while t0 + k * dt <= stop + 1e-9:
        ticks.append(t0 + k * dt)
        k += 1
    return ticks


def _oracle(scenario: dict, t: float):
    plan = scenario["initial_plan"]["samples"]
    times = np.array([w["t"] for w in plan])
    pos = np.array([w["pos"] for w in plan])
    offset = np.zeros(3)
    for p in scenario["perturbations"]:
        if p["time"] <= t:
            offset = offset + np.array(p["offset"])
    start = int(np.searchsorted(times, t, side="right"))
    return times[start:], pos[start:] + offset


def _expected_events(scenario: dict, samples: list) -> list:
    """Replay the request schedule from the logged times and apply the
    nearest-waypoint / directional keep test to every delivered plan."""
    interval = scenario["replan_interval"]
    t0 = samples[0]["t"]
    events, held, tick = [], None, 1
    for k in range(1, len(samples)):
        now = samples[k - 1]["t"]
        if now < t0 + tick * interval - 1e-9:
            continue
        tick += 1
        requested = _oracle(scenario, now)
        delivered = held if scenario["delayed_planner"] else requested
        held = requested
        if delivered is None or len(delivered[0]) == 0:
            continue
        times, pts = delivered
        cur = np.array(samples[k - 1]["pos"])
        if len(pts) == 1:
            events.append({"k": k, "kstar": 0, "gamma": None, "ties": (),
                           "entry": (times[0], pts[0])})
            continue
        dist = np.linalg.norm(pts - cur, axis=1)
        kstar = int(np.argmin(dist))
        ties = tuple(j for j in range(len(pts)) if dist[j] - dist[kstar] <= 1e-12)
        diff = pts[kstar + 1] - pts[kstar] if kstar < len(pts) - 1 else pts[kstar] - pts[kstar - 1]
        gamma = float(np.dot(pts[kstar] - cur, diff / np.linalg.norm(diff)))
        first = kstar if gamma > 0.0 else kstar + 1
        entry = (times[first], pts[first]) if first < len(pts) else None
        events.append({"k": k, "kstar": kstar, "gamma": gamma, "ties": ties, "entry": entry})
    return events


def check_closed_loop(item: Item) -> list:
    raw = (item.out / "log.json").read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if item.expect["digest"] is None:
        item.expect["digest"] = digest
    fails = []
    if digest != item.expect["digest"]:
        fails.append("log differs from an earlier run of the same scenario")
    log = json.loads(raw)
    samples = log["commanded"]["samples"]
    ticks = item.expect["ticks"]
    if len(samples) != len(ticks):
        return fails + [f"{len(samples)} commanded samples, expected {len(ticks)}"]
    if max(abs(s["t"] - t) for s, t in zip(samples, ticks)) > ABS_TOL:
        fails.append("commanded times off the control grid")

    scenario = item.expect["scenario"]
    want = _expected_events(scenario, samples)
    got = log["replan_events"]
    if len(got) != len(want):
        return fails + [f"{len(got)} replan events, expected {len(want)}"]
    pos = np.array([s["pos"] for s in samples])
    step = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    dt = 1.0 / scenario["control_rate"]
    for e, w in zip(got, want):
        now = samples[w["k"] - 1]["t"]
        if abs(e["time"] - now) > ABS_TOL:
            fails.append(f"replan at {e['time']} expected at {now}")
            continue
        if w["gamma"] is None:
            ok = e["kstar"] == 0 and e["gamma_at_kstar"] is None and not e["kstar_dropped"]
        else:
            undecided = abs(w["gamma"]) <= 1e-12
            dropped = e["kstar_dropped"]
            ok = (e["kstar"] in w["ties"]
                  and abs(e["gamma_at_kstar"] - w["gamma"]) <= 1e-9
                  and (undecided or dropped == (w["gamma"] <= 0.0))
                  and e["dropped_count"] == e["kstar"] + int(dropped))
        if not ok:
            fails.append(f"replan at {now}: drop decision disagrees with the keep test")
        # a merge steers to the first kept waypoint with a cubic Hermite
        # blend: the next step moves at most that distance plus the
        # velocity terms of the blend and of the previous motion
        if w["entry"] is not None and w["k"] >= 2:
            t_entry, p_entry = w["entry"]
            blend = t_entry - now if t_entry > now + 1e-9 else scenario["replan_interval"]
            v_prev = step[w["k"] - 2] / dt
            v_plan = 3.0 * item.expect["chord_speed"]
            bound = (np.linalg.norm(p_entry - pos[w["k"] - 1])
                     + (4.0 / 27.0) * blend * (v_prev + v_plan) + v_plan * dt)
            if step[w["k"] - 1] > 1.5 * bound + ABS_TOL:
                fails.append(f"merge at {now} jumps {step[w['k'] - 1]:.3g} m > {bound:.3g} m")
    return fails


def corrupt_closed_loop(item: Item) -> None:
    path = item.out / "log.json"
    data = _read(path)
    del data["commanded"]["samples"][-5:]
    _write(data, path)


WORKLOADS = {
    "prep": Workload("prep", make_prep, check_prep, corrupt_prep),
    "eval": Workload("eval", make_eval, check_eval, corrupt_eval),
    "closed-loop": Workload("closed-loop", make_closed_loop, check_closed_loop,
                            corrupt_closed_loop),
}
