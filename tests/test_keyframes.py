"""Keyframe selection and sub-keyframe insertion."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import trajkit as tk
from trajkit import fileio
from conftest import helix_trajectory, line_trajectory

GOLDEN_BUNDLE = Path(__file__).resolve().parent / "data" / "golden_bundle.json"


def brute_force_keyframes(times, comps, grippers, alpha, weights=None):
    """Independent oracle: plain-python scan of the keyframe criterion.

    Second differences per interior sample, maximal above-threshold runs
    collapsed to their peak (earliest on ties), gripper toggles at the
    later index, endpoints forced.
    """
    n = len(times)
    w = [1.0] * 6 if weights is None else list(weights)
    mags = []
    for i in range(1, n - 1):
        dt1 = times[i] - times[i - 1]
        dt2 = times[i + 1] - times[i]
        sq = 0.0
        for c in range(6):
            acc = 2 * ((comps[i + 1][c] - comps[i][c]) / dt2
                       - (comps[i][c] - comps[i - 1][c]) / dt1) / (dt1 + dt2)
            sq += (w[c] * acc) ** 2
        mags.append(sq ** 0.5)

    reasons = {0: {"forced_endpoint"}, n - 1: {"forced_endpoint"}}
    run = []
    for i in range(1, n - 1):
        if mags[i - 1] > alpha:
            run.append(i)
        elif run:
            peak = max(run, key=lambda j: (mags[j - 1], -j))
            reasons.setdefault(peak, set()).add("accel_threshold")
            run = []
    if run:
        peak = max(run, key=lambda j: (mags[j - 1], -j))
        reasons.setdefault(peak, set()).add("accel_threshold")
    for i in range(1, n):
        if grippers[i] != grippers[i - 1]:
            reasons.setdefault(i, set()).add("gripper_change")
    indices = sorted(reasons)
    return indices, [reasons[i] for i in indices]


def random_segmented_trajectory(rng, n_segments=None):
    """Mixed linear / acceleration-spike / gripper-toggle trajectory."""
    n_segments = n_segments or rng.integers(2, 6)
    dt = 0.05
    times, pos, grip = [0.0], [np.array([0.0, 0.0, 0.0])], [0]
    velocity = rng.normal(size=3) * 0.2
    for _ in range(n_segments):
        kind = rng.choice(["linear", "spike", "toggle"])
        steps = int(rng.integers(8, 20))
        if kind == "spike":
            velocity = rng.normal(size=3) * 0.2  # sharp direction change
        for _ in range(steps):
            times.append(times[-1] + dt)
            pos.append(pos[-1] + velocity * dt)
            grip.append(grip[-1])
        if kind == "toggle":
            grip[-1] = 1 - grip[-1]
    n = len(times)
    eul = np.zeros((n, 3))
    return tk.DenseTrajectory(np.array(times), np.array(pos), eul,
                              np.array(grip), tk.Frame.WORLD)


class TestGripperChanges:
    def test_constant_gripper_empty(self):
        traj = line_trajectory(n=20)
        assert tk.gripper_change_indices(traj).size == 0

    def test_pattern(self):
        t = np.arange(5.0)
        traj = tk.DenseTrajectory(
            t, np.stack([t, 0 * t, 0 * t], axis=1), np.zeros((5, 3)),
            [0, 0, 1, 1, 0], tk.Frame.WORLD)
        assert list(tk.gripper_change_indices(traj)) == [2, 4]

    def test_random_vs_scan(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            g = rng.integers(0, 2, n)
            t = np.arange(n, dtype=float)
            traj = tk.DenseTrajectory(
                t, np.stack([t, 0 * t, 0 * t], axis=1), np.zeros((n, 3)),
                g, tk.Frame.WORLD)
            expected = [i for i in range(1, n) if g[i] != g[i - 1]]
            assert list(tk.gripper_change_indices(traj)) == expected


class TestSelectKeyframes:
    @pytest.mark.parametrize("alpha, indices, peaks", [
        (0.5, (0, 1, 3, 4, 5, 7, 8), {1}),  # one run of magnitudes above alpha
        (1e300, (0, 1, 3, 4, 5, 6, 7, 8), {1, 6}),  # two runs of inf
        (math.inf, (0, 1, 3, 4, 5, 7, 8), set()),
    ])
    def test_overflowed_magnitudes_on_the_golden_bundle(self, alpha, indices, peaks):
        # its extreme values overflow accelerations to inf, which is above any finite
        # alpha and not above alpha = inf; no RuntimeWarning on the way
        traj, _ = fileio.load_bundle(GOLDEN_BUNDLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = tk.select_keyframes(traj, alpha)
        assert keys.indices == indices
        assert {i for i, r in zip(keys.indices, keys.reasons)
                if tk.KeyframeReason.ACCEL_THRESHOLD in r} == peaks

    def test_constant_velocity_endpoints_only(self):
        traj = line_trajectory(n=60)
        keys = tk.select_keyframes(traj, alpha=0.1)
        assert keys.indices == (0, 59)
        assert all(tk.KeyframeReason.FORCED_ENDPOINT in r for r in keys.reasons)

    def test_gripper_toggle_marked(self):
        t = np.linspace(0, 1, 100)
        pos = np.stack([t, 0 * t, 0 * t], axis=1)
        g = np.where(np.arange(100) >= 50, 1, 0)
        traj = tk.DenseTrajectory(t, pos, np.zeros((100, 3)), g,
                                  tk.Frame.WORLD)
        keys = tk.select_keyframes(traj, alpha=1e6)
        assert 50 in keys.indices
        idx = keys.indices.index(50)
        assert tk.KeyframeReason.GRIPPER_CHANGE in keys.reasons[idx]

    def test_triangular_profile_single_spike(self):
        # velocity reverses at the midpoint: exactly one interior keyframe
        n, mid = 61, 30
        t = np.arange(n) * 0.05
        x = np.where(np.arange(n) <= mid, np.arange(n), 2 * mid - np.arange(n)) * 0.1
        traj = tk.DenseTrajectory(
            t, np.stack([x, 0 * t, 0 * t], axis=1), np.zeros((n, 3)),
            np.zeros(n, dtype=int), tk.Frame.WORLD)
        _, mags = tk.finite_difference_accel(traj)
        keys = tk.select_keyframes(traj, alpha=float(mags.max()) / 2)
        assert keys.indices == (0, mid, n - 1)

    def test_alpha_monotonicity(self, rng):
        traj = random_segmented_trajectory(rng)
        lo = tk.select_keyframes(traj, alpha=0.5)
        hi = tk.select_keyframes(traj, alpha=2.0)

        def accel_set(keys):
            return {i for i, r in zip(keys.indices, keys.reasons)
                    if tk.KeyframeReason.ACCEL_THRESHOLD in r}

        assert accel_set(hi) <= accel_set(lo)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            traj = random_segmented_trajectory(rng)
            alpha = float(rng.uniform(0.5, 5.0))
            keys = tk.select_keyframes(traj, alpha)
            comps = np.hstack([traj.positions, traj.eulers])
            exp_idx, exp_reasons = brute_force_keyframes(
                traj.times, comps, traj.grippers, alpha)
            assert list(keys.indices) == exp_idx
            got_reasons = [{r.value for r in rs} for rs in keys.reasons]
            assert got_reasons == exp_reasons

    def test_rejects_bad_inputs(self):
        traj = line_trajectory(n=10)
        with pytest.raises(ValueError):
            tk.select_keyframes(traj, alpha=0.0)
        with pytest.raises(tk.InsufficientDataError):
            tk.select_keyframes(line_trajectory(n=2), alpha=1.0)

    @pytest.mark.parametrize("alpha", [True, False, "1", None, math.nan, np.float64(math.nan),
                                       0, -0.0, -1.0, -math.inf])
    def test_alpha_must_be_a_positive_real(self, alpha):
        # a bool is not taken as 1, nor a string compared with a TypeError
        with pytest.raises(ValueError, match="^alpha must be a positive real number"):
            tk.select_keyframes(line_trajectory(n=10), alpha)

    @pytest.mark.parametrize("weights", [[True] * 6, np.ones(6, bool),
                                         [1.0, 1.0, True, 1.0, 1.0, 1.0]],
                             ids=["bool-list", "bool-array", "one-bool"])
    def test_weights_must_not_be_bools(self, weights):
        # a bool is not taken as a weight of 1
        with pytest.raises(ValueError, match="^weights must hold real numbers"):
            tk.select_keyframes(line_trajectory(n=10), 1.0, weights=weights)

    def test_angles_and_times_whose_differences_overflow(self):
        # an angle of 1.8e308 next to one of -1e300 (as the extreme-value sweep of the
        # CLI made of the golden sparse bundle) overflowed np.unwrap, and times of
        # -1.8e308 and 1e300 their difference, each with a RuntimeWarning; the
        # magnitudes are nan (not selected) and 0 instead
        eulers = [[0, 1.7976931348623157e308, 0], [0, -1e300, 0], [0, 0, 0], [0, 1, 0]]
        traj = tk.DenseTrajectory([0.0, 1.0, 2.0, 3.0], np.zeros((4, 3)), eulers, [0] * 4,
                                  tk.Frame.WORLD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, mags = tk.finite_difference_accel(traj)
            assert tk.select_keyframes(traj, 0.5).indices == (0, 3)
            far = tk.DenseTrajectory([-1.7976931348623157e308, 1e300, 1.7976931348623157e308],
                                     np.zeros((3, 3)), np.zeros((3, 3)), [0] * 3, tk.Frame.WORLD)
            assert tk.finite_difference_accel(far)[1].tolist() == [0.0]
        assert times.tolist() == [1.0, 2.0] and np.isnan(mags).all()

    @pytest.mark.parametrize("alpha", [math.inf, np.float64(math.inf)])
    def test_infinite_alpha_keeps_endpoints_and_gripper_toggles(self, alpha):
        traj = helix_trajectory(n=101)
        traj = tk.DenseTrajectory(traj.times, traj.positions, traj.eulers,
                                  (np.arange(101) >= 40).astype(int), tk.Frame.WORLD)
        assert tk.select_keyframes(traj, alpha).indices == (0, 40, 100)


class TestKeyframeSetChecks:
    END = frozenset({tk.KeyframeReason.FORCED_ENDPOINT})

    @pytest.mark.parametrize("indices, reasons, message", [
        ((0, 5), (END,), "indices and reasons must have equal length"),
        ((0,), (END,), "a keyframe set needs at least the two endpoints"),
        ((0, 5, 3), (END,) * 3, "keyframe indices must be strictly increasing"),
        ((0, 5, 5), (END,) * 3, "keyframe indices must be strictly increasing"),
        ((1, 5), (END,) * 2, "first keyframe must be sample 0"),
        ((0, 5), (END, frozenset()), "every keyframe needs at least one reason"),
    ], ids=["lengths", "one-index", "decreasing", "repeated", "not-from-0", "no-reason"])
    def test_rejected(self, indices, reasons, message):
        with pytest.raises(ValueError) as info:
            tk.KeyframeSet(indices, reasons)
        assert str(info.value) == message

    @pytest.mark.parametrize("last", [8, 10])
    def test_key_set_must_end_at_the_last_sample(self, last):
        keys = tk.KeyframeSet((0, last), (self.END,) * 2)
        with pytest.raises(ValueError) as info:
            tk.insert_sub_keyframes(line_trajectory(n=10), keys, 3)
        assert str(info.value) == "keyframe set does not match trajectory length"


class TestInsertSubKeyframes:
    def test_n2_returns_keyframes(self):
        traj = line_trajectory(n=50)
        keys = tk.select_keyframes(traj, alpha=1.0)
        sparse = tk.insert_sub_keyframes(traj, keys, 2)
        assert len(sparse) == 2
        assert all(sparse.keyframe_flags)
        assert np.allclose(sparse.times, [0.0, 1.0])

    def test_line_midpoint(self):
        traj = line_trajectory(n=101)
        keys = tk.select_keyframes(traj, alpha=1.0)
        sparse = tk.insert_sub_keyframes(traj, keys, 3)
        assert np.allclose(sparse.times, [0.0, 0.5, 1.0])
        assert np.allclose(sparse.positions[1], [0.5, 0.0, 0.0])
        assert list(sparse.keyframe_flags) == [True, False, True]

    def test_helix_counts_and_spacing(self):
        # oracle: direct arithmetic on segment bounds
        traj = helix_trajectory(n=1001)
        g = traj.grippers.copy()
        g[500:] = 1  # one toggle -> two segments
        traj = tk.DenseTrajectory(traj.times, traj.positions,
                                  traj.eulers, g, tk.Frame.WORLD)
        keys = tk.select_keyframes(traj, alpha=1e9)
        n_segments = len(keys.indices) - 1
        sparse = tk.insert_sub_keyframes(traj, keys, 11)
        assert len(sparse) == 10 * n_segments + 1
        times = sparse.times
        for a, b in zip(keys.indices, keys.indices[1:]):
            t0, t1 = traj.times[a], traj.times[b]
            seg = times[(times >= t0 - 1e-12) & (times <= t1 + 1e-12)]
            assert np.abs(np.diff(seg) - (t1 - t0) / 10).max() < 1e-9

    def test_interior_pose_from_nearest_sample(self):
        # irregular sampling: grid time 0.5 sits nearest to the sample at 0.45
        t = np.array([0.0, 0.45, 0.62, 1.0])
        pos = np.stack([t * 2, 0 * t, 0 * t], axis=1)
        traj = tk.DenseTrajectory(t, pos, np.zeros((4, 3)),
                                  np.zeros(4, dtype=int), tk.Frame.WORLD)
        keys = tk.KeyframeSet((0, 3), (frozenset([tk.KeyframeReason.FORCED_ENDPOINT]),) * 2)
        sparse = tk.insert_sub_keyframes(traj, keys, 3)
        assert sparse.times[1] == 0.5
        assert np.allclose(sparse.positions[1], [0.9, 0, 0])  # pose of t=0.45

    def test_matches_per_waypoint_reference(self, rng):
        # reference: one linspace per segment and a scalar nearest-sample
        # lookup per grid point; the vectorized result must be bit-identical
        for _ in range(10):
            traj = random_segmented_trajectory(rng)
            keys = tk.select_keyframes(traj, alpha=1.0)
            n = int(rng.integers(2, 9))
            t = traj.times
            ref_times, ref_src, ref_flags = [], [], []
            for seg, (i0, i1) in enumerate(zip(keys.indices, keys.indices[1:])):
                for j, tau in enumerate(np.linspace(t[i0], t[i1], n)):
                    if seg > 0 and j == 0:
                        continue
                    hi = min(max(int(np.searchsorted(t, tau)), 1), len(t) - 1)
                    ref_times.append(tau)
                    ref_src.append(hi - 1 if tau - t[hi - 1] <= t[hi] - tau else hi)
                    ref_flags.append(j in (0, n - 1))
            sparse = tk.insert_sub_keyframes(traj, keys, n)
            assert np.array_equal(sparse.times, ref_times)
            assert np.array_equal(sparse.positions, traj.positions[ref_src])
            assert sparse.keyframe_flags.tolist() == ref_flags
            assert np.array_equal(sparse.grippers, traj.grippers[ref_src])

    def test_tie_prefers_earlier_sample(self):
        t = np.array([0.0, 0.25, 0.75, 1.0])
        pos = np.stack([[0.0, 1.0, 3.0, 4.0], [0.0] * 4, [0.0] * 4], axis=1)
        traj = tk.DenseTrajectory(t, pos, np.zeros((4, 3)),
                                  np.zeros(4, dtype=int), tk.Frame.WORLD)
        keys = tk.KeyframeSet((0, 3), (frozenset([tk.KeyframeReason.FORCED_ENDPOINT]),) * 2)
        sparse = tk.insert_sub_keyframes(traj, keys, 3)
        # 0.5 is equidistant from 0.25 and 0.75 -> earlier sample wins
        assert np.allclose(sparse.positions[1], [1.0, 0, 0])

    def test_quiet_trajectory_has_n_waypoints(self, rng):
        traj = line_trajectory(n=80)
        keys = tk.select_keyframes(traj, alpha=10.0)
        for n in (2, 5, 9):
            sparse = tk.insert_sub_keyframes(traj, keys, n)
            assert len(sparse) == n

    def test_timestamps_cover_span_strictly_increasing(self, rng):
        traj = random_segmented_trajectory(rng)
        keys = tk.select_keyframes(traj, alpha=1.0)
        sparse = tk.insert_sub_keyframes(traj, keys, 7)
        times = sparse.times
        assert times[0] == traj.times[0]
        assert times[-1] == traj.times[-1]
        assert np.all(np.diff(times) > 0)

    def test_rejects_small_n(self):
        traj = line_trajectory(n=10)
        keys = tk.select_keyframes(traj, alpha=1.0)
        with pytest.raises(ValueError):
            tk.insert_sub_keyframes(traj, keys, 1)

    def test_integral_float_count_counts_as_its_int(self):
        traj = helix_trajectory(n=101)
        keys = tk.select_keyframes(traj, alpha=1.0)
        got, want = (tk.insert_sub_keyframes(traj, keys, n) for n in (12.0, 12))
        for name in ("times", "positions", "eulers", "grippers", "keyframe_flags"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("n", [2.5, "12", True, None, math.nan, math.inf])
    def test_count_must_be_an_integer(self, n):
        traj = line_trajectory(n=10)
        keys = tk.select_keyframes(traj, alpha=1.0)
        with pytest.raises(ValueError, match="^samples per segment must be an integer"):
            tk.insert_sub_keyframes(traj, keys, n)
        with pytest.raises(ValueError, match="^samples per segment must be an integer"):
            tk.reconstruction_error(traj, n)


def sparse_with_flags(flags):
    return tk.SparseTrajectory(np.arange(3.0), np.zeros((3, 3)), np.zeros((3, 3)),
                               np.zeros(3, dtype=int), flags, tk.Frame.WORLD)


class TestKeyframeFlags:
    @pytest.mark.parametrize("flags, message", [
        ([2, "no", None], "must hold bools, not numbers or strings"),
        ([1, 0, 1], "must hold bools, not numbers or strings"),
        (np.array([1.0, 0.0, 1.0]), "must hold bools, not numbers or strings"),
        ([True, False, None], "must hold bools, not numbers or strings"),
        ([True, False], "must have shape (3,), got (2,)"),
        ([[True, False, True]], "must have shape (3,), got (1, 3)"),
        (True, "must have shape (3,), got ()"),
    ], ids=["mixed", "ints", "floats", "none", "short", "2-d", "scalar"])
    def test_rejects_anything_but_one_bool_per_waypoint(self, flags, message):
        # [2, "no", None] used to be stored as (True, True, False); the flags
        # enter through the bool intake, which names the column
        with pytest.raises(ValueError) as info:
            sparse_with_flags(flags)
        assert str(info.value) == f"keyframe_flags {message}"

    def test_stored_as_a_read_only_bool_column(self):
        flags = np.array([True, False, True])
        sparse = sparse_with_flags(flags)
        assert sparse.keyframe_flags.dtype == bool and sparse.keyframe_flags.shape == (3,)
        assert not sparse.keyframe_flags.flags.writeable and flags.flags.writeable
        flags[1] = True
        assert sparse.keyframe_flags.tolist() == [True, False, True]
        assert sparse_with_flags((True, False, False)).keyframe_flags.tolist() == [
            True, False, False]
