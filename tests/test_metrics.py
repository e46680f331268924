"""Metric suite: DP metrics vs exhaustive enumeration, report shape."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

import trajkit as tk
from trajkit import metrics
from trajkit.metrics import REPORT_ROW_NAMES, _point_to_polyline


def enumerate_monotone_paths(n, m):
    """All monotone alignments from (0,0) to (n-1,m-1); steps right/down/diag."""
    paths = []

    def extend(path):
        i, j = path[-1]
        if (i, j) == (n - 1, m - 1):
            paths.append(list(path))
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            if i + di < n and j + dj < m:
                path.append((i + di, j + dj))
                extend(path)
                path.pop()

    extend([(0, 0)])
    return paths


def dtw_brute(a, b):
    """Min over all monotone paths of the summed Euclidean costs."""
    a, b = np.asarray(a), np.asarray(b)
    best = np.inf
    for path in enumerate_monotone_paths(len(a), len(b)):
        cost = sum(np.linalg.norm(a[i] - b[j]) for i, j in path)
        best = min(best, cost)
    return best


def frechet_brute(a, b):
    """Min over all couplings of the max matched distance."""
    a, b = np.asarray(a), np.asarray(b)
    best = np.inf
    for path in enumerate_monotone_paths(len(a), len(b)):
        width = max(np.linalg.norm(a[i] - b[j]) for i, j in path)
        best = min(best, width)
    return best


def dtw_loop(a, b, normalized=False):
    """Reference: the row-by-row double loop the wavefront replaced."""
    cost = cdist(a, b)
    n, m = cost.shape
    acc = np.empty((n, m))
    acc[0, 0] = cost[0, 0]
    acc[0, 1:] = cost[0, 1:].cumsum() + acc[0, 0]
    acc[1:, 0] = cost[1:, 0].cumsum() + acc[0, 0]
    for i in range(1, n):
        for j in range(1, m):
            acc[i, j] = cost[i, j] + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
    total = float(acc[-1, -1])
    if not normalized:
        return total
    i, j, length = n - 1, m - 1, 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            step = int(np.argmin([acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]]))
            if step == 0:
                i, j = i - 1, j - 1
            elif step == 1:
                i -= 1
            else:
                j -= 1
        length += 1
    return total / length


def frechet_loop(a, b):
    """Reference: the row-by-row double loop the wavefront replaced."""
    cost = cdist(a, b)
    n, m = cost.shape
    acc = np.empty((n, m))
    acc[0, 0] = cost[0, 0]
    for i in range(1, n):
        acc[i, 0] = max(acc[i - 1, 0], cost[i, 0])
    for j in range(1, m):
        acc[0, j] = max(acc[0, j - 1], cost[0, j])
    for i in range(1, n):
        for j in range(1, m):
            acc[i, j] = max(min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1]),
                            cost[i, j])
    return float(acc[-1, -1])


def assert_dp_metrics_match_loops(a, b):
    assert tk.dtw(a, b) == dtw_loop(a, b)
    assert tk.dtw(a, b, normalized=True) == dtw_loop(a, b, normalized=True)
    assert tk.discrete_frechet(a, b) == frechet_loop(a, b)


@st.composite
def polyline_pairs(draw, max_len=30):
    """Two polylines of one dimension: real coordinates, or a small integer
    grid whose many equal distances tie the DP minima."""
    dim = draw(st.sampled_from((2, 3)))
    elements = draw(st.sampled_from((st.floats(-3.0, 3.0), st.integers(-2, 2).map(float))))
    lengths = st.integers(1, max_len)
    a = draw(arrays(float, st.tuples(lengths, st.just(dim)), elements=elements))
    b = draw(arrays(float, st.tuples(lengths, st.just(dim)), elements=elements))
    return a, b


def random_polyline(rng, max_len=6, dim=2):
    n = int(rng.integers(1, max_len + 1))
    return rng.uniform(-2, 2, (n, dim))


class TestDTW:
    def test_identical_is_zero(self, rng):
        p = rng.normal(size=(8, 3))
        assert tk.dtw(p, p) == 0.0
        assert tk.dtw(p, p, normalized=True) == 0.0

    def test_single_points(self):
        assert tk.dtw([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0

    def test_matches_enumeration(self, rng):
        for _ in range(60):
            a, b = random_polyline(rng), random_polyline(rng)
            assert abs(tk.dtw(a, b) - dtw_brute(a, b)) < 1e-12

    def test_symmetric(self, rng):
        for _ in range(40):
            a, b = random_polyline(rng), random_polyline(rng)
            assert abs(tk.dtw(a, b) - tk.dtw(b, a)) < 1e-12

    def test_normalized_divides_by_path_length(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0]])
        # unique optimal path: two diagonal matches of cost 1
        assert abs(tk.dtw(a, b) - 2.0) < 1e-12
        assert abs(tk.dtw(a, b, normalized=True) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tk.dtw(np.zeros((3, 2)), np.zeros((3, 3)))


class TestLoopReference:
    """The wavefront DP is bit-identical to the double loops it replaced."""

    SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (3, 8), (60, 2), (2, 60), (60, 7),
              (33, 47), (60, 60)]

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_real_coordinates(self, rng, n, m):
        for dim in (2, 3):
            assert_dp_metrics_match_loops(rng.normal(size=(n, dim)),
                                          rng.normal(size=(m, dim)))

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_tie_heavy_integer_grid(self, rng, n, m):
        for _ in range(3):
            a = rng.integers(-1, 2, (n, 2)).astype(float)
            b = rng.integers(-1, 2, (m, 2)).astype(float)
            assert_dp_metrics_match_loops(a, b)

    def test_constant_polylines_tie_everywhere(self):
        assert_dp_metrics_match_loops(np.zeros((17, 3)), np.ones((29, 3)))

    @given(polyline_pairs())
    def test_property(self, pair):
        assert_dp_metrics_match_loops(*pair)


class TestFrechet:
    def test_identical_is_zero(self, rng):
        p = rng.normal(size=(7, 2))
        assert tk.discrete_frechet(p, p) == 0.0

    def test_single_points(self):
        assert tk.discrete_frechet([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0

    def test_matches_enumeration(self, rng):
        for _ in range(60):
            a, b = random_polyline(rng), random_polyline(rng)
            assert abs(tk.discrete_frechet(a, b) - frechet_brute(a, b)) < 1e-12

    def test_at_least_hausdorff(self, rng):
        for _ in range(300):
            a = random_polyline(rng, max_len=9)
            b = random_polyline(rng, max_len=9)
            assert tk.hausdorff(a, b) <= tk.discrete_frechet(a, b) + 1e-12

    def test_zero_iff_identical(self, rng):
        a = rng.normal(size=(5, 2))
        b = a.copy()
        b[2] += 1e-3
        assert tk.discrete_frechet(a, b) > 0


class TestHausdorff:
    def test_singletons(self):
        assert tk.hausdorff([[0.0, 0.0]], [[3.0, 0.0]]) == 3.0

    def test_superset_with_far_point(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.vstack([a, [[0.0, 7.0]]])
        assert tk.hausdorff(a, b) == 7.0

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            a = random_polyline(rng, max_len=8, dim=3)
            b = random_polyline(rng, max_len=8, dim=3)
            directed_ab = max(min(np.linalg.norm(p - q) for q in b) for p in a)
            directed_ba = max(min(np.linalg.norm(p - q) for q in a) for p in b)
            assert abs(tk.hausdorff(a, b) - max(directed_ab, directed_ba)) < 1e-12

    def test_symmetric(self, rng):
        a, b = random_polyline(rng), random_polyline(rng)
        assert tk.hausdorff(a, b) == tk.hausdorff(b, a)


class TestOrthogonalDistances:
    def test_pred_on_ref_is_zero(self):
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        pred = np.array([[0.5, 0.0], [1.5, 0.5]])
        mx, mean, med = tk.orthogonal_distances(pred, ref)
        assert mx < 1e-12 and mean < 1e-12 and med < 1e-12

    def test_perpendicular_height(self):
        ref = np.array([[-5.0, 0.0], [5.0, 0.0]])
        pred = np.array([[0.3, 0.7]])
        mx, mean, med = tk.orthogonal_distances(pred, ref)
        assert abs(mx - 0.7) < 1e-12 and abs(mean - 0.7) < 1e-12

    def test_projects_to_segment_interior(self):
        # vertex-nearest would report sqrt(0.5^2 + 0.3^2); the foot point gives 0.3
        ref = np.array([[0.0, 0.0], [1.0, 0.0]])
        pred = np.array([[0.5, 0.3]])
        mx, _, _ = tk.orthogonal_distances(pred, ref)
        assert abs(mx - 0.3) < 1e-12

    def test_against_dense_sampling_oracle(self, rng):
        for _ in range(20):
            ref = rng.uniform(-1, 1, (5, 2))
            pred = rng.uniform(-1, 1, (7, 2))
            # oracle: vertex-nearest on a 10^4-point densified ref
            dense = np.vstack([
                np.linspace(ref[i], ref[i + 1], 2500, endpoint=False)
                for i in range(len(ref) - 1)
            ] + [ref[-1:]])
            oracle = np.array([np.linalg.norm(dense - p, axis=1).min() for p in pred])
            mx, mean, med = tk.orthogonal_distances(pred, ref)
            assert abs(mx - oracle.max()) < 1e-3
            assert abs(mean - oracle.mean()) < 1e-3
            assert abs(med - np.median(oracle)) < 1e-3

    def test_blocks_match_one_block(self, rng, monkeypatch):
        pred = rng.normal(size=(50, 3))
        ref = rng.normal(size=(9, 3))
        whole = _point_to_polyline(pred, ref)
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", 7)
        assert np.array_equal(_point_to_polyline(pred, ref), whole)

    def test_single_point_ref(self):
        mx, mean, med = tk.orthogonal_distances(np.array([[3.0, 4.0]]),
                                                np.array([[0.0, 0.0]]))
        assert mx == 5.0

    def test_even_count_median_averages_middle(self):
        ref = np.array([[0.0, 0.0], [10.0, 0.0]])
        pred = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        _, _, med = tk.orthogonal_distances(pred, ref)
        assert abs(med - 2.5) < 1e-12


class TestEndpointErrors:
    def test_identical(self, rng):
        p = rng.normal(size=(6, 3))
        assert tk.endpoint_errors(p, p) == (0.0, 0.0)

    def test_rigid_shift(self, rng):
        p = rng.normal(size=(6, 3))
        q = p + np.array([0.1, 0.0, 0.0])
        start, end = tk.endpoint_errors(q, p)
        assert abs(start - 0.1) < 1e-12 and abs(end - 0.1) < 1e-12

    def test_random_vs_direct(self, rng):
        a, b = rng.normal(size=(2, 5, 2))
        start, end = tk.endpoint_errors(a, b)
        assert start == np.linalg.norm(a[0] - b[0])
        assert end == np.linalg.norm(a[-1] - b[-1])


class TestCoverage:
    def test_identical_perfect(self, rng):
        p = rng.normal(size=(9, 2))
        assert tk.coverage(p, p, 0.05) == (1.0, 1.0, 1.0)

    def test_disjoint_zero(self):
        a = np.zeros((3, 2))
        b = np.full((3, 2), 100.0)
        assert tk.coverage(a, b, 0.05) == (0.0, 0.0, 0.0)

    def test_half_precision_full_recall(self):
        # counting oracle: two pred points sit on ref, two sit 5 away;
        # every ref point lies on the pred polyline's first segment
        ref = np.array([[0.25, 0.0], [0.75, 0.0]])
        pred = np.array([[0.25, 0.0], [0.75, 0.0], [0.75, 5.0], [0.25, 5.0]])
        precision, recall, f1 = tk.coverage(pred, ref, 0.1)
        assert precision == 0.5
        assert recall == 1.0
        assert abs(f1 - 2 / 3) < 1e-12

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            tk.coverage(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)


class TestFullReport:
    def test_identical_inputs(self, rng):
        p = rng.normal(size=(12, 3))
        report = tk.full_report(p, p)
        assert report.cover_f1 == 1.0 and report.cover_precision == 1.0
        for name in ("dtw", "frechet", "hausdorff", "max_orth_dist",
                     "mean_orth_dist", "median_orth_dist", "startpoint_err",
                     "endpoint_err"):
            assert getattr(report, name) == 0.0

    def test_row_names_exact(self, rng):
        report = tk.full_report(rng.normal(size=(4, 2)), rng.normal(size=(5, 2)))
        payload = report.as_dict()
        assert tuple(k for k in payload if k != "config") == REPORT_ROW_NAMES
        assert payload["config"]["tau"] == 0.05
        assert "dtw_raw" in payload["config"]
        json.dumps(payload)  # serializable

    def test_components_match_from_oracles(self, rng):
        pred = rng.normal(size=(5, 2))
        ref = rng.normal(size=(5, 2))
        report = tk.full_report(pred, ref, tau=0.3, dtw_normalized=False)
        assert report.dtw == pytest.approx(dtw_brute(pred, ref), abs=1e-12)
        assert report.frechet == pytest.approx(frechet_brute(pred, ref), abs=1e-12)
        assert report.hausdorff == pytest.approx(tk.hausdorff(pred, ref))
        p, r, f1 = tk.coverage(pred, ref, 0.3)
        assert report.cover_precision == p and report.cover_f1 == f1
        start, end = tk.endpoint_errors(pred, ref)
        assert report.startpoint_err == start and report.endpoint_err == end

    @given(polyline_pairs(max_len=20), st.sampled_from((0.05, 0.5, 2.0)), st.booleans())
    def test_rows_equal_standalone_metrics(self, pair, tau, dtw_normalized):
        pred, ref = pair
        report = tk.full_report(pred, ref, tau=tau, dtw_normalized=dtw_normalized)
        precision, recall, f1 = tk.coverage(pred, ref, tau)
        assert (report.cover_precision, report.config["cover_recall"], report.cover_f1) == \
            (precision, recall, f1)
        assert report.dtw == tk.dtw(pred, ref, normalized=dtw_normalized)
        assert report.config["dtw_raw"] == tk.dtw(pred, ref)
        assert report.frechet == tk.discrete_frechet(pred, ref)
        assert report.hausdorff == tk.hausdorff(pred, ref)
        assert (report.max_orth_dist, report.mean_orth_dist, report.median_orth_dist) == \
            tk.orthogonal_distances(pred, ref)
        assert (report.startpoint_err, report.endpoint_err) == tk.endpoint_errors(pred, ref)

    def test_tau_validated(self, rng):
        with pytest.raises(ValueError):
            tk.full_report(rng.normal(size=(4, 2)), rng.normal(size=(5, 2)), tau=0.0)

    def test_rigid_invariance(self, rng):
        from conftest import rot_z
        pred = rng.normal(size=(6, 3))
        ref = rng.normal(size=(7, 3))
        rot = np.eye(3)
        rot[:2, :2] = rot_z(0.8)[:2, :2]
        shift = np.array([0.3, -1.2, 0.7])
        a = tk.full_report(pred, ref, tau=0.2)
        b = tk.full_report(pred @ rot.T + shift, ref @ rot.T + shift, tau=0.2)
        for name in ("dtw", "frechet", "hausdorff", "max_orth_dist",
                     "mean_orth_dist", "median_orth_dist", "startpoint_err",
                     "endpoint_err", "cover_f1", "cover_precision"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9)

    def test_all_metrics_nonnegative(self, rng):
        for _ in range(20):
            report = tk.full_report(random_polyline(rng, 8), random_polyline(rng, 8))
            payload = report.as_dict()
            for name in REPORT_ROW_NAMES:
                assert payload[name] >= 0.0
            assert 0.0 <= report.cover_f1 <= 1.0
            assert 0.0 <= report.cover_precision <= 1.0
            assert report.hausdorff <= report.frechet + 1e-12
