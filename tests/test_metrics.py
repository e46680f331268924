"""Metric suite: DP metrics vs exhaustive enumeration, report shape."""

import itertools
import json
import math
import tracemalloc

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


def _ordered_sum(terms, order):
    total = terms[order[0]]
    for d in order[1:]:
        total += terms[d]
    return total


def point_to_polyline_loop(points, ref):
    """Reference: a scalar projection of every point on every ref segment.

    Dot products (and squared segment lengths) sum x, z, y in 3-D and
    x, y in 2-D, the order of the einsum the kernel replaced; squared
    residuals sum x, y, z, the order of ``np.linalg.norm``.
    """
    dims = range(ref.shape[1])
    dot_order = (0, 2, 1) if ref.shape[1] == 3 else (0, 1)
    ref = ref.tolist()
    out = []
    for p in points.tolist():
        if len(ref) == 1:
            best = _ordered_sum([(p[d] - ref[0][d]) * (p[d] - ref[0][d]) for d in dims], dims)
        else:
            best = math.inf
        for s, e in zip(ref, ref[1:]):
            seg = [e[d] - s[d] for d in dims]
            len_sq = _ordered_sum([x * x for x in seg], dot_order) or 1.0
            t = _ordered_sum([(p[d] - s[d]) * seg[d] for d in dims], dot_order) / len_sq
            t = min(1.0, max(0.0, t))
            resid = [p[d] - ((1.0 - t) * s[d] + t * e[d]) for d in dims]
            best = min(best, _ordered_sum([r * r for r in resid], dims))
        out.append(math.sqrt(best))
    return np.array(out)


def assert_dp_metrics_match_loops(a, b):
    assert tk.dtw(a, b) == dtw_loop(a, b)
    assert tk.full_report(a, b).dtw == dtw_loop(a, b, normalized=True)
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
        assert tk.full_report(p, p).dtw == 0.0

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
        assert abs(tk.full_report(a, b).dtw - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tk.dtw(np.zeros((3, 2)), np.zeros((3, 3)))


class TestLoopReference:
    """The wavefront DP is bit-identical to the double loops it replaced."""

    SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (2, 3), (3, 2), (3, 8), (1, 60), (60, 1),
              (60, 2), (2, 60), (60, 7), (33, 47), (59, 60), (60, 59), (60, 60)]

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

    @pytest.mark.parametrize("n, m", [(9, 23), (23, 9), (17, 17)])
    def test_distance_blocks(self, rng, monkeypatch, n, m):
        # many short blocks of _distances rows, and a partial last block
        monkeypatch.setattr(metrics, "_DIST_BLOCK_ROWS", 4)
        a, b = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        assert_dp_metrics_match_loops(a, b)
        dist = cdist(a, b)
        assert tk.hausdorff(a, b) == max(dist.min(axis=1).max(), dist.min(axis=0).max())


@st.composite
def multi_scale_pairs(draw):
    """Two point sets of one dimension, 1-150 points each (so rows span
    several blocks of _distances), every axis on its own scale from 1e-6
    to 1e6."""
    dim = draw(st.sampled_from((2, 3)))
    scales = np.array([draw(st.sampled_from((1e-6, 1e-3, 1.0, 1e3, 1e6))) for _ in range(dim)])
    lengths = st.integers(1, 150)
    a = draw(arrays(float, st.tuples(lengths, st.just(dim)), elements=st.floats(-1.0, 1.0)))
    b = draw(arrays(float, st.tuples(lengths, st.just(dim)), elements=st.floats(-1.0, 1.0)))
    return a * scales, b * scales


class TestDistances:
    """metrics._distances is the plain-NumPy stand-in for cdist, bit for bit."""

    @given(multi_scale_pairs())
    def test_equals_cdist(self, pair):
        a, b = pair
        assert np.array_equal(metrics._distances(a, b), cdist(a, b))

    @given(polyline_pairs())
    def test_equals_cdist_on_tie_grids(self, pair):
        assert np.array_equal(metrics._distances(*pair), cdist(*pair))

    def test_peak_memory_is_the_output_and_one_block(self, rng):
        a, b = rng.normal(size=(1000, 3)), rng.normal(size=(700, 3))
        tracemalloc.start()
        try:
            metrics._distances(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, one work block (358 kB) and NumPy's transient broadcast
        # buffers; a second (n, m) buffer would add another 5.6 MB
        assert peak - 1000 * 700 * 8 < metrics._DIST_BLOCK_ROWS * 700 * 8 + 256 * 1024


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
        monkeypatch.setattr(metrics, "_DIST_BLOCK_ROWS", 7)
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


class TestPolylineLoopReference:
    """The per-axis point-to-polyline kernel is bit-identical to a scalar loop."""

    @pytest.mark.parametrize("n, m", [(1, 2), (7, 2), (2, 9), (40, 25), (250, 60)])
    @pytest.mark.parametrize("dim", (2, 3))
    def test_random_pairs(self, rng, n, m, dim):
        for scale in (1e-3, 1.0, 1e4):
            points = scale * rng.normal(size=(n, dim))
            ref = scale * rng.normal(size=(m, dim))
            assert np.array_equal(_point_to_polyline(points, ref),
                                  point_to_polyline_loop(points, ref))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_zero_length_segments(self, rng, dim):
        ref = np.repeat(rng.normal(size=(4, dim)), [1, 3, 1, 2], axis=0)
        points = rng.normal(size=(30, dim))
        assert np.array_equal(_point_to_polyline(points, ref),
                              point_to_polyline_loop(points, ref))
        lone = np.repeat(ref[:1], 3, axis=0)  # every segment degenerate
        assert np.array_equal(_point_to_polyline(points, lone),
                              np.linalg.norm(points - lone[0], axis=1))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_feet_clamped_to_endpoints(self, rng, dim):
        start, end = rng.normal(size=dim), rng.normal(size=dim)
        ref = np.stack([start, end])
        side = rng.normal(size=(20, dim))
        # past either end of the segment, along its direction
        before = start - (end - start) * rng.uniform(0.1, 3.0, (20, 1)) + 0.01 * side
        after = end + (end - start) * rng.uniform(0.1, 3.0, (20, 1)) + 0.01 * side
        points = np.vstack([before, after])
        got = _point_to_polyline(points, ref)
        assert np.array_equal(got, point_to_polyline_loop(points, ref))
        # t clamps to exactly 0 and 1, so the feet are the endpoints themselves
        assert np.array_equal(got[:20], np.linalg.norm(before - start, axis=1))
        assert np.array_equal(got[20:], np.linalg.norm(after - end, axis=1))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_single_point_ref(self, rng, dim):
        points, ref = rng.normal(size=(15, dim)), rng.normal(size=(1, dim))
        assert np.array_equal(_point_to_polyline(points, ref),
                              point_to_polyline_loop(points, ref))

    # literal extras keep the case ids fixed when _DIST_BLOCK_ROWS is retuned;
    # 1027 adds many full blocks and a short tail to the one-block count
    @pytest.mark.parametrize("extra", (-1, 0, 1, 1027))
    def test_point_counts_straddling_blocks(self, rng, extra):
        points = rng.normal(size=(metrics._DIST_BLOCK_ROWS + extra, 3))
        ref = rng.normal(size=(6, 3))
        assert np.array_equal(_point_to_polyline(points, ref),
                              point_to_polyline_loop(points, ref))

    @given(polyline_pairs())
    def test_property(self, pair):
        points, ref = pair
        assert np.array_equal(_point_to_polyline(points, ref),
                              point_to_polyline_loop(points, ref))

    def test_peak_memory_bounded_per_block(self, rng):
        points, ref = rng.normal(size=(3000, 3)), rng.normal(size=(2000, 3))
        block_bytes = metrics._DIST_BLOCK_ROWS * (len(ref) - 1) * 8
        tracemalloc.start()
        try:
            _point_to_polyline(points, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full (3000, 1999, 3) temporary alone would be 8.8 block sizes
        assert peak < 6 * block_bytes

    @given(st.one_of(multi_scale_pairs(), polyline_pairs()),
           st.lists(st.integers(1, 3), min_size=1, max_size=150),
           st.sampled_from((0.0, -1e2, 1e8)))
    def test_pruned_projection_property(self, pair, repeats, offset):
        # repeated ref vertices make zero-length segments; an offset far from
        # the origin makes the projections' rounding large against the distances
        points, ref = pair
        ref = np.repeat(ref, repeats[:len(ref)] + [1] * (len(ref) - len(repeats)), axis=0)
        points, ref = points + offset, ref + offset
        assert np.array_equal(_point_to_polyline(points, ref),
                              point_to_polyline_loop(points, ref))

    def test_near_tie_far_from_origin(self):
        # coordinates near 100, distances of a few units in the last place: a
        # pruning slack taken from the distances alone drops the segment that
        # holds the computed minimum (1.5306e-13 instead of 1.5106e-13)
        ref = np.array([[100.00000000000004, 99.99999999999997], [99.99999999999999, 100.0],
                        [99.99999999999996, 99.99999999999999]])
        points = np.array([[100.00000000000009, 100.00000000000011]])
        assert np.array_equal(_point_to_polyline(points, ref),
                              point_to_polyline_loop(points, ref))

    def test_candidate_heavy_blocks(self, rng):
        # far points against a tightly folded ref: no segment can be pruned, so
        # every block projects in many chunks, with rows split between chunks
        ref = np.tile([[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0]], (20, 1)) + 1e-9 * rng.normal(size=(40, 3))
        points = 100.0 + rng.normal(size=(70, 3))
        assert np.array_equal(_point_to_polyline(points, ref),
                              point_to_polyline_loop(points, ref))

    def test_peak_memory_bounded_per_block_candidate_heavy(self, rng):
        ref = np.tile([[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0]], (1000, 1)) + 1e-9 * rng.normal(size=(2000, 3))
        points = 100.0 + rng.normal(size=(3000, 3))
        block_bytes = metrics._DIST_BLOCK_ROWS * (len(ref) - 1) * 8
        tracemalloc.start()
        try:
            _point_to_polyline(points, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the same bound as for random points, where 6-14% of the pairs are candidates
        assert peak < 6 * block_bytes


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
        report = tk.full_report(pred, ref, tau=0.3)
        assert report.config["dtw_raw"] == pytest.approx(dtw_brute(pred, ref), abs=1e-12)
        assert report.frechet == pytest.approx(frechet_brute(pred, ref), abs=1e-12)
        assert report.hausdorff == pytest.approx(tk.hausdorff(pred, ref))
        p, r, f1 = tk.coverage(pred, ref, 0.3)
        assert report.cover_precision == p and report.cover_f1 == f1
        start, end = tk.endpoint_errors(pred, ref)
        assert report.startpoint_err == start and report.endpoint_err == end

    @given(polyline_pairs(max_len=20), st.sampled_from((0.05, 0.5, 2.0)))
    def test_rows_equal_standalone_metrics(self, pair, tau):
        pred, ref = pair
        report = tk.full_report(pred, ref, tau=tau)
        precision, recall, f1 = tk.coverage(pred, ref, tau)
        assert (report.cover_precision, report.config["cover_recall"], report.cover_f1) == \
            (precision, recall, f1)
        assert report.dtw == dtw_loop(pred, ref, normalized=True)
        assert report.config["dtw_raw"] == tk.dtw(pred, ref)
        assert report.frechet == tk.discrete_frechet(pred, ref)
        assert report.hausdorff == tk.hausdorff(pred, ref)
        assert (report.max_orth_dist, report.mean_orth_dist, report.median_orth_dist) == \
            tk.orthogonal_distances(pred, ref)
        assert (report.startpoint_err, report.endpoint_err) == tk.endpoint_errors(pred, ref)

    def test_tau_validated(self, rng):
        with pytest.raises(ValueError):
            tk.full_report(rng.normal(size=(4, 2)), rng.normal(size=(5, 2)), tau=0.0)

    @pytest.mark.parametrize("n, m", [(23, 41), (41, 23), (20, 40), (40, 20)])
    def test_rows_equal_standalone_metrics_in_small_blocks(self, rng, monkeypatch, n, m):
        # the projections run on many scan blocks and many transposed blocks,
        # with a short last block or, at 20 and 40, none
        monkeypatch.setattr(metrics, "_DIST_BLOCK_ROWS", 5)
        grids = (rng.integers(-2, 3, (n, 3)).astype(float), rng.integers(-2, 3, (m, 3)).astype(float))
        for pred, ref in ((rng.normal(size=(n, 3)), rng.normal(size=(m, 3))), grids):
            report = tk.full_report(pred, ref, tau=0.5)
            assert (report.max_orth_dist, report.mean_orth_dist, report.median_orth_dist) == \
                tk.orthogonal_distances(pred, ref)
            assert (report.cover_precision, report.config["cover_recall"], report.cover_f1) == \
                tk.coverage(pred, ref, 0.5)

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

    def test_peak_memory_below_two_and_a_half_matrices(self, rng):
        n = m = 1000
        pred, ref = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        tracemalloc.start()
        try:
            tk.full_report(pred, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the skewed DTW buffer is (n + m + 1) x (min(n, m) + 1), about two
        # matrices here; a full distance matrix or a second full accumulator
        # beside it would pass three
        assert peak < 2.5 * n * m * 8

    def test_all_metrics_nonnegative(self, rng):
        for _ in range(20):
            report = tk.full_report(random_polyline(rng, 8), random_polyline(rng, 8))
            payload = report.as_dict()
            for name in REPORT_ROW_NAMES:
                assert payload[name] >= 0.0
            assert 0.0 <= report.cover_f1 <= 1.0
            assert 0.0 <= report.cover_precision <= 1.0
            assert report.hausdorff <= report.frechet + 1e-12


class TestIntake:
    """Metric inputs must hold real numbers: a bool or a string is not read
    as a coordinate."""

    @pytest.mark.parametrize("call", [
        lambda: tk.dtw([[True, 0.5]], [[1.0, 0.5]]),
        lambda: tk.discrete_frechet(np.array([[True, False]]), [[1.0, 0.0]]),
        lambda: tk.hausdorff([["1", "2"]], [[1.0, 2.0]]),
        lambda: tk.full_report([["1", "2"]], [[1.0, 2.0]]).dtw,
    ], ids=["dtw-bool-list", "frechet-bool-array", "hausdorff-str-list", "report-str-list"])
    def test_rejects_bools_and_strings(self, call):
        with pytest.raises(ValueError, match="^a must hold real numbers"):
            call()

    def test_names_the_second_input(self):
        with pytest.raises(ValueError, match="^b must hold real numbers"):
            tk.dtw([[1.0, 2.0]], np.array([["1", "2"]]))

    def test_ragged_rows_name_the_shape(self):
        with pytest.raises(ValueError, match=r"^a must be an \(N, 2\) or \(N, 3\) array"):
            tk.dtw([[1.0, 2.0], [3.0]], [[1.0, 2.0]])

    @pytest.mark.parametrize("call", [tk.dtw, tk.discrete_frechet, tk.hausdorff,
                                      tk.orthogonal_distances, tk.endpoint_errors,
                                      lambda a, b: tk.coverage(a, b, 0.05), tk.full_report],
                             ids=["dtw", "frechet", "hausdorff", "orth", "endpoints",
                                  "coverage", "report"])
    def test_overflowing_distances_rejected(self, call):
        # finite coordinates whose squared distances overflow would give dtw =
        # inf and max_orth_dist = nan, with RuntimeWarnings, if let through
        a, b = [[1e200, 0.0], [0.0, 0.0]], [[-1e200, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError, match="^a and b span too wide a range"):
            call(a, b)
        with pytest.raises(ValueError, match="^a and b span too wide a range"):
            call(b, a)

    def test_widest_finite_span_accepted(self):
        a, b = [[1e150, 0.0], [0.0, 0.0]], [[-1e150, 0.0], [0.0, 1.0]]
        payload = tk.full_report(a, b).as_dict()
        assert all(math.isfinite(payload[name]) for name in REPORT_ROW_NAMES)

    def test_accepts_integer_and_numpy_scalars(self):
        assert tk.dtw([[0, 0]], [(np.float32(3.0), np.int64(4))]) == 5.0
        assert tk.dtw(np.array([[0, 0]], dtype=np.uint8), [[3.0, 4.0]]) == 5.0
