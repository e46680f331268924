"""Trajectory-similarity metric suite.

Dynamic time warping, discrete Frechet, Hausdorff, orthogonal
point-to-polyline distances, start/endpoint errors, and threshold-based
coverage, collected into a single ten-metric report. Polylines are
(N, 2) or (N, 3) arrays of finite coordinates; both inputs of a metric
must share a dimension.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import _as_array, _check_positive, _span_overflows

__all__ = [
    "MetricReport",
    "dtw",
    "discrete_frechet",
    "hausdorff",
    "orthogonal_distances",
    "endpoint_errors",
    "coverage",
    "full_report",
    "REPORT_ROW_NAMES",
]

REPORT_ROW_NAMES = (
    "cover f1",
    "cover precision",
    "dtw",
    "endpoint err",
    "frechet",
    "hausdorff",
    "max orth dist",
    "mean orth dist",
    "median orth dist",
    "startpoint err",
)


def _as_polyline(points, name: str) -> np.ndarray:
    # a ragged list gives a 1-D array of rows
    shape = (points if isinstance(points, np.ndarray) else np.asarray(points, dtype=object)).shape
    if len(shape) != 2 or shape[0] < 1 or shape[1] not in (2, 3):
        raise ValueError(f"{name} must be an (N, 2) or (N, 3) array, got {shape}")
    return _as_array(points, shape, name)


def _pair(a, b) -> tuple:
    """Both inputs checked, with distances between their points finite.

    The squared extent of the two inputs together, summed over axes,
    bounds every squared distance the kernels form, so when it is finite
    no kernel overflows.
    """
    pa = _as_polyline(a, "a")
    pb = _as_polyline(b, "b")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    if _span_overflows(np.minimum(pa.min(axis=0), pb.min(axis=0)).tolist(),
                       np.maximum(pa.max(axis=0), pb.max(axis=0)).tolist()):
        raise ValueError("a and b span too wide a range: the distances between "
                         "their points overflow")
    return pa, pb


# rows per block in _distances, per _distances call in _scan_distances and
# per _project_block call: a block's distances and pruning work arrays take
# 0.5 kB per vertex of the other input, whatever the row count, so they stay
# in cache and are reused from the heap instead of freshly mapped pages
_DIST_BLOCK_ROWS = 64


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of a and b.

    Squared coordinate differences are summed x, y, z before the square
    root, the order of ``scipy.spatial.distance.cdist``, so the result is
    bit-identical to it. Each block of rows is summed in place in the
    output, with one reused work buffer for the later coordinates, so
    peak memory is the output plus one block.
    """
    b_cols = b.T.copy()
    out = np.empty((len(a), len(b)))
    work = np.empty((min(len(a), _DIST_BLOCK_ROWS), len(b)))
    for i in range(0, len(a), _DIST_BLOCK_ROWS):
        pts, block = a[i:i + _DIST_BLOCK_ROWS], out[i:i + _DIST_BLOCK_ROWS]
        diff = work[:len(pts)]
        np.subtract(pts[:, 0, None], b_cols[0], out=block)
        np.multiply(block, block, out=block)
        for d in range(1, a.shape[1]):
            np.subtract(pts[:, d, None], b_cols[d], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(block, diff, out=block)
    return np.sqrt(out, out=out)


def _scan_distances(a: np.ndarray, b: np.ndarray, acc=None, to_b=None) -> tuple:
    """Hausdorff distance between the points of a and b, and the distance
    from each point of b to the nearest point of a.

    Takes ``_distances`` blocks of ``_DIST_BLOCK_ROWS`` rows of a, one at
    a time, keeping each block's row minima and a running column minimum,
    and writes each block to the same rows of ``acc`` when it is given.
    When ``to_b`` is given, each block and its row minima also feed
    ``_project_block``, which writes the distance from those points of a
    to the polyline b into the same rows of ``to_b``. No full distance
    matrix is held. Every point-to-polyline distance starts here.
    """
    near_a, near_b = np.empty(len(a)), np.full(len(b), np.inf)
    segs = None if to_b is None else _segments(b, a)
    for i in range(0, len(a), _DIST_BLOCK_ROWS):
        rows = slice(i, i + _DIST_BLOCK_ROWS)
        block = _distances(a[rows], b)
        if acc is not None:
            acc[rows] = block
        block.min(axis=1, out=near_a[rows])
        np.minimum(near_b, block.min(axis=0), out=near_b)
        if segs is not None:
            _project_block(a[rows], block, near_a[rows], segs, to_b[rows])
    return float(max(near_a.max(), near_b.max())), near_b


def _warping(a: np.ndarray, b: np.ndarray, project: bool = False) -> tuple:
    """DTW accumulator, discrete Frechet and Hausdorff distances in one pass.

    Both DPs are ``acc[i, j] = combine(cost[i, j], min(acc[i-1, j-1],
    acc[i-1, j], acc[i, j-1]))``, with ``combine`` ``+`` for DTW and
    ``max`` for Frechet, and bit-identical to the row-by-row loop: their
    first row and column are preset as ``cost[0, 0]`` plus the running
    sum (DTW) or as the running maximum (Frechet) of the edge costs.

    Anti-diagonal ``i + j = k`` is row ``k + 2`` of a skewed buffer with
    cell (i, j) at column ``i + 1``, and i runs along the shorter input:
    the DP of the transposed cost matrix is the transposed DP, since min
    is exact and the presets are symmetric. Column 0, the two leading
    rows and the cells with ``j < 0`` are zero, so an edge cell's minimum
    is zero and it keeps its preset, while every interior cell reads its
    three predecessors in the two rows above. The buffer starts as the
    cost matrix, with DTW presets on the edges, and each row is summed in
    place; Frechet keeps only the last three diagonals, in a ring beside
    copies of the DTW rows, so one pair of minimum calls serves both.

    With ``project``, the point-to-polyline distances of both directions
    come from the same distances: shorter to longer from each block as
    ``_scan_distances`` fills it, longer to shorter from the filled cost
    matrix, read transposed in blocks of ``_DIST_BLOCK_ROWS`` rows before
    the presets and the DP overwrite it.

    Returns the DTW accumulator as an (n, m) view of the buffer, the
    Frechet distance, the Hausdorff distance and, with ``project``, the
    pair (distances from a to the polyline b, from b to the polyline a),
    else None.
    """
    swap = len(a) > len(b)
    short, long = (b, a) if swap else (a, b)
    s, w = len(short), len(long)
    buf = np.zeros((s + w + 1, s + 1))
    step = buf.strides[0]
    acc = np.lib.stride_tricks.as_strided(buf[2:, 1:], (s, w), (step + buf.itemsize, step))
    to_long = np.empty(s) if project else None
    haus, near_long = _scan_distances(short, long, acc, to_long)
    dists = None
    if project:
        to_short, segs = np.empty(w), _segments(short, long)
        for i in range(0, w, _DIST_BLOCK_ROWS):
            rows = slice(i, i + _DIST_BLOCK_ROWS)
            _project_block(long[rows], acc.T[rows], near_long[rows], segs, to_short[rows])
        dists = (to_short, to_long) if swap else (to_long, to_short)
    top, side = np.maximum.accumulate(acc[0]), np.maximum.accumulate(acc[:, 0])
    acc[0, 1:] = np.add.accumulate(acc[0, 1:]) + acc[0, 0]
    acc[1:, 0] = np.add.accumulate(acc[1:, 0]) + acc[0, 0]
    # ring rows are [DTW diagonal | Frechet diagonal], each with its zero column 0
    ring, best = np.zeros((3, 2 * s + 2)), np.empty(2 * s + 1)
    best_dtw, best_fr = best[:s], best[s + 1:]
    slots = [(ring[x, :s + 1], ring[x, s + 2:], ring[y, :-1], ring[y, 1:], ring[z, :-1])
             for x, y, z in ((2, 1, 0), (0, 2, 1), (1, 0, 2))]
    # one slot per diagonal, turning the ring; zip stops at the last diagonal
    for k, (row, cost, (dtw_new, fr_new, up, left, diag)) in enumerate(
            zip(buf[2:], buf[2:, 1:], slots * (s + w))):
        np.minimum(diag, up, out=best)
        np.minimum(best, left, out=best)
        np.maximum(cost, best_fr, out=fr_new)
        np.add(cost, best_dtw, out=cost)
        dtw_new[:] = row
        # the edge costs hold DTW presets; Frechet's edges are running maxima
        if k < w:
            fr_new[0] = top[k]
        if k < s:
            fr_new[k] = side[k]
    return (acc.T if swap else acc), float(fr_new[-1]), haus, dists


def _warping_path_length(acc: np.ndarray) -> int:
    """Cells on the optimal path, walked back from the last cell; ties
    prefer the diagonal, then up, then left."""
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    length = 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            if diag <= up and diag <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        length += 1
    return length


def dtw(a, b) -> float:
    """Dynamic time warping distance with Euclidean cost and sum aggregation.

    Exact DP over match/insert/delete steps: O(nm) work in O(n + m)
    NumPy steps, one per anti-diagonal, in the pass that also fills
    discrete Frechet. :func:`full_report` reports this sum divided by the
    length of the optimal warping path.
    """
    return float(_warping(*_pair(a, b))[0][-1, -1])


def discrete_frechet(a, b) -> float:
    """Discrete Frechet distance: min over couplings of the max matched distance.

    Exact DP (Eiter & Mannila, 1994): O(nm) work in O(n + m) NumPy
    steps, one per anti-diagonal, in the pass that also fills DTW.
    """
    return _warping(*_pair(a, b))[1]


def hausdorff(a, b) -> float:
    """Symmetric point-set Hausdorff distance over the sample points."""
    return _scan_distances(*_pair(a, b))[0]


# relative slack of the segment pruning bound in _project_block
_SLACK = 1e-12


def _segments(ref: np.ndarray, points: np.ndarray) -> tuple:
    """The segments of the ref polyline, as ``_project_block`` reads them
    for the given points.

    Returns a (3 * dim + 1, m - 1) table whose columns hold a segment's
    start, end, direction ``end - start`` and squared length (1 for a
    zero-length segment), and each segment's reach ``(L * (1 + 2 *
    _SLACK) + 2 * _SLACK * scale) / (1 - 2 * _SLACK)``, for its length L
    and the largest absolute coordinate, scale, of points and ref.
    """
    starts, ends = ref[:-1], ref[1:]
    dirs = ends - starts
    lens_sq = np.einsum("ij,ij->i", dirs, dirs)
    table = np.vstack([starts.T, ends.T, dirs.T, np.where(lens_sq == 0.0, 1.0, lens_sq)])
    scale = max(np.abs(ref).max(), np.abs(points).max())
    reach = np.sqrt(lens_sq) * ((1.0 + 2.0 * _SLACK) / (1.0 - 2.0 * _SLACK))
    reach += 2.0 * _SLACK * scale / (1.0 - 2.0 * _SLACK)
    return table, reach


def _project_block(pts: np.ndarray, dist: np.ndarray, near: np.ndarray, segs: tuple,
                   out: np.ndarray) -> None:
    """Write to ``out`` the distance from each of pts to the polyline whose
    segments ``segs`` holds (from ``_segments``), given ``dist``, the
    distances from pts to the polyline's vertices, and ``near``, their row
    minima. Exact segment projection, not vertex-nearest.

    A segment [s, e] of length L is projected only when the lower bound
    ``lb = (|p - s| + |p - e| - L) / 2`` on its distance from p, which
    follows from the triangle inequality, is at most the upper bound
    ``ub``, p's nearest-vertex distance, plus a slack of ``_SLACK *
    (|p - s| + |p - e| + L + scale)``, scale being the largest absolute
    coordinate of either input. The candidates are projected in chunks of
    at most a sixteenth of the block's point-segment pairs, so the scratch
    stays bounded per block however many pass.

    Why the slack never prunes the computed minimum: a segment at p's
    nearest vertex has lb <= ub, so it always passes, and it holds a point
    within ub of p. Any computed residual is the distance from p to some
    point of its segment (every clamped ``t`` gives one), off by the
    rounding of a few operations: a few units in the last place of
    ``|p - s| + |p - e| + L + scale``, the coordinates entering because
    the foot is rounded at their magnitude. lb and ub are rounded by as
    little. The slack is about 9,000 such units, so a pruned segment lies
    far enough beyond ub that its computed residual exceeds the one at the
    nearest vertex. Inputs whose distances overflow are rejected by
    ``_pair`` first.

    Each candidate's operations and their order are fixed, which keeps
    the result bit-identical to a scalar loop over every segment: the dot
    product sums x, z, y in 3-D (x, y in 2-D), the order of
    ``einsum("psd,sd->ps")``; ``t`` is clamped bounds-first, equal to
    ``np.clip``; each foot coordinate is ``(1 - t) * s + t * e``, which
    keeps feet exactly on the endpoints at t = 0 and t = 1; and squared
    residuals sum x, y, z, the order of ``np.linalg.norm``. The square
    root is taken after the row minimum, which is the same value because
    ``sqrt`` is monotone.
    """
    table, reach = segs
    nseg, dim = table.shape[1], pts.shape[1]
    if nseg == 0:  # a one-point polyline: its vertex is the nearest point
        out[:] = near
        return
    # lb <= ub + slack, rearranged as |p - s| + |p - e| - reach <= 2 ub / (1 - 2 * _SLACK)
    bound = np.add(dist[:, :-1], dist[:, 1:])
    bound -= reach
    flat = (bound <= (near * (2.0 / (1.0 - 2.0 * _SLACK)))[:, None]).ravel().nonzero()[0]
    del bound
    chunk = max(dist.size // 16, 1)
    out.fill(np.inf)
    for c in range(0, len(flat), chunk):
        r, j = np.divmod(flat[c:c + chunk], nseg)
        p, g = pts.T.take(r, axis=1), table.take(j, axis=1)
        s, e = g[:dim], g[dim:2 * dim]
        diff = p - s
        diff *= g[2 * dim:3 * dim]
        t = diff[0] + diff[-1]  # x then z in 3-D, then y
        if dim == 3:
            t += diff[1]
        t /= g[3 * dim]
        np.minimum(1.0, np.maximum(0.0, t, out=t), out=t)
        foot = np.multiply(1.0 - t, s, out=diff)
        foot += t * e
        np.subtract(p, foot, out=foot)
        foot *= foot
        sq = np.add.reduce(foot, axis=0)
        # every row keeps the segments at its nearest vertex, so each of the rows
        # r[0]..r[-1] starts in this chunk, a row split between chunks at its ends
        lo, hi = r[0], r[-1] + 1
        part = np.minimum.reduceat(sq, r.searchsorted(np.arange(lo, hi)))
        np.minimum(out[lo:hi], part, out=out[lo:hi])
    np.sqrt(out, out=out)


def _point_to_polyline(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest location on the ref polyline
    (exact segment projection, not vertex-nearest), projected block by
    block as ``_scan_distances`` computes the distances to the ref vertices.
    """
    out = np.empty(len(points))
    _scan_distances(points, ref, to_b=out)
    return out


def _orth_summary(to_ref: np.ndarray) -> tuple:
    return float(to_ref.max()), float(to_ref.mean()), float(np.median(to_ref))


def _coverage(to_ref: np.ndarray, to_pred: np.ndarray, tau: float) -> tuple:
    """(precision, recall, f1) from the pred->ref and ref->pred distances."""
    precision = float(np.mean(to_ref <= tau))
    recall = float(np.mean(to_pred <= tau))
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def orthogonal_distances(pred, ref) -> tuple:
    """(max, mean, median) distance from pred points to the ref polyline.

    Directional: pred is measured against ref, not the reverse.
    """
    pa, pb = _pair(pred, ref)
    return _orth_summary(_point_to_polyline(pa, pb))


def _endpoint_errors(pa: np.ndarray, pb: np.ndarray) -> tuple:
    return float(np.linalg.norm(pa[0] - pb[0])), float(np.linalg.norm(pa[-1] - pb[-1]))


def endpoint_errors(pred, ref) -> tuple:
    """(start_err, end_err): Euclidean distances between first and last points."""
    return _endpoint_errors(*_pair(pred, ref))


def coverage(pred, ref, tau: float) -> tuple:
    """Threshold coverage (precision, recall, f1).

    Precision is the fraction of pred points within tau of the ref
    polyline; recall the fraction of ref points within tau of the pred
    polyline; f1 their harmonic mean (0 when both vanish).
    """
    pa, pb = _pair(pred, ref)
    _check_positive("tau", tau)
    return _coverage(_point_to_polyline(pa, pb), _point_to_polyline(pb, pa), tau)


@dataclass(frozen=True)
class MetricReport:
    """All ten similarity metrics for a (pred, ref) polyline pair.

    ``config`` echoes the knobs that shaped the numbers (tau, DTW
    normalization, the raw DTW value, and metric directions) so reports
    are self-describing.
    """

    cover_f1: float
    cover_precision: float
    dtw: float
    endpoint_err: float
    frechet: float
    hausdorff: float
    max_orth_dist: float
    mean_orth_dist: float
    median_orth_dist: float
    startpoint_err: float
    config: dict

    def as_dict(self) -> dict:
        """Serializable mapping keyed by the canonical report row names; row
        "cover f1" holds field ``cover_f1``, and so on."""
        out = {name: float(getattr(self, name.replace(" ", "_"))) for name in REPORT_ROW_NAMES}
        out["config"] = dict(self.config)
        return out


def full_report(pred, ref, tau: float = 0.05) -> MetricReport:
    """Evaluate every metric for a predicted polyline against a reference.

    DTW is divided by the length of the optimal warping path; the raw sum
    is echoed in the config block alongside tau and the metric directions.
    DTW and Frechet are filled in one pass, which also gathers Hausdorff,
    block by block, without holding a full distance matrix. The same
    distances bound the point-to-polyline projections of both directions,
    for the orthogonal distances and coverage.
    """
    pa, pb = _pair(pred, ref)
    _check_positive("tau", tau)
    dtw_acc, frechet, haus, (to_ref, to_pred) = _warping(pa, pb, project=True)
    precision, recall, f1 = _coverage(to_ref, to_pred, tau)
    max_orth, mean_orth, median_orth = _orth_summary(to_ref)
    dtw_raw = float(dtw_acc[-1, -1])
    start_err, end_err = _endpoint_errors(pa, pb)
    return MetricReport(
        cover_f1=f1,
        cover_precision=precision,
        dtw=dtw_raw / _warping_path_length(dtw_acc),
        endpoint_err=end_err,
        frechet=frechet,
        hausdorff=haus,
        max_orth_dist=max_orth,
        mean_orth_dist=mean_orth,
        median_orth_dist=median_orth,
        startpoint_err=start_err,
        config={
            "tau": float(tau),
            "dtw_normalized": True,
            "dtw_raw": dtw_raw,
            "cover_recall": float(recall),
            "coverage_precision_direction": "pred_to_ref",
            "orth_direction": "pred_to_ref",
        },
    )
