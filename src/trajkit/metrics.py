"""Trajectory-similarity metric suite.

Dynamic time warping, discrete Frechet, Hausdorff, orthogonal
point-to-polyline distances, start/endpoint errors, and threshold-based
coverage, collected into a single ten-metric report. Polylines are
(N, 2) or (N, 3) arrays of finite coordinates; both inputs of a metric
must share a dimension.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import _check_positive

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
    if isinstance(points, np.ndarray):
        real = points.dtype.kind in "iuf"
    else:
        real = all(isinstance(x, (int, np.integer, float, np.floating)) and not isinstance(x, bool)
                   for x in np.asarray(points, dtype=object).flat)
    if not real:
        raise ValueError(f"{name} must hold real numbers, not bools or strings")
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] not in (2, 3):
        raise ValueError(f"{name} must be an (N, 2) or (N, 3) array, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite coordinates")
    return arr


def _pair(a, b) -> tuple:
    pa = _as_polyline(a, "a")
    pb = _as_polyline(b, "b")
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    return pa, pb


# rows per block in _distances, and per _distances call in _scan_distances:
# a work buffer holds this many rows of the (n, m) matrix, which keeps it in
# cache
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


def _scan_distances(a: np.ndarray, b: np.ndarray, acc=None) -> float:
    """Hausdorff distance between the points of a and b.

    Takes ``_distances`` blocks of ``_DIST_BLOCK_ROWS`` rows of a, one at
    a time, keeping each block's row minima and a running column minimum,
    and writes each block to the same rows of ``acc`` when it is given.
    No full distance matrix is held.
    """
    near_a, near_b = np.empty(len(a)), np.full(len(b), np.inf)
    for i in range(0, len(a), _DIST_BLOCK_ROWS):
        block = _distances(a[i:i + _DIST_BLOCK_ROWS], b)
        if acc is not None:
            acc[i:i + len(block)] = block
        block.min(axis=1, out=near_a[i:i + len(block)])
        np.minimum(near_b, block.min(axis=0), out=near_b)
    return float(max(near_a.max(), near_b.max()))


def _warping(a: np.ndarray, b: np.ndarray) -> tuple:
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

    Returns the DTW accumulator as an (n, m) view of the buffer, the
    Frechet distance and the Hausdorff distance.
    """
    swap = len(a) > len(b)
    short, long = (b, a) if swap else (a, b)
    s, w = len(short), len(long)
    buf = np.zeros((s + w + 1, s + 1))
    step = buf.strides[0]
    acc = np.lib.stride_tricks.as_strided(buf[2:, 1:], (s, w), (step + buf.itemsize, step))
    haus = _scan_distances(short, long, acc)
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
    return (acc.T if swap else acc), float(fr_new[-1]), haus


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
    return _scan_distances(*_pair(a, b))


# pred points per block in _point_to_polyline: bounds its five (rows, segments)
# work arrays to 2.5 kB per ref segment, whatever the pred length, so they
# stay in cache and are reused from the heap instead of freshly mapped pages
# (on 100-300-point pairs, faster than 32, 128 or 1024 rows)
_BLOCK_ROWS = 64


def _point_to_polyline(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest location on the ref polyline
    (exact segment projection, not vertex-nearest).

    Works one coordinate at a time on (rows, segments) arrays, reused
    through ``out=`` block by block. The operation order is fixed: the
    projection dot product sums x, z, y in 3-D (x, y in 2-D), the order
    of ``einsum("psd,sd->ps")``; ``t`` is clamped bounds-first, equal to
    ``np.clip``; each foot coordinate is ``(1 - t) * s + t * e``, which
    keeps feet exactly on the endpoints at t = 0 and t = 1; and squared
    residuals sum x, y, z, the order of ``np.linalg.norm``. The square
    root is taken after the row minimum, which is the same value because
    ``sqrt`` is monotone.
    """
    if len(ref) == 1:
        return np.linalg.norm(points - ref[0], axis=1)
    starts = ref[:-1]
    ends = ref[1:]
    dirs = ends - starts
    lens_sq = np.einsum("ij,ij->i", dirs, dirs)
    lens_sq = np.where(lens_sq == 0.0, 1.0, lens_sq)  # degenerate segments
    axes = (0, 2, 1) if ref.shape[1] == 3 else (0, 1)
    shape = (min(len(points), _BLOCK_ROWS), len(starts))
    t, u, a, b, sq = (np.empty(shape) for _ in range(5))
    out = np.empty(len(points))
    for i in range(0, len(points), _BLOCK_ROWS):
        pts = points[i:i + _BLOCK_ROWS]
        rows = len(pts)
        bt, bu, ba, bb, bsq = t[:rows], u[:rows], a[:rows], b[:rows], sq[:rows]
        for k, d in enumerate(axes):  # the first term starts each sum
            np.subtract(pts[:, d, None], starts[:, d], out=ba)
            np.multiply(ba, dirs[:, d], out=ba if k else bt)
            if k:
                np.add(bt, ba, out=bt)
        np.divide(bt, lens_sq, out=bt)
        np.minimum(1.0, np.maximum(0.0, bt, out=bt), out=bt)
        np.subtract(1.0, bt, out=bu)
        for d in range(ref.shape[1]):
            np.multiply(bu, starts[:, d], out=ba)
            np.multiply(bt, ends[:, d], out=bb)
            np.add(ba, bb, out=ba)
            np.subtract(pts[:, d, None], ba, out=ba)
            np.multiply(ba, ba, out=ba if d else bsq)
            if d:
                np.add(bsq, ba, out=bsq)
        np.min(bsq, axis=1, out=out[i:i + rows])
    return np.sqrt(out, out=out)


def _orth_summary(to_ref: np.ndarray) -> tuple:
    return float(to_ref.max()), float(to_ref.mean()), float(np.median(to_ref))


def _coverage(to_ref: np.ndarray, to_pred: np.ndarray, tau: float) -> tuple:
    """(precision, recall, f1) from the pred->ref and ref->pred distances."""
    _check_positive("tau", tau)
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


def endpoint_errors(pred, ref) -> tuple:
    """(start_err, end_err): Euclidean distances between first and last points."""
    pa, pb = _pair(pred, ref)
    return (float(np.linalg.norm(pa[0] - pb[0])),
            float(np.linalg.norm(pa[-1] - pb[-1])))


def coverage(pred, ref, tau: float) -> tuple:
    """Threshold coverage (precision, recall, f1).

    Precision is the fraction of pred points within tau of the ref
    polyline; recall the fraction of ref points within tau of the pred
    polyline; f1 their harmonic mean (0 when both vanish).
    """
    pa, pb = _pair(pred, ref)
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
    config: dict = field(default_factory=dict)

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
    block by block, without holding a full distance matrix.
    """
    pa, pb = _pair(pred, ref)
    to_ref = _point_to_polyline(pa, pb)
    precision, recall, f1 = _coverage(to_ref, _point_to_polyline(pb, pa), tau)
    max_orth, mean_orth, median_orth = _orth_summary(to_ref)
    dtw_acc, frechet, haus = _warping(pa, pb)
    dtw_raw = float(dtw_acc[-1, -1])
    start_err, end_err = endpoint_errors(pa, pb)
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
