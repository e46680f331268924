"""Trajectory-similarity metric suite.

Dynamic time warping, discrete Frechet, Hausdorff, orthogonal
point-to-polyline distances, start/endpoint errors, and threshold-based
coverage, collected into a single ten-metric report. Polylines are
(N, 2) or (N, 3) arrays of finite coordinates; both inputs of a metric
must share a dimension.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

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


def _wavefront(cost: np.ndarray, combine) -> np.ndarray:
    """Accumulator of the warping DP over an (n, m) cost matrix.

    ``acc[i, j] = combine(cost[i, j], min(acc[i-1, j-1], acc[i-1, j], acc[i, j-1]))``
    with ``combine`` either ``np.add`` (DTW) or ``np.maximum`` (Frechet).
    The first row and column are ``combine(combine.accumulate(edge[1:]),
    cost[0, 0])``, the summation order of the row-by-row loop. The other
    cells are filled one anti-diagonal ``i + j = k`` at a time: in the
    C-ordered flat view a diagonal, and each of its three predecessors,
    is a slice with stride ``m - 1``, so each step is three ufunc calls.
    Every cell gets the same operands as in the row-by-row loop, so the
    result is bit-identical to it.
    """
    n, m = cost.shape
    acc = np.empty((n, m))
    acc[0, 0] = cost[0, 0]
    acc[0, 1:] = combine(combine.accumulate(cost[0, 1:]), cost[0, 0])
    acc[1:, 0] = combine(combine.accumulate(cost[1:, 0]), cost[0, 0])
    if n == 1 or m == 1:
        return acc
    flat_acc, flat_cost = acc.ravel(), cost.ravel()
    best = np.empty(min(n, m))
    step = m - 1
    for k in range(2, n + m - 1):
        lo, hi = max(1, k - m + 1), min(n - 1, k - 1)
        first, stop = k + lo * step, k + hi * step + 1  # flat (lo, k - lo) and past (hi, k - hi)
        b = best[:hi - lo + 1]
        # the diagonal, up and left predecessors are m + 1, m and 1 flat cells back
        np.minimum(flat_acc[first - m - 1:stop - m - 1:step],
                   flat_acc[first - m:stop - m:step], out=b)
        np.minimum(b, flat_acc[first - 1:stop - 1:step], out=b)
        combine(flat_cost[first:stop:step], b, out=flat_acc[first:stop:step])
    return acc


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


def _dtw(pa: np.ndarray, pb: np.ndarray, normalized: bool) -> tuple:
    """(raw sum, reported value) of DTW, from one accumulator pass."""
    acc = _wavefront(cdist(pa, pb), np.add)
    total = float(acc[-1, -1])
    return total, (total / _warping_path_length(acc) if normalized else total)


def dtw(a, b, normalized: bool = False) -> float:
    """Dynamic time warping distance with Euclidean cost and sum aggregation.

    Exact DP over match/insert/delete steps: O(nm) work in O(n + m)
    NumPy steps, one per anti-diagonal. The normalized variant divides
    by the length of the optimal warping path (traceback prefers the
    diagonal on ties).
    """
    return _dtw(*_pair(a, b), normalized)[1]


def discrete_frechet(a, b) -> float:
    """Discrete Frechet distance: min over couplings of the max matched distance.

    Exact DP (Eiter & Mannila, 1994): O(nm) work in O(n + m) NumPy
    steps, one per anti-diagonal.
    """
    pa, pb = _pair(a, b)
    return float(_wavefront(cdist(pa, pb), np.maximum)[-1, -1])


def hausdorff(a, b) -> float:
    """Symmetric point-set Hausdorff distance over the sample points."""
    pa, pb = _pair(a, b)
    d = cdist(pa, pb)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# pred points per block in _point_to_polyline: bounds its (rows, segments, dim)
# temporaries to about 25 kB per ref segment, whatever the pred length
_BLOCK_ROWS = 1024


def _point_to_polyline(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest location on the ref polyline
    (exact segment projection, not vertex-nearest)."""
    if len(ref) == 1:
        return np.linalg.norm(points - ref[0], axis=1)
    starts = ref[:-1]
    ends = ref[1:]
    dirs = ends - starts
    lens_sq = np.einsum("ij,ij->i", dirs, dirs)
    lens_sq = np.where(lens_sq == 0.0, 1.0, lens_sq)  # degenerate segments

    def block(pts):
        rel = pts[:, None, :] - starts[None, :, :]
        t = np.clip(np.einsum("psd,sd->ps", rel, dirs) / lens_sq, 0.0, 1.0)
        # affine form keeps feet exactly on the endpoints at t = 0 and t = 1
        feet = (1.0 - t)[:, :, None] * starts[None, :, :] + t[:, :, None] * ends[None, :, :]
        return np.linalg.norm(pts[:, None, :] - feet, axis=2).min(axis=1)

    return np.concatenate([block(points[i:i + _BLOCK_ROWS])
                           for i in range(0, len(points), _BLOCK_ROWS)])


def _orth_summary(to_ref: np.ndarray) -> tuple:
    return float(to_ref.max()), float(to_ref.mean()), float(np.median(to_ref))


def _coverage(to_ref: np.ndarray, to_pred: np.ndarray, tau: float) -> tuple:
    """(precision, recall, f1) from the pred->ref and ref->pred distances."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
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
        """Serializable mapping keyed by the canonical report row names."""
        values = (
            self.cover_f1,
            self.cover_precision,
            self.dtw,
            self.endpoint_err,
            self.frechet,
            self.hausdorff,
            self.max_orth_dist,
            self.mean_orth_dist,
            self.median_orth_dist,
            self.startpoint_err,
        )
        out = {name: float(v) for name, v in zip(REPORT_ROW_NAMES, values)}
        out["config"] = dict(self.config)
        return out


def full_report(pred, ref, tau: float = 0.05, dtw_normalized: bool = True) -> MetricReport:
    """Evaluate every metric for a predicted polyline against a reference.

    DTW defaults to the path-length-normalized value; the raw sum is
    echoed in the config block alongside tau and the metric directions.
    """
    pa, pb = _pair(pred, ref)
    to_ref = _point_to_polyline(pa, pb)
    precision, recall, f1 = _coverage(to_ref, _point_to_polyline(pb, pa), tau)
    max_orth, mean_orth, median_orth = _orth_summary(to_ref)
    dtw_raw, dtw_value = _dtw(pa, pb, dtw_normalized)
    start_err, end_err = endpoint_errors(pa, pb)
    return MetricReport(
        cover_f1=f1,
        cover_precision=precision,
        dtw=dtw_value,
        endpoint_err=end_err,
        frechet=discrete_frechet(pa, pb),
        hausdorff=hausdorff(pa, pb),
        max_orth_dist=max_orth,
        mean_orth_dist=mean_orth,
        median_orth_dist=median_orth,
        startpoint_err=start_err,
        config={
            "tau": float(tau),
            "dtw_normalized": bool(dtw_normalized),
            "dtw_raw": dtw_raw,
            "cover_recall": float(recall),
            "coverage_precision_direction": "pred_to_ref",
            "orth_direction": "pred_to_ref",
        },
    )
