"""Command-line pipelines over the trajectory file formats.

Subcommands: keyframes, tokenize, detokenize, metrics, simulate,
plot-data. Every run is deterministic for fixed inputs. Exit codes:
0 success, 1 validation or internal error (one line on stderr, no
traceback), 2 usage error.
"""

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import fileio
from .errors import TrajkitError
from .geometry import CameraModel, Frame, _check_positive, camera_to_world
from .keyframes import SparseTrajectory, insert_sub_keyframes, select_keyframes
from .metrics import MetricReport, full_report
from .simulate import run as run_scenario
from .splines import fit, resample
from .tokens import Anchor, QuantizationSpec, decode_sequence, encode_sequence

__all__ = ["cli_main", "main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="trajkit",
        description="Trajectory sparsification, token codecs, spline "
                    "detokenization, closed-loop simulation, and similarity metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keyframes", help="sparsify a dense trajectory bundle")
    p.add_argument("--input", required=True, help="dense trajectory bundle (JSON)")
    p.add_argument("--alpha", type=float, required=True,
                   help="acceleration threshold for keyframes")
    p.add_argument("--weights", type=float, nargs=6, metavar="W",
                   help="per-component acceleration weights (default all 1)")
    p.add_argument("--subframes", type=int, default=12,
                   help="samples per keyframe segment incl. endpoints (default 12)")
    p.add_argument("--out", required=True, help="output sparse bundle path")

    p = sub.add_parser("tokenize", help="encode a camera-frame sparse bundle to tokens")
    p.add_argument("--input", required=True, help="sparse trajectory bundle (camera frame)")
    p.add_argument("--camera-from",
                   help="bundle whose camera block to use (default: the input's own camera)")
    p.add_argument("--spec", help="quantization spec JSON (defaults if omitted)")
    p.add_argument("--anchor", required=True, metavar="U,V,D",
                   help="depth-augmented anchor, comma separated")
    p.add_argument("--anchor-source", default="sensor",
                   choices=["sensor", "monocular_estimator", "prior_scale"])
    p.add_argument("--out", required=True, help="output token file path")

    p = sub.add_parser("detokenize",
                       help="turn tokens or a sparse bundle into a dense world-frame bundle")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="token file")
    src.add_argument("--sparse", help="sparse trajectory bundle")
    p.add_argument("--camera-from",
                   help="bundle with the camera block (required for --input; "
                        "default for --sparse: the bundle's own camera)")
    p.add_argument("--rate", type=float, required=True, help="output sample rate, Hz")
    p.add_argument("--segment-duration", type=float, default=1.0,
                   help="seconds per waypoint interval for token input (default 1.0)")
    p.add_argument("--out", required=True, help="output dense bundle path")

    p = sub.add_parser("metrics", help="similarity report between two bundles")
    p.add_argument("--pred", required=True, help="predicted bundle (file or directory)")
    p.add_argument("--ref", required=True, help="reference bundle (file or directory)")
    p.add_argument("--tau", type=float, default=0.05, help="coverage threshold (default 0.05)")
    p.add_argument("--out", required=True, help="output report JSON path")

    p = sub.add_parser("simulate", help="run a closed-loop scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output execution-log path")

    p = sub.add_parser("plot-data", help="flatten a bundle to t,x,y,z,speed CSV")
    p.add_argument("--input", required=True, help="dense trajectory bundle")
    p.add_argument("--out", required=True, help="output CSV path")

    return parser


def _camera(args, own=None) -> CameraModel:
    """The ``--camera-from`` bundle's camera if that flag is given, else the input's ``own``."""
    if args.camera_from is not None:
        return fileio._load_camera(args.camera_from)
    if own is None:
        raise ValueError("the input carries no camera: pass --camera-from")
    return own


def _cmd_keyframes(args) -> int:
    traj, cam = fileio.load_bundle(args.input)
    keys = select_keyframes(traj, args.alpha, args.weights)
    sparse = insert_sub_keyframes(traj, keys, args.subframes)
    fileio.save_sparse_bundle(sparse, cam, args.out)
    return 0


def _cmd_tokenize(args) -> int:
    sparse, own = fileio.load_sparse_bundle(args.input)
    cam = _camera(args, own)
    if args.spec is not None:
        data = fileio._read_json(args.spec)
        spec = fileio.parse_quantization(data.get("quantization", data))
    else:
        spec = QuantizationSpec.for_camera(cam)
    try:
        u, v, d = map(float, args.anchor.split(","))
    except ValueError:  # not three parts, or one that is no number
        raise ValueError(f"--anchor needs three numbers u,v,d, got {args.anchor!r}") from None
    anchor = Anchor(u, v, d, args.anchor_source)
    tokens = encode_sequence(sparse, anchor, cam, spec)
    fileio.save_token_file(tokens, args.out)
    return 0


def _retime(sparse: SparseTrajectory, segment_duration: float) -> SparseTrajectory:
    return replace(sparse, times=np.arange(len(sparse)) * segment_duration)


def _to_world(sparse: SparseTrajectory, cam: CameraModel) -> SparseTrajectory:
    """Move waypoint positions to the world frame by the camera extrinsics.

    Orientations are taken as already expressed in the target convention
    and pass through unchanged, whatever the camera's rotation.
    """
    return replace(sparse, positions=camera_to_world(sparse.positions, cam),
                   frame=Frame.WORLD)


def _cmd_detokenize(args) -> int:
    _check_positive("--segment-duration", args.segment_duration)
    if args.input is not None:
        cam = _camera(args)
        tokens = fileio.load_token_file(args.input)
        if not (len(tokens) - 1) * args.segment_duration < math.inf:  # Python floats: no warning
            raise ValueError(f"--segment-duration {args.segment_duration} over {len(tokens) - 1} "
                             "waypoint intervals gives times beyond the float range")
        sparse = _retime(decode_sequence(tokens, cam), args.segment_duration)
        sparse = _to_world(sparse, cam)
    else:
        sparse, own = fileio.load_sparse_bundle(args.sparse)
        if sparse.frame is Frame.CAMERA:
            sparse = _to_world(sparse, _camera(args, own))
    dense = resample(fit(sparse), args.rate)
    fileio.save_bundle(dense, None, args.out)
    return 0


def _report_pair(pred_path, ref_path, tau: float) -> MetricReport:
    pred, _ = fileio.load_bundle(pred_path)
    ref, _ = fileio.load_bundle(ref_path)
    try:
        return full_report(pred.positions, ref.positions, tau=tau)
    except ValueError as exc:  # name the pair: in directory mode there are many
        raise ValueError(f"{pred_path} vs {ref_path}: {exc}") from None


def _cmd_metrics(args) -> int:
    if os.path.isdir(args.pred) != os.path.isdir(args.ref):
        raise ValueError("--pred and --ref must both be files or both directories")
    if os.path.isdir(args.pred):
        names = sorted(
            set(os.listdir(args.pred)) & set(os.listdir(args.ref))
        )
        names = [n for n in names if n.endswith(".json")]
        if not names:
            raise ValueError("no matching .json bundles in the two directories")
        payload = {
            "version": fileio.FORMAT_VERSION,
            "pairs": {
                n: _report_pair(os.path.join(args.pred, n), os.path.join(args.ref, n),
                                args.tau).as_dict()
                for n in names
            },
        }
        fileio._write_json(payload, args.out)
    else:
        fileio.save_metric_report(_report_pair(args.pred, args.ref, args.tau), args.out)
    return 0


def _cmd_simulate(args) -> int:
    scenario = fileio.load_scenario(args.scenario)
    log = run_scenario(scenario)
    fileio.save_execution_log(log, args.out)
    return 0


def _cmd_plot_data(args) -> int:
    traj, _ = fileio.load_bundle(args.input)
    t = traj.times
    p = traj.positions
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(p, axis=0)
        lengths = np.linalg.norm(steps, axis=1)
        big = np.isinf(lengths)  # a square overflowed; hypot scales instead
        lengths[big] = np.hypot(np.hypot(steps[big, 0], steps[big, 1]), steps[big, 2])
        seg_speed = lengths / np.diff(t)
    bad = np.flatnonzero(~np.isfinite(seg_speed))
    if bad.size:
        raise ValueError(f"the speed of segment {bad[0]} (samples {bad[0]} to {bad[0] + 1}) "
                         "is beyond the float range")
    speeds = np.append(seg_speed, seg_speed[-1])  # hold last segment speed
    rows = zip(t.tolist(), *p.T.tolist(), speeds.tolist())
    fileio._write_text("t,x,y,z,speed\n" + "".join("%r,%r,%r,%r,%r\n" % row for row in rows),
                       args.out)
    return 0


_COMMANDS = {
    "keyframes": _cmd_keyframes,
    "tokenize": _cmd_tokenize,
    "detokenize": _cmd_detokenize,
    "metrics": _cmd_metrics,
    "simulate": _cmd_simulate,
    "plot-data": _cmd_plot_data,
}


def cli_main(argv=None) -> int:
    """Parse argv and run the selected subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (TrajkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other fault is a bug: one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
