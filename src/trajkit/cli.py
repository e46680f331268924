"""Command-line pipelines over the trajectory file formats.

Subcommands: keyframes, tokenize, detokenize, metrics, simulate,
plot-data. Every run is deterministic for fixed inputs. Exit codes:
0 success, 1 validation or internal error (one line on stderr, no
traceback), 2 usage error.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import fileio
from .errors import SchemaError, TrajkitError
from .geometry import CameraModel, Frame, camera_to_world
from .keyframes import SparseTrajectory, insert_sub_keyframes, select_keyframes
from .metrics import full_report
from .simulate import run as run_scenario
from .splines import fit, resample
from .tokens import Anchor, QuantizationSpec, decode_sequence, encode_sequence

__all__ = ["cli_main", "main"]


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--camera-from", required=True,
                   help="bundle whose camera block supplies intrinsics/extrinsics")
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
                   help="bundle with the camera block (required for --input, and for "
                        "camera-frame --sparse bundles)")
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


def _load_camera(path) -> CameraModel:
    data = fileio._read_json(path)
    if "camera" not in data:
        raise SchemaError("camera", f"{path} carries no camera block")
    return fileio._camera_from_dict(data["camera"], "camera")


def _cmd_keyframes(args) -> int:
    traj, cam = fileio.load_bundle(args.input)
    keys = select_keyframes(traj, args.alpha, args.weights)
    sparse = insert_sub_keyframes(traj, keys, args.subframes)
    fileio.save_sparse_bundle(sparse, cam, args.out)
    return 0


def _cmd_tokenize(args) -> int:
    sparse, _ = fileio.load_sparse_bundle(args.input)
    cam = _load_camera(args.camera_from)
    if args.spec is not None:
        data = fileio._read_json(args.spec)
        spec = fileio.parse_quantization(data.get("quantization", data))
    else:
        spec = QuantizationSpec.for_camera(cam)
    parts = args.anchor.split(",")
    if len(parts) != 3:
        raise ValueError(f"--anchor needs u,v,d, got {args.anchor!r}")
    anchor = Anchor(float(parts[0]), float(parts[1]), float(parts[2]), args.anchor_source)
    tokens = encode_sequence(sparse, anchor, cam, spec)
    fileio.save_token_file(tokens, args.out)
    return 0


def _retime(sparse: SparseTrajectory, segment_duration: float) -> SparseTrajectory:
    return replace(sparse, times=np.arange(len(sparse)) * segment_duration)


def _to_world(sparse: SparseTrajectory, cam: CameraModel) -> SparseTrajectory:
    """Transform waypoint positions to the world frame.

    Orientation tokens are treated as already expressed in the target
    convention and pass through unchanged.
    """
    positions = [camera_to_world(p, cam) for p in sparse.positions]
    return replace(sparse, positions=positions, frame=Frame.WORLD)


def _cmd_detokenize(args) -> int:
    if args.segment_duration <= 0:
        raise ValueError("--segment-duration must be positive")
    if args.input is not None:
        if args.camera_from is None:
            raise ValueError("--camera-from is required with --input")
        cam = _load_camera(args.camera_from)
        tokens = fileio.load_token_file(args.input)
        sparse = _retime(decode_sequence(tokens, cam), args.segment_duration)
        sparse = _to_world(sparse, cam)
    else:
        sparse, cam = fileio.load_sparse_bundle(args.sparse)
        if sparse.frame is Frame.CAMERA:
            if cam is None and args.camera_from is None:
                raise ValueError("camera-frame sparse bundle needs --camera-from")
            if args.camera_from is not None:
                cam = _load_camera(args.camera_from)
            sparse = _to_world(sparse, cam)
    dense = resample(fit(sparse), args.rate)
    fileio.save_bundle(dense, None, args.out)
    return 0


def _report_pair(pred_path, ref_path, tau: float) -> dict:
    pred, _ = fileio.load_bundle(pred_path)
    ref, _ = fileio.load_bundle(ref_path)
    return full_report(pred.positions, ref.positions, tau=tau).as_dict()


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
                                args.tau)
                for n in names
            },
        }
        fileio._write_json(payload, args.out)
    else:
        # single-pair reports carry exactly the ten row names plus config
        fileio._write_json(_report_pair(args.pred, args.ref, args.tau), args.out)
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
    seg_speed = np.linalg.norm(np.diff(p, axis=0), axis=1) / np.diff(t)
    speeds = np.append(seg_speed, seg_speed[-1])  # hold last segment speed
    lines = ["t,x,y,z,speed"]
    for i in range(len(t)):
        row = (t[i], p[i, 0], p[i, 1], p[i, 2], speeds[i])
        lines.append(",".join(repr(float(x)) for x in row))
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, args.out)
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
