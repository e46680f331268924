"""trajkit: sparse trajectory processing for robot end effectors.

Keyframe sparsification of dense demonstrations, anchor-conditioned
waypoint token codecs with camera geometry, a spline detokenizer that
turns waypoints into smooth high-rate trajectories, closed-loop replan
merging, a kinematic simulation harness, and a trajectory-similarity
metric suite.
"""

from .errors import (
    BehindCameraError,
    DepthRangeError,
    EmptyPlanError,
    InsufficientDataError,
    InvalidCameraError,
    OutOfFrameError,
    SchemaError,
    TrajkitError,
    UndefinedDirectionError,
)
from .geometry import (
    CameraModel,
    DenseTrajectory,
    Frame,
    back_project,
    camera_to_world,
    euler_to_quaternion,
    eulers_to_quaternions,
    finite_difference_accel,
    normalize_angles,
    project,
    quaternion_to_euler,
    quaternions_to_eulers,
    unit_quaternions,
)
from .keyframes import (
    KeyframeReason,
    KeyframeSet,
    SparseTrajectory,
    gripper_change_indices,
    insert_sub_keyframes,
    select_keyframes,
)
from .metrics import (
    REPORT_ROW_NAMES,
    MetricReport,
    coverage,
    discrete_frechet,
    dtw,
    endpoint_errors,
    full_report,
    hausdorff,
    orthogonal_distances,
)
from .replan import (
    ControllerState,
    PendingPlan,
    ReplanEvent,
    controller_step,
    forward_direction,
    keep_test,
    nearest_pending_index,
)
from .simulate import (
    ExecutionLog,
    Perturbation,
    Scenario,
    oracle_planner,
    run,
    smoothness_check,
)
from .splines import (
    ContinuousTrajectory,
    PositionSpline,
    eval_trajectory,
    fit,
    reconstruction_error,
    resample,
)
from .tokens import (
    Anchor,
    DepthMode,
    DepthSource,
    QuantizationSpec,
    TokenSequence,
    anchor_depth_from_prior,
    decode_sequence,
    dequantize,
    encode_sequence,
    quantize,
)

__version__ = "0.1.0"

__all__ = [
    "TrajkitError", "InvalidCameraError", "BehindCameraError",
    "InsufficientDataError", "OutOfFrameError", "DepthRangeError",
    "SchemaError", "EmptyPlanError", "UndefinedDirectionError",
    "Frame", "CameraModel",
    "DenseTrajectory", "back_project", "project", "camera_to_world",
    "euler_to_quaternion", "quaternion_to_euler", "eulers_to_quaternions",
    "quaternions_to_eulers", "unit_quaternions", "normalize_angles",
    "finite_difference_accel",
    "KeyframeReason", "KeyframeSet", "SparseTrajectory",
    "select_keyframes", "insert_sub_keyframes", "gripper_change_indices",
    "DepthSource", "DepthMode", "Anchor", "QuantizationSpec",
    "TokenSequence", "quantize", "dequantize", "encode_sequence",
    "decode_sequence", "anchor_depth_from_prior",
    "PositionSpline", "ContinuousTrajectory",
    "fit", "eval_trajectory", "resample", "reconstruction_error",
    "PendingPlan", "ControllerState", "ReplanEvent", "nearest_pending_index",
    "forward_direction", "keep_test", "controller_step",
    "Perturbation", "Scenario", "ExecutionLog",
    "oracle_planner", "run", "smoothness_check",
    "MetricReport", "REPORT_ROW_NAMES", "dtw", "discrete_frechet",
    "hausdorff", "orthogonal_distances", "endpoint_errors", "coverage",
    "full_report",
]
