"""Exception types shared across the package.

Generic precondition violations (negative counts, bad ranges, ...) raise
plain ``ValueError``; the classes below cover failures that carry context
a caller may want to react to (file paths, waypoint indices, camera
problems).
"""

__all__ = [
    "TrajkitError",
    "InvalidCameraError",
    "BehindCameraError",
    "InsufficientDataError",
    "OutOfFrameError",
    "DepthRangeError",
    "SchemaError",
    "UndefinedDirectionError",
]


class TrajkitError(Exception):
    """Base class for all trajkit-specific errors."""


class InvalidCameraError(TrajkitError):
    """Camera intrinsics or extrinsics violate the pinhole model contract."""


class BehindCameraError(TrajkitError):
    """A point with non-positive camera-frame depth cannot be projected."""


class InsufficientDataError(TrajkitError):
    """Too few samples for the requested operation."""


class OutOfFrameError(TrajkitError):
    """A waypoint projects outside the image bounds."""

    def __init__(self, waypoint_index: int, u: float, v: float):
        self.waypoint_index = waypoint_index
        self.u = u
        self.v = v
        super().__init__(
            f"waypoint {waypoint_index} projects to ({u:.2f}, {v:.2f}), "
            "outside the image bounds"
        )


class DepthRangeError(TrajkitError):
    """A depth value falls outside the quantizer range."""

    def __init__(self, waypoint_index: int, depth: float, lo: float, hi: float):
        self.waypoint_index = waypoint_index
        self.depth = depth
        super().__init__(
            f"waypoint {waypoint_index} depth {depth:.4f} outside [{lo:.4f}, {hi:.4f}]"
        )


class SchemaError(TrajkitError):
    """A serialized file violates its schema.

    ``path`` names the offending JSON field, e.g. ``samples[3].gripper``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class UndefinedDirectionError(TrajkitError):
    """No forward direction exists at k* (coincident waypoints)."""
