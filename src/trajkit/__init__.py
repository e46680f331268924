"""trajkit: sparse trajectory processing for robot end effectors.

Keyframe sparsification of dense demonstrations, anchor-conditioned
waypoint token codecs with camera geometry, a spline detokenizer that
turns waypoints into smooth high-rate trajectories, closed-loop replan
merging, a kinematic simulation harness, and a trajectory-similarity
metric suite.

The package exports each module's ``__all__``; a public name is added by
listing it there.
"""

from . import errors, geometry, keyframes, metrics, replan, simulate, splines, tokens
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .keyframes import *  # noqa: F403
from .tokens import *  # noqa: F403
from .splines import *  # noqa: F403
from .replan import *  # noqa: F403
from .simulate import *  # noqa: F403
from .metrics import *  # noqa: F403

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += geometry.__all__
__all__ += keyframes.__all__
__all__ += tokens.__all__
__all__ += splines.__all__
__all__ += replan.__all__
__all__ += simulate.__all__
__all__ += metrics.__all__
