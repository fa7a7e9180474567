"""Globally consistent rigid motion recovery from dense per-view pointmaps.

Pipeline: back-project depth to pointmaps, recover pairwise relative
poses (focal from the reference view, PnP-RANSAC against the second
view's pixel grid), filter the pair graph, then average rotations and
translations into one trajectory, evaluated Table-style after gauge
alignment. A procedural multi-view scene generator serves as the
built-in oracle.
"""

from .errors import (
    AlignmentError,
    ConfigError,
    ConvergenceWarning,
    DegenerateScaleError,
    DisconnectedGraphError,
    EmptyDomainError,
    FormatError,
    InsufficientDataError,
    NoPoseFoundError,
    PmsfmError,
    ShapeMismatchError,
    ValidationError,
)
from .geometry import (
    CameraIntrinsics,
    DepthMap,
    Pointmap,
    PointmapRows,
    RigidTransform,
    change_frame,
    compose,
    geodesic_deg,
    inverse,
    pointmap_from_depth,
    so3_project,
)
from .losses import PointmapPairBatch, conf_loss, norm_factor, regr_loss
from .metrics import (
    GaugeAlignment,
    SequenceReport,
    align_gauge,
    evaluate,
    subsample_frames,
    umeyama,
)
from .pose_graph import (
    Edge,
    GlobalPoses,
    PoseGraph,
    assemble_global,
    build_graph,
    rotation_averaging,
    rotation_objective,
    translation_averaging,
)
from .relative_pose import (
    RelativePoseResult,
    estimate_focal,
    make_intrinsics,
    pnp_ransac,
)
from .synth import PairPointmaps, SceneBundle, SceneSpec, generate, make_pair_pointmaps

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
