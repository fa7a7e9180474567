import math
import struct
import warnings

import numpy as np
import pytest

from pmsfm import relative_pose
from pmsfm.geometry import (
    CameraIntrinsics,
    Pointmap,
    RigidTransform,
    axis_angle_matrix,
    random_rotation,
)
from pmsfm.pose_graph import Edge, PoseGraph

# On a failing example hypothesis's pytest plugin imports
# `hypothesis.extra._patching`, which loads libcst, whose import warns that
# mypy_extensions.TypedDict is deprecated. The `error::DeprecationWarning`
# filter would turn that warning into an INTERNALERROR that ends the run,
# so the module is imported here with that one warning ignored: a failing
# property test then reports as one failure.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def stable_rot_err_deg(ra: np.ndarray, rb: np.ndarray) -> float:
    """Geodesic distance in degrees via ||Ra - Rb||_F = 2*sqrt(2)*|sin(theta/2)|.

    Exact identity on SO(3); unlike the arccos form it resolves angles
    far below 1e-6 degrees, so exact-recovery tests can assert at 1e-8.
    """
    f = np.linalg.norm(ra - rb)
    return float(np.degrees(2.0 * np.arcsin(min(1.0, f / (2.0 * np.sqrt(2.0))))))


def assert_same_bits(a, b):
    """Equal dtype, shape and bytes. Unlike np.array_equal this tells
    -0.0 from 0.0 and a NaN payload from another."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"shape {a.shape} != {b.shape}"
    assert a.tobytes() == b.tobytes(), "arrays differ in their bits"


def cut_planes(data: bytes, with_confidence: bool, with_mask: bool) -> bytes:
    """A full pointmap or depth container with the optional planes not kept
    cut out and their flag bits cleared: the file a writer of fewer planes
    emits. Depth containers have no confidence plane to keep."""
    width, height = struct.unpack_from("<II", data, 5)
    n = width * height
    pointmap = data[:5] == b"PMAP1"
    first = 17 + (12 if pointmap else 4) * n
    conf, mask = (data[first:first + 4 * n], data[first + 4 * n:]) if pointmap else (
        b"", data[first:])
    flags = int(with_confidence and pointmap) | int(with_mask) << 1
    return (data[:13] + flags.to_bytes(4, "little") + data[17:first]
            + (conf if with_confidence else b"") + (mask if with_mask else b""))


def inlier_mask(pm: Pointmap, k: CameraIntrinsics,
                res: relative_pose.RelativePoseResult) -> np.ndarray:
    """The (H, W) inliers of the `pnp_ransac` result `res` on `pm`: the
    valid pixels whose reprojection under `res.transform` lies within
    `_INLIER_THRESHOLD_PX` of the pixel."""
    valid_idx = np.flatnonzero(pm.mask.reshape(-1))
    points = np.ascontiguousarray(pm.points.reshape(-1, 3)[valid_idx].T)
    pixels = np.stack([valid_idx % pm.width, valid_idx // pm.width]).astype(float)
    errs = relative_pose._reproj_errors(points, pixels, k, res.transform.rotation,
                                        res.transform.translation)
    mask = np.zeros(pm.height * pm.width, dtype=bool)
    mask[valid_idx[errs < relative_pose._INLIER_THRESHOLD_PX]] = True
    return mask.reshape(pm.height, pm.width)


def random_rigid(rng: np.random.Generator, t_scale: float = 1.0) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.normal(size=3) * t_scale)


def winding_cycle(n: int = 12) -> tuple[PoseGraph, np.ndarray]:
    """The n-cycle of identity edges (k, k+1 mod n) and the rotations
    R_k = Rz(360 k / n degrees): a stationary point of the chordal
    objective that winds once around the cycle, with objective
    n * ||Rz(360/n) - I||_F^2 against 0 at the identity. Its certificate
    matrix's lowest eigenvalue is 2 cos(2 pi / n) - 2 (-0.268 for n = 12)."""
    graph = PoseGraph(n, tuple(Edge(k, (k + 1) % n, np.eye(3), np.zeros(3), 1.0, 1.0)
                               for k in range(n)))
    return graph, np.stack([axis_angle_matrix([0.0, 0.0, 1.0], math.radians(360.0 * k / n))
                            for k in range(n)])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
