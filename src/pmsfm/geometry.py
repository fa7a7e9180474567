"""Core geometric types and exact operations on them.

Conventions used across the package:

* Pixel coordinates are ``(i, j) = (column/x, row/y)``, zero-indexed.
  Grids are stored row-major, so ``grid[j, i]`` is the entry for pixel
  ``(i, j)`` and array shapes are ``(height, width, ...)``.
* Rigid transforms are world-to-camera: ``x_cam = R @ x_world + t``.
  The camera center in world coordinates is ``c = -R.T @ t``.
* A pointmap assigns one 3D point to every pixel; masked-out pixels
  carry no meaning and are excluded from every loss, norm, and pose
  computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCameraError,
    ShapeMismatchError,
    ValidationError,
)

_ORTHONORMALITY_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def so3_project(m: np.ndarray) -> np.ndarray:
    """Nearest rotation in Frobenius norm to each matrix of a (..., 3, 3) stack.

    Polar decomposition via SVD with a determinant sign fix, so the
    result is a proper rotation even when ``m`` is reflected.
    """
    u, _, vt = np.linalg.svd(m)
    flip = np.linalg.det(u @ vt) < 0
    # A single matrix gives a numpy bool, whose .any() costs more than the test.
    if flip.any() if flip.ndim else flip:
        np.negative(u[..., -1], out=u[..., -1], where=flip[..., None])
    return u @ vt


def check_rigid(rotations: np.ndarray, translations: np.ndarray, name) -> None:
    """Raise ValidationError naming ``name(k)`` for the first transform k of the stacks
    (N, 3, 3), (N, 3) that is not finite or has ||R'R - I||_F or |det R - 1| over 1e-9."""
    # A non-finite rotation entry fails both tests; its FP warnings are noise.
    with np.errstate(invalid="ignore", over="ignore"):
        d = rotations.transpose(0, 2, 1) @ rotations - np.eye(3)
        ortho = np.sqrt((d * d).sum(axis=(1, 2)))
        det_off = np.abs(np.linalg.det(rotations) - 1.0)
    ok = (ortho <= _ORTHONORMALITY_TOL) & (det_off <= _ORTHONORMALITY_TOL)
    bad = np.flatnonzero(~(ok & np.isfinite(translations).all(axis=1)))
    if len(bad):
        k = bad[0]
        raise ValidationError(f"{name(k)}: not finite or off SO(3) (||R'R - I|| = {ortho[k]:.3e},"
                              f" |det R - 1| = {det_off[k]:.3e}, t = {translations[k]})")


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) element, world-to-camera: ``x_cam = rotation @ x_world + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3):
            raise ShapeMismatchError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ShapeMismatchError(f"translation must be a 3-vector, got {t.shape}")
        check_rigid(r[None], t[None], lambda k: "transform")
        object.__setattr__(self, "rotation", _freeze(r))
        object.__setattr__(self, "translation", _freeze(t))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix_parts(cls, rotation, translation) -> "RigidTransform":
        """Build a transform, projecting ``rotation`` to the nearest SO(3) element."""
        return cls(so3_project(np.asarray(rotation, dtype=np.float64)),
                   np.asarray(translation, dtype=np.float64))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def camera_center(self) -> np.ndarray:
        return -self.rotation.T @ self.translation


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition ``a @ b`` (apply ``b`` first, then ``a``), renormalized."""
    return RigidTransform.from_matrix_parts(
        a.rotation @ b.rotation, a.rotation @ b.translation + a.translation
    )


def inverse(a: RigidTransform) -> RigidTransform:
    return RigidTransform.from_matrix_parts(a.rotation.T, -a.rotation.T @ a.translation)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with a single shared focal and no skew."""

    f: float
    c_x: float
    c_y: float

    def __post_init__(self):
        if not (math.isfinite(self.f) and self.f > 0):
            raise ValidationError(f"focal length must be positive and finite, got {self.f}")
        if not (math.isfinite(self.c_x) and math.isfinite(self.c_y)):
            raise ValidationError("principal point must be finite")

    def matrix(self) -> np.ndarray:
        return np.array([[self.f, 0.0, self.c_x],
                         [0.0, self.f, self.c_y],
                         [0.0, 0.0, 1.0]])

    def inverse_matrix(self) -> np.ndarray:
        return np.array([[1.0 / self.f, 0.0, -self.c_x / self.f],
                         [0.0, 1.0 / self.f, -self.c_y / self.f],
                         [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel depth with a validity mask.

    Invalid pixels carry depth 0 and mask False; valid depths are
    strictly positive and finite.
    """

    width: int
    height: int
    depth: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.depth, dtype=np.float64)
        m = np.asarray(self.mask, dtype=bool)
        shape = (self.height, self.width)
        if d.shape != shape or m.shape != shape:
            raise ShapeMismatchError(
                f"depth/mask must have shape {shape}, got {d.shape} and {m.shape}"
            )
        if not np.all(np.isfinite(d[m])) or np.any(d[m] <= 0):
            raise ValidationError("valid depths must be strictly positive and finite")
        if np.any(d[~m] != 0):
            raise ValidationError("invalid pixels must carry depth 0")
        object.__setattr__(self, "depth", _freeze(d))
        object.__setattr__(self, "mask", _freeze(m))


@dataclass(frozen=True)
class Pointmap:
    """W x H grid of 3D points with a confidence map and validity mask.

    ``points[j, i]`` is the 3D point seen at pixel ``(i, j)``;
    ``frame_id`` names the coordinate frame the points live in.
    """

    width: int
    height: int
    points: np.ndarray
    confidence: np.ndarray
    mask: np.ndarray
    frame_id: str = field(default="")

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        c = np.asarray(self.confidence, dtype=np.float64)
        m = np.asarray(self.mask, dtype=bool)
        if p.shape != (self.height, self.width, 3):
            raise ShapeMismatchError(
                f"points must have shape {(self.height, self.width, 3)}, got {p.shape}"
            )
        if c.shape != (self.height, self.width) or m.shape != (self.height, self.width):
            raise ShapeMismatchError("confidence/mask shape must be (height, width)")
        if not (np.isfinite(c) & (c > 0)).all():
            raise ValidationError("confidence values must be strictly positive and finite")
        # One pass over the whole map; masked-out pixels may hold NaN/inf,
        # so only a failure there needs the masked-in points gathered.
        if not (np.isfinite(p).all() or np.isfinite(p[m]).all()):
            raise ValidationError("valid points must be finite")
        object.__setattr__(self, "points", _freeze(p))
        object.__setattr__(self, "confidence", _freeze(c))
        object.__setattr__(self, "mask", _freeze(m))

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.mask))

    def pixel_grid(self) -> np.ndarray:
        """(H, W, 2) array of (i, j) pixel coordinates."""
        return pixel_grid(self.width, self.height)


def pixel_grid(width: int, height: int) -> np.ndarray:
    ii, jj = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    return np.stack([ii, jj], axis=-1)


def pointmap_from_depth(depth: DepthMap, intrinsics: CameraIntrinsics) -> Pointmap:
    """Back-project a depth map into the camera's own frame.

    Each valid pixel maps to ``K^-1 @ (i*D, j*D, D)``; invalid pixels
    keep depth 0 and therefore the zero point. Confidence is 1 everywhere.
    """
    k_inv = intrinsics.inverse_matrix()
    grid = pixel_grid(depth.width, depth.height)
    d = depth.depth[..., None]
    homo = np.concatenate([grid * d, d], axis=-1)
    points = homo @ k_inv.T
    conf = np.ones((depth.height, depth.width))
    return Pointmap(depth.width, depth.height, points, conf, depth.mask,
                    frame_id="camera")


def project(point: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Project camera-frame points (..., 3) to pixel coordinates (..., 2)."""
    pts = np.asarray(point, dtype=np.float64)
    z = pts[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("cannot project points with z <= 0")
    u = intrinsics.f * pts[..., 0] / z + intrinsics.c_x
    v = intrinsics.f * pts[..., 1] / z + intrinsics.c_y
    return np.stack([u, v], axis=-1)


def change_frame(pm: Pointmap, pose_src: RigidTransform,
                 pose_dst: RigidTransform, frame_id: str = "") -> Pointmap:
    """Re-express a pointmap given in ``pose_src``'s camera frame in
    ``pose_dst``'s camera frame (``pose_dst o pose_src^-1``).

    Mask and confidence are unchanged. Identical poses short-circuit so
    the output equals the input exactly.
    """
    if np.array_equal(pose_src.rotation, pose_dst.rotation) and np.array_equal(
        pose_src.translation, pose_dst.translation
    ):
        return Pointmap(pm.width, pm.height, pm.points, pm.confidence, pm.mask,
                        frame_id=frame_id or pm.frame_id)
    rel = compose(pose_dst, inverse(pose_src))
    return Pointmap(pm.width, pm.height, rel.apply(pm.points), pm.confidence,
                    pm.mask, frame_id=frame_id)


def geodesic_deg(ra: np.ndarray, rb: np.ndarray) -> float:
    """Geodesic distance between two rotations, in degrees.

    ``arccos((trace(Ra' Rb) - 1) / 2)`` with the trace argument clamped
    to [-1, 1] to guard round-off at 0 and 180 degrees.
    """
    ra = np.asarray(ra, dtype=np.float64)
    rb = np.asarray(rb, dtype=np.float64)
    if np.array_equal(ra, rb):
        return 0.0
    cos_angle = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))


def rot_z(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle_matrix(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues formula for a unit-normalized axis."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0:
        return np.eye(3)
    k = axis / n
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle_rad) * kx + (1.0 - math.cos(angle_rad)) * (kx @ kx)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (QR of a Gaussian matrix with sign fix)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q
