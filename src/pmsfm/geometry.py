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
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ValidationError

_ORTHONORMALITY_TOL = 1e-9


def _freeze(given, dtype=None) -> np.ndarray:
    """`given` as a read-only C-contiguous array, copied first when it is the
    caller's array, or a view of it, and still writeable; an array that a
    conversion made here is frozen in place."""
    a = np.ascontiguousarray(given, dtype=dtype)
    if a.flags.writeable and (a is given or a.base is not None):
        a = a.copy()
    a.flags.writeable = False
    return a


def _check_pixels(bad: np.ndarray, array: str, values: np.ndarray, message: str):
    """Raise ValidationError for the first pixel, flat index k, of the grid
    `bad` that holds, naming `array` and k; `message` shows values[k] as {v}."""
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValidationError(f"{message.format(v=values[k])} at pixel {k}", array, k)


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
        r = _freeze(self.rotation, np.float64)
        t = _freeze(self.translation, np.float64)
        if r.shape != (3, 3):
            raise ShapeMismatchError(f"rotation must be 3x3, got {r.shape}")
        if t.shape != (3,):
            raise ShapeMismatchError(f"translation must be a 3-vector, got {t.shape}")
        check_rigid(r[None], t[None], lambda k: "transform")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def from_matrix_parts(cls, rotation, translation) -> "RigidTransform":
        """Build a transform, projecting ``rotation`` to the nearest SO(3) element."""
        return cls(so3_project(np.asarray(rotation, dtype=np.float64)),
                   np.asarray(translation, dtype=np.float64))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation


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
        d = _freeze(self.depth, np.float64)
        m = _freeze(self.mask, bool)
        shape = (self.height, self.width)
        if d.shape != shape or m.shape != shape:
            raise ShapeMismatchError(
                f"depth/mask must have shape {shape}, got {d.shape} and {m.shape}"
            )
        _check_pixels(m & ~(np.isfinite(d) & (d > 0)), "depth", d.reshape(-1),
                      "masked-in depth {v} is not strictly positive and finite")
        _check_pixels(~m & (d != 0), "depth", d.reshape(-1), "masked-out depth {v} is not 0")
        object.__setattr__(self, "depth", d)
        object.__setattr__(self, "mask", m)


@dataclass(frozen=True)
class Pointmap:
    """W x H grid of 3D points with a confidence map and validity mask.

    ``points[j, i]`` is the 3D point seen at pixel ``(i, j)``. Confidence
    is strictly positive and finite; masked-in points are finite.
    """

    width: int
    height: int
    points: np.ndarray
    confidence: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        p = _freeze(self.points, np.float64)
        c = _freeze(self.confidence, np.float64)
        m = _freeze(self.mask, bool)
        if p.shape != (self.height, self.width, 3):
            raise ShapeMismatchError(
                f"points must have shape {(self.height, self.width, 3)}, got {p.shape}"
            )
        if c.shape != (self.height, self.width) or m.shape != (self.height, self.width):
            raise ShapeMismatchError("confidence/mask shape must be (height, width)")
        _check_pixels(~(np.isfinite(c) & (c > 0)), "confidence", c.reshape(-1),
                      "confidence value {v} is not strictly positive and finite")
        # One pass over the whole map; masked-out pixels may hold NaN/inf,
        # so only a failure there needs the points checked pixel by pixel.
        if not np.isfinite(p).all():
            _check_pixels(m & ~np.isfinite(p).all(axis=2), "points", p.reshape(-1, 3),
                          "valid points must be finite: NaN/inf in a masked-in point {v}")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "confidence", c)
        object.__setattr__(self, "mask", m)

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.mask))


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
    return Pointmap(depth.width, depth.height, points, conf, depth.mask)


def change_frame(pm: Pointmap, pose_src: RigidTransform,
                 pose_dst: RigidTransform) -> Pointmap:
    """Re-express a pointmap given in ``pose_src``'s camera frame in
    ``pose_dst``'s camera frame (``pose_dst o pose_src^-1``).

    Mask and confidence are unchanged. Identical poses return ``pm``
    itself.
    """
    if np.array_equal(pose_src.rotation, pose_dst.rotation) and np.array_equal(
        pose_src.translation, pose_dst.translation
    ):
        return pm
    rel = compose(pose_dst, inverse(pose_src))
    points = rel.apply(pm.points)
    points.flags.writeable = False  # handed over read-only, so Pointmap does not copy it
    return Pointmap(pm.width, pm.height, points, pm.confidence, pm.mask)


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
