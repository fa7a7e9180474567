"""Procedural multi-view scene generator for testing the full pipeline.

Scenes are proxy point clouds (no meshes) rendered into per-view depth
maps by 1-pixel z-buffer splatting. Points that fail to win an unmasked
pixel in at least two views are pruned and the scene re-splatted, which
makes the >=2-view visibility guarantee hold by construction.

Pair pointmaps simulate a cross-view prediction network: both maps are
back-projected from the stored depth and the second view's map is
re-expressed in the first view's frame using the ground-truth poses.
Injected outliers are rejection-sampled to reproject far from their
pixel, so robustness tests can assert their exact exclusion; they carry
confidences well below every clean pixel.

One focal length is drawn per scene (all views share it), mirroring a
single-camera video; intrinsics vary across scenes through the seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import (
    CameraIntrinsics,
    DepthMap,
    Pointmap,
    PointmapRows,
    RigidTransform,
    change_frame,
    compose,
    inverse,
    pointmap_from_depth,
)

_OBJECT_SHAPES = ("sphere-cluster", "box-cluster", "blob")
_TRAJECTORIES = ("orbit", "random-hemisphere")

# Sub-stream tags for RNG derivation.
_TAG_POINTS = 1
_TAG_SCENE = 2
_TAG_VIEW = 3
_TAG_NOISE = 4
_TAG_PAIR = 5

# Injected outliers must reproject at least this far (pixels) from their
# pixel in the ground-truth camera, or land behind it.
_OUTLIER_MIN_REPROJ_PX = 15.0


@dataclass(frozen=True)
class SceneSpec:
    """Scene and corruption knobs. ``depth_noise_sigma`` perturbs the
    rendered depth values; since that moves points along their pixel
    rays it is invisible to ray-based estimators, so
    ``point_noise_sigma`` additionally models prediction error as an
    isotropic 3D perturbation of the emitted pair pointmaps. Both are
    fractions of ``scene_scale``."""

    n_points: int = 1500
    object_shape: str = "sphere-cluster"
    scene_scale: float = 1.0
    n_views: int = 20
    trajectory: str = "orbit"
    focal_range: tuple[float, float] = (110.0, 180.0)
    image_size: tuple[int, int] = (128, 96)
    depth_noise_sigma: float = 0.0
    point_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    occlusion_fraction: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_views < 2:
            raise ValidationError("n_views: need at least 2 views")
        if self.n_points < 1:
            raise ValidationError("n_points: need at least 1 point")
        if self.object_shape not in _OBJECT_SHAPES:
            raise ValidationError(f"object_shape: unknown shape {self.object_shape!r}")
        if self.trajectory not in _TRAJECTORIES:
            raise ValidationError(f"trajectory: unknown trajectory {self.trajectory!r}")
        if not self.scene_scale > 0:
            raise ValidationError("scene_scale: must be positive")
        lo, hi = self.focal_range
        if not (0 < lo <= hi):
            raise ValidationError("focal_range: need 0 < lo <= hi")
        w, h = self.image_size
        if w < 2 or h < 2:
            raise ValidationError("image_size: need at least 2x2 pixels")
        for name in ("depth_noise_sigma", "point_noise_sigma",
                     "outlier_fraction", "occlusion_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v and math.isfinite(v)):
                raise ValidationError(f"{name}: must be a non-negative finite real")
        if self.outlier_fraction > 1.0:
            raise ValidationError("outlier_fraction: must be <= 1")
        if self.occlusion_fraction >= 1.0:
            raise ValidationError("occlusion_fraction: 1.0 would mask every pixel")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed: {self.rng_seed} is negative")


@dataclass(frozen=True)
class SceneView:
    depth: DepthMap
    intrinsics: CameraIntrinsics
    pose: RigidTransform  # world-to-camera


@dataclass(frozen=True)
class SceneBundle:
    spec: SceneSpec
    views: tuple[SceneView, ...]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @functools.cached_property
    def view_pointmaps(self) -> tuple[Pointmap, ...]:
        """Each view's stored depth back-projected into its own camera
        frame, computed once per bundle; the maps are read-only, so every
        pair shares them."""
        return tuple(pointmap_from_depth(v.depth, v.intrinsics) for v in self.views)

    @functools.cached_property
    def view_rows(self) -> tuple[PointmapRows, ...]:
        """The valid pixels of each of `view_pointmaps`, gathered once per
        bundle with their bits unchanged."""
        out = []
        for pm in self.view_pointmaps:
            index = np.flatnonzero(pm.mask.reshape(-1))
            points = pm.points.reshape(-1, 3)[index]
            conf = np.ones(len(index))
            index.flags.writeable = points.flags.writeable = conf.flags.writeable = False
            out.append(PointmapRows(pm.width, pm.height, index, points, conf))
        return tuple(out)

    @functools.cached_property
    def inverse_poses(self) -> tuple[RigidTransform, ...]:
        """Each view's camera-to-world pose, computed once per bundle."""
        return tuple(inverse(v.pose) for v in self.views)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _sample_points(spec: SceneSpec) -> np.ndarray:
    rng = _rng(spec.rng_seed, _TAG_POINTS)
    s = spec.scene_scale
    n = spec.n_points
    if spec.object_shape == "blob":
        pts = rng.normal(scale=0.3 * s, size=(n, 3))
    elif spec.object_shape == "sphere-cluster":
        # A few spheres of varied radii, including one small and one
        # flattened (thin) cluster to make splatting non-trivial.
        n_spheres = 4
        centers = rng.uniform(-0.35 * s, 0.35 * s, size=(n_spheres, 3))
        radii = rng.uniform(0.08 * s, 0.3 * s, size=n_spheres)
        squash = np.ones((n_spheres, 3))
        squash[-1, 2] = 0.15  # thin disk-like cluster
        which = rng.integers(0, n_spheres, size=n)
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = centers[which] + dirs * radii[which, None] * squash[which]
    else:  # box-cluster
        n_boxes = 3
        centers = rng.uniform(-0.3 * s, 0.3 * s, size=(n_boxes, 3))
        half = rng.uniform(0.05 * s, 0.25 * s, size=(n_boxes, 3))
        which = rng.integers(0, n_boxes, size=n)
        face = rng.integers(0, 3, size=n)
        side = rng.choice([-1.0, 1.0], size=n)
        uv = rng.uniform(-1.0, 1.0, size=(n, 3))
        uv[np.arange(n), face] = side
        pts = centers[which] + uv * half[which]
    pts = pts - pts.mean(axis=0)
    radius = np.linalg.norm(pts, axis=1).max()
    if radius > 0:
        pts *= (0.6 * s) / radius
    return pts


def _look_at(position: np.ndarray) -> RigidTransform:
    """World-to-camera pose of a camera at `position` looking at the origin."""
    z = -position / np.linalg.norm(position)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(z, up))) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    r = np.stack([x, y, z], axis=0)
    return RigidTransform.from_matrix_parts(r, -r @ position)


@dataclass(frozen=True)
class _ViewParams:
    pose: RigidTransform
    occlusion: tuple[float, float, float] | None  # (ci, cj, radius)


def _view_params(spec: SceneSpec, k: int) -> _ViewParams:
    rng = _rng(spec.rng_seed, _TAG_VIEW, k)
    s = spec.scene_scale
    w, h = spec.image_size
    if spec.trajectory == "orbit":
        azimuth = 2.0 * math.pi * k / spec.n_views
        elevation = 0.3
        radius = 2.5 * s
    else:
        azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
        elevation = float(np.arcsin(rng.uniform(0.15, 0.9)))
        radius = float(rng.uniform(2.2, 2.8)) * s
    position = radius * np.array([
        math.cos(elevation) * math.cos(azimuth),
        math.cos(elevation) * math.sin(azimuth),
        math.sin(elevation),
    ])
    occlusion = None
    if spec.occlusion_fraction > 0:
        disk_r = math.sqrt(spec.occlusion_fraction * w * h / math.pi)
        occlusion = (float(rng.uniform(0, w)), float(rng.uniform(0, h)), disk_r)
    return _ViewParams(pose=_look_at(position), occlusion=occlusion)


def _splat(points: np.ndarray, pose: RigidTransform, k: CameraIntrinsics,
           width: int, height: int,
           occlusion: tuple[float, float, float] | None) -> tuple[np.ndarray, np.ndarray]:
    """Z-buffer the points into (depth, ids); nearest depth wins a pixel,
    ties break on point index. Occluded pixels are cleared."""
    cam = pose.apply(points)
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.f * cam[:, 0] / z + k.c_x
        v = k.f * cam[:, 1] / z + k.c_y
    i = np.full(len(points), -1, dtype=np.int64)
    j = np.full(len(points), -1, dtype=np.int64)
    front = z > 0
    i[front] = np.rint(u[front]).astype(np.int64)
    j[front] = np.rint(v[front]).astype(np.int64)
    in_view = front & (i >= 0) & (i < width) & (j >= 0) & (j < height)

    cand = np.flatnonzero(in_view)
    flat = j[cand] * width + i[cand]
    order = np.lexsort((cand, z[cand], flat))
    flat_sorted = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    win_pix = flat_sorted[first]
    win_ids = cand[order][first]

    depth = np.zeros(height * width)
    ids = np.full(height * width, -1, dtype=np.int32)
    depth[win_pix] = z[win_ids]
    ids[win_pix] = win_ids
    depth = depth.reshape(height, width)
    ids = ids.reshape(height, width)

    if occlusion is not None:
        ci, cj, disk_r = occlusion
        ii, jj = np.meshgrid(np.arange(width), np.arange(height))
        occluded = (ii - ci) ** 2 + (jj - cj) ** 2 <= disk_r ** 2
        depth[occluded] = 0.0
        ids[occluded] = -1
    return depth, ids


def generate(spec: SceneSpec) -> SceneBundle:
    """Render a full multi-view bundle; bit-reproducible per seed.

    Camera poses and occlusion disks derive from per-view RNG streams
    (seed, view-index), so views do not depend on generation order.
    Points invisible in fewer than two views are pruned and the scene
    re-splatted until every surviving point is covered; pruning can only
    uncover more points, so the loop terminates.
    """
    points = _sample_points(spec)
    w, h = spec.image_size
    focal = float(_rng(spec.rng_seed, _TAG_SCENE).uniform(*spec.focal_range))
    intrinsics = CameraIntrinsics(f=focal, c_x=w / 2.0, c_y=h / 2.0)
    params = [_view_params(spec, k) for k in range(spec.n_views)]

    keep = np.ones(len(points), dtype=bool)
    splats = None
    while True:
        kept_idx = np.flatnonzero(keep)
        if len(kept_idx) == 0:
            raise ValidationError(
                "infeasible spec: no scene point is visible in two or more views"
            )
        subset = points[kept_idx]
        splats = [_splat(subset, p.pose, intrinsics, w, h, p.occlusion)
                  for p in params]
        counts = np.zeros(len(kept_idx), dtype=int)
        for depth, ids in splats:
            vis = np.unique(ids[ids >= 0])
            counts[vis] += 1
        ok = counts >= 2
        if np.all(ok):
            break
        keep[kept_idx[~ok]] = False

    views = []
    for k, (p, (depth, ids)) in enumerate(zip(params, splats)):
        mask = ids >= 0
        if spec.depth_noise_sigma > 0:
            noise_rng = _rng(spec.rng_seed, _TAG_NOISE, k)
            noise = noise_rng.normal(0.0, spec.depth_noise_sigma * spec.scene_scale,
                                     size=int(np.count_nonzero(mask)))
            depth = depth.copy()
            depth[mask] = np.maximum(depth[mask] + noise, 1e-9 * spec.scene_scale)
        views.append(SceneView(
            depth=DepthMap(width=w, height=h, depth=depth, mask=mask),
            intrinsics=intrinsics,
            pose=p.pose,
        ))
    return SceneBundle(spec=spec, views=tuple(views))


@dataclass(frozen=True)
class PairPointmaps:
    """Simulated network output for an ordered view pair (i, j), both maps
    in view i's frame, kept as the valid pixels of each map: `rows1` and
    `rows2`, and `outliers1` and `outliers2`, the ascending positions in
    them of the corrupted pixels. The full-grid maps `view1` and `view2`
    and the (H, W) outlier masks are built when read."""

    rows1: PointmapRows
    rows2: PointmapRows
    outliers1: np.ndarray = field(repr=False)
    outliers2: np.ndarray = field(repr=False)
    bundle: SceneBundle = field(repr=False, compare=False)
    pair: tuple[int, int]

    @functools.cached_property
    def view1(self) -> Pointmap:
        return _grid(self.bundle.view_pointmaps[self.pair[0]], self.rows1)

    @functools.cached_property
    def view2(self) -> Pointmap:
        i, j = self.pair
        views = self.bundle.views
        return _grid(change_frame(self.bundle.view_pointmaps[j], views[j].pose, views[i].pose),
                     self.rows2)

    @property
    def outlier_mask1(self) -> np.ndarray:
        return _outlier_mask(self.rows1, self.outliers1)

    @property
    def outlier_mask2(self) -> np.ndarray:
        return _outlier_mask(self.rows2, self.outliers2)


def _grid(base: Pointmap, rows: PointmapRows) -> Pointmap:
    """``base`` with its valid pixels replaced by ``rows`` and confidence 1
    elsewhere."""
    points = base.points.copy()
    points.reshape(-1, 3)[rows.index] = rows.points
    conf = np.ones(base.height * base.width)
    conf[rows.index] = rows.confidence
    points.flags.writeable = conf.flags.writeable = False  # so Pointmap keeps them uncopied
    return Pointmap(base.width, base.height, points, conf.reshape(base.height, base.width),
                    base.mask)


def _outlier_mask(rows: PointmapRows, outliers: np.ndarray) -> np.ndarray:
    mask = np.zeros(rows.height * rows.width, dtype=bool)
    mask[rows.index[outliers]] = True
    return mask.reshape(rows.height, rows.width)


def _corrupt(rows: PointmapRows, points: np.ndarray, fraction: float, noise_sigma: float,
             bbox: tuple[np.ndarray, np.ndarray], rng: np.random.Generator,
             guard=None) -> tuple[PointmapRows, np.ndarray]:
    """Add isotropic 3D noise to ``points``, the (N, 3) points of the
    pixels of ``rows``, then replace a fraction of them with uniform bbox
    samples. Returns the corrupted rows and the ascending positions of the
    replaced ones.

    `guard(points, flat_idx)` marks samples that are genuine outliers for
    this map; rejected samples are redrawn (a few rounds suffice since
    the bbox is much larger than the acceptance region).
    """
    n = len(points)
    n_out = int(math.floor(fraction * n))
    if noise_sigma > 0 and n:
        points = points + rng.normal(0.0, noise_sigma, size=(n, 3))
    conf = rng.uniform(0.5, 1.0, size=n)
    chosen = np.empty(0, dtype=np.intp)
    if n_out > 0:
        chosen = rng.choice(n, size=n_out, replace=False)
        lo, hi = bbox
        samples = rng.uniform(lo, hi, size=(n_out, 3))
        if guard is not None:
            for _ in range(50):
                bad = ~guard(samples, rows.index[chosen])
                if not np.any(bad):
                    break
                samples[bad] = rng.uniform(lo, hi, size=(int(bad.sum()), 3))
            else:
                good = guard(samples, rows.index[chosen])  # drop stragglers, keep pairs aligned
                samples = samples[good]
                chosen = chosen[good]
        points = points.copy() if points is rows.points else points
        points[chosen] = samples
        conf[chosen] = rng.uniform(0.01, 0.05, size=len(chosen))
    points.flags.writeable = conf.flags.writeable = False  # so PointmapRows keeps them uncopied
    return (PointmapRows(rows.width, rows.height, rows.index, points, conf),
            np.sort(chosen))


def make_pair_pointmaps(bundle: SceneBundle, i: int, j: int) -> PairPointmaps:
    """Emit (X1, X2) for the ordered pair (i, j): view i's pointmap in
    its own frame and view j's pointmap re-expressed in view i's frame.

    Both maps derive from the stored (possibly noisy) depth via the
    back-projection relation, then receive the bundle spec's isotropic 3D
    prediction noise (``point_noise_sigma``, fraction of scene scale) and
    its ``outlier_fraction`` of corrupted pixels. Corrupted pixels of
    the second map are guaranteed to reproject more than 15 px from
    their pixel (or behind the camera) under the ground-truth relative
    pose, and all corrupted pixels get confidences below every clean
    pixel. Per-map RNG streams are keyed by view id, so the pair (i, i)
    yields two identical maps.

    Only the valid pixels are moved and corrupted: each point is computed
    as the full-grid `change_frame` and corruption would compute it, so
    the grids built from the rows on reading hold the same bytes.
    """
    spec = bundle.spec
    noise_abs = spec.point_noise_sigma * spec.scene_scale
    pose_i, pose_j = bundle.views[i].pose, bundle.views[j].pose
    rows1, rows2 = bundle.view_rows[i], bundle.view_rows[j]
    points1, points2 = rows1.points, rows2.points
    if not (np.array_equal(pose_j.rotation, pose_i.rotation)
            and np.array_equal(pose_j.translation, pose_i.translation)):
        # As `change_frame`, whose identical poses leave the map as it is.
        points2 = compose(pose_i, bundle.inverse_poses[j]).apply(points2)

    all_valid = np.concatenate([points1, points2], axis=0)
    if len(all_valid):
        center = all_valid.mean(axis=0)
        # The extremes are read along contiguous coordinate rows: 20x faster
        # than down the columns of the (N, 3) rows, and exact either way.
        coords = all_valid.T.copy()
        half = np.maximum((coords.max(axis=1) - coords.min(axis=1)) / 2.0,
                          1e-3 * spec.scene_scale)
        bbox = (center - 1.5 * half, center + 1.5 * half)
    else:
        bbox = (np.zeros(3), np.ones(3))

    rel = compose(pose_j, bundle.inverse_poses[i])  # view-i frame -> view-j frame
    k2 = bundle.views[j].intrinsics
    width = rows2.width

    def far_from_pixel(samples: np.ndarray, flat_idx: np.ndarray) -> np.ndarray:
        cam = rel.apply(samples)
        z = cam[:, 2]
        ok = z <= 0  # behind the camera is always an outlier
        front = ~ok
        if np.any(front):
            u = k2.f * cam[front, 0] / z[front] + k2.c_x
            v = k2.f * cam[front, 1] / z[front] + k2.c_y
            pix = flat_idx[front]
            err = np.hypot(u - pix % width, v - pix // width)
            ok[front] = err > _OUTLIER_MIN_REPROJ_PX
        return ok

    rows1_c, out1 = _corrupt(rows1, points1, spec.outlier_fraction, noise_abs, bbox,
                             _rng(spec.rng_seed, _TAG_PAIR, i, j, i))
    rows2_c, out2 = _corrupt(rows2, points2, spec.outlier_fraction, noise_abs, bbox,
                             _rng(spec.rng_seed, _TAG_PAIR, i, j, j),
                             guard=None if i == j else far_from_pixel)
    return PairPointmaps(rows1=rows1_c, rows2=rows2_c, outliers1=out1, outliers2=out2,
                         bundle=bundle, pair=(i, j))
