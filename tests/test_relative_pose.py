import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from pmsfm import io_formats, pipeline, relative_pose
from pmsfm.errors import (
    ConvergenceWarning,
    InsufficientDataError,
    NoPoseFoundError,
    ValidationError,
)
from pmsfm.geometry import (
    CameraIntrinsics,
    DepthMap,
    Pointmap,
    PointmapRows,
    RigidTransform,
    axis_angle_matrix,
    geodesic_deg,
    pixel_grid,
    pointmap_from_depth,
    random_rotation,
    so3_project,
)
from pmsfm.relative_pose import (
    _gn_normal_equations,
    _gn_residuals,
    _p3p_batch,
    _reproj_errors,
    estimate_focal,
    make_intrinsics,
    p3p_solve,
    pnp_ransac,
    refine_pose,
)

from conftest import assert_same_bits, inlier_mask, stable_rot_err_deg


def grid_pointmap_for_pose(k: CameraIntrinsics, width, height, pose: RigidTransform,
                           rng, mask_p=1.0):
    """Forward-projection oracle: a pointmap in the 'view 1' frame whose
    entries project exactly onto the integer pixel grid of view 2 under
    `pose` (world-to-camera of view 2) and intrinsics `k`."""
    ii, jj = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    depth = rng.uniform(2.0, 5.0, size=(height, width))
    x = (ii - k.c_x) * depth / k.f
    y = (jj - k.c_y) * depth / k.f
    cam2 = np.stack([x, y, depth], axis=-1)
    world = (cam2 - pose.translation) @ pose.rotation
    mask = rng.uniform(size=(height, width)) <= mask_p
    return Pointmap(width, height, world, np.ones((height, width)), mask)


def small_pose(rng, angle_scale=0.3, t_scale=0.5):
    w = rng.normal(size=3) * angle_scale
    from pmsfm.geometry import axis_angle_matrix
    r = axis_angle_matrix(w, float(np.linalg.norm(w)))
    return RigidTransform(r, rng.normal(size=3) * t_scale)


class TestEstimateFocal:
    def make_pm(self, f, rng, width=32, height=24, depth_noise=0.0):
        k = make_intrinsics(width, height, f)
        depth = rng.uniform(1.0, 4.0, size=(height, width))
        if depth_noise:
            depth = depth + rng.normal(scale=depth_noise, size=depth.shape)
            depth = np.maximum(depth, 0.1)
        dm = DepthMap(width, height, depth, np.ones((height, width), bool))
        return pointmap_from_depth(dm, k)

    def test_noiseless_exact_inverse(self, rng):
        pm = self.make_pm(500.0, rng)
        assert abs(estimate_focal(pm) - 500.0) / 500.0 <= 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_noiseless_random_focal(self, seed):
        rng = np.random.default_rng(seed)
        f = float(rng.uniform(120, 800))
        pm = self.make_pm(f, rng)
        assert abs(estimate_focal(pm) - f) / f <= 1e-6

    def test_point_noise_monte_carlo(self):
        # 1% isotropic prediction noise on synthetic pointmaps over 100
        # seeds. Bounds frozen from this Monte-Carlo run (observed median
        # 0.0022, max 0.0067), well inside the 2% requirement.
        from pmsfm.synth import SceneSpec, generate, make_pair_pointmaps
        errs = []
        for seed in range(100):
            spec = SceneSpec(n_views=2, rng_seed=seed, point_noise_sigma=0.01)
            bundle = generate(spec)
            pair = make_pair_pointmaps(bundle, 0, 1)
            f_true = bundle.views[0].intrinsics.f
            errs.append(abs(estimate_focal(pair.view1) - f_true) / f_true)
        assert float(np.median(errs)) <= 0.005
        assert max(errs) <= 0.02

    def test_principal_ray_degenerate(self):
        pts = np.zeros((4, 4, 3))
        pts[..., 2] = 2.0  # every point on the optical axis
        pm = Pointmap(4, 4, pts, np.ones((4, 4)), np.ones((4, 4), bool))
        with pytest.raises(InsufficientDataError):
            estimate_focal(pm)

    def test_too_few_pixels(self, rng):
        pm = self.make_pm(300.0, rng, width=3, height=2)
        with pytest.raises(InsufficientDataError):
            estimate_focal(pm)

    def test_underflowing_directions_give_no_focal(self, rng):
        # Half the pixels have x/z and y/z whose squares underflow to 0, so
        # the median-of-ratios start divides by zero. The solve returns NaN,
        # which make_intrinsics rejects, rather than raising mid-iteration.
        pts = rng.normal(size=(4, 4, 3))
        pts[..., 2] = 1.0
        pts[:2, :, :2] *= 1e-300
        pm = Pointmap(4, 4, pts, np.ones((4, 4)), np.ones((4, 4), bool))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.warns(ConvergenceWarning):
                f = estimate_focal(pm)
        assert math.isnan(f)
        with pytest.raises(ValidationError):
            make_intrinsics(4, 4, f)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 3), s=st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, seed, s):
        # d = (x/z, y/z) is scale-free, so scaling moves f by rounding only.
        pm = _noisy_focal_map(seed, outlier_fraction=0.3)
        f0 = estimate_focal(pm)
        scaled = Pointmap(pm.width, pm.height, pm.points * s, pm.confidence, pm.mask)
        assert abs(estimate_focal(scaled) - f0) <= 1e-10 * f0


class TestMakeIntrinsics:
    def test_centered(self):
        k = make_intrinsics(640, 480, 500.0)
        assert (k.c_x, k.c_y) == (320.0, 240.0)

    def test_one_pixel(self):
        k = make_intrinsics(1, 1, 5.0)
        assert (k.c_x, k.c_y) == (0.5, 0.5)

    def test_round_trip_composition(self, rng):
        # pointmap built with centered intrinsics projects back onto its grid
        k = make_intrinsics(16, 12, 250.0)
        depth = rng.uniform(0.5, 2.0, size=(12, 16))
        pm = pointmap_from_depth(DepthMap(16, 12, depth, np.ones((12, 16), bool)), k)
        points = pm.points.reshape(-1, 3).T
        pixels = pixel_grid(16, 12).reshape(-1, 2).T
        assert _reproj_errors(points, pixels, k, np.eye(3), np.zeros(3)).max() <= 1e-9

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            make_intrinsics(0, 10, 100.0)


class TestP3P:
    @pytest.mark.parametrize("seed", range(30))
    def test_recovers_synthetic_pose(self, seed):
        rng = np.random.default_rng(seed)
        r = random_rotation(rng)
        t = rng.normal(size=3)
        cam = rng.uniform([-1, -1, 2.0], [1, 1, 6.0], size=(3, 3))
        world = (cam - t) @ r
        bearings = cam / np.linalg.norm(cam, axis=1, keepdims=True)
        sols = p3p_solve(world, bearings)
        assert sols
        best = min(stable_rot_err_deg(r, rr) + np.linalg.norm(t - tt)
                   for rr, tt in sols)
        assert best <= 1e-4

    def test_collinear_points_rejected(self, rng):
        world = np.array([[0.0, 0, 4], [0, 0.5, 4], [0, 1.0, 4]])
        cam = world
        bearings = cam / np.linalg.norm(cam, axis=1, keepdims=True)
        assert p3p_solve(world, bearings) == []


class TestPnPRansac:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(1)
        k = make_intrinsics(40, 30, 120.0)
        pose = small_pose(rng)
        pm = grid_pointmap_for_pose(k, 40, 30, pose, rng)
        res = pnp_ransac(pm, k)
        assert geodesic_deg(res.transform.rotation, pose.rotation) <= 1e-4
        t_err = np.linalg.norm(res.transform.translation - pose.translation)
        assert t_err <= 1e-6 * np.linalg.norm(pose.translation)
        assert res.inlier_count == pm.n_valid

    def test_identity_view(self, rng):
        k = make_intrinsics(40, 30, 150.0)
        pm = grid_pointmap_for_pose(k, 40, 30, RigidTransform(np.eye(3), np.zeros(3)), rng)
        res = pnp_ransac(pm, k)
        assert geodesic_deg(res.transform.rotation, np.eye(3)) <= 1e-4
        scene_scale = float(np.linalg.norm(pm.points[pm.mask], axis=1).mean())
        assert np.linalg.norm(res.transform.translation) <= 1e-6 * scene_scale

    @pytest.mark.parametrize("seed", range(5))
    def test_outlier_contamination(self, seed):
        rng = np.random.default_rng(seed)
        k = make_intrinsics(40, 30, 120.0)
        pose = small_pose(rng)
        pm = grid_pointmap_for_pose(k, 40, 30, pose, rng)
        clean = pnp_ransac(pm, k)

        pts = pm.points.copy().reshape(-1, 3)
        n = pts.shape[0]
        n_out = int(0.3 * n)
        out_idx = rng.choice(n, size=n_out, replace=False)
        # controlled contamination: junk is resampled until it reprojects
        # far from its pixel under the true pose, so exclusion is exact
        ii, jj = np.meshgrid(np.arange(40.0), np.arange(30.0))
        px = np.stack([ii, jj], axis=-1).reshape(-1, 2)[out_idx]
        junk = rng.uniform(-8.0, 8.0, size=(n_out, 3))
        for _ in range(60):
            cam = junk @ pose.rotation.T + pose.translation
            with np.errstate(divide="ignore", invalid="ignore"):
                pu = k.f * cam[:, 0] / cam[:, 2] + k.c_x
                pv = k.f * cam[:, 1] / cam[:, 2] + k.c_y
            far = (cam[:, 2] <= 0) | (np.hypot(pu - px[:, 0], pv - px[:, 1]) > 15.0)
            if np.all(far):
                break
            junk[~far] = rng.uniform(-8.0, 8.0, size=(int((~far).sum()), 3))
        pts[out_idx] = junk
        contaminated = Pointmap(pm.width, pm.height, pts.reshape(pm.points.shape),
                                pm.confidence, pm.mask)
        res = pnp_ransac(contaminated, k)
        assert geodesic_deg(res.transform.rotation, clean.transform.rotation) <= 0.1
        out_mask = np.zeros(n, dtype=bool)
        out_mask[out_idx] = True
        assert not np.any(inlier_mask(contaminated, k, res).reshape(-1) & out_mask)

    def test_determinism_bitwise(self, rng):
        k = make_intrinsics(32, 24, 100.0)
        pose = small_pose(rng)
        pm = grid_pointmap_for_pose(k, 32, 24, pose, rng, mask_p=0.8)
        pts = pm.points.copy().reshape(-1, 3)
        idx = rng.choice(pts.shape[0], size=100, replace=False)
        pts[idx] += rng.uniform(3.0, 6.0, size=(100, 3))
        pm = Pointmap(pm.width, pm.height, pts.reshape(pm.points.shape),
                      pm.confidence, pm.mask)
        a = pnp_ransac(pm, k, rng_seed=0)
        b = pnp_ransac(pm, k, rng_seed=0)
        assert a.transform.rotation.tobytes() == b.transform.rotation.tobytes()
        assert a.transform.translation.tobytes() == b.transform.translation.tobytes()
        assert np.array_equal(inlier_mask(pm, k, a), inlier_mask(pm, k, b))
        assert a.inlier_count == b.inlier_count
        assert a.mean_inlier_reproj_err == b.mean_inlier_reproj_err

    def test_inlier_consistency(self, rng):
        k = make_intrinsics(32, 24, 100.0)
        pose = small_pose(rng)
        pm = grid_pointmap_for_pose(k, 32, 24, pose, rng, mask_p=0.9)
        pts = pm.points.copy().reshape(-1, 3)
        idx = rng.choice(pts.shape[0], size=120, replace=False)
        pts[idx] += rng.uniform(2.0, 5.0, size=(120, 3))
        pm = Pointmap(pm.width, pm.height, pts.reshape(pm.points.shape),
                      pm.confidence, pm.mask)
        res = pnp_ransac(pm, k)

        # re-project every valid pixel under the returned pose
        r, t = res.transform.rotation, res.transform.translation
        flat_pts = pm.points.reshape(-1, 3)
        ii, jj = np.meshgrid(np.arange(32.0), np.arange(24.0))
        px = np.stack([ii, jj], axis=-1).reshape(-1, 2)
        cam = flat_pts @ r.T + t
        errs = np.full(len(flat_pts), np.inf)
        front = cam[:, 2] > 0
        proj_u = k.f * cam[front, 0] / cam[front, 2] + k.c_x
        proj_v = k.f * cam[front, 1] / cam[front, 2] + k.c_y
        errs[front] = np.hypot(proj_u - px[front, 0], proj_v - px[front, 1])

        inl = inlier_mask(pm, k, res).reshape(-1)
        valid = pm.mask.reshape(-1)
        thr = relative_pose._INLIER_THRESHOLD_PX
        assert np.all(errs[inl] < thr)
        assert np.all(errs[valid & ~inl] >= thr)
        assert not np.any(inl & ~valid)
        assert res.inlier_count == int(inl.sum())
        assert res.mean_inlier_reproj_err == pytest.approx(float(errs[inl].mean()))

    def test_insufficient_data(self):
        pm = Pointmap(4, 4, np.ones((4, 4, 3)), np.ones((4, 4)),
                      np.zeros((4, 4), bool))
        with pytest.raises(InsufficientDataError):
            pnp_ransac(pm, make_intrinsics(4, 4, 10.0))

    def test_no_consensus(self, rng):
        # Four junk points at pixels hundreds apart: every P3P root fits
        # three of them and puts the fourth far off its pixel or behind
        # the camera, so no pose has four inliers.
        w, h = 400, 300
        k = make_intrinsics(w, h, 300.0)
        cols, rows = np.array([10, 390, 30, 370]), np.array([10, 20, 280, 290])
        pts = np.zeros((h, w, 3))
        pts[rows, cols] = rng.uniform(-50, 50, size=(4, 3))
        mask = np.zeros((h, w), bool)
        mask[rows, cols] = True
        pm = Pointmap(w, h, pts, np.ones((h, w)), mask)
        # The input alone rules a consensus out: no root of any ordered
        # triple brings all four points under the inlier threshold.
        points = np.ascontiguousarray(pts[rows, cols].T)
        pixels = np.stack([cols, rows]).astype(float)
        rays = (k.inverse_matrix() @ np.vstack([pixels, np.ones(4)])).T
        bearings = rays / np.linalg.norm(rays, axis=1, keepdims=True)
        for tri in itertools.permutations(range(4), 3):
            for r, t in p3p_solve(points.T[list(tri)], bearings[list(tri)]):
                errs = _reproj_errors(points, pixels, k, r, t)
                assert np.count_nonzero(errs < relative_pose._INLIER_THRESHOLD_PX) < 4
        with pytest.raises(NoPoseFoundError, match="no consensus set of >= 4 inliers"):
            pnp_ransac(pm, k)


@pytest.mark.parametrize("size, mask_p", [((64, 48), 0.3), ((200, 150), 0.9)])
def test_valid_rows_give_the_grid_results_bit_for_bit(size, mask_p):
    # The same pixels as a grid or as its valid rows: the focal and the
    # PnP record agree in every bit, on a sparse map and on a dense one
    # whose iterative work runs on a strided subset.
    pm, k, _ = _noisy_grid_map(5, *size, 150.0)
    mask = pm.mask & (np.random.default_rng(1).uniform(size=pm.mask.shape) < mask_p)
    pm = Pointmap(pm.width, pm.height, pm.points, pm.confidence, mask)
    rows = PointmapRows(pm.width, pm.height, np.flatnonzero(mask), pm.points[mask],
                        pm.confidence[mask])
    if size == (200, 150):
        assert rows.n_valid > relative_pose._LO_POINTS
    assert_same_bits(estimate_focal(rows), estimate_focal(pm))
    got, want = pnp_ransac(rows, k, 4), pnp_ransac(pm, k, 4)
    for name in ("inlier_count", "n_valid", "focal", "mean_inlier_reproj_err"):
        assert_same_bits(getattr(got, name), getattr(want, name))
    assert_same_bits(got.transform.rotation, want.transform.rotation)
    assert_same_bits(got.transform.translation, want.transform.translation)


def test_pnp_with_exactly_min_sample_pixels():
    rng = np.random.default_rng(0)
    k = make_intrinsics(8, 6, 30.0)
    pose = small_pose(rng)
    pm = grid_pointmap_for_pose(k, 8, 6, pose, rng)
    mask = np.zeros((6, 8), dtype=bool)
    mask[0, 0] = mask[2, 5] = mask[4, 2] = mask[5, 7] = True
    pm4 = Pointmap(8, 6, pm.points, pm.confidence, mask)
    res = pnp_ransac(pm4, k)
    assert res.inlier_count == 4
    assert geodesic_deg(res.transform.rotation, pose.rotation) <= 1e-4


# ---------------------------------------------------------------------------
# Kernels against their row-vector reference forms


def _focal_rows(pm: Pointmap) -> tuple[np.ndarray, np.ndarray]:
    """(N, 2) rows b = pixel - center and d = (x/z, y/z) of the pixels
    the focal solve uses."""
    c_x, c_y = pm.width / 2.0, pm.height / 2.0
    pts = pm.points.reshape(-1, 3)
    z = pts[:, 2]
    on_axis = (pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)
    usable = pm.mask.reshape(-1) & (z > 0) & ~on_axis
    ii, jj = np.meshgrid(np.arange(pm.width, dtype=float), np.arange(pm.height, dtype=float))
    grid = np.stack([ii, jj], axis=-1).reshape(-1, 2)[usable]
    return grid - np.array([c_x, c_y]), pts[usable, :2] / z[usable, None]


def _focal_objective(pm: Pointmap, f: float) -> float:
    b, d = _focal_rows(pm)
    return float(np.linalg.norm(b - f * d, axis=1).sum())


def _reference_focal(pm: Pointmap, max_iters: int = 50) -> float:
    """Weiszfeld focal IRLS in its (N, 2) row form with norm(axis=1)."""
    b, d = _focal_rows(pm)
    f = float(np.median(np.linalg.norm(b, axis=1) / np.linalg.norm(d, axis=1)))
    dot_db = np.einsum("ij,ij->i", d, b)
    dot_dd = np.einsum("ij,ij->i", d, d)
    for _ in range(max_iters):
        residual = np.linalg.norm(b - f * d, axis=1)
        w = 1.0 / np.maximum(residual, 1e-12)
        f_new = float((w * dot_db).sum() / (w * dot_dd).sum())
        if abs(f_new - f) <= 1e-11 * max(1.0, abs(f)):
            return f_new
        f = f_new
    return f


def _noisy_focal_map(seed: int, outlier_fraction: float = 0.0,
                     center_share: float = 0.0, center_scale: float = 1.0,
                     width: int = 48, height: int = 36) -> Pointmap:
    """Pointmap at a random focal whose x and y carry 0.01 noise.
    `outlier_fraction` of the pixels get x and y scaled by U(0.2, 3); the
    `center_share` of pixels nearest the center get them scaled by
    `center_scale`, which moves the median-of-ratios start away from the
    optimum, where the objective is nearly linear."""
    rng = np.random.default_rng(seed)
    pm = TestEstimateFocal().make_pm(rng.uniform(60.0, 600.0), rng, width=width, height=height)
    pts = pm.points.copy()
    pts[..., :2] += rng.normal(scale=0.01, size=pts[..., :2].shape)
    if outlier_fraction:
        out = rng.uniform(size=pm.mask.shape) < outlier_fraction
        pts[out, :2] *= rng.uniform(0.2, 3.0, size=(int(out.sum()), 1))
    if center_share:
        ii, jj = np.meshgrid(np.arange(width) - width / 2, np.arange(height) - height / 2)
        r = np.hypot(ii, jj)
        pts[r < np.quantile(r, center_share), :2] *= center_scale
    return Pointmap(pm.width, pm.height, pts, pm.confidence, pm.mask)


def _msac(errs: np.ndarray) -> float:
    """MSAC score: the squared reprojection errors truncated at the squared
    inlier threshold, summed (Torr & Zisserman, CVIU 2000); lower is better."""
    return float(np.minimum(errs * errs, relative_pose._INLIER_THRESHOLD_PX ** 2).sum())


def _reference_normal_equations(points, pixels, k, r, t):
    """H = J^T J and g = J^T r from per-point (2, 3) and (3, 3) Jacobian
    tensors, residuals interleaved per point."""
    cam = points @ r.T + t
    z = cam[:, 2]
    res = np.stack([k.f * cam[:, 0] / z + k.c_x - pixels[:, 0],
                    k.f * cam[:, 1] / z + k.c_y - pixels[:, 1]], axis=1)
    inv_z = 1.0 / z
    jp = np.zeros((len(points), 2, 3))
    jp[:, 0, 0] = k.f * inv_z
    jp[:, 0, 2] = -k.f * cam[:, 0] * inv_z ** 2
    jp[:, 1, 1] = k.f * inv_z
    jp[:, 1, 2] = -k.f * cam[:, 1] * inv_z ** 2
    w_pts = points @ r.T
    jw = np.zeros((len(points), 3, 3))
    jw[:, 0, 1] = w_pts[:, 2]
    jw[:, 0, 2] = -w_pts[:, 1]
    jw[:, 1, 0] = -w_pts[:, 2]
    jw[:, 1, 2] = w_pts[:, 0]
    jw[:, 2, 0] = w_pts[:, 1]
    jw[:, 2, 1] = -w_pts[:, 0]
    j = np.concatenate([jp @ jw, jp], axis=2).reshape(-1, 6)
    return j.T @ j, j.T @ res.reshape(-1)


def _blocked_normal_equations(res, w, z, t, f):
    """H and g of a residual state over N points, (r_u | r_v), w and z,
    summed over consecutive blocks of `_LO_POINTS`."""
    n = len(z)
    h, g = np.zeros((6, 6)), np.zeros(6)
    for lo in range(0, n, relative_pose._LO_POINTS):
        hi = min(lo + relative_pose._LO_POINTS, n)
        h_b, g_b = _gn_normal_equations(np.concatenate((res[lo:hi], res[n + lo:n + hi])),
                                        w[:, lo:hi], z[lo:hi], t, f)
        h += h_b
        g += g_b
    return h, g


def _reference_refine(points, pixels, k, r0, t0, max_steps=relative_pose._REFINE_ITERS):
    """`refine_pose` in one pass: it refines compress copies ``points``
    (3, N) and ``pixels`` (2, N), keeps one residual state over all N
    between steps, sums the normal equations of that state in blocks
    (`_blocked_normal_equations`) and E in one product."""
    r, t = r0.copy(), t0.copy()
    res, w, z = _gn_residuals(points, pixels, k, r, t)
    if not np.all(z > 0.0):
        return r, t
    err = float(res @ res)
    for _ in range(max_steps):
        h, g = _blocked_normal_equations(res, w, z, t, k.f)
        try:
            delta = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        r_new = axis_angle_matrix(delta[:3], float(np.linalg.norm(delta[:3]))) @ r
        t_new = t + delta[3:]
        res_new, w_new, z_new = _gn_residuals(points, pixels, k, r_new, t_new)
        if not np.all(z_new > 0.0):
            break
        err_new = float(res_new @ res_new)
        if abs(err_new - err) <= relative_pose._REFINE_RTOL * max(err, 1.0):
            return r_new, t_new
        if not err_new < err:
            break
        r, t, err = r_new, t_new, err_new
        res, w, z = res_new, w_new, z_new
    return r, t


def _noisy_grid_map(seed: int, width: int, height: int, f: float):
    """A `grid_pointmap_for_pose` map under a `small_pose` with 0.01 point
    noise and 10% gross outliers (unit normal offsets); returns the
    pointmap, its intrinsics and the true pose."""
    rng = np.random.default_rng(seed)
    k = make_intrinsics(width, height, f)
    pose = small_pose(rng)
    pm = grid_pointmap_for_pose(k, width, height, pose, rng)
    pts = pm.points + rng.normal(scale=0.01, size=pm.points.shape)
    outliers = rng.uniform(size=(height, width)) < 0.1
    pts[outliers] += rng.normal(size=(int(outliers.sum()), 3))
    return Pointmap(width, height, pts, pm.confidence, pm.mask), k, pose


def _reference_pnp_lo(pm: Pointmap, k: CameraIntrinsics, rng_seed: int = 0):
    """PnP with local optimization at full resolution under the
    count-then-mean acceptance: from the RANSAC hypothesis, refine on the
    inliers and re-extract them, keeping a refinement with more inliers,
    or as many at a lower mean error; at most three rounds, stopping on a
    repeated inlier set. Returns R, t, the inlier count and whether a
    refinement was kept."""
    valid_idx = np.flatnonzero(pm.mask.reshape(-1))
    points = np.ascontiguousarray(pm.points.reshape(-1, 3)[valid_idx].T)
    pixels = np.stack([valid_idx % pm.width, valid_idx // pm.width]).astype(float)
    thr = relative_pose._INLIER_THRESHOLD_PX
    (r, t), errs = relative_pose._ransac_hypothesis(points, pixels, k, rng_seed)
    inl = errs < thr
    count, mean_err = int(inl.sum()), float(errs[inl].mean())
    refined = False
    for _ in range(3):
        r_ref, t_ref = refine_pose(points[:, inl], pixels[:, inl], k, r, t, np.arange(count))
        errs = _reproj_errors(points, pixels, k, r_ref, t_ref)
        inl_ref = errs < thr
        count_ref = int(inl_ref.sum())
        if count_ref == 0:
            break
        mean_ref = float(errs[inl_ref].mean())
        if not (count_ref > count or (count_ref == count and mean_ref < mean_err)):
            break
        repeated = np.array_equal(inl_ref, inl)
        r, t, inl, count, mean_err, refined = r_ref, t_ref, inl_ref, count_ref, mean_ref, True
        if repeated:
            break
    return r, t, count, refined


def _seeded_correspondences(seed, n=500):
    rng = np.random.default_rng(seed)
    k = make_intrinsics(64, 48, 80.0)
    pose = small_pose(rng)
    pm = grid_pointmap_for_pose(k, 64, 48, pose, rng)
    idx = rng.choice(64 * 48, size=n, replace=False)
    points = pm.points.reshape(-1, 3)[idx]
    pixels = pixel_grid(64, 48).reshape(-1, 2)[idx] + rng.normal(scale=0.5, size=(n, 2))
    return k, pose, np.ascontiguousarray(points.T), np.ascontiguousarray(pixels.T), rng


def _perturbed_correspondences(n):
    """``n`` noisy correspondences as coordinate rows (3, n) and (2, n),
    with intrinsics and a pose near the true one: (k, r, t, pts, pix)."""
    rng = np.random.default_rng(n)
    k = make_intrinsics(512, 384, 400.0)
    pose = small_pose(rng)
    cam = np.stack([rng.uniform(-1.0, 1.0, n), rng.uniform(-0.75, 0.75, n),
                    rng.uniform(2.0, 5.0, n)])
    pix = np.stack([k.f * cam[0] / cam[2] + k.c_x, k.f * cam[1] / cam[2] + k.c_y])
    pix += rng.normal(scale=0.5, size=pix.shape)
    pts = np.ascontiguousarray(pose.rotation.T @ (cam - pose.translation[:, None]))
    r = axis_angle_matrix(np.array([0.6, 0.0, 0.8]), 0.05) @ pose.rotation
    return k, r, pose.translation + 0.05, pts, pix


def _reference_kabsch(world, cam):
    """Rigid fit cam = R @ world + t for matched point sets (N, 3)."""
    w_mean = world.mean(axis=0)
    c_mean = cam.mean(axis=0)
    m = (cam - c_mean).T @ (world - w_mean)
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    if d < 0:
        u = u.copy()
        u[:, -1] *= -1.0
    r = u @ vt
    return r, c_mean - r @ w_mean


def _reference_p3p(world_pts, bearings):
    """Scalar three-point resection: the quartic in v from numpy.polynomial
    elimination, polyroots, and one Kabsch fit per accepted root."""
    p1, p2, p3 = world_pts
    a2 = float(np.dot(p2 - p3, p2 - p3))
    b2 = float(np.dot(p1 - p3, p1 - p3))
    c2 = float(np.dot(p1 - p2, p1 - p2))
    if min(a2, b2, c2) <= 0.0:
        return []
    if np.linalg.norm(np.cross(p2 - p1, p3 - p1)) ** 2 < 1e-18 * max(a2, b2, c2) ** 2:
        return []

    f1, f2, f3 = bearings
    cos_a = float(np.dot(f2, f3))
    cos_b = float(np.dot(f1, f3))
    cos_g = float(np.dot(f1, f2))

    big_a = (a2 - c2) / b2
    q = np.array([1.0, -2.0 * cos_b, 1.0])
    u_num = np.array([big_a + 1.0, -2.0 * big_a * cos_b, big_a - 1.0])
    den = np.array([2.0 * cos_g, -2.0 * cos_a])

    den2 = npoly.polymul(den, den)
    quartic = npoly.polyadd(den2, npoly.polymul(u_num, u_num))
    quartic = npoly.polysub(quartic, 2.0 * cos_g * npoly.polymul(u_num, den))
    quartic = npoly.polysub(quartic, (c2 / b2) * npoly.polymul(q, den2))
    if not np.all(np.isfinite(quartic)) or np.max(np.abs(quartic)) == 0.0:
        return []
    roots = npoly.polyroots(quartic)

    solutions = []
    for v in roots:
        if abs(v.imag) > 1e-8 * max(1.0, abs(v.real)):
            continue
        v = float(v.real)
        if v <= 0:
            continue
        den_v = float(npoly.polyval(v, den))
        if abs(den_v) < 1e-12:
            continue
        u = float(npoly.polyval(v, u_num)) / den_v
        if u <= 0:
            continue
        q_v = 1.0 + v * v - 2.0 * v * cos_b
        if q_v <= 0:
            continue
        s1 = math.sqrt(b2 / q_v)
        cam_pts = np.array([s1 * f1, u * s1 * f2, v * s1 * f3])
        solutions.append(_reference_kabsch(world_pts, cam_pts))
    return solutions


def _resection_problem(rot_vec, t, cam):
    """World points and unit bearings of camera-frame points ``cam`` under
    the pose (axis-angle ``rot_vec``, ``t``)."""
    angle = float(np.linalg.norm(rot_vec))
    r = axis_angle_matrix(rot_vec / angle, angle) if angle > 0 else np.eye(3)
    world = (cam - t) @ r
    return world, cam / np.linalg.norm(cam, axis=1, keepdims=True)


class TestLocalOptimization:
    @pytest.mark.parametrize("seed, width, height, f",
                             [(seed, 64, 48, 60.0) for seed in range(1, 5)]
                             + [(seed, 200, 150, 180.0) for seed in (1, 3, 6, 7)])
    def test_refined_pose_kept_when_it_loses_stray_inliers(self, seed, width, height, f):
        # The refined pose loses a few outliers that fell inside the
        # threshold by chance, so the count-then-mean acceptance returns
        # the P3P hypothesis, 0.5-3.3 degrees off. pnp_ransac returns the
        # refinement whatever its inlier count. The 200x150 maps take the
        # strided subset and the full-resolution polish.
        pm, k, pose = _noisy_grid_map(seed, width, height, f)
        assert not _reference_pnp_lo(pm, k)[3]
        res = pnp_ransac(pm, k)
        assert stable_rot_err_deg(res.transform.rotation, pose.rotation) <= 0.1

    def test_subset_lo_within_contract_of_full_resolution(self):
        # Where the full-resolution LO keeps a refinement, the subset LO
        # and its polish reach the same pose within the contract.
        checked = 0
        for seed in range(8):
            pm, k, _ = _noisy_grid_map(seed, 200, 150, 180.0)
            assert pm.n_valid > relative_pose._LO_POINTS
            r_ref, t_ref, count_ref, refined = _reference_pnp_lo(pm, k)
            if not refined:
                continue
            checked += 1
            res = pnp_ransac(pm, k)
            assert np.abs(res.transform.rotation - r_ref).max() <= 1e-4
            assert (np.linalg.norm(res.transform.translation - t_ref)
                    <= 1e-3 * np.linalg.norm(t_ref))
            assert abs(res.inlier_count - count_ref) <= 2
        assert checked >= 4

    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_full_resolution_pass_per_pose(self, seed, monkeypatch):
        # Above the subset threshold RANSAC scores on the subset, and the
        # full set is reprojected twice, for the LO pose's inliers and the
        # polished pose's errors, and refined in one Gauss-Newton step,
        # whose normal equations are summed over blocks of its inliers.
        # No residual state spans more than `_LO_POINTS` points.
        pm, k, _ = _noisy_grid_map(seed, 200, 150, 180.0)
        n_valid = pm.n_valid
        stride = -(-n_valid // relative_pose._LO_POINTS)
        assert stride > 1
        n_sub = len(range(0, n_valid, stride))
        reproj_sizes, residual_sizes, builds = [], [], []
        reproj = relative_pose._reproj_errors
        residuals = relative_pose._gn_residuals
        normal = relative_pose._gn_normal_equations
        refine = relative_pose.refine_pose

        def recording_refine(*args):
            builds.append((len(args[5]), []))
            return refine(*args)

        monkeypatch.setattr(relative_pose, "refine_pose", recording_refine)
        monkeypatch.setattr(relative_pose, "_reproj_errors",
                            lambda p, *a: reproj_sizes.append(p.shape[1]) or reproj(p, *a))
        monkeypatch.setattr(relative_pose, "_gn_residuals",
                            lambda p, *a: residual_sizes.append(p.shape[1]) or residuals(p, *a))
        monkeypatch.setattr(relative_pose, "_gn_normal_equations",
                            lambda r, w, z, t, f:
                            builds[-1][1].append(len(z)) or normal(r, w, z, t, f))
        pnp_ransac(pm, k)
        assert all(n in (n_sub, n_valid) for n in reproj_sizes)
        assert reproj_sizes.count(n_valid) == 2
        assert max(residual_sizes) <= relative_pose._LO_POINTS
        (n_lo, _), (n_polish, polish_blocks) = builds
        assert n_lo <= n_sub < relative_pose._LO_POINTS < n_polish
        assert polish_blocks == [relative_pose._LO_POINTS, n_polish - relative_pose._LO_POINTS]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("width, height, f, stride",
                             [(64, 48, 60.0, 1), (200, 150, 180.0, 2)])
    def test_returned_pose_scores_no_worse_than_hypothesis(self, seed, width, height, f,
                                                           stride):
        # The returned pose's full-resolution MSAC is at most that of the
        # RANSAC hypothesis chosen on the strided subset, with no MSAC
        # test in the solver: at stride 1 the LO pose is returned as it
        # is, above it the polished one.
        pm, k, _ = _noisy_grid_map(seed, width, height, f)
        valid_idx = np.flatnonzero(pm.mask.reshape(-1))
        points = np.ascontiguousarray(pm.points.reshape(-1, 3)[valid_idx].T)
        pixels = np.stack([valid_idx % pm.width, valid_idx // pm.width]).astype(float)
        assert -(-pm.n_valid // relative_pose._LO_POINTS) == stride
        hypothesis, _ = relative_pose._ransac_hypothesis(
            np.ascontiguousarray(points[:, ::stride]),
            np.ascontiguousarray(pixels[:, ::stride]), k, 0)
        res = pnp_ransac(pm, k)
        score = _msac(_reproj_errors(
            points, pixels, k, res.transform.rotation, res.transform.translation))
        assert score <= _msac(_reproj_errors(points, pixels, k, *hypothesis))

    def test_polished_pose_within_contract_of_converged_refinement(self):
        # One polish step from the LO pose lands where refinement to
        # convergence on the returned inlier set does.
        grid = pixel_grid(200, 150)
        for seed in range(8):
            pm, k, _ = _noisy_grid_map(seed, 200, 150, 180.0)
            res = pnp_ransac(pm, k)
            r, t = res.transform.rotation, res.transform.translation
            # Coordinate rows of the inliers, in pixel order.
            inl = inlier_mask(pm, k, res)
            points, pixels = pm.points[inl].T, grid[inl].T
            r_conv, t_conv = refine_pose(points, pixels, k, r, t, np.arange(res.inlier_count))
            assert np.abs(r - r_conv).max() <= 1e-6
            assert np.linalg.norm(t - t_conv) <= 1e-6 * np.linalg.norm(t_conv)

    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from([(64, 48, 60.0), (200, 150, 180.0)]),
           scale=st.floats(1e-14, 1e12))
    @example(size=(64, 48, 60.0), scale=1e-14)
    @example(size=(64, 48, 60.0), scale=1e12)
    @example(size=(200, 150, 180.0), scale=1e-14)
    @example(size=(200, 150, 180.0), scale=1e12)
    def test_pnp_is_scale_free(self, size, scale):
        # Every acceptance test is in pixels, so scaling the points by s
        # scales the translation and moves nothing else, on both sides of
        # the subset threshold.
        pm, k, res = _unscaled_pnp(size)
        scaled_pm = Pointmap(pm.width, pm.height, pm.points * scale, pm.confidence, pm.mask)
        scaled = pnp_ransac(scaled_pm, k)
        assert np.abs(scaled.transform.rotation - res.transform.rotation).max() <= 1e-9
        t = res.transform.translation
        assert np.linalg.norm(scaled.transform.translation / scale - t) <= 1e-9 * np.linalg.norm(t)
        np.testing.assert_array_equal(inlier_mask(scaled_pm, k, scaled),
                                      inlier_mask(pm, k, res))


def test_dense_pair_working_memory(tmp_path):
    # The traced peak of one full-coverage 512x384 pair, from reading its
    # two maps to the returned pose, per pixel of the pair's map.
    width, height = 512, 384
    src, k, _ = _noisy_grid_map(0, width, height, 400.0)
    rng = np.random.default_rng(1)
    depth = DepthMap(width, height, rng.uniform(2.0, 5.0, size=(height, width)),
                     np.ones((height, width), dtype=bool))
    ref = pointmap_from_depth(depth, k)
    ref = Pointmap(width, height, ref.points + rng.normal(scale=0.01, size=ref.points.shape),
                   ref.confidence, ref.mask)
    io_formats.write_pointmap(tmp_path / "ref.pmap", ref)
    io_formats.write_pointmap(tmp_path / "src.pmap", src)
    del ref, src
    load = functools.partial(pipeline._read_pair, tmp_path, "ref.pmap", "src.pmap")
    tracemalloc.start()
    try:
        res = pipeline._solve_pair(load, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.n_valid == width * height and res.inlier_count > 0.8 * res.n_valid
    assert peak <= 150 * width * height


@functools.cache
def _unscaled_pnp(size):
    pm, k, _ = _noisy_grid_map(0, *size)
    return pm, k, pnp_ransac(pm, k)


# pnp_ransac on views pair (1, 4) of SceneSpec(n_views=6,
# point_noise_sigma=0.005, outlier_fraction=0.1, rng_seed=3), as the
# one-sample-at-a-time P3P loop computed it.
PINNED_INLIERS = 473
PINNED_R = np.array([
    [-0.9999993467354062, 0.0009844919236873515, 0.0005807791431267967],
    [0.00048352959731389703, 0.8247492402576918, -0.56549841458088],
    [-0.0010357257790642167, -0.5654977643368826, -0.8247491775091976]])
PINNED_T = np.array([-0.0007893562159861214, 1.4143801295709009, 4.5519731725043036])

_COORD = st.floats(-1.0, 1.0, allow_nan=False)
_DEPTH = st.floats(2.0, 6.0, allow_nan=False)
_CAM_POINT = st.tuples(_COORD, _COORD, _DEPTH)


class TestKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_equations_match_tensor_reference(self, seed):
        k, pose, points, pixels, rng = _seeded_correspondences(seed)
        r = axis_angle_matrix(rng.normal(size=3) * 0.05, 0.05) @ pose.rotation
        t = pose.translation + rng.normal(scale=0.05, size=3)
        res, w, z = _gn_residuals(points, pixels, k, r, t)
        h, g = _gn_normal_equations(res, w, z, t, k.f)
        h_ref, g_ref = _reference_normal_equations(points.T, pixels.T, k, r, t)
        assert np.abs(h - h_ref).max() <= 1e-9 * np.abs(h_ref).max()
        assert np.abs(g - g_ref).max() <= 1e-9 * np.abs(g_ref).max()

    def test_blocked_normal_equations_match_tensor_reference(self):
        # Two full blocks and a last block of one point.
        n = 2 * relative_pose._LO_POINTS + 1
        k, r, t, pts, pix = _perturbed_correspondences(n)
        res, w, z = _gn_residuals(pts, pix, k, r, t)
        h, g = _blocked_normal_equations(res, w, z, t, k.f)
        h_ref, g_ref = _reference_normal_equations(pts.T, pix.T, k, r, t)
        assert np.abs(h - h_ref).max() <= 1e-12 * np.abs(h_ref).max()
        assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()

    @pytest.mark.parametrize("n, max_steps, extra", [
        (500, relative_pose._REFINE_ITERS, 3000),
        (relative_pose._LO_POINTS, relative_pose._REFINE_ITERS, 3000),
        (2 * relative_pose._LO_POINTS + 1, relative_pose._REFINE_ITERS, 3000),
        (2 * relative_pose._LO_POINTS + 1, relative_pose._POLISH_STEPS, 3000),
        (2 * relative_pose._LO_POINTS + 1, relative_pose._REFINE_ITERS, 0)])
    def test_refine_with_index_is_the_one_pass_reference(self, n, max_steps, extra,
                                                         monkeypatch):
        # ``n`` correspondences selected by index from ``extra`` more (all
        # of them when there are none): the same bits as refining their
        # compress copies in one pass, and no residual state spans more
        # than one block of `_LO_POINTS`.
        k, r, t, pts, pix = _perturbed_correspondences(n + extra)
        index = np.sort(np.random.default_rng(n).choice(n + extra, size=n, replace=False))
        keep = np.zeros(n + extra, dtype=bool)
        keep[index] = True
        r_ref, t_ref = _reference_refine(pts.compress(keep, axis=1),
                                         pix.compress(keep, axis=1), k, r, t, max_steps)
        assert np.abs(r_ref - r).max() > 1e-3
        sizes = []
        residuals = relative_pose._gn_residuals
        monkeypatch.setattr(relative_pose, "_gn_residuals",
                            lambda p, *a: sizes.append(p.shape[1]) or residuals(p, *a))
        r_got, t_got = refine_pose(pts, pix, k, r, t, index, max_steps)
        assert_same_bits(r_got, r_ref)
        assert_same_bits(t_got, t_ref)
        # One residual pass per pose tried, over each of its blocks.
        blocks = -(-n // relative_pose._LO_POINTS)
        assert max(sizes) == min(n, relative_pose._LO_POINTS)
        assert len(sizes) % blocks == 0 and len(sizes) <= blocks * (max_steps + 1)

    def test_refine_recovers_noiseless_pose(self):
        rng = np.random.default_rng(5)
        k = make_intrinsics(48, 36, 60.0)
        pose = small_pose(rng)
        pm = grid_pointmap_for_pose(k, 48, 36, pose, rng)
        points = pm.points.reshape(-1, 3).T
        pixels = pixel_grid(48, 36).reshape(-1, 2).T
        w = rng.normal(size=3)
        r0 = axis_angle_matrix(w / np.linalg.norm(w), 0.05) @ pose.rotation
        t0 = pose.translation + rng.normal(scale=0.05, size=3)
        r, t = refine_pose(points, pixels, k, r0, t0, np.arange(points.shape[1]))
        assert stable_rot_err_deg(r, pose.rotation) <= 1e-8
        assert np.abs(t - pose.translation).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_refine_from_converged_output_evaluates_residual_at_most_twice(
            self, seed, monkeypatch):
        k, pose, points, pixels, rng = _seeded_correspondences(seed)
        r0 = axis_angle_matrix(np.array([0.6, 0.0, 0.8]), 0.05) @ pose.rotation
        index = np.arange(points.shape[1])
        converged = refine_pose(points, pixels, k, r0, pose.translation + 0.05, index)
        calls = []
        residuals = relative_pose._gn_residuals
        monkeypatch.setattr(relative_pose, "_gn_residuals",
                            lambda *a: calls.append(1) or residuals(*a))
        r, t = refine_pose(points, pixels, k, *converged, index)
        # The start's residual and one step at the rounding floor.
        assert len(calls) <= 2
        assert np.abs(r - converged[0]).max() <= 1e-9
        assert np.linalg.norm(t - converged[1]) <= 1e-9 * np.linalg.norm(converged[1])

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("width, height, f, refinements",
                             [(64, 48, 60.0, 1), (200, 150, 180.0, 2)])
    def test_local_optimization_is_one_refinement(self, seed, width, height, f,
                                                  refinements, monkeypatch):
        # One refinement of the RANSAC hypothesis on its subset inliers;
        # above the subset threshold, one full-resolution polish follows.
        pm, k, _ = _noisy_grid_map(seed, width, height, f)
        calls = []
        refine = relative_pose.refine_pose

        def recording(*args):
            calls.append(refine(*args))
            return calls[-1]

        monkeypatch.setattr(relative_pose, "refine_pose", recording)
        res = pnp_ransac(pm, k)
        assert len(calls) == refinements
        # The result is the last refinement (its rotation re-projected to SO(3)).
        r, t = calls[-1]
        assert_same_bits(res.transform.rotation, so3_project(r))
        assert_same_bits(res.transform.translation, t)

    @pytest.mark.parametrize("depths", [{0: 0.0, 1: -1.0}, {0: 0.0}, {1: -1.0}])
    def test_refine_returns_a_start_behind_the_camera_unchanged(self, depths):
        # The identity start is far from the true pose, so refinement
        # would move it, but points lie on its camera plane or behind it.
        k, _, points, pixels, _ = _seeded_correspondences(0)
        r0, t0, index = np.eye(3), np.zeros(3), np.arange(points.shape[1])
        assert np.abs(refine_pose(points, pixels, k, r0, t0, index)[1]).max() > 1e-3
        points = points.copy()
        for i, z in depths.items():
            points[2, i] = z
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r, t = refine_pose(points, pixels, k, r0, t0, index)
        assert_same_bits(r, r0)
        assert_same_bits(t, t0)

    def test_refine_of_an_empty_selection_returns_the_start(self):
        # No correspondence gives a singular H, as it did before the
        # selection became an index.
        k, _, points, pixels, _ = _seeded_correspondences(0)
        r0, t0 = np.eye(3), np.zeros(3)
        r, t = refine_pose(points, pixels, k, r0, t0, np.arange(0))
        assert_same_bits(r, r0)
        assert_same_bits(t, t0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 4), scale=st.floats(1e-14, 1e12))
    @example(seed=0, scale=1e-14)
    @example(seed=0, scale=1e12)
    def test_refine_is_scale_free(self, seed, scale):
        # Scaling the world points and the start translation by s leaves
        # every pixel-space quantity unchanged, so the refined pose must
        # be the unscaled one with its translation scaled by s.
        k, pose, points, pixels, _ = _seeded_correspondences(seed)
        r0 = axis_angle_matrix(np.array([0.6, 0.0, 0.8]), 0.05) @ pose.rotation
        t0, index = pose.translation + 0.05, np.arange(points.shape[1])
        r, t = refine_pose(points, pixels, k, r0, t0, index)
        r_s, t_s = refine_pose(points * scale, pixels, k, r0, t0 * scale, index)
        assert np.abs(r_s - r).max() <= 1e-9
        assert np.linalg.norm(t_s / scale - t) <= 1e-9 * np.linalg.norm(t)

    def test_reproj_errors_formula_and_behind_camera(self):
        k = make_intrinsics(40, 30, 50.0)
        r = axis_angle_matrix(np.array([0.6, 0.0, 0.8]), 0.1)
        t = np.array([0.1, -0.2, 0.3])
        rng = np.random.default_rng(3)
        points = rng.uniform(-1.0, 1.0, size=(3, 12))
        points[2] = rng.uniform(1.0, 3.0, size=12)
        points[:, 0] = r.T @ np.array([0.0, 0.0, -1.0]) - r.T @ t    # behind the camera
        pixels = rng.uniform(0.0, 40.0, size=(2, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errs = _reproj_errors(points, pixels, k, r, t)
        assert np.isposinf(errs[0])
        cam = r @ points[:, 1:] + t[:, None]
        u = k.f * cam[0] / cam[2] + k.c_x
        v = k.f * cam[1] / cam[2] + k.c_y
        expected = np.sqrt((u - pixels[0, 1:]) ** 2 + (v - pixels[1, 1:]) ** 2)
        np.testing.assert_allclose(errs[1:], expected, rtol=1e-12)

    def test_reproj_errors_zero_depth(self):
        # An exact quarter turn keeps the camera coordinates exact: the
        # first point lands on the camera center (0/0), the second on the
        # z = 0 plane (x/0).
        k = make_intrinsics(40, 30, 50.0)
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = np.array([0.1, -0.2, 0.5])
        points = np.array([[0.2, 0.7, 0.3], [0.1, 0.4, 0.2], [-0.5, -0.5, 1.5]])
        pixels = np.full((2, 3), 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errs = _reproj_errors(points, pixels, k, r, t)
        assert np.all(np.isposinf(errs[:2]))
        assert np.isfinite(errs[2])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_focal_within_contract_of_row_form(self, seed, monkeypatch):
        # Newton and the Weiszfeld reference both stop at a 1e-11 relative
        # step, so they agree far inside 1e-9 and on the objective.
        rng = np.random.default_rng(seed)
        pm = TestEstimateFocal().make_pm(rng.uniform(60.0, 600.0), rng, width=48,
                                         height=36, depth_noise=0.05)
        mask = pm.mask & (rng.uniform(size=pm.mask.shape) < 0.8)
        maps = [Pointmap(pm.width, pm.height, pm.points, pm.confidence, mask),
                _noisy_focal_map(seed), _noisy_focal_map(seed, outlier_fraction=0.3)]
        for pm in maps:
            f, f_ref = estimate_focal(pm), _reference_focal(pm)
            assert abs(f - f_ref) <= 1e-9 * f_ref
            assert _focal_objective(pm, f) <= _focal_objective(pm, f_ref) * (1 + 1e-14)
        monkeypatch.setattr(relative_pose, "_FOCAL_ITERS", 1)
        for pm in maps[1:]:
            with pytest.warns(ConvergenceWarning, match="^focal IRLS hit its iteration"
                                                        " budget; returning best iterate$"):
                estimate_focal(pm)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dense_focal_is_the_strided_subset_focal(self, seed):
        # Above `_LO_POINTS` usable pixels the focal is the row-form
        # solve on every s-th of them, and within 2e-3 of the solve on
        # all of them. Every valid pixel of these maps is usable.
        pm = _noisy_focal_map(seed, outlier_fraction=0.3, width=200, height=150)
        usable = np.flatnonzero(pm.mask.reshape(-1))
        stride = -(-len(usable) // relative_pose._LO_POINTS)
        assert stride > 1
        mask = np.zeros(pm.mask.size, dtype=bool)
        mask[usable[::stride]] = True
        strided = Pointmap(pm.width, pm.height, pm.points, pm.confidence,
                           mask.reshape(pm.mask.shape))
        f = estimate_focal(pm)
        f_sub = _reference_focal(strided)
        assert abs(f - f_sub) <= 1e-9 * f_sub
        f_full = _reference_focal(pm)
        assert abs(f - f_full) <= 2e-3 * f_full

    @pytest.mark.parametrize("seed, share, scale", [(0, 0.6, 0.5), (2, 0.6, 0.5),
                                                    (0, 0.7, 0.3)])
    def test_focal_fallback_from_a_far_start(self, seed, share, scale):
        # The median start lies where the objective is nearly linear, so
        # Newton overshoots: all three maps take Weiszfeld steps where a
        # Newton step leaves the bracket, the last two also where it would
        # cross more than half of it. Without that second rule, Newton and
        # Weiszfeld alternate on the last map until the budget ends, far
        # from the minimum.
        pm = _noisy_focal_map(seed, center_share=share, center_scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            f = estimate_focal(pm)
        f_ref = _reference_focal(pm)
        assert abs(f - f_ref) <= 1e-9 * f_ref
        assert _focal_objective(pm, f) <= _focal_objective(pm, f_ref) * (1 + 1e-14)

    @settings(max_examples=200, deadline=None)
    @given(rot_vec=st.tuples(_COORD, _COORD, _COORD), t=st.tuples(_COORD, _COORD, _COORD),
           cam=st.tuples(_CAM_POINT, _CAM_POINT, _CAM_POINT))
    def test_p3p_batch_matches_scalar_reference(self, rot_vec, t, cam):
        cam = np.array(cam)
        # Well-conditioned triangles: no short side, no sliver.
        sides = np.linalg.norm(cam - np.roll(cam, 1, axis=0), axis=1)
        assume(sides.min() > 0.2)
        assume(np.linalg.norm(np.cross(cam[1] - cam[0], cam[2] - cam[0])) > 0.05)
        world, bearings = _resection_problem(np.array(rot_vec), np.array(t), cam)
        expected = _reference_p3p(world, bearings)
        got = p3p_solve(world, bearings)
        assert len(got) == len(expected)
        for (r, tt), (r_ref, t_ref) in zip(got, expected):
            assert np.abs(r - r_ref).max() <= 1e-9
            assert np.abs(tt - t_ref).max() <= 1e-9 * max(1.0, np.abs(t_ref).max())

    def test_p3p_batch_of_many_equals_batches_of_one(self):
        rng = np.random.default_rng(4)
        problems = [_resection_problem(rng.normal(size=3), rng.normal(size=3),
                                       rng.uniform([-1, -1, 2.0], [1, 1, 6.0], size=(3, 3)))
                    for _ in range(16)]
        rot, trans, cand = _p3p_batch(np.stack([w for w, _ in problems]),
                                      np.stack([b for _, b in problems]))
        for k, (world, bearings) in enumerate(problems):
            expected = _reference_p3p(world, bearings)
            assert cand[k].sum() == len(expected)
            for r, (r_ref, t_ref) in zip(np.flatnonzero(cand[k]), expected):
                assert_same_bits(rot[k, r], r_ref)
                assert_same_bits(trans[k, r], t_ref)

    def test_p3p_rejects_degenerate_samples(self):
        rng = np.random.default_rng(2)
        world, bearings = _resection_problem(rng.normal(size=3), rng.normal(size=3),
                                             rng.uniform([-1, -1, 2.0], [1, 1, 6.0],
                                                         size=(3, 3)))
        coincident = world.copy()
        coincident[2] = coincident[0]
        collinear = world.copy()
        collinear[2] = 2.0 * world[1] - world[0]
        for bad in (coincident, collinear):
            assert _reference_p3p(bad, bearings) == []
            assert p3p_solve(bad, bearings) == []
        # A zero bearing never reached the scalar solver (pnp_ransac
        # skipped the sample first); the batched kernel rejects it itself.
        for k in range(3):
            zero = bearings.copy()
            zero[k] = 0.0
            assert p3p_solve(world, zero) == []
        # One degenerate sample leaves the others in its batch untouched.
        rot, trans, cand = _p3p_batch(np.stack([world, coincident, world]),
                                      np.stack([bearings, bearings, bearings]))
        assert not cand[1].any()
        assert np.array_equal(cand[0], cand[2]) and cand[0].any()
        assert_same_bits(rot[0][cand[0]], rot[2][cand[2]])
        assert np.all(np.isfinite(rot)) and np.all(np.isfinite(trans))

    def test_p3p_batch_non_candidate_slots_are_identity(self):
        # Slots without a root, of valid and degenerate samples alike,
        # hold exactly R = I and t = 0; a batch without any root is one.
        rng = np.random.default_rng(4)
        problems = [_resection_problem(rng.normal(size=3), rng.normal(size=3),
                                       rng.uniform([-1, -1, 2.0], [1, 1, 6.0], size=(3, 3)))
                    for _ in range(16)]
        world = np.stack([w for w, _ in problems])
        bearings = np.stack([b for _, b in problems])
        world[3, 2] = world[3, 0]
        bearings[5, 1] = 0.0
        rot, trans, cand = _p3p_batch(world, bearings)
        assert not cand[3].any() and not cand[5].any() and (~cand).sum() > 16
        assert np.array_equal(rot[~cand], np.broadcast_to(np.eye(3), rot[~cand].shape))
        assert np.array_equal(trans[~cand], np.zeros_like(trans[~cand]))
        rot, trans, cand = _p3p_batch(world[3:4], bearings[3:4])
        assert not cand.any()
        assert np.array_equal(rot, np.broadcast_to(np.eye(3), (1, 4, 3, 3)))
        assert np.array_equal(trans, np.zeros((1, 4, 3)))

    def test_pnp_ransac_pinned_on_views_pair(self):
        # Inlier count and pose of one noisy views pair, as the scalar
        # P3P loop computed them; the batched hypotheses must agree.
        from pmsfm.synth import SceneSpec, generate, make_pair_pointmaps
        bundle = generate(SceneSpec(n_views=6, point_noise_sigma=0.005,
                                    outlier_fraction=0.1, rng_seed=3))
        pair = make_pair_pointmaps(bundle, 1, 4)
        k = make_intrinsics(pair.view2.width, pair.view2.height, estimate_focal(pair.view1))
        res = pnp_ransac(pair.view2, k, rng_seed=0)
        assert res.inlier_count == PINNED_INLIERS
        np.testing.assert_allclose(res.transform.rotation, PINNED_R, rtol=0, atol=1e-8)
        np.testing.assert_allclose(res.transform.translation, PINNED_T, rtol=0,
                                   atol=1e-8 * np.linalg.norm(PINNED_T))
