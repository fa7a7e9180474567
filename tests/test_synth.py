import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from pmsfm.errors import ValidationError
from pmsfm.geometry import change_frame, compose, geodesic_deg, inverse, pointmap_from_depth
from pmsfm.relative_pose import estimate_focal, make_intrinsics, pnp_ransac
from pmsfm.synth import SceneSpec, _sample_points, generate, make_pair_pointmaps


def bundle_bytes(bundle):
    chunks = []
    for v in bundle.views:
        chunks += [v.depth.depth.tobytes(), v.depth.mask.tobytes(),
                   v.pose.rotation.tobytes(), v.pose.translation.tobytes()]
    return b"".join(chunks)


def shown_points(spec: SceneSpec, view) -> np.ndarray:
    """(H, W) index into the spec's sampled points of the point each pixel
    of a noise-free `view` shows, -1 where masked out: the point that rounds
    onto the pixel under the stored pose and intrinsics at the pixel's depth.
    Fails unless every valid pixel shows exactly one such point."""
    cam = view.pose.apply(_sample_points(spec))
    k, depth = view.intrinsics, view.depth
    with np.errstate(divide="ignore", invalid="ignore"):
        i = np.rint(k.f * cam[:, 0] / cam[:, 2] + k.c_x)
        j = np.rint(k.f * cam[:, 1] / cam[:, 2] + k.c_y)
    idx = np.flatnonzero((cam[:, 2] > 0) & (i >= 0) & (i < depth.width)
                         & (j >= 0) & (j < depth.height))
    i, j = i[idx].astype(int), j[idx].astype(int)
    hit = depth.mask[j, i] & (np.abs(depth.depth[j, i] - cam[idx, 2]) <= 1e-9)
    ids = np.full((depth.height, depth.width), -1)
    ids[j[hit], i[hit]] = idx[hit]
    assert np.count_nonzero(hit) == depth.mask.sum()
    assert np.array_equal(ids >= 0, depth.mask)
    return ids


class TestGenerate:
    def test_two_view_orbit_consistency(self):
        # 2 views, orbit 180 degrees apart: each valid pixel of each view
        # shows a scene point at exactly its depth under the stored pose,
        # and the two views show the same points
        spec = SceneSpec(n_views=2, rng_seed=7)
        b = generate(spec)
        ids = [shown_points(spec, v) for v in b.views]
        shown = [set(d[d >= 0].tolist()) for d in ids]
        assert shown[0] == shown[1]  # pruning keeps what both views show
        assert len(shown[0]) > 50  # covisibility is substantial by construction
        # Pixels showing the same point agree after a frame change up to the
        # back-projection's offset from the point, at most z / (f sqrt 2).
        moved = change_frame(b.view_pointmaps[0], b.views[0].pose, b.views[1].pose)
        valid0 = ids[0] >= 0
        pixel_of = np.zeros(spec.n_points, dtype=int)
        pixel_of[ids[1][ids[1] >= 0]] = np.flatnonzero(ids[1] >= 0)
        q = pixel_of[ids[0][valid0]]
        gap = np.linalg.norm(moved.points[valid0]
                             - b.view_pointmaps[1].points.reshape(-1, 3)[q], axis=1)
        depths = b.views[0].depth.depth[valid0] + b.views[1].depth.depth.reshape(-1)[q]
        assert np.all(gap <= depths / (b.views[0].intrinsics.f * np.sqrt(2.0)))

    def test_seed_determinism(self):
        spec = SceneSpec(n_views=4, rng_seed=11, depth_noise_sigma=0.005,
                         occlusion_fraction=0.05)
        assert bundle_bytes(generate(spec)) == bundle_bytes(generate(spec))

    def test_depth_noise_std(self):
        # empirical noise std within 10% of sigma * scale over >= 1e4 px
        spec_clean = SceneSpec(n_views=20, rng_seed=3)
        spec_noisy = SceneSpec(n_views=20, rng_seed=3, depth_noise_sigma=0.01)
        clean = generate(spec_clean)
        noisy = generate(spec_noisy)
        devs = []
        for vc, vn in zip(clean.views, noisy.views):
            assert np.array_equal(vc.depth.mask, vn.depth.mask)
            devs.append(vn.depth.depth[vn.depth.mask] - vc.depth.depth[vc.depth.mask])
        devs = np.concatenate(devs)
        assert len(devs) >= 10_000
        assert abs(float(devs.std()) - 0.01) <= 0.001

    def test_coverage_default_spec(self):
        spec = SceneSpec()
        vis = np.zeros(spec.n_points, dtype=int)
        for v in generate(spec).views:
            ids = shown_points(spec, v)
            vis[np.unique(ids[ids >= 0])] += 1
        assert np.all(vis[vis > 0] >= 2)

    def test_cameras_face_centroid(self):
        b = generate(SceneSpec(n_views=5, rng_seed=2))
        for v in b.views:
            # the scene centroid (origin) projects near the image center
            z = v.pose.apply(np.zeros(3))[2]
            assert z > 0

    def test_every_shape_and_trajectory(self):
        for shape in ("sphere-cluster", "box-cluster", "blob"):
            for traj in ("orbit", "random-hemisphere"):
                b = generate(SceneSpec(n_views=3, object_shape=shape,
                                       trajectory=traj, rng_seed=1))
                assert all(v.depth.mask.sum() > 50 for v in b.views)

    def test_occlusion_reduces_mask(self):
        base = generate(SceneSpec(n_views=2, rng_seed=5))
        occluded = generate(SceneSpec(n_views=2, rng_seed=5, occlusion_fraction=0.3))
        assert occluded.views[0].depth.mask.sum() <= base.views[0].depth.mask.sum()

    def test_infeasible_specs_rejected(self):
        with pytest.raises(ValidationError):
            SceneSpec(occlusion_fraction=1.0)
        with pytest.raises(ValidationError):
            SceneSpec(n_views=1)
        with pytest.raises(ValidationError):
            SceneSpec(object_shape="torus")
        with pytest.raises(ValidationError):
            SceneSpec(outlier_fraction=1.5)


class TestMakePairPointmaps:
    def test_noiseless_closes_pnp_loop(self):
        spec = SceneSpec(n_views=4, rng_seed=9)
        b = generate(spec)
        pair = make_pair_pointmaps(b, 0, 2)
        k = make_intrinsics(pair.view2.width, pair.view2.height,
                            estimate_focal(pair.view1))
        res = pnp_ransac(pair.view2, k)
        gt = compose(b.views[2].pose, inverse(b.views[0].pose))
        assert geodesic_deg(res.transform.rotation, gt.rotation) <= 1e-4
        t_err = np.linalg.norm(res.transform.translation - gt.translation)
        assert t_err <= 1e-6 * max(np.linalg.norm(gt.translation), 1.0)

    def test_same_view_pair_identical(self):
        b = generate(SceneSpec(n_views=3, rng_seed=4, outlier_fraction=0.2,
                               point_noise_sigma=0.01))
        pair = make_pair_pointmaps(b, 1, 1)
        assert np.array_equal(pair.view1.points, pair.view2.points)
        assert np.array_equal(pair.view1.confidence, pair.view2.confidence)
        assert np.array_equal(pair.view1.mask, pair.view2.mask)

    def test_corrupted_pixels_lowest_confidence(self):
        b = generate(SceneSpec(n_views=3, rng_seed=8, outlier_fraction=0.1))
        pair = make_pair_pointmaps(b, 0, 1)
        for pm, out in ((pair.view1, pair.outlier_mask1),
                        (pair.view2, pair.outlier_mask2)):
            assert out.sum() > 0
            clean = pm.mask & ~out
            assert pm.confidence[out].max() < pm.confidence[clean].min()
            # corrupted pixels occupy the lowest confidence decile
            frac = out.sum() / pm.mask.sum()
            decile = np.quantile(pm.confidence[pm.mask], frac)
            assert np.all(pm.confidence[out] <= decile)

    def test_outliers_reproject_far(self):
        b = generate(SceneSpec(n_views=3, rng_seed=8, outlier_fraction=0.15))
        pair = make_pair_pointmaps(b, 0, 1)
        rel = compose(b.views[1].pose, inverse(b.views[0].pose))
        k = b.views[1].intrinsics
        pts = pair.view2.points[pair.outlier_mask2]
        jj, ii = np.nonzero(pair.outlier_mask2)
        cam = rel.apply(pts)
        z = cam[:, 2]
        front = z > 0
        u = k.f * cam[front, 0] / z[front] + k.c_x
        v = k.f * cam[front, 1] / z[front] + k.c_y
        err = np.hypot(u - ii[front], v - jj[front])
        assert np.all(err > 15.0)

    def test_pair_determinism(self):
        b = generate(SceneSpec(n_views=3, rng_seed=6, outlier_fraction=0.2))
        p1 = make_pair_pointmaps(b, 0, 2)
        p2 = make_pair_pointmaps(b, 0, 2)
        assert np.array_equal(p1.view2.points, p2.view2.points)
        assert np.array_equal(p1.view2.confidence, p2.view2.confidence)

    def test_point_noise_applied(self):
        clean = make_pair_pointmaps(generate(SceneSpec(n_views=2, rng_seed=3)), 0, 1)
        noisy = make_pair_pointmaps(
            generate(SceneSpec(n_views=2, rng_seed=3, point_noise_sigma=0.01)), 0, 1)
        dev = np.linalg.norm(
            noisy.view1.points[noisy.view1.mask] - clean.view1.points[clean.view1.mask],
            axis=1)
        # isotropic 3-sigma: mean |dev| ~ sigma * sqrt(8/pi)
        assert 0.005 <= float(dev.mean()) <= 0.05


def pair_bytes(pair) -> bytes:
    return b"".join(a.tobytes() for pm in (pair.view1, pair.view2)
                    for a in (pm.points, pm.confidence, pm.mask))


class TestViewPointmapReuse:
    """Each bundle back-projects each view once and every pair reuses it."""

    SPEC = SceneSpec(n_views=4, rng_seed=11, outlier_fraction=0.1, point_noise_sigma=0.01)
    PAIRS = [(0, 1), (2, 0), (1, 3), (3, 2), (0, 0)]

    def test_repeated_and_reordered_calls_byte_identical(self):
        b = generate(self.SPEC)
        first = {p: pair_bytes(make_pair_pointmaps(b, *p)) for p in self.PAIRS}
        again = {p: pair_bytes(make_pair_pointmaps(b, *p)) for p in self.PAIRS}
        fresh = generate(self.SPEC)
        reordered = {p: pair_bytes(make_pair_pointmaps(fresh, *p))
                     for p in reversed(self.PAIRS)}
        assert first == again == reordered

    def test_maps_equal_fresh_back_projection(self):
        b = generate(self.SPEC)
        for k, view in enumerate(b.views):
            own = pointmap_from_depth(view.depth, view.intrinsics)
            cached = b.view_pointmaps[k]
            for name in ("points", "confidence", "mask"):
                assert getattr(cached, name).tobytes() == getattr(own, name).tobytes()
        uncorrupted = replace(b.spec, outlier_fraction=0.0, point_noise_sigma=0.0)
        clean = make_pair_pointmaps(replace(b, spec=uncorrupted), 2, 1)
        own = pointmap_from_depth(b.views[2].depth, b.views[2].intrinsics)
        assert clean.view1.points.tobytes() == own.points.tobytes()
        moved = change_frame(pointmap_from_depth(b.views[1].depth, b.views[1].intrinsics),
                             b.views[1].pose, b.views[2].pose)
        assert clean.view2.points.tobytes() == moved.points.tobytes()

    def test_cached_arrays_read_only(self):
        b = generate(self.SPEC)
        make_pair_pointmaps(b, 0, 1)
        for pm in b.view_pointmaps:
            for arr in (pm.points, pm.confidence, pm.mask):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.reshape(-1)[0] = 1

    def test_bundles_built_in_turn_never_share_maps(self):
        # Bundles built and dropped one after another can reuse an object
        # id; each must still see its own views' back-projection.
        previous = []
        for seed in range(4):
            b = generate(SceneSpec(n_views=2, rng_seed=seed))  # no corruption
            pair = make_pair_pointmaps(b, 0, 1)
            own = pointmap_from_depth(b.views[0].depth, b.views[0].intrinsics)
            assert pair.view1.points.tobytes() == own.points.tobytes()
            assert not any(np.shares_memory(pair.view1.points, p) for p in previous)
            previous.append(pair.view1.points)
            del b, pair

    def test_concurrent_first_use_gives_serial_maps(self):
        # Pool threads may hit a bundle's cache first at the same time;
        # every pair must still come out as in a serial run.
        pairs = [(i, j) for i in range(4) for j in range(4)] * 3
        expected = {p: pair_bytes(make_pair_pointmaps(generate(self.SPEC), *p))
                    for p in set(pairs)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                b = generate(self.SPEC)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(lambda p: pair_bytes(make_pair_pointmaps(b, *p)),
                                        pairs, timeout=60))
                assert got == [expected[p] for p in pairs]
        finally:
            sys.setswitchinterval(interval)
