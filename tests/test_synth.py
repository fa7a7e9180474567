import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmsfm import synth
from pmsfm.errors import ValidationError
from pmsfm.geometry import (
    Pointmap,
    change_frame,
    compose,
    geodesic_deg,
    inverse,
    pointmap_from_depth,
)
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


def _reference_corrupt(pm, fraction, noise_sigma, bbox, rng, guard=None):
    """`_reference_pair_pointmaps`' corruption of one full-grid map."""
    valid_idx = np.flatnonzero(pm.mask.reshape(-1))
    n_out = int(math.floor(fraction * len(valid_idx)))
    points = pm.points.copy()
    if noise_sigma > 0 and len(valid_idx):
        flat = points.reshape(-1, 3)
        flat[valid_idx] += rng.normal(0.0, noise_sigma, size=(len(valid_idx), 3))
    conf = np.ones(pm.height * pm.width)
    conf[valid_idx] = rng.uniform(0.5, 1.0, size=len(valid_idx))
    out_mask = np.zeros(pm.height * pm.width, dtype=bool)
    if n_out > 0:
        chosen = valid_idx[rng.choice(len(valid_idx), size=n_out, replace=False)]
        lo, hi = bbox
        flat = points.reshape(-1, 3)
        samples = rng.uniform(lo, hi, size=(n_out, 3))
        if guard is not None:
            for _ in range(50):
                bad = ~guard(samples, chosen)
                if not np.any(bad):
                    break
                samples[bad] = rng.uniform(lo, hi, size=(int(bad.sum()), 3))
            else:
                good = guard(samples, chosen)
                samples = samples[good]
                chosen = chosen[good]
        flat[chosen] = samples
        conf[chosen] = rng.uniform(0.01, 0.05, size=len(chosen))
        out_mask[chosen] = True
    return (Pointmap(pm.width, pm.height, points, conf.reshape(pm.height, pm.width), pm.mask),
            out_mask.reshape(pm.height, pm.width))


def reference_pair_pointmaps(bundle, i, j):
    """The pair simulation on full W x H grids, as `make_pair_pointmaps`
    computed it before it kept only valid pixels: (view1, view2,
    outlier_mask1, outlier_mask2), whose valid pixels its rows must equal
    byte for byte."""
    spec = bundle.spec
    noise_abs = spec.point_noise_sigma * spec.scene_scale
    view_i, view_j = bundle.views[i], bundle.views[j]
    pm1 = pointmap_from_depth(view_i.depth, view_i.intrinsics)
    pm2 = change_frame(pointmap_from_depth(view_j.depth, view_j.intrinsics),
                       view_j.pose, view_i.pose)
    all_valid = np.concatenate([pm1.points[pm1.mask], pm2.points[pm2.mask]], axis=0)
    if len(all_valid):
        center = all_valid.mean(axis=0)
        half = np.maximum((all_valid.max(axis=0) - all_valid.min(axis=0)) / 2.0,
                          1e-3 * spec.scene_scale)
        bbox = (center - 1.5 * half, center + 1.5 * half)
    else:
        bbox = (np.zeros(3), np.ones(3))
    rel = compose(view_j.pose, inverse(view_i.pose))
    k2 = view_j.intrinsics

    def far_from_pixel(samples, flat_idx):
        cam = rel.apply(samples)
        z = cam[:, 2]
        ok = z <= 0
        front = ~ok
        if np.any(front):
            u = k2.f * cam[front, 0] / z[front] + k2.c_x
            v = k2.f * cam[front, 1] / z[front] + k2.c_y
            pix = flat_idx[front]
            err = np.hypot(u - pix % pm2.width, v - pix // pm2.width)
            ok[front] = err > synth._OUTLIER_MIN_REPROJ_PX
        return ok

    pm1_c, out1 = _reference_corrupt(pm1, spec.outlier_fraction, noise_abs, bbox,
                                     synth._rng(spec.rng_seed, synth._TAG_PAIR, i, j, i))
    pm2_c, out2 = _reference_corrupt(pm2, spec.outlier_fraction, noise_abs, bbox,
                                     synth._rng(spec.rng_seed, synth._TAG_PAIR, i, j, j),
                                     guard=None if i == j else far_from_pixel)
    return pm1_c, pm2_c, out1, out2


def assert_pair_equals_reference(bundle, i, j):
    pair = make_pair_pointmaps(bundle, i, j)
    view1, view2, out1, out2 = reference_pair_pointmaps(bundle, i, j)
    for rows, outliers, want, want_out in ((pair.rows1, pair.outliers1, view1, out1),
                                           (pair.rows2, pair.outliers2, view2, out2)):
        assert (rows.width, rows.height) == (want.width, want.height)
        assert np.array_equal(rows.index, np.flatnonzero(want.mask))
        for name, grid in (("points", want.points.reshape(-1, 3)),
                           ("confidence", want.confidence.reshape(-1))):
            got, expected = getattr(rows, name), grid[rows.index]
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
            assert got.tobytes() == expected.tobytes(), name
        assert np.array_equal(rows.index[outliers], np.flatnonzero(want_out))


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
        own = [pointmap_from_depth(v.depth, v.intrinsics) for v in b.views]
        moved = change_frame(own[0], b.views[0].pose, b.views[1].pose)
        valid0 = ids[0] >= 0
        pixel_of = np.zeros(spec.n_points, dtype=int)
        pixel_of[ids[1][ids[1] >= 0]] = np.flatnonzero(ids[1] >= 0)
        q = pixel_of[ids[0][valid0]]
        gap = np.linalg.norm(moved.points[valid0] - own[1].points.reshape(-1, 3)[q], axis=1)
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
        k = make_intrinsics(pair.rows2.width, pair.rows2.height,
                            estimate_focal(pair.rows1))
        res = pnp_ransac(pair.rows2, k)
        gt = compose(b.views[2].pose, inverse(b.views[0].pose))
        assert geodesic_deg(res.transform.rotation, gt.rotation) <= 1e-4
        t_err = np.linalg.norm(res.transform.translation - gt.translation)
        assert t_err <= 1e-6 * max(np.linalg.norm(gt.translation), 1.0)

    def test_same_view_pair_identical(self):
        b = generate(SceneSpec(n_views=3, rng_seed=4, outlier_fraction=0.2,
                               point_noise_sigma=0.01))
        pair = make_pair_pointmaps(b, 1, 1)
        for name in ("index", "points", "confidence"):
            assert np.array_equal(getattr(pair.rows1, name), getattr(pair.rows2, name))
        assert np.array_equal(pair.outliers1, pair.outliers2)

    def test_corrupted_pixels_lowest_confidence(self):
        b = generate(SceneSpec(n_views=3, rng_seed=8, outlier_fraction=0.1))
        pair = make_pair_pointmaps(b, 0, 1)
        for rows, outliers in ((pair.rows1, pair.outliers1), (pair.rows2, pair.outliers2)):
            out = np.zeros(rows.n_valid, dtype=bool)
            out[outliers] = True
            assert out.sum() > 0
            conf = rows.confidence
            assert conf[out].max() < conf[~out].min()
            # corrupted pixels occupy the lowest confidence decile
            decile = np.quantile(conf, out.sum() / rows.n_valid)
            assert np.all(conf[out] <= decile)

    def test_outliers_reproject_far(self):
        b = generate(SceneSpec(n_views=3, rng_seed=8, outlier_fraction=0.15))
        pair = make_pair_pointmaps(b, 0, 1)
        rel = compose(b.views[1].pose, inverse(b.views[0].pose))
        k = b.views[1].intrinsics
        pts = pair.rows2.points[pair.outliers2]
        jj, ii = np.divmod(pair.rows2.index[pair.outliers2], pair.rows2.width)
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
        assert np.array_equal(p1.rows2.points, p2.rows2.points)
        assert np.array_equal(p1.rows2.confidence, p2.rows2.confidence)
        assert np.array_equal(p1.outliers2, p2.outliers2)

    def test_point_noise_applied(self):
        clean = make_pair_pointmaps(generate(SceneSpec(n_views=2, rng_seed=3)), 0, 1)
        noisy = make_pair_pointmaps(
            generate(SceneSpec(n_views=2, rng_seed=3, point_noise_sigma=0.01)), 0, 1)
        assert np.array_equal(noisy.rows1.index, clean.rows1.index)
        dev = np.linalg.norm(noisy.rows1.points - clean.rows1.points, axis=1)
        # isotropic 3-sigma: mean |dev| ~ sigma * sqrt(8/pi)
        assert 0.005 <= float(dev.mean()) <= 0.05


class TestPairMatchesFullGridReference:
    """The pair rows equal the valid pixels of the full-grid simulation
    byte for byte, across corruption settings and pair orders."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), outliers=st.sampled_from([0.0, 0.1, 0.3]),
           point_noise=st.sampled_from([0.0, 0.01]), depth_noise=st.sampled_from([0.0, 0.005]),
           occlusion=st.sampled_from([0.0, 0.1]), shape=st.sampled_from(synth._OBJECT_SHAPES),
           data=st.data())
    def test_grids_and_outlier_masks_byte_equal(self, seed, outliers, point_noise,
                                                depth_noise, occlusion, shape, data):
        bundle = generate(SceneSpec(
            n_views=3, n_points=500, image_size=(48, 36), focal_range=(40.0, 70.0),
            object_shape=shape, trajectory="random-hemisphere", rng_seed=seed,
            outlier_fraction=outliers, point_noise_sigma=point_noise,
            depth_noise_sigma=depth_noise, occlusion_fraction=occlusion))
        i = data.draw(st.integers(0, 2), label="i")
        j = data.draw(st.integers(0, 2), label="j")
        assert_pair_equals_reference(bundle, i, j)
        assert_pair_equals_reference(bundle, j, i)
        assert_pair_equals_reference(bundle, i, i)

    def test_default_size_pairs_byte_equal(self):
        bundle = generate(SceneSpec(n_views=4, rng_seed=3, outlier_fraction=0.1,
                                    point_noise_sigma=0.002, occlusion_fraction=0.05))
        for i in range(4):
            for j in range(4):
                assert_pair_equals_reference(bundle, i, j)


def pair_bytes(pair) -> bytes:
    return b"".join(a.tobytes() for rows, outliers in ((pair.rows1, pair.outliers1),
                                                       (pair.rows2, pair.outliers2))
                    for a in (rows.index, rows.points, rows.confidence, outliers))


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
            rows = b.view_rows[k]
            assert np.array_equal(rows.index, np.flatnonzero(own.mask))
            assert rows.points.tobytes() == own.points[own.mask].tobytes()
            assert rows.confidence.tobytes() == own.confidence[own.mask].tobytes()
        uncorrupted = replace(b.spec, outlier_fraction=0.0, point_noise_sigma=0.0)
        clean = make_pair_pointmaps(replace(b, spec=uncorrupted), 2, 1)
        own = pointmap_from_depth(b.views[2].depth, b.views[2].intrinsics)
        assert clean.rows1.points.tobytes() == own.points[own.mask].tobytes()
        moved = change_frame(pointmap_from_depth(b.views[1].depth, b.views[1].intrinsics),
                             b.views[1].pose, b.views[2].pose)
        assert clean.rows2.points.tobytes() == moved.points[moved.mask].tobytes()

    def test_cached_arrays_read_only(self):
        b = generate(self.SPEC)
        make_pair_pointmaps(b, 0, 1)
        for rows in b.view_rows:
            for arr in (rows.index, rows.points, rows.confidence):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.reshape(-1)[0] = 1

    def test_pairs_leave_the_bundle_holding_only_its_rows(self):
        # Once every pair of a 20-view bundle is simulated and dropped, the
        # bundle keeps its views' valid rows and no full-grid copy of them.
        b = generate(SceneSpec(n_views=20, rng_seed=5, point_noise_sigma=0.005,
                               outlier_fraction=0.1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20):
                for j in range(i + 1, 20):
                    make_pair_pointmaps(b, i, j)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows_bytes = sum(a.nbytes for rows in b.view_rows
                         for a in (rows.index, rows.points, rows.confidence))
        assert held < 2 * rows_bytes, (held, rows_bytes)

    def test_bundles_built_in_turn_never_share_maps(self):
        # Bundles built and dropped one after another can reuse an object
        # id; each must still see its own views' back-projection.
        previous = []
        for seed in range(4):
            b = generate(SceneSpec(n_views=2, rng_seed=seed))  # no corruption
            pair = make_pair_pointmaps(b, 0, 1)
            own = pointmap_from_depth(b.views[0].depth, b.views[0].intrinsics)
            assert pair.rows1.points.tobytes() == own.points[own.mask].tobytes()
            assert not any(np.shares_memory(pair.rows1.points, p) for p in previous)
            previous.append(pair.rows1.points)
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
