"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failed criterion shows up as an ordinary pytest failure. All
randomness is seeded, so each criterion is a deterministic verdict.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pmsfm import io_formats, pipeline
from pmsfm.errors import FormatError
from pmsfm.geometry import (
    CameraIntrinsics,
    DepthMap,
    Pointmap,
    RigidTransform,
    geodesic_deg,
    pointmap_from_depth,
    random_rotation,
    so3_project,
)
from pmsfm.losses import PointmapPairBatch, conf_loss, regr_loss
from pmsfm.metrics import align_gauge, evaluate, subsample_frames
from pmsfm.pose_graph import (
    GlobalPoses,
    PoseGraph,
    rotation_averaging,
    rotation_objective,
    translation_averaging,
)
from pmsfm.relative_pose import estimate_focal, make_intrinsics, pnp_ransac
from pmsfm.synth import SceneSpec, _sample_points, generate, make_pair_pointmaps

from conftest import cut_planes, inlier_mask, random_rigid, stable_rot_err_deg
from test_losses import make_pm, random_batch, conf_oracle
from test_pose_graph import (
    aligned_mean_rot_err,
    consistent_edges,
    random_connected_pairs,
    spanning_tree_rotations,
)
from test_relative_pose import grid_pointmap_for_pose, small_pose
from test_synth import shown_points


def report_pass(n: int, message: str):
    print(f"\n[PASS] criterion {n}: {message}")


def test_criterion_1_eq1_oracle_equivalence():
    # 100 random (K, D) instances vs a per-pixel scalar reference, 1e-12
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w, h = 8, 6
        k = CameraIntrinsics(float(rng.uniform(200, 800)),
                             float(rng.uniform(1, 7)), float(rng.uniform(1, 5)))
        depth = rng.uniform(0.3, 4.0, size=(h, w))
        mask = rng.uniform(size=(h, w)) > 0.15
        depth[~mask] = 0.0
        dm = DepthMap(w, h, depth, mask)
        pm = pointmap_from_depth(dm, k)
        k_inv = np.linalg.inv(k.matrix())
        for j in range(h):
            for i in range(w):
                ref = k_inv @ np.array([i * depth[j, i], j * depth[j, i], depth[j, i]])
                worst = max(worst, float(np.max(np.abs(pm.points[j, i] - ref))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report_pass(1, f"back-projection matches scalar oracle on 100 instances "
                   f"(max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_loss_invariants():
    worst_scale_dev = 0.0
    worst_conf_dev = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, alpha=0.2)
        base = regr_loss(batch)
        for s in (1e-3, 1.0, 1e3):
            scaled_pred = tuple(make_pm(pm.points * s, pm.mask)
                                for pm in batch.predicted)
            scaled = regr_loss(PointmapPairBatch(scaled_pred, batch.ground_truth))
            for v in range(2):
                worst_scale_dev = max(worst_scale_dev, float(
                    np.max(np.abs(base.losses[v] - scaled.losses[v]))))
        raw = (rng.normal(size=(5, 6)), rng.normal(size=(5, 6)))
        got = conf_loss(batch, raw)
        expected = conf_oracle(batch, raw)
        worst_conf_dev = max(worst_conf_dev, abs(got - expected))
    assert worst_scale_dev <= 1e-10
    assert worst_conf_dev <= 1e-10
    report_pass(2, f"regression loss scale-invariant (max dev {worst_scale_dev:.2e}); "
                   f"confidence loss matches scalar oracle ({worst_conf_dev:.2e})")


def test_criterion_3_focal_recovery():
    worst_clean = 0.0
    noisy_errs = []
    for seed in range(100):
        clean = generate(SceneSpec(n_views=2, rng_seed=seed))
        pair = make_pair_pointmaps(clean, 0, 1)
        f_true = clean.views[0].intrinsics.f
        worst_clean = max(worst_clean,
                          abs(estimate_focal(pair.rows1) - f_true) / f_true)

        noisy = generate(SceneSpec(n_views=2, rng_seed=seed, point_noise_sigma=0.01))
        pair_n = make_pair_pointmaps(noisy, 0, 1)
        f_true_n = noisy.views[0].intrinsics.f
        noisy_errs.append(abs(estimate_focal(pair_n.rows1) - f_true_n) / f_true_n)
    median = float(np.median(noisy_errs))
    assert worst_clean <= 1e-6
    # 0.005 frozen from the Monte-Carlo oracle (observed median 0.0022,
    # max 0.0067); the hard ceiling is 0.02
    assert median <= 0.005
    assert median <= 0.02
    report_pass(3, f"focal exact when noiseless (worst {worst_clean:.2e} rel), "
                   f"median {median:.4f} rel under 1% prediction noise")


def test_criterion_4_pnp_exactness_robustness():
    k = make_intrinsics(40, 30, 120.0)
    worst_rot, worst_t = 0.0, 0.0
    worst_rot_contaminated = 0.0
    leaked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pose = small_pose(rng)
        pm = grid_pointmap_for_pose(k, 40, 30, pose, rng)
        res = pnp_ransac(pm, k)
        worst_rot = max(worst_rot, geodesic_deg(res.transform.rotation, pose.rotation))
        t_err = np.linalg.norm(res.transform.translation - pose.translation)
        worst_t = max(worst_t, t_err / np.linalg.norm(pose.translation))

        # 30% controlled contamination, noiseless inliers
        pts = pm.points.copy().reshape(-1, 3)
        n = len(pts)
        out_idx = rng.choice(n, size=int(0.3 * n), replace=False)
        ii, jj = np.meshgrid(np.arange(40.0), np.arange(30.0))
        px = np.stack([ii, jj], axis=-1).reshape(-1, 2)[out_idx]
        junk = rng.uniform(-8.0, 8.0, size=(len(out_idx), 3))
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
        contaminated = Pointmap(40, 30, pts.reshape(pm.points.shape),
                                pm.confidence, pm.mask)
        res_c = pnp_ransac(contaminated, k)
        worst_rot_contaminated = max(
            worst_rot_contaminated,
            geodesic_deg(res_c.transform.rotation, res.transform.rotation))
        out_mask = np.zeros(n, dtype=bool)
        out_mask[out_idx] = True
        leaked += int(np.count_nonzero(inlier_mask(contaminated, k, res_c).reshape(-1)
                                       & out_mask))
    assert worst_rot <= 1e-4
    assert worst_t <= 1e-6
    assert worst_rot_contaminated <= 0.1
    assert leaked == 0

    # bitwise determinism, seed 0
    rng = np.random.default_rng(123)
    pose = small_pose(rng)
    pm = grid_pointmap_for_pose(k, 40, 30, pose, rng, mask_p=0.8)
    a, b = pnp_ransac(pm, k, rng_seed=0), pnp_ransac(pm, k, rng_seed=0)
    assert a.transform.rotation.tobytes() == b.transform.rotation.tobytes()
    assert a.transform.translation.tobytes() == b.transform.translation.tobytes()
    assert np.array_equal(inlier_mask(pm, k, a), inlier_mask(pm, k, b))
    report_pass(4, f"PnP exact noiseless (worst {worst_rot:.2e} deg / {worst_t:.2e} "
                   f"rel t), robust at 30% outliers (worst {worst_rot_contaminated:.2e} "
                   f"deg, 0 leaked), bitwise deterministic")


def test_criterion_5_averaging_exact_recovery():
    worst_obj, worst_rot, worst_t = 0.0, 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 26))
        poses = [random_rigid(rng) for _ in range(n)]
        pairs = random_connected_pairs(n, rng)
        g = PoseGraph(n, tuple(consistent_edges(poses, pairs)))
        # the Newton descent rejects any step that raises the objective
        rot = rotation_averaging(g)
        u = translation_averaging(g, rot)
        worst_obj = max(worst_obj, rotation_objective(g, rot))
        centers = [-p.rotation.T @ p.translation for p in poses]
        scale = max(max(np.linalg.norm(c) for c in centers), 1.0)
        for k in range(n):
            expected_rot = poses[0].rotation @ poses[k].rotation.T
            worst_rot = max(worst_rot, stable_rot_err_deg(rot[k], expected_rot))
            expected_u = poses[0].apply(centers[k])
            worst_t = max(worst_t, float(np.linalg.norm(u[k] - expected_u)) / scale)
    assert worst_obj <= 1e-12
    assert worst_rot <= 1e-8
    assert worst_t <= 1e-10
    report_pass(5, f"exact recovery on 50 graphs: objective <= {worst_obj:.2e}, "
                   f"rotation <= {worst_rot:.2e} deg, translation <= {worst_t:.2e} "
                   f"of scale")


def test_criterion_6_end_to_end_round_trip(tmp_path):
    spec = SceneSpec(n_views=20, depth_noise_sigma=0.01, point_noise_sigma=0.01,
                     outlier_fraction=0.10, rng_seed=2024)
    pipeline.synthesize(spec, tmp_path / "bundle")
    cfg = pipeline.PipelineConfig(manifest=str(tmp_path / "bundle" / "manifest.txt"),
                                  output_dir=str(tmp_path / "run"), jobs=1)
    t0 = time.perf_counter()
    result, out = pipeline.run_solve(cfg)
    elapsed = time.perf_counter() - t0

    est, est_ids = io_formats.read_poses(out / pipeline.POSES_FILENAME)
    gt, _ = io_formats.read_poses(tmp_path / "bundle" / pipeline.GT_POSES_FILENAME)
    aligned, _ = align_gauge(est, gt, mode="rigid")
    report = evaluate(aligned, gt)
    errs = np.linalg.norm(aligned.centers() - gt.centers(), axis=1)
    mean_center_err = float(errs[aligned.recovered & gt.recovered].mean())

    # The scene's points: those the noise-free views show.
    clean = replace(spec, depth_noise_sigma=0.0)
    shown = np.unique(np.concatenate([shown_points(clean, v).ravel()
                                      for v in generate(clean).views]))
    points = _sample_points(spec)[shown[1:]]  # shown[0] is the -1 of masked pixels
    diameter = 2.0 * float(np.linalg.norm(points - points.mean(axis=0), axis=1).max())

    assert report.det_rate_pct == 100.0
    assert report.rot_error_deg <= 2.0
    assert mean_center_err <= 0.02 * diameter
    assert elapsed <= 60.0
    report_pass(6, f"20-view noisy round trip: rot {report.rot_error_deg:.3f} deg, "
                   f"center err {mean_center_err:.4f} (2% diam = {0.02 * diameter:.4f}), "
                   f"det 100%, {elapsed:.1f}s single-threaded")


def test_criterion_7_averaging_beats_chaining():
    wins = 0
    margins = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 26))
        poses = [RigidTransform(random_rotation(rng), np.zeros(3)) for _ in range(n)]
        pairs = random_connected_pairs(n, rng, extra=1.5)
        g = PoseGraph(n, tuple(consistent_edges(poses, pairs, noise_deg=3.0, rng=rng)))
        gt = np.stack([poses[0].rotation @ p.rotation.T for p in poses])
        avg_err = aligned_mean_rot_err(rotation_averaging(g), gt)
        tree_err = aligned_mean_rot_err(spanning_tree_rotations(g), gt)
        wins += int(avg_err <= tree_err)
        margins.append(tree_err - avg_err)
    assert wins >= 18
    report_pass(7, f"averaging beat spanning-tree chaining in {wins}/20 trials "
                   f"(mean margin {np.mean(margins):.2f} deg)")


def test_criterion_8_metric_semantics(rng):
    # hand-built fixture: half the frames unrecovered, rest perfect
    n = 10
    rec = np.array([k % 2 == 0 for k in range(n)])
    rotations = np.stack([random_rotation(rng) for _ in range(n)])
    translations = rng.normal(size=(n, 3))
    gt = GlobalPoses(rotations, translations, np.ones(n, dtype=bool))
    est = GlobalPoses(rotations, translations, rec)
    r = evaluate(est, gt)
    assert (r.det_rate_pct, r.acc_15_15_pct, r.acc_30_30_pct) == (50.0, 50.0, 50.0)
    assert (r.rot_error_deg, r.trans_error) == (0.0, 0.0)
    assert r.partial

    # perfect fixture
    r2 = evaluate(gt, gt)
    assert (r2.rot_error_deg, r2.trans_error) == (0.0, 0.0)
    assert (r2.det_rate_pct, r2.acc_15_15_pct, r2.acc_30_30_pct) == (100.0, 100.0, 100.0)

    # @(30,30) >= @(15,15) on 1000 random reports
    for seed in range(1000):
        r3 = np.random.default_rng(seed)
        m = int(r3.integers(2, 12))
        gt_r = GlobalPoses(np.stack([random_rotation(r3) for _ in range(m)]),
                           r3.normal(size=(m, 3)), np.ones(m, dtype=bool))
        est_rot = np.stack([so3_project(rr + r3.normal(scale=0.3, size=(3, 3)))
                            for rr in gt_r.rotations])
        est_r = GlobalPoses(est_rot, gt_r.translations + r3.normal(scale=0.25, size=(m, 3)),
                            r3.uniform(size=m) > 0.25)
        rep = evaluate(est_r, gt_r)
        assert rep.acc_30_30_pct >= rep.acc_15_15_pct

    # subsampling protocol: 900 -> 60 is exactly every 15th frame
    idx = subsample_frames(900, 60)
    np.testing.assert_array_equal(idx, np.arange(0, 900, 15))
    report_pass(8, "evaluation fixtures exact, acc30 >= acc15 on 1000 random "
                   "reports, 900->60 subsampling is stride 15")


def test_criterion_9_format_round_trips():
    n_binary = n_text = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        w, h = int(rng.integers(1, 24)), int(rng.integers(1, 24))
        pts = rng.normal(size=(h, w, 3)).astype(np.float32).astype(np.float64)
        conf = rng.uniform(0.1, 3.0, size=(h, w)).astype(np.float32).astype(np.float64)
        mask = rng.uniform(size=(h, w)) > 0.3
        pm = Pointmap(w, h, pts, conf, mask)
        flags = (bool(rng.integers(2)), bool(rng.integers(2)))
        data = cut_planes(io_formats.pointmap_to_bytes(pm), *flags)
        assert cut_planes(io_formats.pointmap_to_bytes(io_formats.pointmap_from_bytes(data)),
                          *flags) == data
        depth = rng.uniform(0.5, 5.0, size=(h, w)).astype(np.float32).astype(np.float64)
        dmask = rng.uniform(size=(h, w)) > 0.2
        depth[~dmask] = 0.0
        dm = DepthMap(w, h, depth, dmask)
        ddata = io_formats.depthmap_to_bytes(dm)
        assert io_formats.depthmap_to_bytes(io_formats.depthmap_from_bytes(ddata)) == ddata
        n_binary += 2

    for seed in range(500):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(1, 10))
        rot = np.stack([random_rotation(rng) for _ in range(m)])
        t = rng.normal(size=(m, 3)) * rng.uniform(0.1, 100)
        poses = GlobalPoses(rot, t, rng.uniform(size=m) > 0.1)
        back, _ = io_formats.poses_from_text(io_formats.poses_to_text(poses))
        assert np.max(np.abs(back.rotations - poses.rotations)) <= 1e-15
        assert np.max(np.abs(back.translations - poses.translations)) <= 1e-15
        n_text += 1

    # typed errors: truncation and bad magic
    rng = np.random.default_rng(7)
    pm = Pointmap(3, 2, rng.normal(size=(2, 3, 3)), np.ones((2, 3)),
                  np.ones((2, 3), bool))
    data = io_formats.pointmap_to_bytes(pm)
    with pytest.raises(FormatError) as exc:
        io_formats.pointmap_from_bytes(data[:-1])
    assert exc.value.offset == len(data) - 1
    with pytest.raises(FormatError) as exc:
        io_formats.pointmap_from_bytes(b"JUNK!" + data[5:])
    assert exc.value.offset == 0
    report_pass(9, f"{n_binary} binary round trips byte-exact, {n_text} pose "
                   f"documents value-exact, truncation/bad-magic raise typed errors")
