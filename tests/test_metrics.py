import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmsfm.errors import AlignmentError, ShapeMismatchError, ValidationError
from pmsfm.geometry import axis_angle_matrix, random_rotation, so3_project
from pmsfm.metrics import (
    GaugeAlignment,
    SequenceReport,
    align_gauge,
    apply_gauge,
    evaluate,
    subsample_frames,
    umeyama,
)
from pmsfm.pose_graph import GlobalPoses

from conftest import assert_same_bits, stable_rot_err_deg


def random_global_poses(rng, n=8, recovered=None):
    rotations = np.stack([random_rotation(rng) for _ in range(n)])
    translations = rng.normal(size=(n, 3))
    if recovered is None:
        recovered = np.ones(n, dtype=bool)
    return GlobalPoses(rotations, translations, np.asarray(recovered, dtype=bool))


def transformed_copy(poses: GlobalPoses, q, tau, s=1.0) -> GlobalPoses:
    """Independent construction of a gauge-moved trajectory: centers map
    through the similarity, orientations pick up Q."""
    rotations = np.empty_like(poses.rotations)
    translations = np.empty_like(poses.translations)
    centers = poses.centers()
    for k in range(poses.n_frames):
        r_new = so3_project(poses.rotations[k] @ q.T)
        c_new = s * q @ centers[k] + tau
        rotations[k] = r_new
        translations[k] = -r_new @ c_new
    return GlobalPoses(rotations, translations, poses.recovered)


class TestUmeyama:
    def test_identity_on_equal_sets(self, rng):
        x = rng.normal(size=(10, 3))
        q, t, s = umeyama(x, x, with_scale=True)
        assert np.max(np.abs(q - np.eye(3))) <= 1e-12
        assert np.max(np.abs(t)) <= 1e-12
        assert s == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_similarity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(12, 3))
        q_true = random_rotation(rng)
        tau = rng.normal(size=3)
        scale = float(rng.uniform(0.3, 3.0))
        y = scale * x @ q_true.T + tau
        q, t, s = umeyama(x, y, with_scale=True)
        assert np.max(np.abs(q - q_true)) <= 1e-9
        assert np.max(np.abs(t - tau)) <= 1e-9
        assert s == pytest.approx(scale, abs=1e-9)

    def test_reflection_guard(self, rng):
        x = rng.normal(size=(20, 3))
        y = x.copy()
        y[:, 2] *= -1  # mirrored target
        q, _, _ = umeyama(x, y, with_scale=False)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)


class TestAlignGauge:
    def test_est_equals_gt(self, rng):
        gt = random_global_poses(rng)
        aligned, gauge = align_gauge(gt, gt, mode="rigid")
        # alignment is the identity: rotations and centers match to 1e-9
        # (the arccos-based report metric floors out around 1e-6 deg)
        for k in range(gt.n_frames):
            assert stable_rot_err_deg(aligned.rotations[k], gt.rotations[k]) <= 1e-9
        assert np.max(np.abs(aligned.centers() - gt.centers())) <= 1e-9
        report = evaluate(aligned, gt)
        assert report.rot_error_deg <= 1e-5
        assert report.trans_error <= 1e-18
        assert gauge.scale == 1.0

    @pytest.mark.parametrize("mode", ["rigid", "similarity"])
    def test_gauge_removal(self, mode, rng):
        gt = random_global_poses(rng)
        q = random_rotation(rng)
        tau = rng.normal(size=3) * 5
        est = transformed_copy(gt, q, tau)
        aligned, _ = align_gauge(est, gt, mode=mode)
        for k in range(gt.n_frames):
            assert stable_rot_err_deg(aligned.rotations[k], gt.rotations[k]) <= 1e-9
        assert np.max(np.abs(aligned.centers() - gt.centers())) <= 1e-9
        report = evaluate(aligned, gt)
        assert report.rot_error_deg <= 1e-5
        assert report.trans_error <= 1e-18

    def test_scale_recovered(self, rng):
        gt = random_global_poses(rng)
        est = transformed_copy(gt, np.eye(3), np.zeros(3), s=0.5)
        # est centers are half-size; aligning est onto gt needs scale 2
        aligned, gauge = align_gauge(est, gt, mode="similarity")
        assert gauge.scale == pytest.approx(2.0, abs=1e-9)
        assert evaluate(aligned, gt).trans_error <= 1e-18

    def test_uses_recovered_frames_only(self, rng):
        rec = np.array([True] * 6 + [False] * 2)
        gt = random_global_poses(rng, 8)
        est = transformed_copy(gt, random_rotation(rng), rng.normal(size=3))
        # wreck the unrecovered placeholders; alignment must not care
        bad = est.translations.copy()
        bad[6:] = 1e6
        est = GlobalPoses(est.rotations, bad, rec)
        gt = GlobalPoses(gt.rotations, gt.translations, np.ones(8, bool))
        aligned, _ = align_gauge(est, gt, mode="rigid")
        report = evaluate(aligned, gt)
        assert report.rot_error_deg <= 1e-5

    def test_too_few_frames(self, rng):
        est = random_global_poses(rng, 4, recovered=[True, False, False, False])
        gt = random_global_poses(rng, 4)
        with pytest.raises(AlignmentError):
            align_gauge(est, gt, mode="rigid")
        est2 = random_global_poses(rng, 4, recovered=[True, True, False, False])
        with pytest.raises(AlignmentError):
            align_gauge(est2, gt, mode="similarity")

    def test_frame_count_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            align_gauge(random_global_poses(rng, 3), random_global_poses(rng, 4))

    @pytest.mark.parametrize("mode", ["rigid", "similarity"])
    def test_apply_gauge_bit_equal_to_frame_loop(self, mode, rng):
        rec = np.array([True, False, True, True, True, False, True, True])
        gt = random_global_poses(rng, 8)
        est = transformed_copy(gt, random_rotation(rng), rng.normal(size=3), s=1.7)
        est = GlobalPoses(est.rotations, est.translations, rec)
        moved, gauge = align_gauge(est, gt, mode=mode)
        rotations = est.rotations.copy()
        translations = est.translations.copy()
        centers = est.centers()
        for k in np.flatnonzero(rec):
            r_new = so3_project(rotations[k] @ gauge.rotation.T)
            c_new = gauge.scale * gauge.rotation @ centers[k] + gauge.translation
            rotations[k] = r_new
            translations[k] = -r_new @ c_new
        assert_same_bits(moved.rotations, rotations)
        assert_same_bits(moved.translations, translations)


class TestEvaluate:
    def test_perfect(self, rng):
        gt = random_global_poses(rng)
        r = evaluate(gt, gt)
        assert (r.rot_error_deg, r.trans_error) == (0.0, 0.0)
        assert (r.det_rate_pct, r.acc_15_15_pct, r.acc_30_30_pct) == (100.0, 100.0, 100.0)
        assert not r.partial

    def test_half_unrecovered_fixture(self, rng):
        # hand-built: 10 frames, 5 unrecovered, recovered ones perfect.
        # counting script: det = 5/10*100 = 50; thresholds count over all
        # frames so both accuracies are 50; error means over recovered = 0.
        n = 10
        rec = np.array([k % 2 == 0 for k in range(n)])
        gt = random_global_poses(rng, n)
        est = GlobalPoses(gt.rotations, gt.translations, rec)
        n_rec = sum(1 for k in range(n) if rec[k])
        assert n_rec == 5
        r = evaluate(est, gt)
        assert r.det_rate_pct == pytest.approx(100.0 * n_rec / n)
        assert r.acc_15_15_pct == pytest.approx(50.0)
        assert r.acc_30_30_pct == pytest.approx(50.0)
        assert r.rot_error_deg == 0.0
        assert r.trans_error == 0.0
        assert r.partial

    def test_injected_error_one_frame(self, rng):
        # 10 frames, one rotated by 10 degrees: mean rot error 1.0, and
        # 10 < 15 so the 15-degree accuracy stays 100%
        gt = random_global_poses(rng, 10)
        rot = gt.rotations.copy()
        rot[3] = rot[3] @ axis_angle_matrix([0.0, 0.0, 1.0], math.radians(10.0))
        trans = gt.translations.copy()
        trans[3] = -rot[3] @ gt.centers()[3]  # keep the center unchanged
        est = GlobalPoses(rot, trans, gt.recovered)
        r = evaluate(est, gt)
        assert r.rot_error_deg == pytest.approx(1.0, abs=1e-9)
        assert r.acc_15_15_pct == 100.0

    def test_center_based_translation_error(self, rng):
        # translation error compares camera centers, not raw t vectors
        gt = random_global_poses(rng, 4)
        centers = gt.centers()
        shifted = centers.copy()
        shifted[1] += np.array([0.2, 0.0, 0.0])
        translations = np.stack([-gt.rotations[k] @ shifted[k] for k in range(4)])
        est = GlobalPoses(gt.rotations, translations, gt.recovered)
        r = evaluate(est, gt)
        assert r.trans_error == pytest.approx(0.2 ** 2 / 4, rel=1e-9)
        assert r.trans_rmse == pytest.approx(np.sqrt(0.2 ** 2 / 4), rel=1e-9)
        assert r.acc_15_15_pct == 75.0  # 0.2 > 0.15 fails one frame
        assert r.acc_30_30_pct == 100.0

    def test_metrics_invariant_to_common_motion(self, rng):
        gt = random_global_poses(rng)
        est = GlobalPoses(gt.rotations.copy(), gt.translations + 0.01, gt.recovered)
        base = evaluate(est, gt)
        q = random_rotation(rng)
        tau = rng.normal(size=3)
        gauge = GaugeAlignment(q, tau, 1.0)
        moved = evaluate(apply_gauge(est, gauge), apply_gauge(gt, gauge))
        assert moved.rot_error_deg == pytest.approx(base.rot_error_deg, abs=1e-9)
        assert moved.trans_error == pytest.approx(base.trans_error, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_acc30_ge_acc15(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        gt = random_global_poses(rng, n)
        rot = np.stack([so3_project(r + rng.normal(scale=0.2, size=(3, 3)))
                        for r in gt.rotations])
        est = GlobalPoses(rot, gt.translations + rng.normal(scale=0.2, size=(n, 3)),
                          rng.uniform(size=n) > 0.2)
        r = evaluate(est, gt)
        assert r.acc_30_30_pct >= r.acc_15_15_pct

    def test_det_rate_monotone(self, rng):
        gt = random_global_poses(rng, 6)
        rec = np.ones(6, dtype=bool)
        prev = 100.0
        for k in range(6):
            rec = rec.copy()
            rec[k] = False
            r = evaluate(GlobalPoses(gt.rotations, gt.translations, rec), gt)
            assert r.det_rate_pct < prev
            prev = r.det_rate_pct

    def test_report_bounds_validated(self):
        with pytest.raises(ValidationError):
            SequenceReport(0.0, 0.0, 150.0, 0.0, 0.0, 1, 0.0, False, 0.0)


class TestRotationOnly:
    """`rot_only_deg`: the rotation error under the best global rotation
    Q = proj_SO(3)(sum_k R_gt,k^T R_est,k), fitted on rotations alone."""

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_world_with_noisy_centers_scores_zero(self, seed):
        # R_est = R_gt G with centers G^T c_gt plus 0.1 noise: the rigid
        # gauge, fitted on those centers, tilts the rotations by 0.98-3.6
        # degrees on these seeds; rot_only_deg reads at most 1.7e-6
        # degrees, aligned or not, the arccos floor of geodesic_deg.
        rng = np.random.default_rng(seed)
        gt = random_global_poses(rng, 10)
        g = random_rotation(rng)
        rot = gt.rotations @ g
        centers = gt.centers() @ g + rng.normal(scale=0.1, size=(10, 3))
        est = GlobalPoses(rot, -np.einsum("kij,kj->ki", rot, centers), gt.recovered)
        r = evaluate(align_gauge(est, gt)[0], gt)
        assert r.rot_error_deg > 0.5
        assert r.rot_only_deg <= 1e-5
        assert evaluate(est, gt).rot_only_deg <= 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_to_global_rotation_of_estimate(self, seed):
        # Per-frame rotation noise of a few degrees; 20 seeds measured a
        # largest change of 1.1e-12 degrees under a random global motion.
        rng = np.random.default_rng(seed)
        gt = random_global_poses(rng, 10)
        rot = so3_project(gt.rotations + rng.normal(scale=0.05, size=(10, 3, 3)))
        est = GlobalPoses(rot, gt.translations, rng.uniform(size=10) > 0.2)
        base = evaluate(est, gt).rot_only_deg
        moved = apply_gauge(est, GaugeAlignment(random_rotation(rng), rng.normal(size=3), 1.0))
        assert base > 1.0
        assert evaluate(moved, gt).rot_only_deg == pytest.approx(base, abs=1e-9)

    def test_nan_without_common_frame(self, rng):
        gt = random_global_poses(rng, 4, recovered=[True, True, False, False])
        est = GlobalPoses(gt.rotations, gt.translations, np.array([False, False, True, True]))
        r = evaluate(est, gt)
        assert math.isnan(r.rot_only_deg) and math.isnan(r.rot_error_deg)


class TestSubsampleFrames:
    def test_900_60_gives_stride_15(self):
        idx = subsample_frames(900, 60)
        np.testing.assert_array_equal(idx, np.arange(0, 900, 15))

    def test_all_frames(self):
        np.testing.assert_array_equal(subsample_frames(10, 10), np.arange(10))

    @pytest.mark.parametrize("n_total,n_keep", [(100, 7), (37, 9), (1000, 61), (5, 3)])
    def test_even_partition_oracle(self, n_total, n_keep):
        # brute-force reference: exact rational segment starts
        expected = []
        for k in range(n_keep):
            start = Fraction(k * n_total, n_keep)
            expected.append(int(start.__floor__()))
        dedup = []
        for v in expected:
            if not dedup or dedup[-1] != v:
                dedup.append(v)
        np.testing.assert_array_equal(subsample_frames(n_total, n_keep), dedup)

    @given(st.integers(1, 10**4), st.integers(1, 2 * 10**4))
    def test_includes_frame_zero_strictly_increasing(self, n_total, n_keep):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n_keep > n_total clamps
            idx = subsample_frames(n_total, n_keep)
        assert idx[0] == 0
        assert np.all(np.diff(idx) > 0)
        assert idx[-1] < n_total
        assert len(idx) == min(n_keep, n_total)

    def test_overask_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            idx = subsample_frames(5, 9)
        np.testing.assert_array_equal(idx, np.arange(5))

    def test_invalid(self):
        with pytest.raises(ValidationError):
            subsample_frames(0, 1)


class TestEvaluateErrors:
    def test_frame_count_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            evaluate(random_global_poses(rng, 3), random_global_poses(rng, 5))
