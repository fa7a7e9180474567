"""Sequence evaluation: gauge alignment, error metrics, frame subsampling.

Rotation error is the geodesic distance in degrees; translation error is
the squared distance between camera centers c = -R^T t (its mean over
recovered frames is the reported MSE, with RMSE as an auxiliary column).
Threshold accuracies count over ALL frames, so an unrecovered frame
fails its thresholds; error means cover recovered frames only and the
report is flagged partial when the detection rate is below 100.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ShapeMismatchError, ValidationError
from .geometry import geodesic_deg, so3_project
from .pose_graph import GlobalPoses

DEFAULT_THRESHOLDS = ((0.15, 15.0), (0.30, 30.0))


@dataclass(frozen=True)
class GaugeAlignment:
    """Similarity map applied to the estimate: c -> scale * rotation @ c + translation."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float


@dataclass(frozen=True)
class SequenceReport:
    rot_error_deg: float
    trans_error: float
    det_rate_pct: float
    acc_15_15_pct: float
    acc_30_30_pct: float
    n_frames: int
    trans_rmse: float
    partial: bool  # error means cover recovered frames only

    def __post_init__(self):
        for name in ("det_rate_pct", "acc_15_15_pct", "acc_30_30_pct"):
            v = getattr(self, name)
            if not (0.0 <= v <= 100.0):
                raise ValidationError(f"{name} must lie in [0, 100], got {v}")

    def table_row(self) -> str:
        """The five benchmark columns in fixed order."""
        mark = "+" if self.partial else ""
        return (f"{self.rot_error_deg:.3f}{mark}  {self.trans_error:.5f}{mark}  "
                f"{self.det_rate_pct:.1f}  {self.acc_15_15_pct:.1f}  "
                f"{self.acc_30_30_pct:.1f}")


def umeyama(source: np.ndarray, target: np.ndarray,
            with_scale: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form least-squares similarity fitting target ~ s*Q@source + t.

    Degenerate source spreads (a single distinct point) fall back to a
    pure translation so identical inputs always map by the identity.
    """
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 3:
        raise ShapeMismatchError(
            f"point sets must share shape (N, 3), got {source.shape} vs {target.shape}"
        )
    n = len(source)
    mu_s = source.mean(axis=0)
    mu_t = target.mean(axis=0)
    src_c = source - mu_s
    tgt_c = target - mu_t
    var_s = float((src_c ** 2).sum()) / n
    if var_s < 1e-30:
        return np.eye(3), mu_t - mu_s, 1.0

    cov = tgt_c.T @ src_c / n
    u, d, vt = np.linalg.svd(cov)
    sign = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    s_diag = np.ones(3)
    s_diag[2] = sign if sign != 0 else 1.0
    q = u @ np.diag(s_diag) @ vt
    scale = float((d * s_diag).sum() / var_s) if with_scale else 1.0
    t = mu_t - scale * q @ mu_s
    return q, t, scale


def apply_gauge(poses: GlobalPoses, gauge: GaugeAlignment) -> GlobalPoses:
    """Move an estimate by a global similarity: centers map through the
    gauge, orientations pick up its rotation. Unrecovered placeholders
    are left untouched."""
    rec = poses.recovered
    rotations = poses.rotations.copy()
    translations = poses.translations.copy()
    rotations[rec] = so3_project(rotations[rec] @ gauge.rotation.T)
    c_new = ((gauge.scale * gauge.rotation) @ poses.centers()[rec][:, :, None])[:, :, 0]
    translations[rec] = ((-rotations[rec]) @ (c_new + gauge.translation)[:, :, None])[:, :, 0]
    return GlobalPoses(rotations=rotations, translations=translations,
                       recovered=poses.recovered)


def align_gauge(est: GlobalPoses, gt: GlobalPoses,
                mode: str = "rigid") -> tuple[GlobalPoses, GaugeAlignment]:
    """Remove the global gauge between an estimate and its reference.

    Umeyama alignment of camera centers over the commonly recovered
    frames; `mode` is "rigid" (needs >= 2 such frames) or "similarity"
    (needs >= 3, also recovers a scale).
    """
    if mode not in ("rigid", "similarity"):
        raise ValidationError(f"unknown alignment mode {mode!r}")
    if est.n_frames != gt.n_frames:
        raise ShapeMismatchError(
            f"frame count mismatch: {est.n_frames} vs {gt.n_frames}"
        )
    common = est.recovered & gt.recovered
    n_common = int(np.count_nonzero(common))
    needed = 2 if mode == "rigid" else 3
    if n_common < needed:
        raise AlignmentError(
            f"{mode} alignment needs >= {needed} commonly recovered frames, "
            f"got {n_common}"
        )
    q, t, s = umeyama(est.centers()[common], gt.centers()[common],
                      with_scale=(mode == "similarity"))
    gauge = GaugeAlignment(rotation=q, translation=t, scale=s)
    return apply_gauge(est, gauge), gauge


def evaluate(est: GlobalPoses, gt: GlobalPoses,
             thresholds=DEFAULT_THRESHOLDS) -> SequenceReport:
    """Score a gauge-aligned estimate against the reference."""
    if est.n_frames != gt.n_frames:
        raise ShapeMismatchError(
            f"frame count mismatch: {est.n_frames} vs {gt.n_frames}"
        )
    n = est.n_frames
    if n == 0:
        raise ShapeMismatchError("cannot evaluate an empty sequence")
    rec = est.recovered & gt.recovered

    rot_err = np.zeros(n)
    dist = np.zeros(n)
    c_est = est.centers()
    c_gt = gt.centers()
    for k in np.flatnonzero(rec):
        rot_err[k] = geodesic_deg(est.rotations[k], gt.rotations[k])
        dist[k] = float(np.linalg.norm(c_est[k] - c_gt[k]))

    n_rec = int(np.count_nonzero(rec))
    if n_rec > 0:
        mean_rot = float(rot_err[rec].mean())
        mse = float((dist[rec] ** 2).mean())
    else:
        mean_rot = math.nan
        mse = math.nan

    accs = []
    for thr_dist, thr_deg in thresholds:
        hit = rec & (dist < thr_dist) & (rot_err < thr_deg)
        accs.append(100.0 * np.count_nonzero(hit) / n)

    det_rate = 100.0 * np.count_nonzero(est.recovered) / n
    return SequenceReport(
        rot_error_deg=mean_rot,
        trans_error=mse,
        det_rate_pct=det_rate,
        acc_15_15_pct=accs[0],
        acc_30_30_pct=accs[1],
        n_frames=n,
        trans_rmse=math.sqrt(mse) if n_rec > 0 else math.nan,
        partial=det_rate < 100.0,
    )


def subsample_frames(n_total: int, n_keep: int) -> np.ndarray:
    """Evenly spaced frame indices including frame 0.

    Index k maps to floor(k * n_total / n_keep), strictly increasing
    since n_total >= n_keep. Asking for more frames than exist clamps to
    all of them with a warning.
    """
    if n_total < 1 or n_keep < 1:
        raise ValidationError("n_total and n_keep must be >= 1")
    if n_keep > n_total:
        warnings.warn(f"requested {n_keep} frames from {n_total}; keeping all")
        n_keep = n_total
    return (np.arange(n_keep) * n_total) // n_keep
