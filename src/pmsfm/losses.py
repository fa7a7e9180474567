"""Pointmap regression and confidence-weighted losses.

These are standalone kernels over aligned pointmap pairs: the predicted
pair (X1, X2) and ground-truth pair are all expressed in view 1's frame,
and both maps of a pair are normalized by the mean distance of their
valid points from the origin before comparison, which removes the global
scale ambiguity between prediction and ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateScaleError,
    EmptyDomainError,
    ShapeMismatchError,
    ValidationError,
)
from .geometry import Pointmap


@dataclass(frozen=True)
class PointmapPairBatch:
    """A predicted pointmap pair with its ground truth, view-1 frame.

    The valid pixel set of each view is the intersection of the
    predicted and ground-truth masks; `alpha` weighs the confidence
    regularizer.
    """

    predicted: tuple[Pointmap, Pointmap]
    ground_truth: tuple[Pointmap, Pointmap]
    alpha: float = 0.2

    def __post_init__(self):
        for v in range(2):
            p, g = self.predicted[v], self.ground_truth[v]
            if (p.width, p.height) != (g.width, g.height):
                raise ShapeMismatchError(
                    f"view {v + 1}: predicted {p.width}x{p.height} vs "
                    f"ground truth {g.width}x{g.height}"
                )
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValidationError("alpha must be a non-negative finite real")

    def valid_masks(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(self.predicted[v].mask & self.ground_truth[v].mask
                     for v in range(2))


def _mean_norm(points_and_masks) -> float:
    total = 0.0
    count = 0
    for points, mask in points_and_masks:
        if np.any(mask):
            total += float(np.linalg.norm(points[mask], axis=-1).sum())
            count += int(np.count_nonzero(mask))
    if count == 0:
        raise EmptyDomainError("no valid pixels in either pointmap")
    return total / count


def norm_factor(pm1: Pointmap, pm2: Pointmap) -> float:
    """Mean Euclidean distance of the pair's valid points from the origin."""
    return _mean_norm([(pm1.points, pm1.mask), (pm2.points, pm2.mask)])


@dataclass(frozen=True)
class RegressionLossGrids:
    """Per-pixel regression losses per view; masked pixels are 0 and
    flagged excluded via `valid`."""

    losses: tuple[np.ndarray, np.ndarray]
    valid: tuple[np.ndarray, np.ndarray]

    def total(self) -> float:
        return float(sum(grid[m].sum() for grid, m in zip(self.losses, self.valid)))


def regr_loss(batch: PointmapPairBatch) -> RegressionLossGrids:
    """Scale-normalized Euclidean regression loss per valid pixel.

    Both the predicted and the ground-truth pair are divided by their own
    mean-distance factor, so a global rescaling of either pair leaves
    every per-pixel value unchanged.
    """
    masks = batch.valid_masks()
    z = _mean_norm([(batch.predicted[v].points, masks[v]) for v in range(2)])
    z_bar = _mean_norm([(batch.ground_truth[v].points, masks[v]) for v in range(2)])
    if z <= 0 or z_bar <= 0 or not (np.isfinite(z) and np.isfinite(z_bar)):
        raise DegenerateScaleError(f"degenerate normalization factors z={z}, z_bar={z_bar}")

    losses = []
    for v in range(2):
        diff = batch.predicted[v].points / z - batch.ground_truth[v].points / z_bar
        grid = np.linalg.norm(diff, axis=-1)
        grid[~masks[v]] = 0.0
        losses.append(grid)
    return RegressionLossGrids(losses=(losses[0], losses[1]), valid=masks)


def _log1p_exp(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) without overflow for large positive x.
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def conf_loss(batch: PointmapPairBatch,
              raw_conf: tuple[np.ndarray, np.ndarray]) -> float:
    """Confidence-weighted regression loss, summed over valid pixels.

    Per pixel: ``C * l_regr - alpha * log(C)`` with ``C = 1 + exp(raw)``.
    The sum (not mean) over both views matches the defining double sum;
    divide externally if comparability across batch sizes is needed.
    """
    grids = regr_loss(batch)
    total = 0.0
    for v in range(2):
        raw = np.asarray(raw_conf[v], dtype=np.float64)
        if raw.shape != grids.losses[v].shape:
            raise ShapeMismatchError(
                f"view {v + 1}: raw confidence shape {raw.shape} does not match "
                f"loss grid {grids.losses[v].shape}"
            )
        if not np.all(np.isfinite(raw)):
            raise ValidationError("raw confidence scores must be finite")
        m = grids.valid[v]
        conf = 1.0 + np.exp(raw[m])
        log_conf = _log1p_exp(raw[m])
        total += float((conf * grids.losses[v][m] - batch.alpha * log_conf).sum())
    return total
