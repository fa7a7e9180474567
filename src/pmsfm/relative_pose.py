"""Intrinsics and relative pose recovery from an aligned pointmap pair.

Three steps: estimate the focal length from the reference view's own
pointmap, place the principal point at the image center, then solve PnP
with RANSAC between the second view's pixel grid and its pointmap
expressed in the reference frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceWarning,
    InsufficientDataError,
    NoPoseFoundError,
    ValidationError,
)
from .geometry import (
    CameraIntrinsics,
    Pointmap,
    RigidTransform,
    axis_angle_matrix,
    so3_project,
)

_FOCAL_ITERS = 50
# Relative step at which the focal solve stops, five orders tighter than
# the accuracy contract.
_FOCAL_RTOL = 1e-11
# Cap on the Gauss-Newton steps of the local-optimization refinement.
_REFINE_ITERS = 20
# Gauss-Newton steps of the full-resolution polish. On dense maps the
# LO pose lies within about 7e-4 of the full-resolution optimum
# (entrywise in R, relative in t), and one step lands within 2e-7.
_POLISH_STEPS = 1
# Relative change of the squared reprojection error at which refinement
# has converged: four orders above the rounding of a sum over many points.
_REFINE_RTOL = 1e-12
# RANSAC samples drawn and solved per P3P batch: about the adaptive stop
# of a 10%-outlier map, so few samples are solved past it.
_P3P_CHUNK = 8
# Points per RANSAC sample: three for P3P and one to choose among its
# roots; more would only lower the odds of an all-inlier sample.
_MIN_SAMPLE = 4
# RANSAC budget, inlier threshold and the confidence of its adaptive
# stop: design choices, the method only prescribes robust
# minimal-sample estimation.
_RANSAC_ITERS = 1024
_INLIER_THRESHOLD_PX = 5.0
_RANSAC_CONFIDENCE = 0.999
# Correspondences the iterative solves run on: every s-th one, with
# s = ceil(n / _LO_POINTS), feeds the local optimization and the focal
# start, and one full-resolution pass finishes each. At or below it the
# subset is the full set.
_LO_POINTS = 20_000


@dataclass(frozen=True)
class RelativePoseResult:
    """Pose of view 2 with view 1's camera frame acting as world."""

    transform: RigidTransform
    inlier_mask: np.ndarray
    inlier_count: int
    focal: float
    mean_inlier_reproj_err: float


def make_intrinsics(width: int, height: int, f: float) -> CameraIntrinsics:
    """Intrinsics with the principal point at the exact image center."""
    if width <= 0 or height <= 0:
        raise ValidationError("image dimensions must be positive")
    return CameraIntrinsics(f=float(f), c_x=width / 2.0, c_y=height / 2.0)


def estimate_focal(pm: Pointmap) -> float:
    """Recover the focal length from a pointmap in its own camera frame.

    Minimizes the convex robust objective F(f) = sum_i ||b_i - f * d_i||
    with b_i = pixel - center and d_i = (x/z, y/z), from a
    median-of-ratios start, by safeguarded Newton iteration
    (`_focal_newton`). Pixels on the principal ray carry no focal
    information and are dropped. Above `_LO_POINTS` usable pixels the
    start and a first solve use every s-th of them,
    s = ceil(n / _LO_POINTS), and the solve on all pixels starts from
    that f.
    """
    c_x, c_y = pm.width / 2.0, pm.height / 2.0
    pts = pm.points.reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    on_axis = (x == 0.0) & (y == 0.0)
    idx = np.flatnonzero(pm.mask.reshape(-1) & (z > 0) & ~on_axis)
    if len(idx) < 8:
        raise InsufficientDataError(
            f"focal estimation needs >= 8 usable pixels, got {len(idx)}"
        )

    # Contiguous per-coordinate columns of b and d.
    bx = idx % pm.width - c_x
    by = idx // pm.width - c_y
    z_u = z[idx]
    dx = x[idx] / z_u
    dy = y[idx] / z_u

    stride = -(-len(idx) // _LO_POINTS)
    sbx, sby, sdx, sdy = (np.ascontiguousarray(c[::stride]) for c in (bx, by, dx, dy))
    ratios = np.sqrt(sbx * sbx + sby * sby) / np.sqrt(sdx * sdx + sdy * sdy)
    f = float(np.median(ratios))
    if stride > 1:
        f, _ = _focal_newton(sbx, sby, sdx, sdy, f)
    f, converged = _focal_newton(bx, by, dx, dy, f)
    if not converged:
        # The text predates the Newton solve; run logs are matched on it.
        warnings.warn("focal IRLS hit its iteration budget; returning best iterate",
                      ConvergenceWarning)
    return f


def _focal_newton(bx: np.ndarray, by: np.ndarray, dx: np.ndarray, dy: np.ndarray,
                  f: float) -> tuple[float, bool]:
    """Safeguarded Newton minimization of F(f) = sum_i ||b_i - f d_i||
    from ``f``, on the columns of b and d; returns the last iterate and
    whether its step met the relative stop `_FOCAL_RTOL`.

    With e_i = b_i - f d_i and w_i = 1 / max(||e_i||, 1e-12),
    F' = -sum w (d.e) and F'' = sum w (d.d - w^2 (d.e)^2). The sign of F'
    narrows a bracket around the minimum. A Newton step is taken when
    F'' > 0 and it stays inside the bracket, moving at most half its
    width; otherwise the Weiszfeld step f - F' / sum w d.d, which always
    descends, is taken. A non-finite f, or d.d underflowing everywhere,
    gives NaN.
    """
    dot_dd = dx * dx + dy * dy
    # Each iteration runs in place on preallocated columns; u = w (d.e)
    # obeys u^2 <= d.d, so every term of F'' is non-negative.
    ex, ey, w, u = np.empty((4, len(bx)))
    lo, hi = -math.inf, math.inf
    for _ in range(_FOCAL_ITERS):
        np.subtract(bx, np.multiply(dx, f, out=ex), out=ex)
        np.subtract(by, np.multiply(dy, f, out=ey), out=ey)
        np.add(np.multiply(dx, ex, out=u), np.multiply(dy, ey, out=w), out=u)
        np.add(np.multiply(ex, ex, out=ex), np.multiply(ey, ey, out=ey), out=ex)
        np.divide(1.0, np.maximum(np.sqrt(ex, out=ex), 1e-12, out=ex), out=w)
        np.multiply(w, u, out=u)
        grad = -float(u.sum())
        curv_dd = float(np.multiply(w, dot_dd, out=ex).sum())
        if not curv_dd > 0.0:
            return math.nan, False
        curv = curv_dd - float(np.multiply(np.multiply(u, u, out=ey), w, out=ey).sum())
        if grad > 0.0:
            hi = f
        elif grad < 0.0:
            lo = f
        f_new = f - grad / curv if curv > 0.0 else math.nan
        if not (lo < f_new < hi and abs(f_new - f) <= 0.5 * (hi - lo)):
            f_new = f - grad / curv_dd
        if abs(f_new - f) <= _FOCAL_RTOL * max(1.0, abs(f)):
            return f_new, True
        f = f_new
    return f, False


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (K, n) arrays through BLAS, which rounds
    the way np.dot does for one pair of vectors."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _dot2(x0, x1, y0, y1) -> np.ndarray:
    """x0 y0 + x1 y1 per row, summed by the BLAS dot (see `_dot`)."""
    return _dot(np.stack(np.broadcast_arrays(x0, x1), axis=1),
                np.stack(np.broadcast_arrays(y0, y1), axis=1))


def _p3p_batch(world: np.ndarray, bearings: np.ndarray):
    """Minimal absolute-pose candidates for K samples at once.

    ``world`` (K, 3, 3) holds three world points per sample and
    ``bearings`` (K, 3, 3) their unit bearings. Returns rotations
    (K, 4, 3, 3), translations (K, 4, 3) with cam = R @ world + t, and a
    (K, 4) mask of the candidates that exist, in ascending root order;
    entries outside the mask are finite but meaningless.

    Classical three-point resection: with camera-to-point distances
    s1, s2 = u*s1, s3 = v*s1, the law of cosines in the three point
    triangles gives a linear expression for u in v and a quartic in v.
    The quartic's coefficients are its elimination in closed form, its
    roots are the eigenvalues of one (K, 4, 4) stack of companion
    matrices, and every root's pose comes from one batched Kabsch fit.
    Coincident or collinear points, a zero bearing and a quartic whose
    monic form is not finite (a zero leading coefficient included) yield
    no candidate.
    """
    k_count = world.shape[0]
    p1, p2, p3 = world[:, 0], world[:, 1], world[:, 2]
    a2 = _dot(p2 - p3, p2 - p3)
    b2 = _dot(p1 - p3, p1 - p3)
    c2 = _dot(p1 - p2, p1 - p2)
    longest = np.maximum(np.maximum(a2, b2), c2)
    # Collinear world points leave a one-parameter pose family; reject.
    cross = np.cross(p2 - p1, p3 - p1)
    area2 = np.sqrt(_dot(cross, cross)) ** 2
    ok = ((np.minimum(np.minimum(a2, b2), c2) > 0.0) & ~(area2 < 1e-18 * longest ** 2)
          & np.all(np.any(bearings != 0.0, axis=2), axis=1))

    f1, f2, f3 = bearings[:, 0], bearings[:, 1], bearings[:, 2]
    cos_a = _dot(f2, f3)
    cos_b = _dot(f1, f3)
    cos_g = _dot(f1, f2)

    # Law-of-cosines system, eliminating s1 and u:
    #   u^2 + v^2 - 2uv cos_a = (a2/b2) * q(v)
    #   1 + u^2 - 2u cos_g    = (c2/b2) * q(v)      with q(v) = 1 + v^2 - 2v cos_b
    # Subtracting gives u = u_num(v) / den(v) with u_num = n0 + n1 v + n2 v^2
    # and den = e0 + e1 v; substituting back into the second equation and
    # clearing den^2 yields the quartic
    #   den^2 + u_num^2 - 2 cos_g u_num den - (c2/b2) q den^2 = 0.
    # Each product coefficient is summed the way np.convolve sums it (a
    # BLAS dot at the ends, plain left-to-right sums in the middle), so
    # the coefficients are bit-identical to the numpy.polynomial
    # elimination.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        big_a = (a2 - c2) / b2
        n0, n1, n2 = big_a + 1.0, -2.0 * big_a * cos_b, big_a - 1.0
        e0, e1 = 2.0 * cos_g, -2.0 * cos_a
        qb = -2.0 * cos_b
        d0, d1, d2 = e0 * e0, e0 * e1 + e1 * e0, e1 * e1
        # Coefficients, low to high, of den^2, u_num^2, u_num den, q den^2.
        den2 = (d0, d1, d2, 0.0, 0.0)
        uu = (n0 * n0, _dot2(n0, n1, n1, n0), n0 * n2 + n1 * n1 + n2 * n0,
              _dot2(n1, n2, n2, n1), n2 * n2)
        ud = (n0 * e0, n0 * e1 + n1 * e0, n1 * e1 + n2 * e0, n2 * e1, 0.0)
        qd = (d0, _dot2(1.0, qb, d1, d0), d2 + qb * d1 + d0, _dot2(qb, 1.0, d2, d1), d2)
        two_cg, ratio = 2.0 * cos_g, c2 / b2
        coeffs = np.stack([uu[i] + den2[i] - two_cg * ud[i] - ratio * qd[i]
                           for i in range(5)], axis=1)
        # Companion matrices in numpy.polynomial's layout: ones on the
        # subdiagonal, last column -c[:4] / c[4].
        last = -coeffs[:, :4] / coeffs[:, 4:]
        ok &= np.all(np.isfinite(coeffs), axis=1) & np.all(np.isfinite(last), axis=1)
        companion = np.zeros((k_count, 4, 4))
        companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
        companion[:, :, 3] = np.where(ok[:, None], last, 0.0)
        roots = np.sort(np.linalg.eigvals(companion), axis=1)

        v = roots.real
        # Root-level filters: real, positive v with a finite, positive u
        # and a positive q(v), so the distance s1 is real.
        den_v = e0[:, None] + e1[:, None] * v
        u = (n0[:, None] + (n1[:, None] + n2[:, None] * v) * v) / den_v
        q_v = 1.0 + v * v - 2.0 * v * cos_b[:, None]
        cand = (ok[:, None] & (np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(v)))
                & (v > 0) & (np.abs(den_v) >= 1e-12) & (u > 0) & (q_v > 0))
        s1 = np.sqrt(b2[:, None] / q_v)
        # Camera-frame points per root; roots outside the mask get a unit
        # triangle on both sides so the batched SVD sees only finite input.
        cam = np.stack([s1[..., None] * f1[:, None],
                        (u * s1)[..., None] * f2[:, None],
                        (v * s1)[..., None] * f3[:, None]], axis=2)
    unit = np.eye(3)
    cam = np.where(cand[..., None, None], cam, unit)
    wld = np.where(cand[..., None, None], world[:, None], unit)

    # Kabsch: cam = R @ world + t for every root at once.
    w_mean = wld.mean(axis=2)
    c_mean = cam.mean(axis=2)
    m = (cam - c_mean[..., None, :]).swapaxes(-1, -2) @ (wld - w_mean[..., None, :])
    rot = so3_project(m)
    trans = c_mean - (rot @ w_mean[..., None])[..., 0]
    return rot, trans, cand


def p3p_solve(world_pts: np.ndarray, bearings: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Minimal absolute-pose solutions from 3 points and 3 unit bearings:
    up to 4 (R, t) candidates with cam = R @ world + t, in ascending
    root order. A batch of one on `_p3p_batch`."""
    rot, trans, cand = _p3p_batch(np.asarray(world_pts, dtype=np.float64)[None],
                                  np.asarray(bearings, dtype=np.float64)[None])
    return [(rot[0, r], trans[0, r]) for r in np.flatnonzero(cand[0])]


def _sample_hypotheses(sp: np.ndarray, spx: np.ndarray, k: CameraIntrinsics):
    """Best P3P candidate per sample on the sample's own points.

    ``sp`` (K, m, 3) and ``spx`` (K, m, 2) hold each sample's points and
    pixels; the first three solve P3P and all m score it. A candidate is
    eligible when every sample point lies in front of the camera, and
    the least summed reprojection error wins, the earlier root on ties.
    Returns rotations (K, 3, 3), translations (K, 3) and a (K,) mask of
    the samples that have a winner.
    """
    homog = np.concatenate([spx[:, :3], np.ones((len(spx), 3, 1))], axis=2)
    rays = homog @ k.inverse_matrix().T
    norms = np.linalg.norm(rays, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        bearings = rays / norms[..., None]
    rot, trans, cand = _p3p_batch(sp[:, :3], bearings)

    # Reprojection of every sample point under every candidate, in the
    # arithmetic order of `_reproj_errors`.
    cam = rot @ sp.swapaxes(1, 2)[:, None]                     # (K, 4, 3, m)
    z = cam[:, :, 2] + trans[:, :, 2:3]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        du = (cam[:, :, 0] + trans[:, :, 0:1]) * k.f / z + k.c_x - spx[:, None, :, 0]
        dv = (cam[:, :, 1] + trans[:, :, 1:2]) * k.f / z + k.c_y - spx[:, None, :, 1]
        total = np.sqrt(du * du + dv * dv).sum(axis=2)
    total[~(cand & np.all(z > 0, axis=2))] = np.inf
    best = np.argmin(total, axis=1)
    rows = np.arange(len(best))
    return rot[rows, best], trans[rows, best], np.isfinite(total[rows, best])


def _reproj_errors(points: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics,
                   r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-point reprojection error in pixels; +inf behind the camera.

    Takes coordinate rows, ``points`` (3, N) and ``pixels`` (2, N), so
    every step is one pass over a contiguous row.
    """
    cam = r @ points
    u, v, z = cam
    z += t[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, shift, c, px in ((u, t[0], k.c_x, pixels[0]), (v, t[1], k.c_y, pixels[1])):
            row += shift
            row *= k.f
            row /= z
            row += c
            row -= px
            row *= row
        u += v
        errs = np.sqrt(u, out=u)
    errs[~(z > 0)] = np.inf
    return errs


def _gn_residuals(points: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics,
                  r: np.ndarray, t: np.ndarray):
    """Reprojection residuals (r_u | r_v), shape (2N,), of coordinate rows
    ``points`` (3, N) and ``pixels`` (2, N) under (r, t), along with the
    rotated points w = R p and the depths w_z + t_z, which the Jacobian
    reuses. The camera points w + t are formed one row at a time and not
    kept. A point at or behind the camera gets a non-finite residual, and
    no warning: `refine_pose` tests the depths itself."""
    n = points.shape[1]
    w = r @ points
    z = np.add(w[2], t[2])
    res = np.empty(2 * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, c in ((0, k.c_x), (1, k.c_y)):
            out = np.add(w[row], t[row], out=res[row * n:(row + 1) * n])
            out *= k.f
            out /= z
            out += c
            out -= pixels[row]
    return res, w, z


def _gn_normal_equations(res: np.ndarray, w: np.ndarray, z: np.ndarray,
                         t: np.ndarray, f: float):
    """Gauss-Newton system H = J J^T, g = J r from closed-form Jacobian rows.

    With w = R p, (x, y, z) = w + t, a = f/z and b = -f (x, y)/z^2, the
    rows of (u, v) in the left-multiplicative rotation update omega and
    the translation are

        J_u = [b_x w_y, a w_z - b_x w_x, -a w_y, a, 0, b_x]
        J_v = [b_y w_y - a w_z, -b_y w_x, a w_x, 0, a, b_y]

    H and g are summed over consecutive blocks of `_LO_POINTS`
    correspondences. Each block's rows are written into the two halves
    of one (6, 2 min(N, _LO_POINTS)) buffer, matching the (r_u | r_v)
    layout of ``res``, so a block's H and g are one BLAS call each. At
    N <= `_LO_POINTS` the one block is the whole system.
    """
    n = z.shape[0]
    jac = np.empty((6, 2 * min(n, _LO_POINTS)))
    h, g = np.zeros((6, 6)), np.zeros(6)
    for lo in range(0, n, _LO_POINTS):
        hi = min(lo + _LO_POINTS, n)
        block = jac[:, :2 * (hi - lo)]
        _fill_jacobian(block, w[:, lo:hi], z[lo:hi], t, f)
        if hi - lo == n:
            return block @ block.T, block @ res
        h += block @ block.T
        g += block @ np.concatenate((res[lo:hi], res[n + lo:n + hi]))
    return h, g


def _fill_jacobian(jac: np.ndarray, w: np.ndarray, z: np.ndarray, t: np.ndarray,
                   f: float):
    """Write the `_gn_normal_equations` rows of the points ``w`` (3, m)
    with depths ``z`` into ``jac`` (6, 2m): J_u in the first half, J_v in
    the second."""
    m = z.shape[0]
    ju, jv = jac[:, :m], jac[:, m:]
    wx, wy, wz = w
    a = np.divide(f, z, out=ju[3])
    jv[4] = a
    ju[4] = 0.0
    jv[3] = 0.0
    minus_f_z2 = -a / z
    # x = w_x + t_x and y = w_y + t_y are formed in the rows of b.
    b_x = np.multiply(np.add(wx, t[0], out=ju[5]), minus_f_z2, out=ju[5])
    b_y = np.multiply(np.add(wy, t[1], out=jv[5]), minus_f_z2, out=jv[5])
    a_wz = a * wz
    np.multiply(b_x, wy, out=ju[0])
    np.subtract(a_wz, np.multiply(b_x, wx, out=ju[1]), out=ju[1])
    np.negative(np.multiply(a, wy, out=ju[2]), out=ju[2])
    np.subtract(np.multiply(b_y, wy, out=jv[0]), a_wz, out=jv[0])
    np.negative(np.multiply(b_y, wx, out=jv[1]), out=jv[1])
    np.multiply(a, wx, out=jv[2])


def refine_pose(points: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics,
                r0: np.ndarray, t0: np.ndarray,
                max_steps: int = _REFINE_ITERS) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton refinement of reprojection error.

    Left-multiplicative axis-angle update on the rotation; each step
    solves H delta = -g from one normal-equation build. ``points``
    (N, 3) and ``pixels`` (N, 2) are worked on as coordinate rows, which
    is free when they are transposed views of (3, N)/(2, N) arrays.

    At most ``max_steps`` steps are taken. With E the squared pixel
    error, a step that changes E by at most `_REFINE_RTOL` * max(E, 1)
    is taken and ends refinement:

    - a step that lowers E that little has converged;
    - a step that raises E that little is at the rounding floor of E,
      where E no longer tells the two poses apart, and the step, solved
      from the gradient, is the better estimate.

    Otherwise a step is taken when it lowers E, and refinement ends at
    the first step that does not, or that puts a point at or behind the
    camera, or at a singular H. A start with a point at or behind its
    camera is returned unchanged. Every rule tests pixels or signs, so
    scaling the points and the start translation by s scales the
    returned translation by s and moves nothing else.
    """
    pts = np.ascontiguousarray(points.T)
    pix = np.ascontiguousarray(pixels.T)
    r, t = r0.copy(), t0.copy()
    res, w_pts, z = _gn_residuals(pts, pix, k, r, t)
    if not np.all(z > 0.0):
        return r, t
    err = float(res @ res)
    for _ in range(max_steps):
        h, g = _gn_normal_equations(res, w_pts, z, t, k.f)
        try:
            delta = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        r_new = axis_angle_matrix(delta[:3], float(np.linalg.norm(delta[:3]))) @ r
        t_new = t + delta[3:]
        res_new, w_new, z_new = _gn_residuals(pts, pix, k, r_new, t_new)
        if not np.all(z_new > 0.0):
            break
        err_new = float(res_new @ res_new)
        if abs(err_new - err) <= _REFINE_RTOL * max(err, 1.0):
            return r_new, t_new
        if not err_new < err:
            break
        r, t, err = r_new, t_new, err_new
        res, w_pts, z = res_new, w_new, z_new
    return r, t


def _msac(errs: np.ndarray) -> float:
    """MSAC score: the squared reprojection errors truncated at the squared
    inlier threshold, summed (Torr & Zisserman, CVIU 2000); lower is better."""
    return float(np.minimum(errs * errs, _INLIER_THRESHOLD_PX ** 2).sum())


def _ransac_hypothesis(points: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics,
                       rng_seed: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The best minimal-sample pose of coordinate rows ``points`` (3, N)
    and ``pixels`` (2, N), with its per-point reprojection errors.

    Minimal P3P hypotheses (with a 4th sample point for disambiguation)
    are scored by inlier count with mean inlier reprojection error as the
    tie-break, until the adaptive stop for `_RANSAC_CONFIDENCE`.
    """
    n_valid = points.shape[1]
    rng = np.random.default_rng(rng_seed)

    best_count = 0
    best_mean = np.inf
    best_pose = None
    best_errs = None
    needed = _RANSAC_ITERS

    it = 0
    while it < needed:
        # Draw a chunk of samples, one choice call each so the stream is
        # the one-at-a-time stream, and solve their P3P in one batch;
        # then walk them in order. Samples past an adaptive stop inside
        # the chunk are drawn but never scored.
        samples = np.stack([rng.choice(n_valid, size=_MIN_SAMPLE, replace=False)
                            for _ in range(min(_P3P_CHUNK, needed - it))])
        # Row-major samples: small BLAS products can round differently
        # by layout, and the hypotheses should not depend on it.
        rots, trans, found = _sample_hypotheses(
            np.ascontiguousarray(points[:, samples].transpose(1, 2, 0)),
            np.ascontiguousarray(pixels[:, samples].transpose(1, 2, 0)), k)
        for s in range(len(samples)):
            if it >= needed:
                break
            it += 1
            if not found[s]:
                continue
            cand_pose = (rots[s], trans[s])
            errs = _reproj_errors(points, pixels, k, *cand_pose)
            inl = errs < _INLIER_THRESHOLD_PX
            count = int(np.count_nonzero(inl))
            if count == 0:
                continue
            mean_err = float(errs[inl].mean())
            if count > best_count or (count == best_count and mean_err < best_mean):
                best_count, best_mean = count, mean_err
                best_pose, best_errs = cand_pose, errs
                # Adaptive stop: enough iterations to hit an all-inlier
                # minimal sample with confidence `_RANSAC_CONFIDENCE`.
                w = min(count / n_valid, 1.0 - 1e-12)
                denom = math.log1p(-(w ** _MIN_SAMPLE))
                if denom < 0:
                    needed = min(_RANSAC_ITERS, max(
                        it, int(math.ceil(math.log1p(-_RANSAC_CONFIDENCE) / denom))))

    if best_pose is None or best_count < _MIN_SAMPLE:
        raise NoPoseFoundError(
            f"no consensus set of >= {_MIN_SAMPLE} inliers after {it} iterations"
        )
    return best_pose, best_errs


def pnp_ransac(pm2_in_1: Pointmap, k: CameraIntrinsics,
               rng_seed: int = 0) -> RelativePoseResult:
    """Robust world-to-camera pose of view 2 from its pointmap in view 1's frame.

    2D correspondences are view 2's own pixel grid at the pointmap's
    valid pixels. RANSAC (`_ransac_hypothesis`) and local optimization
    (Chum, Matas & Kittler, DAGM 2003, in its simple form: one
    least-squares refit on the hypothesis's inliers) run on every s-th
    correspondence, s = ceil(n / _LO_POINTS): RANSAC selects a P3P
    hypothesis by its score on the subset, one Gauss-Newton refinement
    (`refine_pose`) on the subset's inliers follows, and the refinement
    is kept when it lowers the subset's MSAC score. At s = 1 the subset
    is the full set and this LO pose is returned. When s > 1, one
    full-resolution reprojection of the LO pose gives its inliers,
    `_POLISH_STEPS` (one) Gauss-Newton step on them polishes it, and the
    polished pose is returned with the inliers of a second
    full-resolution reprojection. The polish takes only a step that
    lowers the squared error over those inliers, or changes it by at
    most `_REFINE_RTOL` relative, and every other point adds at most the
    truncated square to MSAC, so the polished pose scores no worse than
    the LO pose, which scores no worse than the hypothesis.
    Deterministic for a fixed ``rng_seed``.
    """
    valid = pm2_in_1.mask.reshape(-1)
    n_valid = int(np.count_nonzero(valid))
    if n_valid < _MIN_SAMPLE:
        raise InsufficientDataError(
            f"PnP needs >= {_MIN_SAMPLE} valid pixels, got {n_valid}"
        )
    # Coordinate rows (3, N) and (2, N): scoring and refinement run one
    # contiguous pass per coordinate.
    valid_idx = np.flatnonzero(valid)
    points = np.ascontiguousarray(pm2_in_1.points.reshape(-1, 3)[valid_idx].T)
    pixels = np.empty((2, n_valid))
    pixels[0] = valid_idx % pm2_in_1.width
    pixels[1] = valid_idx // pm2_in_1.width
    thr = _INLIER_THRESHOLD_PX

    # RANSAC and local optimization on the strided subset.
    stride = -(-n_valid // _LO_POINTS)
    sub_points = np.ascontiguousarray(points[:, ::stride])
    sub_pixels = np.ascontiguousarray(pixels[:, ::stride])
    pose, errs = _ransac_hypothesis(sub_points, sub_pixels, k, rng_seed)
    inl = errs < thr
    refined = refine_pose(sub_points.compress(inl, axis=1).T,
                          sub_pixels.compress(inl, axis=1).T, k, *pose)
    refined_errs = _reproj_errors(sub_points, sub_pixels, k, *refined)
    if _msac(refined_errs) < _msac(errs):
        pose, errs = refined, refined_errs

    if stride > 1:
        inl = _reproj_errors(points, pixels, k, *pose) < thr
        pose = refine_pose(points.compress(inl, axis=1).T,
                           pixels.compress(inl, axis=1).T, k, *pose, _POLISH_STEPS)
        errs = _reproj_errors(points, pixels, k, *pose)
    inl = errs < thr

    full_mask = np.zeros(pm2_in_1.height * pm2_in_1.width, dtype=bool)
    full_mask[valid_idx[inl]] = True
    return RelativePoseResult(
        transform=RigidTransform.from_matrix_parts(pose[0], pose[1]),
        inlier_mask=full_mask.reshape(pm2_in_1.height, pm2_in_1.width),
        inlier_count=int(np.count_nonzero(inl)),
        focal=k.f,
        mean_inlier_reproj_err=float(errs[inl].mean()),
    )
