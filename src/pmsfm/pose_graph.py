"""Sequence connectivity graph and rotation/translation averaging.

Frame conventions: an edge (i, j) carries the rigid transform mapping
frame-j camera coordinates to frame-i camera coordinates. The averaging
variables consistent with that are camera-to-world rotations ``A_k`` and
camera centers ``u_k`` in the frame-0 gauge: a noiseless edge satisfies
``A_j = A_i @ R_ij`` and ``A_i @ t_ij = u_j - u_i``. A PnP result for
the ordered pair (i, j) is the pose of camera j with frame i acting as
world, so the edge measurement is its SE(3) inverse.
``assemble_global`` converts the averaged variables back to
world-to-camera poses.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components

from .errors import (
    ConvergenceWarning,
    DisconnectedGraphError,
    InsufficientDataError,
    ShapeMismatchError,
    ValidationError,
)
from .geometry import RigidTransform, _freeze, check_rigid, so3_project
from .relative_pose import RelativePoseResult

# Cap on the Newton solves of one rotation averaging, rejected steps included.
_MAX_ITERATIONS = 100
_CERTIFICATE_REL_TOL = 1e-6
# Least inlier fraction of a pair that becomes an edge without rescue.
QUALITY_THRESHOLD = 0.25


@dataclass(frozen=True)
class Edge:
    """Directed measurement: frame-j coordinates -> frame-i coordinates."""

    i: int
    j: int
    rotation: np.ndarray
    translation: np.ndarray
    weight: float
    quality: float
    rescued: bool = False

    def __post_init__(self):
        if self.i == self.j:
            raise ValidationError(f"self-loop edge at frame {self.i}")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValidationError(f"edge weight must be finite and positive, got {self.weight}")
        r, t = np.asarray(self.rotation, np.float64), np.asarray(self.translation, np.float64)
        if (r.shape, t.shape) != ((3, 3), (3,)):
            raise ShapeMismatchError(f"edge ({self.i},{self.j}): shapes {r.shape}, {t.shape}")
        object.__setattr__(self, "rotation", _freeze(r))
        object.__setattr__(self, "translation", _freeze(t))


@dataclass(frozen=True)
class EdgeArrays:
    """A graph's edges stacked in edge order, with its support.

    ``components`` are the connected components of the undirected
    support graph over the covered vertices: each one ascending, and
    ordered by its lowest vertex.
    """

    i: np.ndarray            # (E,) frame indices
    j: np.ndarray            # (E,)
    weight: np.ndarray       # (E,)
    rotation: np.ndarray     # (E, 3, 3)
    translation: np.ndarray  # (E, 3)
    covered: np.ndarray      # (n_frames,) bool
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PoseGraph:
    n_frames: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if not (0 <= e.i < self.n_frames and 0 <= e.j < self.n_frames):
                raise ValidationError(f"edge ({e.i},{e.j}) outside 0..{self.n_frames - 1}")
            if (e.i, e.j) in seen:
                raise ValidationError(f"duplicate edge ({e.i},{e.j})")
            seen.add((e.i, e.j))
        object.__setattr__(self, "edges", tuple(self.edges))
        a = self.edge_arrays
        check_rigid(a.rotation, a.translation, lambda k: f"edge ({a.i[k]},{a.j[k]})")

    @functools.cached_property
    def edge_arrays(self) -> EdgeArrays:
        """The edges stacked once per graph, with its connected
        components; the arrays are read-only, so every solve shares them."""
        i = np.array([e.i for e in self.edges], dtype=np.intp)
        j = np.array([e.j for e in self.edges], dtype=np.intp)
        covered = np.zeros(self.n_frames, dtype=bool)
        covered[i] = covered[j] = True
        support = sp.coo_matrix((np.ones(len(i)), (i, j)), shape=(self.n_frames,) * 2)
        labels = connected_components(support, directed=False)[1][covered]
        order = np.argsort(labels, kind="stable")  # stable: each group stays ascending
        groups = np.split(np.flatnonzero(covered)[order],
                          np.flatnonzero(np.diff(labels[order])) + 1)
        components = sorted(tuple(g.tolist()) for g in groups if len(g))
        return EdgeArrays(
            i=_freeze(i), j=_freeze(j),
            weight=_freeze(np.array([e.weight for e in self.edges], dtype=np.float64)),
            rotation=_freeze(np.array([e.rotation for e in self.edges]).reshape(-1, 3, 3)),
            translation=_freeze(np.array([e.translation for e in self.edges]).reshape(-1, 3)),
            covered=_freeze(covered),
            components=tuple(components),
        )

    def covered_vertices(self) -> np.ndarray:
        return self.edge_arrays.covered.copy()

    def components(self) -> list[list[int]]:
        """Connected components of the undirected support graph,
        restricted to vertices incident to at least one edge."""
        return [list(c) for c in self.edge_arrays.components]


@dataclass(frozen=True)
class GlobalPoses:
    """Per-frame world-to-camera poses plus recovery flags.

    Unrecovered frames carry identity placeholders and are excluded from
    every metric except the detection rate.
    """

    rotations: np.ndarray
    translations: np.ndarray
    recovered: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotations, dtype=np.float64)
        t = np.asarray(self.translations, dtype=np.float64)
        rec = np.asarray(self.recovered, dtype=bool)
        n = len(rec)
        if r.shape != (n, 3, 3) or t.shape != (n, 3):
            raise ValidationError(
                f"expected ({n},3,3) rotations and ({n},3) translations, "
                f"got {r.shape} and {t.shape}"
            )
        check_rigid(r, t, lambda k: f"frame {k}")
        object.__setattr__(self, "rotations", r)
        object.__setattr__(self, "translations", t)
        object.__setattr__(self, "recovered", rec)

    @property
    def n_frames(self) -> int:
        return len(self.recovered)

    def centers(self) -> np.ndarray:
        """Camera centers c = -R^T t, shape (N, 3)."""
        return -np.einsum("kij,ki->kj", self.rotations, self.translations)

    def pose(self, k: int) -> RigidTransform:
        return RigidTransform(self.rotations[k], self.translations[k])


def build_graph(pair_results: list[tuple[int, int, RelativePoseResult, int]],
                n_frames: int, quality_threshold: float = QUALITY_THRESHOLD,
                pair_validity: dict[tuple[int, int], bool] | None = None) -> PoseGraph:
    """Filter pairwise measurements into a connected pose graph.

    ``pair_results`` entries are (i, j, result, n_valid) with ``result``
    the PnP output for reference view i and ``n_valid`` the pair's valid
    pixel count. Edges keep pairs whose inlier fraction reaches
    ``quality_threshold`` and that ``pair_validity`` (keyed by either
    order of the pair) does not mark invalid; temporal-neighbor edges
    (i, i+1) are force-included (flagged rescued) so a weak but measured
    neighbor never disconnects the sequence. Each edge is weighted by its
    inlier count over the largest kept one. Vertices with no measurement
    at all are tolerated and left for assemble_global to flag; two or
    more measured components raise DisconnectedGraphError.
    """
    validity = pair_validity or {}
    kept: dict[tuple[int, int], tuple[RelativePoseResult, float, bool]] = {}
    candidates: dict[tuple[int, int], tuple[RelativePoseResult, float]] = {}
    for i, j, res, n_valid in pair_results:
        if i == j:
            raise ValidationError(f"pair ({i},{j}) is a self-pair")
        quality = res.inlier_count / max(n_valid, 1)
        candidates[(i, j)] = (res, quality)
        valid_pair = validity.get((i, j), validity.get((j, i), True))
        if valid_pair and quality >= quality_threshold:
            kept[(i, j)] = (res, quality, False)

    for (i, j), (res, quality) in candidates.items():
        if abs(i - j) == 1 and (i, j) not in kept and (j, i) not in kept:
            kept[(i, j)] = (res, quality, True)

    if not kept:
        return PoseGraph(n_frames=n_frames, edges=())

    max_inliers = max(res.inlier_count for res, _, _ in kept.values())
    items = sorted(kept.items())
    rt = np.array([res.transform.rotation for _, (res, _, _) in items]).transpose(0, 2, 1)
    trans = np.array([res.transform.translation for _, (res, _, _) in items])
    inverses = zip(so3_project(rt), ((-rt) @ trans[:, :, None])[:, :, 0])  # j -> i coords
    edges = []
    for ((i, j), (res, quality, rescued)), (r, t) in zip(items, inverses):
        weight = max(res.inlier_count / max(max_inliers, 1), 1e-12)
        edges.append(Edge(i=i, j=j, rotation=r, translation=t,
                          weight=weight, quality=quality, rescued=rescued))

    graph = PoseGraph(n_frames=n_frames, edges=tuple(edges))
    _check_connected(graph)
    return graph


def rotation_objective(graph: PoseGraph, rotations: np.ndarray) -> float:
    """Weighted chordal objective sum_k w * ||R_j - R_i @ R_ij||_F^2, the
    terms added left to right in edge order."""
    a = graph.edge_arrays
    rot = np.asarray(rotations)
    diff = rot[a.j] - rot[a.i] @ a.rotation
    per_edge = (diff * diff).reshape(-1, 9).sum(axis=1)
    return functools.reduce(operator.add, (a.weight * per_edge).tolist(), 0.0)


def _check_connected(graph: PoseGraph) -> EdgeArrays:
    a = graph.edge_arrays
    if not graph.edges:
        raise InsufficientDataError("pose graph has no edges")
    if len(a.components) > 1:
        comps = graph.components()
        raise DisconnectedGraphError(
            f"pose graph splits into {len(comps)} components: {comps}",
            components=comps,
        )
    return a


def _block_laplacian(a: EdgeArrays, vertices: np.ndarray,
                     coupling: np.ndarray) -> sp.bsr_matrix:
    """The 3x3-block matrix L over ``vertices`` (ascending) to which edge
    k adds w I at blocks (i, i) and (j, j), -w C_k at (i, j) and
    -w C_k^T at (j, i); blocks shared by several edges are summed.

    tr(Y^T L Y) = sum_k w ||Y_j - C_k^T Y_i||_F^2 for Y stacking 3x3
    blocks, so with C_k = R_ij and Y_v = R_v^T it is the chordal
    objective, and with C_k = I it is the normal matrix of translation
    averaging. Blocks are stored row by row, each row's in column order.
    """
    m = len(vertices)
    i, j = np.searchsorted(vertices, a.i), np.searchsorted(vertices, a.j)
    w = a.weight[:, None, None]
    diagonal = np.broadcast_to(w * np.eye(3), (len(i), 3, 3))
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i])
    keys, slot = np.unique(rows * m + cols, return_inverse=True)
    data = np.zeros((len(keys), 3, 3))
    np.add.at(data, slot.reshape(-1), np.concatenate(
        [diagonal, diagonal, -w * coupling, -w * coupling.transpose(0, 2, 1)]))
    indptr = np.searchsorted(keys // m, np.arange(m + 1))
    return sp.bsr_matrix((data, keys % m, indptr), shape=(3 * m, 3 * m))


def _free_system(mat: sp.spmatrix) -> sp.csc_matrix:
    """``mat`` without the anchor's (first) block row and column."""
    return mat.tocsr()[3:, 3:].tocsc()


def _dual_blocks(lap: sp.bsr_matrix, y: np.ndarray) -> np.ndarray:
    """P_v = (L Y)_v Y_v^T for every block of Y; tr(Y^T L Y) = sum_v tr P_v."""
    return (lap @ y.reshape(-1, 3)).reshape(y.shape) @ y.transpose(0, 2, 1)


def _block_rows(lap: sp.bsr_matrix) -> np.ndarray:
    """The block row of each block in ``lap.data``."""
    return np.repeat(np.arange(lap.shape[0] // 3), np.diff(lap.indptr))


# [e_q]x for q = 0, 1, 2: [w]x = sum_q w_q _SKEW[q], and [w]x v = w x v.
_SKEW = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                  [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                  [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


def _vee(m: np.ndarray) -> np.ndarray:
    """(M32 - M23, M13 - M31, M21 - M12) over the last two axes: for skew
    M = [w]x it is 2w, and tr([w]x M^T) = w . vee(M)."""
    return np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                     m[..., 1, 0] - m[..., 0, 1]], axis=-1)


def _chordal_start(lap: sp.bsr_matrix) -> np.ndarray:
    """Blocks Y minimizing tr(Y^T L Y) with the anchor block fixed to I,
    each projected to SO(3): L_ff X = -L_fa, three right-hand sides
    sharing one factorization."""
    free = _free_system(lap)
    rhs = -lap.tocsr()[3:, :3].toarray()
    try:
        solution = spla.spsolve(free, rhs)
    except RuntimeError:
        solution = np.linalg.lstsq(free.toarray(), rhs, rcond=None)[0]
    y = np.tile(np.eye(3), (lap.shape[0] // 3, 1, 1))
    y[1:] = so3_project(np.asarray(solution).reshape(-1, 3, 3))
    return y


def _newton_model(lap: sp.bsr_matrix, y: np.ndarray,
                  p: np.ndarray) -> tuple[np.ndarray, sp.csc_matrix]:
    """Gradient and Hessian of f(w) = tr(Y(w)^T L Y(w)) at w = 0, Y(w)_v =
    so3_project((I + [w_v]x) Y_v), over the free blocks.

    The gradient block of vertex v is 2 vee(P_v). The Hessian has L's
    block pattern: column q of block (u, v) is 2 vee(L_uv [e_q]x Y_v
    Y_u^T), and each diagonal block also gets 2 (sym P_v - tr(P_v) I),
    the curvature of the retraction.
    """
    rows = _block_rows(lap)
    pair = (y[lap.indices] @ y[rows].transpose(0, 2, 1))[:, None]
    blocks = 2.0 * _vee(lap.data[:, None] @ _SKEW @ pair).transpose(0, 2, 1)
    trace = np.trace(p, axis1=1, axis2=2)[:, None, None]
    blocks[lap.indices == rows] += (p + p.transpose(0, 2, 1)) - 2.0 * trace * np.eye(3)
    hess = sp.bsr_matrix((blocks, lap.indices, lap.indptr), shape=lap.shape)
    return 2.0 * _vee(p[1:]).reshape(-1), _free_system(hess)


def _newton(lap: sp.bsr_matrix, y: np.ndarray,
            total_weight: float) -> tuple[np.ndarray, bool]:
    """Damped Riemannian Newton descent on f = tr(Y^T L Y) over the free
    blocks of Y, the anchor block held at I.

    A step solves (H_ff + mu I) w = -g_f (see `_newton_model`) and sets
    Y_v <- so3_project((I + [w_v]x) Y_v). It is taken when f rises by at
    most tol = 1e-12 (f + sum w); otherwise (a non-finite step included)
    mu grows to max(10 mu, 1e-12 sum w) and the step is solved again
    (Levenberg-Marquardt).
    A taken step divides mu by 10, and one that lowers f by at most tol
    ends the descent. Every tolerance scales with the weights, so
    rescaling them cannot change the iterates. Each solve counts
    against `_MAX_ITERATIONS`; the flag tells whether the descent ended
    before it.
    """
    eye = sp.identity(lap.shape[0] - 3, format="csc")
    p = _dual_blocks(lap, y)
    f = float(np.trace(p, axis1=1, axis2=2).sum())
    grad, hess = _newton_model(lap, y, p)
    mu = 0.0
    for _ in range(_MAX_ITERATIONS):
        tol = 1e-12 * (f + total_weight)
        step = spla.spsolve(hess + mu * eye, -grad).reshape(-1, 3)
        trial_f = math.inf  # a non-finite step counts as a rise
        if np.isfinite(step).all():
            trial = y.copy()
            hat = (step @ _SKEW.reshape(3, 9)).reshape(-1, 3, 3)
            trial[1:] = so3_project((np.eye(3) + hat) @ y[1:])
            trial_p = _dual_blocks(lap, trial)
            trial_f = float(np.trace(trial_p, axis1=1, axis2=2).sum())
        if trial_f > f + tol:
            mu = max(10.0 * mu, 1e-12 * total_weight)
            continue
        decrease = f - trial_f
        y, p, f = trial, trial_p, trial_f
        mu /= 10.0
        if decrease <= tol:
            return y, True
        grad, hess = _newton_model(lap, y, p)
    return y, False


def rotation_averaging(graph: PoseGraph) -> np.ndarray:
    """Absolute rotations minimizing the weighted chordal objective.

    The chordal start followed by a damped Riemannian Newton descent
    (`_newton`), which stops at a stationary point; `rotation_certificate`
    tells whether it is the global minimum. The lowest measured frame is
    the anchor and carries the identity exactly; frames with no edges
    also carry the identity.
    """
    a = _check_connected(graph)
    vertices = np.flatnonzero(a.covered)
    lap = _block_laplacian(a, vertices, a.rotation)
    y, converged = _newton(lap, _chordal_start(lap), sum(a.weight.tolist()))
    if not converged:
        warnings.warn("rotation averaging hit its sweep budget; "
                      "returning best iterate", ConvergenceWarning)
    rotations = np.tile(np.eye(3), (graph.n_frames, 1, 1))
    rotations[vertices] = y.transpose(0, 2, 1)
    return rotations


def rotation_certificate(graph: PoseGraph, rotations: np.ndarray) -> float:
    """lambda_min(Lambda - A) at the camera-to-world ``rotations``, over
    the covered vertices: A is symmetric with block (i, j) = w R_ij and
    block (j, i) = w R_ij^T summed over the edges, Y stacks the R_k^T,
    and Lambda is block diagonal with Lambda_k = sym((A Y)_k Y_k^T).
    It is computed as L - blockdiag(sym P_v) for the `_block_laplacian`
    L with C = R_ij and P_v = (L Y)_v Y_v^T, which is the same matrix.

    At a stationary point (Lambda - A) Y = 0, so the value is about zero
    or below. The rotations are certified globally optimal when it is at
    least -1e-6 times the largest weighted vertex degree (see
    `rotation_certified`), a floor that scales with the weights as the
    value does (Eriksson et al., "Rotation Averaging and Strong
    Duality", CVPR 2018).
    """
    a = graph.edge_arrays
    vertices = np.flatnonzero(a.covered)
    lap = _block_laplacian(a, vertices, a.rotation)
    p = _dual_blocks(lap, np.asarray(rotations)[vertices].transpose(0, 2, 1))
    lap.data[lap.indices == _block_rows(lap)] -= (p + p.transpose(0, 2, 1)) / 2.0
    return float(eigh(lap.toarray(), subset_by_index=[0, 0], eigvals_only=True)[0])


def rotation_certified(graph: PoseGraph, lambda_min: float) -> bool:
    """Whether a `rotation_certificate` value is at least -1e-6 times the
    largest weighted vertex degree (the sum of a vertex's edge weights)."""
    a = graph.edge_arrays
    degree = np.bincount(np.concatenate([a.i, a.j]),
                         weights=np.concatenate([a.weight, a.weight]))
    return lambda_min >= -_CERTIFICATE_REL_TOL * float(degree.max())


def translation_averaging(graph: PoseGraph, rotations: np.ndarray) -> np.ndarray:
    """Positions minimizing sum_k w * ||R_i @ t_ij - (u_j - u_i)||^2.

    The normal equations L u = b over the measured frames, with L the
    `_block_laplacian` for C = I and b adding w R_i t_ij at j and
    subtracting it at i; the anchor is eliminated (hard u_anchor = 0). A
    singular system falls back to a least-norm solve with a warning.
    """
    a = _check_connected(graph)
    vertices = np.flatnonzero(a.covered)
    lap = _block_laplacian(a, vertices, np.broadcast_to(np.eye(3), a.rotation.shape)).tocsr()
    lap.eliminate_zeros()
    ata = _free_system(lap)
    measured = a.weight[:, None] * (np.asarray(rotations)[a.i]
                                    @ a.translation[:, :, None])[:, :, 0]
    b = np.zeros((len(vertices), 3))
    np.add.at(b, np.searchsorted(vertices, a.j), measured)
    np.subtract.at(b, np.searchsorted(vertices, a.i), measured)
    atb = b[1:].reshape(-1)
    least_norm = False
    try:
        x = spla.spsolve(ata, atb)
        if not np.all(np.isfinite(x)):
            raise RuntimeError("singular normal equations")
    except RuntimeError:
        x = np.linalg.lstsq(ata.toarray(), atb, rcond=None)[0]
        least_norm = True
        warnings.warn("translation system is rank-deficient beyond the gauge; "
                      "using the least-norm solution", ConvergenceWarning)
    x = np.asarray(x).reshape(-1)

    if not least_norm:
        rel_res = np.linalg.norm(ata @ x - atb) / max(np.linalg.norm(atb), 1e-300)
        if rel_res > 1e-10:
            warnings.warn(f"translation normal equations residual {rel_res:.2e} "
                          "exceeds 1e-10", ConvergenceWarning)

    translations = np.zeros((graph.n_frames, 3))
    translations[vertices[1:]] = x.reshape(-1, 3)
    return translations


def assemble_global(rotations: np.ndarray, translations: np.ndarray,
                    recovered: np.ndarray) -> GlobalPoses:
    """Convert averaged variables to world-to-camera GlobalPoses.

    Inputs are the averaging-frame quantities (camera-to-world rotations
    and camera centers); unrecovered frames get identity placeholders.
    """
    rotations = np.asarray(rotations, dtype=np.float64)
    translations = np.asarray(translations, dtype=np.float64)
    recovered = np.asarray(recovered, dtype=bool)
    n = len(recovered)
    r_out = np.tile(np.eye(3), (n, 1, 1))
    t_out = np.zeros((n, 3))
    rt = rotations[recovered].transpose(0, 2, 1)
    r_out[recovered] = rt
    t_out[recovered] = ((-rt) @ translations[recovered][:, :, None])[:, :, 0]
    return GlobalPoses(rotations=r_out, translations=t_out, recovered=recovered)
