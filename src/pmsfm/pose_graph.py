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

_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 500
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
    _require_connected(graph)
    return graph


def _chordal_objective(rot: np.ndarray, i: np.ndarray, j: np.ndarray,
                       meas: np.ndarray, weight: np.ndarray) -> float:
    """sum_k w_k * ||R_j - R_i @ M_k||_F^2 over stacked edges, the terms
    added left to right in edge order."""
    diff = rot[j] - rot[i] @ meas
    per_edge = (diff * diff).reshape(-1, 9).sum(axis=1)
    return functools.reduce(operator.add, (weight * per_edge).tolist(), 0.0)


def rotation_objective(graph: PoseGraph, rotations: np.ndarray) -> float:
    """Weighted chordal objective sum_k w * ||R_j - R_i @ R_ij||_F^2."""
    a = graph.edge_arrays
    return _chordal_objective(np.asarray(rotations), a.i, a.j, a.rotation, a.weight)


def _require_connected(graph: PoseGraph) -> EdgeArrays:
    a = graph.edge_arrays
    if len(a.components) > 1:
        comps = graph.components()
        raise DisconnectedGraphError(
            f"pose graph splits into {len(comps)} components: {comps}",
            components=comps,
        )
    return a


def _check_connected(graph: PoseGraph) -> EdgeArrays:
    if not graph.edges:
        raise InsufficientDataError("pose graph has no edges")
    return _require_connected(graph)


def _block_columns(covered: np.ndarray, anchor: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-anchor measured vertices and each frame's first column
    among their 3-wide blocks (-1 for the rest)."""
    vertices = np.flatnonzero(covered)
    vertices = vertices[vertices != anchor]
    col = np.full(len(covered), -1, dtype=np.intp)
    col[vertices] = 3 * np.arange(len(vertices))
    return vertices, col


def _chordal_system(graph: PoseGraph, covered: np.ndarray,
                    anchor: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Sparse matrix, right-hand sides and unknown vertices of the
    block-linear relaxation R_j - R_i @ R_ij = 0 with R_anchor = I,
    transposed so each unknown block is R_v^T.

    Each edge contributes a 3-row block: the identity at column j, then
    -R_ij^T at column i (row-major); an anchor endpoint moves to the
    right-hand side instead.
    """
    a = graph.edge_arrays
    n_edges = len(a.weight)
    vertices, col = _block_columns(covered, anchor)
    w = np.sqrt(a.weight)
    rt = a.rotation.transpose(0, 2, 1)
    r = 3 * np.arange(n_edges)[:, None]
    a3, b9 = np.arange(3), np.tile(np.arange(3), 3)
    rows = np.hstack([r + a3, r + np.repeat(a3, 3)])
    cols = np.hstack([col[a.j][:, None] + a3, col[a.i][:, None] + b9])
    vals = np.hstack([np.repeat(w[:, None], 3, axis=1),
                      (-w[:, None, None] * rt).reshape(n_edges, 9)])
    keep = np.hstack([np.repeat((a.j != anchor)[:, None], 3, axis=1),
                      np.repeat((a.i != anchor)[:, None], 9, axis=1)])
    mat = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                        shape=(3 * n_edges, 3 * len(vertices))).tocsr()

    rhs = np.zeros((n_edges, 3, 3))
    at_j, at_i = a.j == anchor, a.i == anchor
    rhs[at_j] -= w[at_j, None, None] * np.eye(3)
    rhs[at_i] += w[at_i, None, None] * rt[at_i]
    return mat, rhs.reshape(3 * n_edges, 3), vertices


def _chordal_init(graph: PoseGraph, covered: np.ndarray, anchor: int) -> np.ndarray:
    """Solve the unconstrained block-linear relaxation with R_anchor = I
    and project each 3x3 block to SO(3).

    Rows of the rotation matrices decouple: three sparse least-squares
    systems share one matrix and differ only in the anchor's right-hand
    side, so the normal equations are factorized once.
    """
    a, rhs, vertices = _chordal_system(graph, covered, anchor)
    ata = (a.T @ a).tocsc()
    atb = a.T @ rhs
    try:
        solution = spla.spsolve(ata, atb)
    except RuntimeError:
        solution = np.linalg.lstsq(ata.toarray(), atb, rcond=None)[0]
    blocks = np.asarray(solution).reshape(len(vertices), 3, 3)

    rotations = np.tile(np.eye(3), (graph.n_frames, 1, 1))
    rotations[vertices] = so3_project(blocks.transpose(0, 2, 1))
    return rotations


def _block_descent(graph: PoseGraph, rotations: np.ndarray, covered: np.ndarray,
                   max_sweeps: int = _MAX_SWEEPS,
                   rel_tol: float = _SWEEP_TOL) -> tuple[np.ndarray, bool]:
    """Block-coordinate descent on the chordal objective in SO(3).

    Each update sets one block to the orthogonal-Procrustes optimum of
    its incident terms, so the objective is non-increasing; a violation
    beyond round-off is a bug and raises AssertionError.
    """
    a = graph.edge_arrays

    # Per vertex, its incident edges in edge order: the neighbours, the
    # weights and the coupling R_ij^T (outgoing) or R_ij (incoming), so
    # the Procrustes target sum_k w_k R_nbr @ C_k is one batched product.
    updates = []
    for v in np.flatnonzero(covered):
        k = np.flatnonzero((a.i == v) | (a.j == v))
        outgoing = a.i[k] == v
        coupling = np.where(outgoing[:, None, None], a.rotation[k].transpose(0, 2, 1),
                            a.rotation[k])
        updates.append((v, np.where(outgoing, a.j[k], a.i[k]),
                        a.weight[k, None, None], coupling))

    rot = rotations.copy()
    obj = _chordal_objective(rot, a.i, a.j, a.rotation, a.weight)
    # All tolerances scale with the problem so weight rescaling cannot
    # change the sweep count (the argmin is scale-invariant).
    weight_scale = sum(a.weight.tolist())
    converged = False
    for _ in range(max_sweeps):
        for v, nbr, w, coupling in updates:
            rot[v] = so3_project(((w * rot[nbr]) @ coupling).sum(axis=0))
        new_obj = _chordal_objective(rot, a.i, a.j, a.rotation, a.weight)
        if new_obj > obj + 1e-9 * (obj + weight_scale):
            raise AssertionError(
                f"block-descent objective increased: {obj} -> {new_obj}"
            )
        if obj - new_obj <= rel_tol * obj:
            obj = new_obj
            converged = True
            break
        obj = new_obj
    return rot, converged


def _gauge_fix(rotations: np.ndarray, covered: np.ndarray, anchor: int) -> np.ndarray:
    out = rotations.copy()
    out[covered] = so3_project(rotations[anchor].T @ rotations[covered])
    out[anchor] = np.eye(3)  # exact, not within round-off
    return out


def rotation_averaging(graph: PoseGraph, max_sweeps: int = _MAX_SWEEPS) -> np.ndarray:
    """Absolute rotations minimizing the weighted chordal objective.

    Chordal initialization followed by block-coordinate descent, which
    stops at a stationary point; `rotation_certificate` tells whether it
    is the global minimum. The gauge is fixed so the lowest measured
    frame carries the identity; frames with no edges also carry the
    identity.
    """
    covered = _check_connected(graph).covered
    anchor = int(np.flatnonzero(covered)[0])

    rotations = _chordal_init(graph, covered, anchor)
    rotations, converged = _block_descent(graph, rotations, covered,
                                          max_sweeps=max_sweeps)
    if not converged:
        warnings.warn("rotation averaging hit its sweep budget; "
                      "returning best iterate", ConvergenceWarning)
    return _gauge_fix(rotations, covered, anchor)


def rotation_certificate(graph: PoseGraph, rotations: np.ndarray) -> float:
    """lambda_min(Lambda - A) at the camera-to-world ``rotations``, over
    the covered vertices: A is symmetric with block (i, j) = w R_ij and
    block (j, i) = w R_ij^T summed over the edges, Y stacks the R_k^T,
    and Lambda is block diagonal with Lambda_k = sym((A Y)_k Y_k^T).

    At a stationary point (Lambda - A) Y = 0, so the value is about zero
    or below. The rotations are certified globally optimal when it is at
    least -1e-6 times the largest weighted vertex degree (see
    `rotation_certified`), a floor that scales with the weights as the
    value does (Eriksson et al., "Rotation Averaging and Strong
    Duality", CVPR 2018).
    """
    a = graph.edge_arrays
    vertices = np.flatnonzero(a.covered)
    m = len(vertices)
    i, j = np.searchsorted(vertices, a.i), np.searchsorted(vertices, a.j)  # block rows
    weighted = a.weight[:, None, None] * a.rotation
    blocks = np.zeros((m, m, 3, 3))
    np.add.at(blocks, (i, j), weighted)
    np.add.at(blocks, (j, i), weighted.transpose(0, 2, 1))
    adjacency = blocks.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)

    y = np.asarray(rotations)[vertices].transpose(0, 2, 1)  # the blocks of Y
    lam = (adjacency @ y.reshape(3 * m, 3)).reshape(m, 3, 3) @ y.transpose(0, 2, 1)
    diag = np.arange(m)
    blocks[diag, diag] -= (lam + lam.transpose(0, 2, 1)) / 2.0
    cert = -blocks.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)
    return float(eigh(cert, subset_by_index=[0, 0], eigvals_only=True)[0])


def rotation_certified(graph: PoseGraph, lambda_min: float) -> bool:
    """Whether a `rotation_certificate` value is at least -1e-6 times the
    largest weighted vertex degree (the sum of a vertex's edge weights)."""
    a = graph.edge_arrays
    degree = np.bincount(np.concatenate([a.i, a.j]),
                         weights=np.concatenate([a.weight, a.weight]))
    return lambda_min >= -_CERTIFICATE_REL_TOL * float(degree.max())


def _translation_system(graph: PoseGraph, rotations: np.ndarray, covered: np.ndarray,
                        anchor: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Sparse matrix, right-hand side and unknown vertices of
    sqrt(w) * (u_j - u_i) = sqrt(w) * R_i @ t_ij with u_anchor = 0.

    Each edge contributes a 3-row block: +I at column j, then -I at
    column i; an anchor endpoint contributes nothing.
    """
    a = graph.edge_arrays
    n_edges = len(a.weight)
    vertices, col = _block_columns(covered, anchor)
    w = np.sqrt(a.weight)
    r = 3 * np.arange(n_edges)[:, None]
    a3 = np.arange(3)
    rows = np.hstack([r + a3, r + a3])
    cols = np.hstack([col[a.j][:, None] + a3, col[a.i][:, None] + a3])
    vals = np.repeat(np.stack([w, -w], axis=1), 3, axis=1)
    keep = np.repeat(np.stack([a.j != anchor, a.i != anchor], axis=1), 3, axis=1)
    mat = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                        shape=(3 * n_edges, 3 * len(vertices))).tocsr()
    b = w[:, None] * (np.asarray(rotations)[a.i] @ a.translation[:, :, None])[:, :, 0]
    return mat, b.reshape(-1), vertices


def translation_averaging(graph: PoseGraph, rotations: np.ndarray) -> np.ndarray:
    """Positions minimizing sum_k w * ||R_i @ t_ij - (u_j - u_i)||^2.

    One sparse linear least-squares system over the non-anchor measured
    frames, with the anchor eliminated (hard u_anchor = 0). Solved via
    the normal equations; a singular system falls back to a least-norm
    solve with a warning.
    """
    covered = _check_connected(graph).covered
    anchor = int(np.flatnonzero(covered)[0])
    a, b, vertices = _translation_system(graph, rotations, covered, anchor)
    ata = (a.T @ a).tocsc()
    atb = a.T @ b
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
    translations[vertices] = x.reshape(-1, 3)
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
