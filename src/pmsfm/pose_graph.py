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

Every averaging system is a block Laplacian held as numpy block rows
(`_BlockRows`) and solved by `_solve`: with numpy's dense LAPACK when it
spans at most `_DENSE_MAX_FRAMES` frames, with scipy's SuperLU above
that. scipy is imported only on that sparse side, inside the functions
that use it, so a graph of up to 60 frames is built, averaged and
certified without loading it (its import costs about 0.2 s and 31 MiB).
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
# Largest number of covered frames whose averaging systems `_solve`
# factors densely with numpy; larger ones go to scipy's SuperLU. One Newton
# system through `_solve`, SuperLU against numpy (2-vCPU VM, one BLAS
# thread): complete graphs 0.34 vs 0.07 ms at 20 frames and 1.67 vs 0.49 ms
# at 60; window-10 chains 0.69 vs 0.44 ms at 60 frames, 0.80 vs 0.79 ms at
# 80, 1.26 vs 2.03 ms at 120. The crossover lies between 60 and 80 frames.
_DENSE_MAX_FRAMES = 60


def _edge_fault(i, j, weight) -> str | None:
    """What an edge shows wrong on its own, if anything: a self-loop, else
    a weight that is not finite and positive."""
    if i == j:
        return f"edge ({i},{j}): self-loop"
    if not (math.isfinite(weight) and weight > 0):
        return f"edge ({i},{j}): weight must be finite and positive, got {weight}"
    return None


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
        fault = _edge_fault(self.i, self.j, self.weight)
        if fault:
            raise ValidationError(fault)
        r, t = _freeze(self.rotation, np.float64), _freeze(self.translation, np.float64)
        if (r.shape, t.shape) != ((3, 3), (3,)):
            raise ShapeMismatchError(f"edge ({self.i},{self.j}): shapes {r.shape}, {t.shape}")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


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
    quality: np.ndarray      # (E,)
    rescued: np.ndarray      # (E,) bool
    covered: np.ndarray      # (n_frames,) bool
    components: tuple[tuple[int, ...], ...]


def _frame_column(values) -> np.ndarray:
    """Frame indices as an intp array; as Python ints where one lies
    outside intp, so the range check can name it."""
    try:
        return np.asarray(values, dtype=np.intp)
    except OverflowError:
        return np.asarray(values, dtype=object)


def _check_edges(n_frames: int, i: np.ndarray, j: np.ndarray, weight: np.ndarray,
                 rotation: np.ndarray, translation: np.ndarray):
    """Raise ValidationError naming the faulty edge (i, j) by the rule of
    `PoseGraph`: each check runs over the whole stack, in this order."""
    alone = (i == j) | ~(np.isfinite(weight) & (weight > 0))
    if alone.any():
        k = int(np.argmax(alone))
        raise ValidationError(_edge_fault(i[k], j[k], weight[k]))
    placed = (i >= 0) & (i < n_frames) & (j >= 0) & (j < n_frames)
    end = len(i) if placed.all() else int(np.argmin(placed))
    # Before the first misplaced edge every index lies in 0..n_frames-1.
    keys = np.ravel_multi_index((i[:end].astype(np.intp), j[:end].astype(np.intp)),
                                (n_frames, n_frames))
    repeat = np.ones(end, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    if repeat.any():
        k = int(np.argmax(repeat))
        raise ValidationError(f"duplicate edge ({i[k]},{j[k]})")
    if end < len(i):
        raise ValidationError(f"edge ({i[end]},{j[end]}) outside 0..{n_frames - 1}")
    check_rigid(rotation, translation, lambda k: f"edge ({i[k]},{j[k]})")


def _lowest_linked(n_frames: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """For every vertex, the lowest vertex that the undirected edges
    (i, j) link it to, by min-label propagation with pointer jumping.

    A label only falls and always names a vertex of its own component.
    Each round lowers both ends of every edge, and the vertices their
    labels name, to the lower of the two labels, then replaces every
    label by its label's label until none changes. A round that changes
    nothing leaves equal labels on the ends of every edge and each label
    naming itself, so a component's label is its lowest vertex.
    """
    label = np.arange(n_frames)
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, np.concatenate([i, j, label[i], label[j]]), np.tile(low, 4))
        jumped = new[new]
        while not np.array_equal(jumped, new):
            new, jumped = jumped, jumped[jumped]
        if np.array_equal(new, label):
            return label
        label = new


@dataclass(frozen=True, eq=False, init=False)
class PoseGraph:
    """A pose graph over frames 0..n_frames-1, held as its edges stacked in
    edge order (`edge_arrays`, read-only, shared by every solve).

    ``PoseGraph(n_frames, edges)`` stacks `Edge` objects and `from_arrays`
    takes the columns; both run one check, which raises ValidationError
    naming an edge (i, j). Of several faulty edges it names the first, in
    edge order, that is a self-loop or whose weight is not finite and
    positive; failing that, the first whose frame lies outside
    0..n_frames-1 or that repeats an earlier (i, j); failing that, the
    first whose transform is not finite or off SO(3). Within one edge a
    self-loop comes before its weight, and the range before the repeat.
    """

    n_frames: int
    edge_arrays: EdgeArrays

    def __init__(self, n_frames: int, edges):
        edges = tuple(edges)
        self._stack(n_frames, [e.i for e in edges], [e.j for e in edges],
                    np.array([e.rotation for e in edges]).reshape(-1, 3, 3),
                    np.array([e.translation for e in edges]).reshape(-1, 3),
                    [e.weight for e in edges], [e.quality for e in edges],
                    [e.rescued for e in edges])
        self.__dict__["edges"] = edges

    @classmethod
    def from_arrays(cls, n_frames: int, i, j, rotation, translation, weight, quality,
                    rescued) -> PoseGraph:
        """The graph of the edge columns: frame indices ``i``, ``j`` (E,),
        ``rotation`` (E, 3, 3), ``translation`` (E, 3), and ``weight``,
        ``quality`` and the ``rescued`` flags (E,)."""
        graph = cls.__new__(cls)
        graph._stack(n_frames, i, j, rotation, translation, weight, quality, rescued)
        return graph

    def _stack(self, n_frames, i, j, rotation, translation, weight, quality, rescued):
        i, j = _frame_column(i), _frame_column(j)
        weight = np.asarray(weight, dtype=np.float64)
        rotation = np.asarray(rotation, dtype=np.float64)
        translation = np.asarray(translation, dtype=np.float64)
        quality = np.asarray(quality, dtype=np.float64)
        rescued = np.asarray(rescued, dtype=bool)
        e = len(i)
        shapes = [a.shape for a in (j, rotation, translation, weight, quality, rescued)]
        if shapes != [(e,), (e, 3, 3), (e, 3), (e,), (e,), (e,)]:
            raise ShapeMismatchError(f"edge columns of {e} edges: shapes {shapes}")
        _check_edges(n_frames, i, j, weight, rotation, translation)
        i, j = i.astype(np.intp), j.astype(np.intp)
        covered = np.zeros(n_frames, dtype=bool)
        covered[i] = covered[j] = True
        labels = _lowest_linked(n_frames, i, j)[covered]
        order = np.argsort(labels, kind="stable")  # stable: each group stays ascending
        groups = np.split(np.flatnonzero(covered)[order],
                          np.flatnonzero(np.diff(labels[order])) + 1)
        components = [tuple(g.tolist()) for g in groups if len(g)]
        object.__setattr__(self, "n_frames", n_frames)
        object.__setattr__(self, "edge_arrays", EdgeArrays(
            i=_freeze(i), j=_freeze(j), weight=_freeze(weight), rotation=_freeze(rotation),
            translation=_freeze(translation), quality=_freeze(quality),
            rescued=_freeze(rescued), covered=_freeze(covered),
            components=tuple(components)))

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        """One `Edge` per edge: those the graph was built from, or else
        built on first read, as views of `edge_arrays`, and kept."""
        a = self.edge_arrays
        return tuple(map(Edge, a.i.tolist(), a.j.tolist(), a.rotation, a.translation,
                         a.weight.tolist(), a.quality.tolist(), a.rescued.tolist()))

    @property
    def n_edges(self) -> int:
        return len(self.edge_arrays.i)

    def covered_vertices(self) -> np.ndarray:
        return self.edge_arrays.covered.copy()


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
        r = _freeze(self.rotations, np.float64)
        t = _freeze(self.translations, np.float64)
        rec = _freeze(self.recovered, bool)
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


def build_graph(pair_results: list[tuple[int, int, RelativePoseResult]],
                n_frames: int, pair_validity: dict[tuple[int, int], bool] | None = None
                ) -> PoseGraph:
    """Filter pairwise measurements into a connected pose graph.

    ``pair_results`` entries are (i, j, result) with ``result`` the PnP
    output for reference view i. Edges keep pairs whose inlier fraction
    (``inlier_count / n_valid``) reaches `QUALITY_THRESHOLD` and that
    ``pair_validity`` (keyed by either order of the pair) does not mark
    invalid; temporal-neighbor edges (i, i+1) are force-included (flagged
    rescued) so a weak but measured neighbor never disconnects the
    sequence. Each edge is weighted by its inlier count over the largest
    kept one. No edge kept raises InsufficientDataError. Vertices with
    no measurement at all are tolerated and left for assemble_global to
    flag; two or more measured components raise DisconnectedGraphError.
    """
    validity = pair_validity or {}
    kept: dict[tuple[int, int], tuple[RelativePoseResult, float, bool]] = {}
    candidates: dict[tuple[int, int], tuple[RelativePoseResult, float]] = {}
    for i, j, res in pair_results:
        if i == j:
            raise ValidationError(f"pair ({i},{j}) is a self-pair")
        quality = res.inlier_count / max(res.n_valid, 1)
        candidates[(i, j)] = (res, quality)
        valid_pair = validity.get((i, j), validity.get((j, i), True))
        if valid_pair and quality >= QUALITY_THRESHOLD:
            kept[(i, j)] = (res, quality, False)

    for (i, j), (res, quality) in candidates.items():
        if abs(i - j) == 1 and (i, j) not in kept and (j, i) not in kept:
            kept[(i, j)] = (res, quality, True)

    if not kept:
        raise InsufficientDataError("no edges survive filtering")

    pairs = sorted(kept)
    results, quality, rescued = zip(*(kept[p] for p in pairs))
    max_inliers = max(res.inlier_count for res in results)
    rt = np.array([res.transform.rotation for res in results]).transpose(0, 2, 1)
    trans = np.array([res.transform.translation for res in results])
    i, j = zip(*pairs)
    graph = PoseGraph.from_arrays(  # the inverse of each pair pose: j -> i coords
        n_frames, i, j, so3_project(rt), ((-rt) @ trans[:, :, None])[:, :, 0],
        [max(res.inlier_count / max(max_inliers, 1), 1e-12) for res in results],
        quality, rescued)
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
    if not graph.n_edges:
        raise InsufficientDataError("pose graph has no edges")
    if len(a.components) > 1:
        comps = [list(c) for c in a.components]
        raise DisconnectedGraphError(
            f"pose graph splits into {len(comps)} components: {comps}",
            components=comps,
        )
    return a


class _BlockRows(NamedTuple):
    """A square matrix of k x k blocks over m vertices held by block rows,
    as BSR holds it: block row r is data[indptr[r]:indptr[r + 1]], in the
    ascending block columns indices[indptr[r]:indptr[r + 1]]."""

    data: np.ndarray     # (blocks, k, k)
    indices: np.ndarray  # (blocks,)
    indptr: np.ndarray   # (m + 1,)


def _block_laplacian(a: EdgeArrays, vertices: np.ndarray,
                     coupling: np.ndarray) -> _BlockRows:
    """The k x k-block matrix L over ``vertices`` (ascending) to which
    edge e adds w I at blocks (i, i) and (j, j), -w C_e at (i, j) and
    -w C_e^T at (j, i), for ``coupling`` C (E, k, k); blocks shared by
    several edges are summed.

    tr(Y^T L Y) = sum_e w ||Y_j - C_e^T Y_i||_F^2 for Y stacking k-row
    blocks, so with C_e = R_ij and Y_v = R_v^T it is the chordal
    objective, and with C_e = 1 (k = 1) it is the normal matrix of
    translation averaging, which each coordinate shares. Every block row
    holds its diagonal block.
    """
    m, k = len(vertices), coupling.shape[-1]
    i, j = np.searchsorted(vertices, a.i), np.searchsorted(vertices, a.j)
    w = a.weight[:, None, None]
    diagonal = np.broadcast_to(w * np.eye(k), (len(i), k, k))
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i])
    keys, slot = np.unique(rows * m + cols, return_inverse=True)
    data = np.zeros((len(keys), k, k))
    np.add.at(data, slot.reshape(-1), np.concatenate(
        [diagonal, diagonal, -w * coupling, -w * coupling.transpose(0, 2, 1)]))
    return _BlockRows(data, keys % m, np.searchsorted(keys // m, np.arange(m + 1)))


def _block_rows(lap: _BlockRows) -> np.ndarray:
    """The block row of each block in ``lap.data``."""
    return np.repeat(np.arange(len(lap.indptr) - 1), np.diff(lap.indptr))


def _dense(lap: _BlockRows) -> np.ndarray:
    """``lap`` as a dense (k m, k m) array."""
    m, k = len(lap.indptr) - 1, lap.data.shape[-1]
    out = np.zeros((m, m, k, k))
    out[_block_rows(lap), lap.indices] = lap.data
    return out.transpose(0, 2, 1, 3).reshape(k * m, k * m)


def _product(lap: _BlockRows, y: np.ndarray) -> np.ndarray:
    """L Y for Y stacking one k-row block per vertex, (m, k, columns); no
    block row of L is empty."""
    return np.add.reduceat(lap.data @ y[lap.indices], lap.indptr[:-1])


def _solve(lap: _BlockRows, rhs: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """x solving (L_ff + shift I) x = rhs, L_ff being ``lap`` without the
    anchor's (first) block row and column: factored densely by numpy up
    to `_DENSE_MAX_FRAMES` vertices, else by scipy's SuperLU. A singular
    system gives NaN on either side."""
    m, k = len(lap.indptr) - 1, lap.data.shape[-1]
    if m <= _DENSE_MAX_FRAMES:
        mat = _dense(lap)[k:, k:]
        mat[np.diag_indices_from(mat)] += shift
        try:
            return np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            return np.full(rhs.shape, np.nan)
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    mat = sp.bsr_matrix(lap, shape=(k * m, k * m)).tocsc()[k:, k:]
    if shift:
        mat = mat + shift * sp.identity(k * m - k, format="csc")
    return spla.spsolve(mat, rhs)


def _dual_blocks(lap: _BlockRows, y: np.ndarray) -> np.ndarray:
    """P_v = (L Y)_v Y_v^T for every block of Y; tr(Y^T L Y) = sum_v tr P_v."""
    return _product(lap, y) @ y.transpose(0, 2, 1)


# [e_q]x for q = 0, 1, 2: [w]x = sum_q w_q _SKEW[q], and [w]x v = w x v.
_SKEW = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                  [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                  [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


def _vee(m: np.ndarray) -> np.ndarray:
    """(M32 - M23, M13 - M31, M21 - M12) over the last two axes: for skew
    M = [w]x it is 2w, and tr([w]x M^T) = w . vee(M)."""
    return np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0],
                     m[..., 1, 0] - m[..., 0, 1]], axis=-1)


def _chordal_start(lap: _BlockRows) -> np.ndarray:
    """Blocks Y minimizing tr(Y^T L Y) with the anchor block fixed to I,
    each projected to SO(3): L_ff X = -L_fa, three right-hand sides
    sharing one factorization."""
    y = np.tile(np.eye(3), (len(lap.indptr) - 1, 1, 1))
    anchor = lap.indices == 0
    rhs = np.zeros(y.shape)
    rhs[_block_rows(lap)[anchor]] = -lap.data[anchor]
    y[1:] = so3_project(_solve(lap, rhs[1:].reshape(-1, 3)).reshape(-1, 3, 3))
    return y


def _newton_model(lap: _BlockRows, y: np.ndarray,
                  p: np.ndarray) -> tuple[np.ndarray, _BlockRows]:
    """Gradient and Hessian of f(w) = tr(Y(w)^T L Y(w)) at w = 0, Y(w)_v =
    so3_project((I + [w_v]x) Y_v), over the free blocks.

    The gradient block of vertex v is 2 vee(P_v). The Hessian has L's
    block pattern: column q of block (u, v) is 2 vee(X [e_q]x Y) with
    X = L_uv and Y = Y_v Y_u^T, which in closed form is the block

        2 (X^T Y + Y X^T - tr(Y) X^T - tr(X) Y - (<X, Y> - tr X tr Y) I),

    <X, Y> = sum_ij X_ij Y_ij. Each diagonal block also gets
    2 (sym P_v - tr(P_v) I), the curvature of the retraction. The
    Hessian spans every block, the anchor's too; `_solve` drops it.
    """
    rows = _block_rows(lap)
    x = lap.data
    x_t = x.transpose(0, 2, 1)
    pair = y[lap.indices] @ y[rows].transpose(0, 2, 1)
    tr_x = np.trace(x, axis1=1, axis2=2)[:, None, None]
    tr_pair = np.trace(pair, axis1=1, axis2=2)[:, None, None]
    inner = (x * pair).sum(axis=(1, 2))[:, None, None]
    blocks = 2.0 * (x_t @ pair + pair @ x_t - tr_pair * x_t - tr_x * pair
                    - (inner - tr_x * tr_pair) * np.eye(3))
    trace = np.trace(p, axis1=1, axis2=2)[:, None, None]
    blocks[lap.indices == rows] += (p + p.transpose(0, 2, 1)) - 2.0 * trace * np.eye(3)
    return 2.0 * _vee(p[1:]).reshape(-1), _BlockRows(blocks, lap.indices, lap.indptr)


def _newton(lap: _BlockRows, y: np.ndarray,
            total_weight: float) -> tuple[np.ndarray, bool]:
    """Damped Riemannian Newton descent on f = tr(Y^T L Y) over the free
    blocks of Y, the anchor block held at I.

    A step solves (H_ff + mu I) w = -g_f (see `_newton_model`) and sets
    Y_v <- so3_project((I + [w_v]x) Y_v). It is taken when f rises by at
    most tol = 1e-12 (f + sum w); otherwise (a non-finite step included,
    which is what `_solve` returns for a singular system) mu grows to
    max(10 mu, 1e-12 sum w) and the step is solved again
    (Levenberg-Marquardt).
    A taken step divides mu by 10, and one that lowers f by at most tol
    ends the descent. Every tolerance scales with the weights, so
    rescaling them cannot change the iterates. Each solve counts
    against `_MAX_ITERATIONS`; the flag tells whether the descent ended
    before it.
    """
    p = _dual_blocks(lap, y)
    f = float(np.trace(p, axis1=1, axis2=2).sum())
    grad, hess = _newton_model(lap, y, p)
    mu = 0.0
    for _ in range(_MAX_ITERATIONS):
        tol = 1e-12 * (f + total_weight)
        step = _solve(hess, -grad, mu).reshape(-1, 3)
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
    L with C = R_ij and P_v = (L Y)_v Y_v^T, which is the same matrix, by
    numpy's full spectrum up to `_DENSE_MAX_FRAMES` covered frames and by
    scipy's lowest eigenvalue alone above.

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
    mat = _dense(lap)
    if len(vertices) <= _DENSE_MAX_FRAMES:
        return float(np.linalg.eigvalsh(mat)[0])
    from scipy.linalg import eigh

    return float(eigh(mat, subset_by_index=[0, 0], eigvals_only=True)[0])


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
    scalar `_block_laplacian` (C = 1), which the three coordinates share,
    and b adding w R_i t_ij at j and subtracting it at i; the anchor is
    eliminated (hard u_anchor = 0). The graph is connected and every
    weight positive, so the system is positive definite; a relative
    residual above 1e-10 warns.
    """
    a = _check_connected(graph)
    vertices = np.flatnonzero(a.covered)
    lap = _block_laplacian(a, vertices, np.ones((len(a.i), 1, 1)))
    measured = a.weight[:, None] * (np.asarray(rotations)[a.i]
                                    @ a.translation[:, :, None])[:, :, 0]
    b = np.zeros((len(vertices), 3))
    np.add.at(b, np.searchsorted(vertices, a.j), measured)
    np.subtract.at(b, np.searchsorted(vertices, a.i), measured)
    u = np.zeros((len(vertices), 3))
    u[1:] = _solve(lap, b[1:])
    residual = _product(lap, u[:, None])[1:, 0] - b[1:]
    rel_res = np.linalg.norm(residual) / max(np.linalg.norm(b[1:]), 1e-300)
    if rel_res > 1e-10:
        warnings.warn(f"translation normal equations residual {rel_res:.2e} "
                      "exceeds 1e-10", ConvergenceWarning)

    translations = np.zeros((graph.n_frames, 3))
    translations[vertices] = u
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
