import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from pmsfm import pose_graph
from pmsfm.errors import (
    ConvergenceWarning,
    DisconnectedGraphError,
    InsufficientDataError,
    ShapeMismatchError,
    ValidationError,
)
from pmsfm.geometry import (
    RigidTransform,
    axis_angle_matrix,
    compose,
    geodesic_deg,
    inverse,
    random_rotation,
    so3_project,
)
from pmsfm.pose_graph import (
    Edge,
    GlobalPoses,
    PoseGraph,
    assemble_global,
    build_graph,
    rotation_averaging,
    rotation_certificate,
    rotation_objective,
    translation_averaging,
)
from pmsfm.pose_graph import (
    _SKEW,
    _block_laplacian,
    _block_rows,
    _BlockRows,
    _chordal_start,
    _dense,
    _dual_blocks,
    _newton_model,
    _solve,
    _vee,
)
from pmsfm.relative_pose import RelativePoseResult

from conftest import assert_same_bits, random_rigid, stable_rot_err_deg, winding_cycle


def fake_result(transform: RigidTransform, inlier_count: int,
                n_valid: int) -> RelativePoseResult:
    return RelativePoseResult(transform=transform, inlier_count=inlier_count,
                              n_valid=n_valid, focal=100.0, mean_inlier_reproj_err=0.1)


def consistent_edges(poses, pairs, weight=1.0, noise_deg=0.0, rng=None):
    """Edges T_{i<-j} = P_i P_j^-1 from absolute world-to-camera poses,
    optionally perturbed by a random rotation of the given magnitude."""
    edges = []
    for i, j in pairs:
        rel = compose(poses[i], inverse(poses[j]))
        r = rel.rotation
        if noise_deg > 0:
            axis = rng.normal(size=3)
            angle = np.radians(rng.normal(scale=noise_deg))
            r = so3_project(r @ axis_angle_matrix(axis, angle))
        edges.append(Edge(i=i, j=j, rotation=r, translation=rel.translation,
                          weight=weight, quality=1.0))
    return edges


def random_connected_pairs(n, rng, extra=0.5):
    pairs = set()
    for j in range(1, n):
        pairs.add((int(rng.integers(0, j)), j))
    for _ in range(int(extra * n)):
        i, j = sorted(rng.integers(0, n, 2))
        if i != j:
            pairs.add((int(i), int(j)))
    return sorted(pairs)


def spanning_tree_rotations(graph: PoseGraph) -> np.ndarray:
    """Baseline oracle: compose measured rotations along a BFS tree."""
    n = graph.n_frames
    adj = {}
    for e in graph.edges:
        adj.setdefault(e.i, []).append((e.j, e.rotation, False))
        adj.setdefault(e.j, []).append((e.i, e.rotation, True))
    rot = np.tile(np.eye(3), (n, 1, 1))
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v, r, flipped in adj.get(u, []):
            if v in seen:
                continue
            seen.add(v)
            rot[v] = rot[u] @ (r.T if flipped else r)
            queue.append(v)
    return rot


def benchmark_shaped_graph(rng, n, window=None, outlier_fraction=0.03):
    """Trajectory drifting ~0.05 rad per frame, edges (i, j) for every
    j - i <= window (all pairs when None) with ~0.05 rad of rotation
    noise and weights in [0.2, 1], and a fixed fraction of the edges
    replaced by random transforms: the shapes of the averaging
    benchmark, smaller."""
    a, u = [np.eye(3)], [np.zeros(3)]
    for _ in range(1, n):
        step = rng.normal(0.0, 0.05, 3)
        a.append(a[-1] @ axis_angle_matrix(step, np.linalg.norm(step)))
        u.append(u[-1] + rng.normal(size=3))
    pairs = [(i, j) for i in range(n)
             for j in range(i + 1, n if window is None else min(n, i + 1 + window))]
    outliers = set(rng.choice(len(pairs), size=max(1, round(outlier_fraction * len(pairs))),
                              replace=False).tolist())
    edges = []
    for k, (i, j) in enumerate(pairs):
        if k in outliers:
            rot, trans = random_rotation(rng), rng.normal(size=3)
        else:
            noise = rng.normal(0.0, 0.03, 3)
            rot = so3_project(a[i].T @ a[j] @ axis_angle_matrix(noise, np.linalg.norm(noise)))
            trans = a[i].T @ (u[j] - u[i]) + rng.normal(0.0, 0.05, 3)
        edges.append(Edge(i, j, rot, trans, float(rng.uniform(0.2, 1.0)), 1.0))
    return PoseGraph(n, tuple(edges))


def chordal_start_rotations(graph):
    """Camera-to-world rotations of `_chordal_start`, identity off the
    covered frames."""
    a = graph.edge_arrays
    vertices = np.flatnonzero(a.covered)
    rotations = np.tile(np.eye(3), (graph.n_frames, 1, 1))
    rotations[vertices] = _chordal_start(
        _block_laplacian(a, vertices, a.rotation)).transpose(0, 2, 1)
    return rotations


# Per-edge reference implementations: the averaging objective and
# systems as plain Python loops over graph.edges, and the Gauss-Seidel
# block descent the Newton solve replaced, kept as oracles.

def _reference_objective(graph, rot):
    total = 0.0
    for e in graph.edges:
        diff = rot[e.j] - rot[e.i] @ e.rotation
        total += e.weight * float((diff * diff).sum())
    return total


def _reference_newton_model(lap, y, p):
    """`_newton_model` with the Hessian blocks formed by broadcasting:
    column q of block (u, v) is 2 vee(L_uv [e_q]x Y_v Y_u^T), one
    (blocks, 3, 3, 3) product."""
    rows = _block_rows(lap)
    pair = (y[lap.indices] @ y[rows].transpose(0, 2, 1))[:, None]
    blocks = 2.0 * _vee(lap.data[:, None] @ _SKEW @ pair).transpose(0, 2, 1)
    trace = np.trace(p, axis1=1, axis2=2)[:, None, None]
    blocks[lap.indices == rows] += (p + p.transpose(0, 2, 1)) - 2.0 * trace * np.eye(3)
    return 2.0 * _vee(p[1:]).reshape(-1), _BlockRows(blocks, lap.indices, lap.indptr)


def _reference_block_descent(graph, rotations, covered):
    incident = {}
    for idx, e in enumerate(graph.edges):
        incident.setdefault(e.i, []).append((idx, True))
        incident.setdefault(e.j, []).append((idx, False))
    rot = rotations.copy()
    obj = _reference_objective(graph, rot)
    weight_scale = sum(e.weight for e in graph.edges)
    converged = False
    for _ in range(500):
        for v in np.flatnonzero(covered):
            m = np.zeros((3, 3))
            for idx, outgoing in incident.get(v, ()):
                e = graph.edges[idx]
                if outgoing:
                    m += e.weight * rot[e.j] @ e.rotation.T
                else:
                    m += e.weight * rot[e.i] @ e.rotation
            rot[v] = so3_project(m)
        new_obj = _reference_objective(graph, rot)
        if new_obj > obj + 1e-9 * (obj + weight_scale):
            raise AssertionError(f"block-descent objective increased: {obj} -> {new_obj}")
        if obj - new_obj <= 1e-10 * obj:
            converged = True
            break
        obj = new_obj
    return rot, converged


def _unknown_columns(covered, anchor):
    vertices = [v for v in np.flatnonzero(covered) if v != anchor]
    return vertices, {v: 3 * k for k, v in enumerate(vertices)}


def _reference_chordal_system(graph, covered, anchor):
    vertices, col = _unknown_columns(covered, anchor)
    rows, cols, vals, rhs_rows = [], [], [], []
    r = 0
    for e in graph.edges:
        w = np.sqrt(e.weight)
        rt = e.rotation.T
        block_rhs = np.zeros((3, 3))
        if e.j != anchor:
            for a in range(3):
                rows.append(r + a)
                cols.append(col[e.j] + a)
                vals.append(w)
        else:
            block_rhs -= w * np.eye(3)
        if e.i != anchor:
            for a in range(3):
                for b in range(3):
                    rows.append(r + a)
                    cols.append(col[e.i] + b)
                    vals.append(-w * rt[a, b])
        else:
            block_rhs += w * rt
        rhs_rows.append(block_rhs)
        r += 3
    a = sp.coo_matrix((vals, (rows, cols)), shape=(r, 3 * len(vertices))).tocsr()
    return a, np.concatenate(rhs_rows, axis=0), vertices


def _reference_translation_system(graph, rotations, covered, anchor):
    vertices, col = _unknown_columns(covered, anchor)
    n_rows = 3 * len(graph.edges)
    rows, cols, vals = [], [], []
    b = np.zeros(n_rows)
    r = 0
    for e in graph.edges:
        w = np.sqrt(e.weight)
        b[r:r + 3] = w * (rotations[e.i] @ e.translation)
        if e.j != anchor:
            for a in range(3):
                rows.append(r + a)
                cols.append(col[e.j] + a)
                vals.append(w)
        if e.i != anchor:
            for a in range(3):
                rows.append(r + a)
                cols.append(col[e.i] + a)
                vals.append(-w)
        r += 3
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, 3 * len(vertices))).tocsr()
    return a, b, vertices


def aligned_mean_rot_err(est: np.ndarray, gt: np.ndarray) -> float:
    """Mean geodesic error after the optimal single left rotation."""
    m = sum(g @ e.T for e, g in zip(est, gt))
    q = so3_project(m)
    return float(np.mean([geodesic_deg(q @ e, g) for e, g in zip(est, gt)]))


def _reference_components(pairs):
    """Connected components of the measured frames by depth-first search
    from each lowest unvisited frame."""
    adj = {}
    for i, j in pairs:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    components, visited = [], set()
    for v in sorted(adj):
        if v in visited:
            continue
        stack, comp = [v], []
        visited.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u] - visited:
                visited.add(w)
                stack.append(w)
        components.append(sorted(comp))
    return components


class TestBuildGraph:
    def test_triangle_all_pass(self, rng):
        # Inlier fractions at and just above QUALITY_THRESHOLD = 0.25.
        results = []
        for (i, j), inliers in zip([(0, 1), (0, 2), (1, 2)], [25, 26, 90]):
            results.append((i, j, fake_result(random_rigid(rng), inliers, 100)))
        g = build_graph(results, 3)
        assert len(g.edges) == 3
        assert not any(e.rescued for e in g.edges)

    def test_chain_filtering(self, rng):
        results = [
            (0, 1, fake_result(random_rigid(rng), 26, 100)),
            (1, 2, fake_result(random_rigid(rng), 80, 100)),
            (0, 2, fake_result(random_rigid(rng), 24, 100)),  # fails threshold
        ]
        g = build_graph(results, 3)
        assert sorted((e.i, e.j) for e in g.edges) == [(0, 1), (1, 2)]
        assert len(g.edge_arrays.components) == 1

    def test_adversarial_isolation_rescue(self, rng):
        # frame 7's pairs all fail quality; temporal neighbors get rescued
        results = []
        for i in range(10):
            for j in range(i + 1, 10):
                quality = 24 if (i == 7 or j == 7) else 26
                results.append((i, j, fake_result(random_rigid(rng), quality, 100)))
        g = build_graph(results, 10)
        rescued = sorted((e.i, e.j) for e in g.edges if e.rescued)
        assert rescued == [(6, 7), (7, 8)]
        assert len(g.edge_arrays.components) == 1

    def test_disconnected_names_components(self, rng):
        results = [
            (0, 1, fake_result(random_rigid(rng), 90, 100)),
            (2, 3, fake_result(random_rigid(rng), 90, 100)),
        ]
        with pytest.raises(DisconnectedGraphError) as exc:
            build_graph(results, 4)
        assert exc.value.components == [[0, 1], [2, 3]]
        # pairs listed out of vertex order, frames 4 and 6 unmeasured
        results = [(i, j, fake_result(random_rigid(rng), 90, 100))
                   for i, j in [(5, 2), (3, 0), (7, 2), (1, 3)]]
        with pytest.raises(DisconnectedGraphError) as exc:
            build_graph(results, 8)
        assert exc.value.components == [[0, 1, 3], [2, 5, 7]]
        assert str(exc.value) == "pose graph splits into 2 components: [[0, 1, 3], [2, 5, 7]]"

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), data=st.data())
    def test_components_match_depth_first_search(self, n, data):
        frame = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(frame, frame).filter(lambda p: p[0] != p[1]),
                                   unique=True, max_size=20))
        g = PoseGraph(n, tuple(Edge(i, j, np.eye(3), np.zeros(3), 1.0, 1.0)
                               for i, j in pairs))
        assert [list(c) for c in g.edge_arrays.components] == _reference_components(pairs)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 80), data=st.data())
    def test_components_match_scipy(self, n, data):
        """The components against scipy's connected_components, on graphs
        with isolated frames and edges in both orientations; a graph of
        several components reports them in the DisconnectedGraphError
        text."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        frame = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(frame, frame).filter(lambda p: p[0] != p[1]),
                                   unique=True, max_size=n))
        i = np.array([p[0] for p in pairs], dtype=np.intp)
        j = np.array([p[1] for p in pairs], dtype=np.intp)
        e = len(pairs)
        g = PoseGraph.from_arrays(n, i, j, np.tile(np.eye(3), (e, 1, 1)), np.zeros((e, 3)),
                                  np.ones(e), np.ones(e), np.zeros(e, dtype=bool))
        labels = connected_components(coo_matrix((np.ones(e), (i, j)), shape=(n, n)),
                                      directed=False)[1]
        groups = {}
        for v in sorted(set(i.tolist()) | set(j.tolist())):
            groups.setdefault(labels[v], []).append(v)
        expected = sorted(groups.values())
        assert [list(c) for c in g.edge_arrays.components] == expected
        if len(expected) > 1:
            with pytest.raises(DisconnectedGraphError) as exc:
                rotation_averaging(g)
            assert str(exc.value) == (f"pose graph splits into {len(expected)} components: "
                                      f"{expected}")

    def test_isolated_vertex_tolerated(self, rng):
        results = [(0, 1, fake_result(random_rigid(rng), 90, 100))]
        g = build_graph(results, 3)
        assert list(g.covered_vertices()) == [True, True, False]

    def test_edge_measurement_is_inverted_pnp(self, rng):
        t = random_rigid(rng)
        g = build_graph([(0, 1, fake_result(t, 90, 100))], 2)
        inv = inverse(t)
        np.testing.assert_allclose(g.edges[0].rotation, inv.rotation, atol=1e-12)
        np.testing.assert_allclose(g.edges[0].translation, inv.translation, atol=1e-12)

    def test_weights_normalized_to_max(self, rng):
        results = [
            (0, 1, fake_result(random_rigid(rng), 50, 190)),  # fraction 0.263
            (1, 2, fake_result(random_rigid(rng), 100, 100)),
            (0, 2, fake_result(random_rigid(rng), 240, 1000)),  # dropped at 0.24
        ]
        g = build_graph(results, 3)
        weights = {(e.i, e.j): e.weight for e in g.edges}
        assert (0, 2) not in weights
        assert weights[(1, 2)] == pytest.approx(1.0)
        assert weights[(0, 1)] == pytest.approx(0.5)

    def test_validity_injection_drops_pair(self, rng):
        results = [
            (0, 1, fake_result(random_rigid(rng), 90, 100)),
            (1, 2, fake_result(random_rigid(rng), 90, 100)),
            (0, 2, fake_result(random_rigid(rng), 90, 100)),
        ]
        g = build_graph(results, 3, pair_validity={(0, 2): False})
        assert sorted((e.i, e.j) for e in g.edges) == [(0, 1), (1, 2)]

    def test_no_kept_pair_raises(self, rng):
        # Every pair below QUALITY_THRESHOLD and none a temporal neighbor,
        # so nothing is rescued either; a pair marked invalid keeps nothing.
        results = [(0, 2, fake_result(random_rigid(rng), 24, 100)),
                   (1, 3, fake_result(random_rigid(rng), 10, 100))]
        with pytest.raises(InsufficientDataError, match="no edges survive filtering"):
            build_graph(results, 4)
        with pytest.raises(InsufficientDataError, match="no edges survive filtering"):
            build_graph([(0, 2, fake_result(random_rigid(rng), 90, 100))], 3,
                        pair_validity={(2, 0): False})

    def test_self_pair_rejected(self, rng):
        with pytest.raises(ValidationError):
            build_graph([(1, 1, fake_result(random_rigid(rng), 9, 10))], 2)


class TestRotationAveraging:
    def test_two_frames_closed_form(self, rng):
        r01 = random_rotation(rng)
        g = PoseGraph(2, (Edge(0, 1, r01, np.zeros(3), 1.0, 1.0),))
        rot = rotation_averaging(g)
        assert np.array_equal(rot[0], np.eye(3))
        assert stable_rot_err_deg(rot[1], r01) <= 1e-8
        assert rotation_objective(g, rot) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_consistent_triangle(self, seed):
        rng = np.random.default_rng(seed)
        poses = [RigidTransform(random_rotation(rng), np.zeros(3)) for _ in range(3)]
        edges = consistent_edges(poses, [(0, 1), (1, 2), (0, 2)])
        # edge rotations compose to identity around the cycle
        cyc = edges[0].rotation @ edges[1].rotation @ edges[2].rotation.T
        assert stable_rot_err_deg(cyc, np.eye(3)) <= 1e-10
        g = PoseGraph(3, tuple(edges))
        rot = rotation_averaging(g)
        assert rotation_objective(g, rot) <= 1e-12
        for k in range(3):
            expected = poses[0].rotation @ poses[k].rotation.T  # A_k in frame-0 gauge
            assert stable_rot_err_deg(rot[k], expected) <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_recovery_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 26))
        poses = [random_rigid(rng) for _ in range(n)]
        pairs = random_connected_pairs(n, rng)
        g = PoseGraph(n, tuple(consistent_edges(poses, pairs)))
        rot = rotation_averaging(g)
        assert rotation_objective(g, rot) <= 1e-12
        for k in range(n):
            expected = poses[0].rotation @ poses[k].rotation.T
            assert stable_rot_err_deg(rot[k], expected) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_beats_spanning_tree_on_noise(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 20
        poses = [RigidTransform(random_rotation(rng), np.zeros(3)) for _ in range(n)]
        pairs = random_connected_pairs(n, rng, extra=1.5)
        g = PoseGraph(n, tuple(consistent_edges(poses, pairs, noise_deg=2.0, rng=rng)))
        gt = np.stack([poses[0].rotation @ p.rotation.T for p in poses])
        avg_err = aligned_mean_rot_err(rotation_averaging(g), gt)
        tree_err = aligned_mean_rot_err(spanning_tree_rotations(g), gt)
        assert avg_err <= tree_err + 1e-12

    def test_gauge_anchor_exact(self, rng):
        poses = [random_rigid(rng) for _ in range(5)]
        g = PoseGraph(5, tuple(consistent_edges(
            poses, [(0, 1), (1, 2), (2, 3), (3, 4)], noise_deg=1.0, rng=rng)))
        rot = rotation_averaging(g)
        assert np.array_equal(rot[0], np.eye(3))

    def test_weight_scaling_invariance(self, rng):
        poses = [random_rigid(rng) for _ in range(6)]
        pairs = random_connected_pairs(6, rng)
        edges = consistent_edges(poses, pairs, noise_deg=2.0, rng=rng)
        g1 = PoseGraph(6, tuple(edges))
        scaled = tuple(Edge(e.i, e.j, e.rotation, e.translation, e.weight * 37.5,
                            e.quality) for e in edges)
        g2 = PoseGraph(6, scaled)
        r1 = rotation_averaging(g1)
        r2 = rotation_averaging(g2)
        assert np.max(np.abs(r1 - r2)) <= 1e-10
        t1 = translation_averaging(g1, r1)
        t2 = translation_averaging(g2, r2)
        assert np.max(np.abs(t1 - t2)) <= 1e-10

    def test_edge_direction_consistency(self, rng):
        poses = [random_rigid(rng) for _ in range(4)]
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
        edges = consistent_edges(poses, pairs)
        g1 = PoseGraph(4, tuple(edges))
        flipped = list(edges)
        e = flipped[1]  # replace (1,2) by (2,1) with the inverse transform
        flipped[1] = Edge(e.j, e.i, e.rotation.T, -e.rotation.T @ e.translation,
                          e.weight, e.quality)
        g2 = PoseGraph(4, tuple(flipped))
        r1, r2 = rotation_averaging(g1), rotation_averaging(g2)
        assert np.max(np.abs(r1 - r2)) <= 1e-9
        t1 = translation_averaging(g1, r1)
        t2 = translation_averaging(g2, r2)
        assert np.max(np.abs(t1 - t2)) <= 1e-9

    def test_no_edges_raises(self):
        with pytest.raises(InsufficientDataError):
            rotation_averaging(PoseGraph(3, ()))

    def test_disconnected_raises(self, rng):
        edges = (Edge(0, 1, random_rotation(rng), np.zeros(3), 1.0, 1.0),
                 Edge(2, 3, random_rotation(rng), np.zeros(3), 1.0, 1.0))
        with pytest.raises(DisconnectedGraphError):
            rotation_averaging(PoseGraph(4, edges))

    def test_isolated_vertex_gets_identity(self, rng):
        poses = [random_rigid(rng) for _ in range(3)]
        g = PoseGraph(3, tuple(consistent_edges(poses, [(0, 1)])))
        rot = rotation_averaging(g)
        assert np.array_equal(rot[2], np.eye(3))


def _reference_certificate(graph, rotations):
    """lambda_min(Lambda - A) over the covered vertices, assembled one
    edge and one vertex at a time and solved densely."""
    vertices = [int(v) for v in np.flatnonzero(graph.covered_vertices())]
    block = {v: 3 * k for k, v in enumerate(vertices)}
    a = np.zeros((3 * len(vertices), 3 * len(vertices)))
    for e in graph.edges:
        bi, bj = block[e.i], block[e.j]
        a[bi:bi + 3, bj:bj + 3] += e.weight * e.rotation
        a[bj:bj + 3, bi:bi + 3] += e.weight * e.rotation.T
    y = np.vstack([rotations[v].T for v in vertices])
    ay = a @ y
    cert = -a
    for v in vertices:
        b = block[v]
        lam = ay[b:b + 3] @ y[b:b + 3].T
        cert[b:b + 3, b:b + 3] += (lam + lam.T) / 2.0
    return np.linalg.eigvalsh(cert)[0]


def reference_verdict(graph, rotations) -> bool:
    """The certificate's verdict from the reference spectrum: lambda_min
    at least -1e-6 times the largest weighted vertex degree."""
    degree = np.zeros(graph.n_frames)
    for e in graph.edges:
        degree[[e.i, e.j]] += e.weight
    return bool(_reference_certificate(graph, rotations) >= -1e-6 * degree.max())


def certificate_case(seed, n, start):
    """A graph of n frames and rotations to certify: the winding n-cycle
    at its winding stationary point, or a noisy random graph at its
    chordal start (not yet stationary) or its averaged rotations."""
    if start == "winding":
        return winding_cycle(n)
    rng = np.random.default_rng(seed)
    poses = [random_rigid(rng) for _ in range(n)]
    edges = consistent_edges(poses, random_connected_pairs(n, rng), noise_deg=10.0, rng=rng)
    g = PoseGraph(n, tuple(Edge(e.i, e.j, e.rotation, e.translation,
                                float(rng.uniform(0.2, 2.0)), 1.0) for e in edges))
    return g, rotation_averaging(g) if start == "averaged" else chordal_start_rotations(g)


CERTIFICATE_CASES = dict(seed=st.integers(0, 2**16), n=st.integers(3, 9),
                         start=st.sampled_from(["chordal", "averaged", "winding"]))


class TestRotationCertificate:
    def test_winding_cycle_fails(self):
        g, rot = winding_cycle(12)
        assert abs(_reference_certificate(g, rot) - (2.0 * np.cos(2.0 * np.pi / 12) - 2.0)) <= 1e-6
        assert not reference_verdict(g, rot)
        assert rotation_certificate(g, rot) is False
        # the identity is the global minimum of the same graph
        identity = rotation_averaging(g)
        assert reference_verdict(g, identity)
        assert rotation_certificate(g, identity) is True

    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_consistent_graph_certifies(self, seed):
        # frame 0 is isolated and (1, 2) is measured in both orientations
        rng = np.random.default_rng(seed)
        n = 10
        poses = [random_rigid(rng) for _ in range(n)]
        pairs = [(i + 1, j + 1) for i, j in random_connected_pairs(n - 1, rng)]
        pairs = sorted(set(pairs) | {(1, 2), (2, 1)})
        edges = consistent_edges(poses, pairs, noise_deg=5.0, rng=rng)
        g = PoseGraph(n, tuple(Edge(e.i, e.j, e.rotation, e.translation,
                                    float(rng.uniform(0.2, 2.0)), 1.0) for e in edges))
        rot = rotation_averaging(g)
        assert reference_verdict(g, rot)
        assert rotation_certificate(g, rot) is True

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(1e-4, 1e4), **CERTIFICATE_CASES)
    def test_verdict_invariant_to_weight_scale(self, seed, n, scale, start):
        """Rescaling every weight scales S and the floor alike, at the
        optimum, at the chordal start (not yet stationary) and at the
        winding stationary point."""
        g, rot = certificate_case(seed, n, start)
        h = PoseGraph(n, tuple(Edge(e.i, e.j, e.rotation, e.translation,
                                    scale * e.weight, e.quality) for e in g.edges))
        assert rotation_certificate(g, rot) == rotation_certificate(h, rot)

    @settings(max_examples=40, deadline=None)
    @given(**CERTIFICATE_CASES)
    def test_verdict_equals_reference_spectrum(self, seed, n, start):
        """On both sides of the size rule, Cholesky's and SuperLU's
        verdicts equal the reference spectrum's."""
        g, rot = certificate_case(seed, n, start)
        expected = reference_verdict(g, rot)
        assert rotation_certificate(g, rot) == expected
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pose_graph, "_DENSE_MAX_FRAMES", n - 1)
            assert rotation_certificate(g, rot) == expected

    @pytest.mark.parametrize("n", [101, 150, 200])
    def test_inertia_verdict_equals_dense_verdict(self, n, monkeypatch):
        """Above `_DENSE_MAX_FRAMES` the verdict comes from SuperLU's pivot
        signs; on window-10 chains it equals numpy's Cholesky verdict and
        the reference spectrum's, at the averaged rotations (which
        certify) and at the chordal start (which does not)."""
        g = benchmark_shaped_graph(np.random.default_rng([n, 9]), n, 10)
        verdicts = []
        for rot in (rotation_averaging(g), chordal_start_rotations(g)):
            certified = rotation_certificate(g, rot)
            with monkeypatch.context() as m:
                m.setattr(pose_graph, "_DENSE_MAX_FRAMES", n)
                assert rotation_certificate(g, rot) == certified
            assert reference_verdict(g, rot) == certified
            verdicts.append(certified)
        assert verdicts == [True, False]

    @pytest.mark.parametrize("n", [101, 240])
    def test_winding_cycle_above_boundary_fails(self, n):
        """The winding stationary point of a cycle longer than
        `_DENSE_MAX_FRAMES` reads uncertified by the pivot signs
        (lambda_min 2 cos(2 pi / n) - 2 lies below the floor, -2e-6), and
        the identity, its global minimum, certifies."""
        g, rot = winding_cycle(n)
        assert 2.0 * np.cos(2.0 * np.pi / n) - 2.0 < -1e-4
        assert not rotation_certificate(g, rot)
        assert rotation_certificate(g, rotation_averaging(g))

    @pytest.mark.parametrize("limit", [100, 0], ids=["dense", "sparse"])
    def test_nan_rotations_read_uncertified(self, limit, monkeypatch):
        """Rotations with a NaN read uncertified on both sides of the size
        rule, and neither side raises or warns."""
        monkeypatch.setattr(pose_graph, "_DENSE_MAX_FRAMES", limit)
        g = benchmark_shaped_graph(np.random.default_rng(5), 14, 4)
        rot = rotation_averaging(g)
        assert rotation_certificate(g, rot)
        rot[3, 1, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rotation_certificate(g, rot) is False

    @pytest.mark.parametrize("fault", ["rows reordered", "singular"])
    def test_factor_off_the_diagonal_reads_uncertified(self, fault, monkeypatch):
        """A SuperLU factor whose row order left the column order, or that
        is exactly singular, shows a zero pivot, which no positive
        definite matrix has: the verdict is uncertified, on rotations
        that otherwise certify."""
        g = benchmark_shaped_graph(np.random.default_rng(3), 101, 10)
        rot = rotation_averaging(g)
        assert rotation_certificate(g, rot)
        factor = spla.splu

        class Reordered:
            def __init__(self, mat, **options):
                lu = factor(mat, **options)
                self.perm_c, self.U = lu.perm_c, lu.U
                self.perm_r = np.roll(lu.perm_r, 1)

        def singular(mat, **options):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", Reordered if fault == "rows reordered" else singular)
        assert rotation_certificate(g, rot) is False

    def test_memory_scales_with_covered_frames(self, rng):
        """A million frames of which three are measured certify in a few
        MB: the dual blocks span the covered frames only."""
        n = 10**6
        a, b, c = 0, n // 2, n - 1
        rot = np.tile(np.eye(3), (n, 1, 1))
        for f in (a, b, c):
            rot[f] = random_rotation(rng)
        g = PoseGraph(n, tuple(Edge(i, j, rot[i].T @ rot[j], np.zeros(3), 1.0, 1.0)
                               for i, j in [(a, b), (b, c), (a, c)]))
        tracemalloc.start()
        try:
            certified = rotation_certificate(g, rot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certified
        assert peak < 50 * 2**20


class TestTranslationAveraging:
    def test_two_frames_exact(self):
        # R_0 = I, t_01 = (1,0,0): u_1 must equal (1,0,0)
        g = PoseGraph(2, (Edge(0, 1, np.eye(3), np.array([1.0, 0, 0]), 1.0, 1.0),))
        u = translation_averaging(g, np.tile(np.eye(3), (2, 1, 1)))
        np.testing.assert_array_equal(u[0], np.zeros(3))
        np.testing.assert_allclose(u[1], [1.0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_consistent_chain(self, seed):
        rng = np.random.default_rng(seed)
        poses = [random_rigid(rng) for _ in range(5)]
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
        g = PoseGraph(5, tuple(consistent_edges(poses, pairs)))
        rot = rotation_averaging(g)
        u = translation_averaging(g, rot)
        centers = [-p.rotation.T @ p.translation for p in poses]
        scale = max(np.linalg.norm(c) for c in centers)
        for k in range(5):
            expected = poses[0].apply(centers[k])  # center in frame 0
            assert np.linalg.norm(u[k] - expected) <= 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_contradictory_edge_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rot = np.stack([random_rotation(rng) for _ in range(3)])
        edges = []
        for idx, (i, j) in enumerate([(0, 1), (1, 2), (0, 2)]):
            t = rng.normal(size=3)
            if idx == 2:
                t = t + np.array([0.5, -0.3, 0.2])  # contradicts the others
            edges.append(Edge(i, j, np.eye(3), t, float(rng.uniform(0.5, 2.0)), 1.0))
        g = PoseGraph(3, tuple(edges))
        u = translation_averaging(g, rot)

        # independent dense normal-equations oracle over u_1, u_2
        a = np.zeros((9, 6))
        b = np.zeros(9)
        for r, e in enumerate(g.edges):
            w = np.sqrt(e.weight)
            b[3 * r:3 * r + 3] = w * (rot[e.i] @ e.translation)
            if e.j != 0:
                a[3 * r:3 * r + 3, 3 * (e.j - 1):3 * e.j] = w * np.eye(3)
            if e.i != 0:
                a[3 * r:3 * r + 3, 3 * (e.i - 1):3 * e.i] -= w * np.eye(3)
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(u[1], x[:3], atol=1e-10)
        np.testing.assert_allclose(u[2], x[3:], atol=1e-10)

    def test_normal_equations_residual(self, rng):
        poses = [random_rigid(rng) for _ in range(12)]
        pairs = random_connected_pairs(12, rng)
        g = PoseGraph(12, tuple(consistent_edges(poses, pairs)))
        rot = rotation_averaging(g)
        u = translation_averaging(g, rot)
        # residual of the stacked system at the solution is ~0 for
        # consistent data
        for e in g.edges:
            res = rot[e.i] @ e.translation - (u[e.j] - u[e.i])
            assert np.linalg.norm(res) <= 1e-9

    def test_no_edges_raises(self):
        with pytest.raises(InsufficientDataError):
            translation_averaging(PoseGraph(3, ()), np.tile(np.eye(3), (3, 1, 1)))

    def test_disconnected_raises(self, rng):
        edges = (Edge(0, 1, random_rotation(rng), np.zeros(3), 1.0, 1.0),
                 Edge(2, 3, random_rotation(rng), np.zeros(3), 1.0, 1.0))
        with pytest.raises(DisconnectedGraphError) as exc:
            translation_averaging(PoseGraph(4, edges), np.tile(np.eye(3), (4, 1, 1)))
        assert exc.value.components == [[0, 1], [2, 3]]


class TestAssembleGlobal:
    def test_all_recovered(self, rng):
        rot = np.stack([random_rotation(rng) for _ in range(4)])
        u = rng.normal(size=(4, 3))
        rot[0] = np.eye(3)
        u[0] = 0
        gp = assemble_global(rot, u, np.ones(4, dtype=bool))
        assert gp.recovered.all()
        np.testing.assert_array_equal(gp.translations[0], np.zeros(3))
        np.testing.assert_array_equal(gp.rotations[0], np.eye(3))
        # world-to-camera conversion: centers reproduce u
        np.testing.assert_allclose(gp.centers(), u, atol=1e-12)

    def test_unrecovered_placeholder(self, rng):
        rot = np.tile(np.eye(3), (3, 1, 1))
        u = np.zeros((3, 3))
        gp = assemble_global(rot, u, np.array([True, False, True]))
        assert not gp.recovered[1]
        np.testing.assert_array_equal(gp.rotations[1], np.eye(3))
        np.testing.assert_array_equal(gp.translations[1], np.zeros(3))

    def test_flags_match_edge_incidence(self, rng):
        # set-union oracle over a mixed fixture
        results = [(0, 1, fake_result(random_rigid(rng), 90, 100)),
                   (1, 3, fake_result(random_rigid(rng), 90, 100))]
        g = build_graph(results, 5)
        incident = set()
        for i, j, _ in results:
            incident |= {i, j}
        expected = np.array([k in incident for k in range(5)])
        np.testing.assert_array_equal(g.covered_vertices(), expected)
        rot = rotation_averaging(g)
        u = translation_averaging(g, rot)
        gp = assemble_global(rot, u, g.covered_vertices())
        np.testing.assert_array_equal(gp.recovered, expected)


class TestEndToEndAveraging:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_pose_recovery(self, seed):
        # edges from absolute poses -> averaged world-to-camera poses
        # equal P_k P_0^-1
        rng = np.random.default_rng(seed)
        n = 8
        poses = [random_rigid(rng) for _ in range(n)]
        pairs = random_connected_pairs(n, rng)
        g = PoseGraph(n, tuple(consistent_edges(poses, pairs)))
        rot = rotation_averaging(g)
        u = translation_averaging(g, rot)
        gp = assemble_global(rot, u, g.covered_vertices())
        for k in range(n):
            expected = compose(poses[k], inverse(poses[0]))
            assert stable_rot_err_deg(gp.rotations[k], expected.rotation) <= 1e-8
            assert np.linalg.norm(gp.translations[k] - expected.translation) <= 1e-9


class TestConvergenceWarning:
    def test_sweep_budget_warns_and_returns_iterate(self, rng, monkeypatch):
        poses = [random_rigid(rng) for _ in range(10)]
        pairs = random_connected_pairs(10, rng, extra=2.0)
        g = PoseGraph(10, tuple(consistent_edges(poses, pairs, noise_deg=8.0,
                                                 rng=rng)))
        monkeypatch.setattr(pose_graph, "_MAX_ITERATIONS", 1)
        with pytest.warns(ConvergenceWarning, match="sweep budget"):
            rot = rotation_averaging(g)
        assert rot.shape == (10, 3, 3)
        # iterate is still gauge-fixed and orthonormal
        assert np.array_equal(rot[0], np.eye(3))
        for r in rot:
            assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-9


class TestEdgeValidation:
    @pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_weight_must_be_finite_and_positive(self, weight):
        with pytest.raises(ValidationError, match="finite and positive"):
            Edge(0, 1, np.eye(3), np.zeros(3), weight, 1.0)

    @pytest.mark.parametrize("bad", [
        lambda r, t: (r * 1.001, t),
        lambda r, t: (r @ np.diag([1.0, 1.0, -1.0]), t),
        lambda r, t: (r, np.array([t[0], np.inf, t[2]])),
    ], ids=["non-orthonormal", "det-minus-one", "inf-translation"])
    def test_graph_rejects_bad_edge_by_name(self, rng, bad):
        poses = [random_rigid(rng) for _ in range(5)]
        edges = consistent_edges(poses, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
        r, t = bad(edges[2].rotation, edges[2].translation)
        edges[2] = Edge(2, 3, r, t, 1.0, 1.0)  # an Edge alone checks no rotation
        with pytest.raises(ValidationError, match=r"^edge \(2,3\): not finite or off SO\(3\)"):
            PoseGraph(5, tuple(edges))

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1), (1, 5), (0, 1)], "edge (1,5) outside 0..3"),
        ([(0, 1), (0, 1), (1, 5)], "duplicate edge (0,1)"),
        ([(0, 1), (10**20, 1)], "edge (100000000000000000000,1) outside 0..3"),
        ([(0, 1), (2, 1)], "edge (0,1): not finite or off SO(3)"),
    ], ids=["range-before-repeat", "repeat-before-range", "frame-beyond-int64", "transform"])
    def test_graph_of_edges_names_first_fault(self, pairs, message):
        """Edges passed as objects go through the graph's one stacked check;
        the first edge is off SO(3), so only a range or repeat fault beats it."""
        off = np.diag([1.0, 1.0, 1.5])
        edges = [Edge(i, j, off if k == 0 else np.eye(3), np.zeros(3), 1.0, 1.0)
                 for k, (i, j) in enumerate(pairs)]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            PoseGraph(4, edges)

    def test_from_arrays_checks_column_shapes(self):
        with pytest.raises(ShapeMismatchError, match="edge columns of 2 edges"):
            PoseGraph.from_arrays(3, [0, 1], [1, 2], np.tile(np.eye(3), (2, 1, 1)),
                                  np.zeros((2, 3)), [1.0], [1.0, 1.0], [False, False])

    def test_edge_checks_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"edge \(0,1\)"):
            Edge(0, 1, np.eye(4), np.zeros(3), 1.0, 1.0)
        with pytest.raises(ShapeMismatchError, match=r"edge \(0,1\)"):
            Edge(0, 1, np.eye(3), np.zeros(2), 1.0, 1.0)

    def test_global_poses_reject_bad_frame_by_index(self, rng):
        rot = np.stack([random_rotation(rng) for _ in range(4)])
        trans = rng.normal(size=(4, 3))
        rot[2] = -rot[2]
        with pytest.raises(ValidationError, match=r"^frame 2: not finite or off SO\(3\)"):
            GlobalPoses(rot, trans, np.array([True, True, False, True]))

    def test_global_poses_keep_read_only_copies(self):
        r = np.stack([np.eye(3)] * 2)
        t = np.zeros((2, 3))
        rec = np.ones(2, dtype=bool)
        poses = GlobalPoses(r, t, rec)
        t[1, 0] = 5.0
        r[0, 0, 0] = 7.0
        rec[1] = False
        np.testing.assert_array_equal(poses.rotations, np.stack([np.eye(3)] * 2))
        np.testing.assert_array_equal(poses.translations, np.zeros((2, 3)))
        assert poses.recovered.all()
        for a in (poses.rotations, poses.translations, poses.recovered):
            assert not a.flags.writeable


def _reference_block_laplacian(a, vertices, coupling):
    """`_block_laplacian` summed by np.add.at into zeros, in edge order."""
    m, k = len(vertices), coupling.shape[-1]
    i, j = np.searchsorted(vertices, a.i), np.searchsorted(vertices, a.j)
    w = a.weight[:, None, None]
    diagonal = np.broadcast_to(w * np.eye(k), (len(i), k, k))
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i])
    keys, slot = np.unique(rows * m + cols, return_inverse=True)
    data = np.zeros((len(keys), k, k))
    np.add.at(data, slot.reshape(-1), np.concatenate(
        [diagonal, diagonal, -w * coupling, -w * coupling.transpose(0, 2, 1)]))
    return data, keys % m, np.searchsorted(keys // m, np.arange(m + 1))


class TestStackedSolvers:
    """The block-matrix solvers against the per-edge references above."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 16), seed=st.integers(0, 2**16), identity=st.booleans())
    def test_block_laplacian_bits_equal_add_at(self, n, seed, identity):
        # Blocks sum their edges in edge order, whatever the weights, the
        # edge orientations and the edges (i, j) and (j, i) both present;
        # identity couplings give -0.0 terms, which sum to 0.0 from zero.
        rng = np.random.default_rng(seed)
        pairs = [(j, i) if rng.uniform() < 0.5 else (i, j)
                 for i, j in random_connected_pairs(n, rng)]
        pairs += [(j, i) for i, j in pairs if rng.uniform() < 0.3]
        order = rng.permutation(len(pairs))
        poses = [RigidTransform(np.eye(3), rng.normal(size=3)) if identity
                 else random_rigid(rng) for _ in range(n)]
        edges = consistent_edges(poses, [pairs[k] for k in order])
        a = PoseGraph(n, [dataclasses.replace(e, weight=float(rng.uniform(0.1, 2.0)))
                          for e in edges]).edge_arrays
        vertices = np.flatnonzero(a.covered)
        for coupling in (a.rotation, np.ones((len(a.i), 1, 1))):
            lap = _block_laplacian(a, vertices, coupling)
            for got, want in zip(lap, _reference_block_laplacian(a, vertices, coupling)):
                assert_same_bits(got, want)

    SHAPES = {"complete": (14, None), "chain": (30, 4)}

    @pytest.mark.parametrize("shape", ["complete", "chain"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_newton_objective_at_most_edge_loop_descent(self, seed, shape):
        n, window = self.SHAPES[shape]
        rng = np.random.default_rng([seed, 3])
        g = benchmark_shaped_graph(rng, n, window)
        ref_rot, ref_converged = _reference_block_descent(g, chordal_start_rotations(g),
                                                          g.covered_vertices())
        assert ref_converged
        rot = rotation_averaging(g)
        assert rotation_objective(g, rot) <= rotation_objective(g, ref_rot)
        for r in (rot, ref_rot):
            assert rotation_certificate(g, r)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_and_hessian_match_central_differences(self, seed):
        """At random rotations, far from stationary, the gradient 2 vee(P_v)
        and the Hessian of `_newton` against central differences of the
        edge-loop objective at so3_project((I + [w]x) Y)."""
        rng = np.random.default_rng(seed)
        g = benchmark_shaped_graph(rng, 5, None)
        a = g.edge_arrays
        lap = _block_laplacian(a, np.arange(5), a.rotation)
        y = np.stack([np.eye(3)] + [random_rotation(rng) for _ in range(4)])

        def objective(w):
            moved = y.copy()
            hat = (w @ _SKEW.reshape(3, 9)).reshape(-1, 3, 3)
            moved[1:] = so3_project((np.eye(3) + hat) @ y[1:])
            return _reference_objective(g, moved.transpose(0, 2, 1))

        grad, hess = _newton_model(lap, y, _dual_blocks(lap, y))
        hess = _dense(hess)[3:, 3:]
        basis = np.eye(12).reshape(12, 4, 3)
        h = 1e-5
        numeric = [(objective(h * e) - objective(-h * e)) / (2 * h) for e in basis]
        np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-7 * np.abs(grad).max())
        h = 1e-4
        numeric = [[(objective(h * (e + d)) - objective(h * (e - d)) - objective(h * (d - e))
                     + objective(-h * (e + d))) / (4 * h * h) for d in basis] for e in basis]
        np.testing.assert_allclose(hess, numeric, rtol=0, atol=1e-5 * np.abs(hess).max())

    @pytest.mark.parametrize("case", ["random blocks", "complete graph"])
    def test_closed_form_hessian_matches_broadcast_reference(self, case):
        """The closed-form Hessian blocks of `_newton_model` agree with
        the broadcast product, on 50 random blocks of a symmetric matrix
        and on the Laplacian of a 60-frame complete graph."""
        rng = np.random.default_rng(7)
        if case == "random blocks":
            # Every diagonal block, as in a Laplacian, and 19 others above
            # the diagonal, each mirrored below it as its transpose.
            n = 12
            r, c = np.unravel_index(rng.choice(np.flatnonzero(np.triu(np.ones((n, n)), 1)),
                                               size=19, replace=False), (n, n))
            blocks = np.zeros((n, n, 3, 3))
            blocks[r, c] = rng.normal(size=(19, 3, 3))
            blocks[c, r] = blocks[r, c].transpose(0, 2, 1)
            blocks[np.arange(n), np.arange(n)] = rng.normal(size=(n, 3, 3))
            mask = np.eye(n, dtype=bool)
            mask[r, c] = mask[c, r] = True
            rows, cols = np.nonzero(mask)
            lap = _BlockRows(blocks[rows, cols], cols, np.searchsorted(rows, np.arange(n + 1)))
        else:
            n = 60
            a = benchmark_shaped_graph(rng, n, None).edge_arrays
            lap = _block_laplacian(a, np.arange(n), a.rotation)
        y = np.stack([np.eye(3)] + [random_rotation(rng) for _ in range(n - 1)])
        p = _dual_blocks(lap, y)
        grad, hess = _newton_model(lap, y, p)
        grad_ref, hess_ref = _reference_newton_model(lap, y, p)
        assert_same_bits(grad, grad_ref)
        hess, hess_ref = _dense(hess), _dense(hess_ref)
        assert np.abs(hess - hess_ref).max() <= 1e-13 * np.abs(hess_ref).max()

    @pytest.mark.parametrize("limit", [100, 0], ids=["dense", "sparse"])
    def test_singular_system_gives_nan_without_warning(self, limit, monkeypatch):
        """An exactly singular system gives NaN on both sides of the size
        rule, and neither warns."""
        monkeypatch.setattr(pose_graph, "_DENSE_MAX_FRAMES", limit)
        # L = [[1, 0, 0], [0, 1, 1], [0, 1, 1]], so L_ff = [[1, 1], [1, 1]].
        lap = _BlockRows(np.ones((5, 1, 1)), np.array([0, 1, 2, 1, 2]), np.array([0, 1, 3, 5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _solve(lap, np.ones((2, 3)))
        assert x.shape == (2, 3) and np.isnan(x).all()

    @pytest.mark.parametrize("fault", ["nan step", "dense LinAlgError", "sparse nan step"])
    def test_non_finite_step_is_damped(self, monkeypatch, fault):
        """A NaN Newton step, or a dense factorization that raises
        LinAlgError, counts as a rise: it is solved again with damping, and
        the descent still reaches the undamped optimum. The 14-frame graph
        solves densely unless the size rule is forced below it."""
        g = benchmark_shaped_graph(np.random.default_rng(4), 14, 4)
        if fault == "sparse nan step":
            monkeypatch.setattr(pose_graph, "_DENSE_MAX_FRAMES", 0)
        expected = rotation_averaging(g)
        calls = []
        if fault == "dense LinAlgError":
            solve = np.linalg.solve

            def first_step_fails(mat, rhs):
                calls.append(mat.shape)
                if len(calls) == 2:  # 1 is the start
                    raise np.linalg.LinAlgError("Singular matrix")
                return solve(mat, rhs)

            monkeypatch.setattr(np.linalg, "solve", first_step_fails)
        else:
            solve = pose_graph._solve

            def first_step_nan(lap, rhs, shift=0.0):
                calls.append(shift)
                x = solve(lap, rhs, shift)
                return np.full_like(x, np.nan) if len(calls) == 2 else x  # 1 is the start

            monkeypatch.setattr(pose_graph, "_solve", first_step_nan)
        rot = rotation_averaging(g)
        assert len(calls) >= 3
        assert np.max(np.abs(rot - expected)) <= 1e-9
        assert rotation_certificate(g, rot)

    def test_long_chain_converges_and_certifies(self, monkeypatch):
        """A 400-frame window-10 chain, the shape a video gives, averages
        within the iteration cap (the Gauss-Seidel descent ran out of its
        500 sweeps here) and the result certifies. Its systems go to
        SuperLU."""
        g = benchmark_shaped_graph(np.random.default_rng(2), 400, 10)
        factor, calls = spla.splu, []

        def counted(mat, *args, **kwargs):
            calls.append(mat.shape)
            return factor(mat, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            rot = rotation_averaging(g)
        assert calls and all(shape == (1197, 1197) for shape in calls)
        assert rotation_certificate(g, rot)

    @pytest.mark.parametrize("n, window", [(40, None), (80, None), (100, 10), (101, 10)])
    def test_dense_and_sparse_solves_agree(self, n, window, monkeypatch):
        """Graphs on both sides of `_DENSE_MAX_FRAMES`, each solved with
        the dense and with the sparse branch forced: rotations and
        translations agree within 1e-9, and the certificate gives the same
        verdict."""
        g = benchmark_shaped_graph(np.random.default_rng([n, 5]), n, window)
        solved = []
        for limit in (n, n - 1):  # dense, then sparse
            monkeypatch.setattr(pose_graph, "_DENSE_MAX_FRAMES", limit)
            rot = rotation_averaging(g)
            solved.append((rot, translation_averaging(g, rot),
                           rotation_certificate(g, rot)))
        (rot_d, u_d, certified_d), (rot_s, u_s, certified_s) = solved
        assert np.max(np.abs(rot_d - rot_s)) <= 1e-9
        assert np.max(np.abs(u_d - u_s)) <= 1e-9
        assert certified_d == certified_s

    @pytest.mark.parametrize("n", [100, 101])
    def test_size_rule_picks_the_branch(self, n, monkeypatch):
        """By default a graph of 100 covered frames is averaged and
        certified with numpy alone, and one of 101 with SuperLU alone."""
        g = benchmark_shaped_graph(np.random.default_rng(n), n, 10)
        calls = {"dense": 0, "sparse": 0}

        def counted(module, name, branch):
            solve = getattr(module, name)

            def count(*args, **kwargs):
                calls[branch] += 1
                return solve(*args, **kwargs)
            monkeypatch.setattr(module, name, count)

        counted(np.linalg, "solve", "dense")
        counted(np.linalg, "cholesky", "dense")
        counted(spla, "splu", "sparse")
        rot = rotation_averaging(g)
        translation_averaging(g, rot)
        assert rotation_certificate(g, rot)
        assert (calls["dense"] > 0, calls["sparse"] > 0) == (n <= 100, n > 100)

    @pytest.mark.parametrize("seed", range(3))
    def test_objective_bit_equal_to_edge_loop(self, seed):
        rng = np.random.default_rng(seed)
        g = benchmark_shaped_graph(rng, 12, None)
        rot = np.stack([random_rotation(rng) for _ in range(12)])
        assert_same_bits(rotation_objective(g, rot), _reference_objective(g, rot))

    def test_objective_of_edgeless_graph_is_zero(self):
        assert rotation_objective(PoseGraph(2, ()), np.tile(np.eye(3), (2, 1, 1))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_systems_equal_edge_loop(self, seed, monkeypatch):
        """The free block of `_block_laplacian` is A^T A of the edge-loop
        tall systems (C = R_ij for rotations; for translations C = 1,
        shared by the three coordinates, so A^T A = L_ff kron I), and
        its right-hand sides are A^T b, to 1e-14 of the largest entry:
        sqrt(w)^2 and w differ in the last bits. The sparse translation
        matrix, so expanded, has A^T A's sparsity pattern."""
        # frame 0 is isolated, so the anchor is frame 1; edges run both
        # into and out of it
        rng = np.random.default_rng(seed)
        n = 9
        poses = [random_rigid(rng) for _ in range(n)]
        pairs = [(i + 1, j + 1) for i, j in random_connected_pairs(n - 1, rng, extra=1.0)]
        pairs = [(j, i) if rng.uniform() < 0.5 else (i, j) for i, j in pairs]
        edges = consistent_edges(poses, pairs, noise_deg=2.0, rng=rng)
        g = PoseGraph(n, tuple(Edge(e.i, e.j, e.rotation, e.translation,
                                    float(rng.uniform(0.1, 2.0)), 1.0) for e in edges))
        covered = g.covered_vertices()
        anchor = int(np.flatnonzero(covered)[0])
        assert anchor == 1 and any(e.i == 1 for e in g.edges) and any(e.j == 1 for e in g.edges)

        def assert_close(x, ref):
            x, ref = np.asarray(x), np.asarray(ref)
            np.testing.assert_allclose(x, ref, rtol=0, atol=1e-14 * np.abs(ref).max())

        a = g.edge_arrays
        vertices = np.flatnonzero(covered)
        lap = _block_laplacian(a, vertices, a.rotation)
        ref_a, ref_rhs, ref_vertices = _reference_chordal_system(g, covered, anchor)
        assert list(vertices[1:]) == ref_vertices
        assert_close(_dense(lap)[3:, 3:], (ref_a.T @ ref_a).toarray())
        assert_close(-_dense(lap)[3:, :3], ref_a.T @ ref_rhs)

        rot = np.stack([random_rotation(rng) for _ in range(n)])
        y = rot[vertices].transpose(0, 2, 1)
        objective = float(np.trace(_dual_blocks(lap, y), axis1=1, axis2=2).sum())
        assert abs(objective - _reference_objective(g, rot)) <= 1e-12 * objective

        ref_a, ref_b, _ = _reference_translation_system(g, rot, covered, anchor)
        ref_mat = (ref_a.T @ ref_a).tocsc()
        systems = []
        solve, factor = np.linalg.solve, spla.splu

        def solve_and_keep(mat, rhs):
            systems.append((mat.copy(), rhs.copy()))
            return solve(mat, rhs)

        class KeptFactor:
            """SuperLU's factor of ``mat``, keeping it with each right-hand side."""

            def __init__(self, mat):
                self.mat, self.factor = mat.copy(), factor(mat)

            def solve(self, rhs):
                systems.append((self.mat, rhs.copy()))
                return self.factor.solve(rhs)

        # 9 frames solve densely, and with SuperLU when the size rule is
        # forced below them.
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", solve_and_keep)
            translation_averaging(g, rot)
        with monkeypatch.context() as m:
            m.setattr(pose_graph, "_DENSE_MAX_FRAMES", 0)
            m.setattr(spla, "splu", KeptFactor)
            translation_averaging(g, rot)
        (dense, dense_rhs), (mat, rhs) = systems
        assert_close(np.kron(dense, np.eye(3)), ref_mat.toarray())
        assert_close(dense_rhs.reshape(-1), ref_a.T @ ref_b)
        mat = sp.kron(mat, sp.identity(3), format="csc")
        mat.sort_indices()
        ref_mat.sort_indices()
        np.testing.assert_array_equal(mat.indptr, ref_mat.indptr)
        np.testing.assert_array_equal(mat.indices, ref_mat.indices)
        assert_close(mat.data, ref_mat.data)
        assert_close(rhs.reshape(-1), ref_a.T @ ref_b)

    def test_edge_arrays_built_once_and_read_only(self, rng):
        poses = [random_rigid(rng) for _ in range(4)]
        g = PoseGraph(5, tuple(consistent_edges(poses, [(0, 1), (2, 1), (2, 3)])))
        arrays = g.edge_arrays
        assert g.edge_arrays is arrays
        for name in ("i", "j", "weight", "rotation", "translation", "quality", "rescued",
                     "covered"):
            assert not getattr(arrays, name).flags.writeable
        np.testing.assert_array_equal(arrays.j, [1, 1, 3])
        np.testing.assert_array_equal(arrays.rotation[1], g.edges[1].rotation)
        covered = g.covered_vertices()
        covered[0] = False  # a caller's copy, not the cache
        assert list(g.covered_vertices()) == [True, True, True, True, False]


def test_edges_built_on_first_read_as_views(rng):
    """A graph from columns builds its `Edge` objects once, on request, as
    read-only views of its arrays; the caller's columns are copied."""
    rotation = np.stack([random_rotation(rng) for _ in range(3)])
    translation = rng.normal(size=(3, 3))
    g = PoseGraph.from_arrays(4, [0, 1, 3], [1, 2, 2], rotation, translation,
                              [1.0, 0.5, 0.25], [0.9, 0.8, 0.1], [False, True, False])
    assert "edges" not in vars(g)
    edges = g.edges
    assert g.edges is edges
    assert [(e.i, e.j, e.weight, e.quality, e.rescued) for e in edges] == [
        (0, 1, 1.0, 0.9, False), (1, 2, 0.5, 0.8, True), (3, 2, 0.25, 0.1, False)]
    assert all(type(e.i) is int and type(e.weight) is float for e in edges)
    assert np.shares_memory(edges[2].rotation, g.edge_arrays.rotation)
    assert not edges[2].translation.flags.writeable
    rotation[0] = np.eye(3)  # the caller's array, not the graph's
    assert_same_bits(g.edge_arrays.rotation[0], edges[0].rotation)
    assert not np.array_equal(edges[0].rotation, np.eye(3))
    again = PoseGraph(4, edges)
    assert again.edges is edges and again.n_edges == 3
    assert_same_bits(again.edge_arrays.rescued, g.edge_arrays.rescued)


def _reference_chordal_start(lap):
    """`_chordal_start` projecting one vertex block at a time."""
    blocks = _solve(lap, -_dense(lap)[3:, :3])
    y = np.tile(np.eye(3), (len(lap.indptr) - 1, 1, 1))
    for v, block in enumerate(np.asarray(blocks).reshape(-1, 3, 3)):
        y[v + 1] = so3_project(block)
    return y


def _reference_assemble(rotations, translations, recovered):
    n = len(recovered)
    r_out = np.tile(np.eye(3), (n, 1, 1))
    t_out = np.zeros((n, 3))
    for k in range(n):
        if recovered[k]:
            r_out[k] = rotations[k].T
            t_out[k] = -rotations[k].T @ translations[k]
    return r_out, t_out


class TestStackedProjections:
    """The stacked SO(3) projections and inverses against per-edge,
    per-vertex and per-frame loops, bit for bit."""

    def test_build_graph_inverse_bit_equal_to_edge_loop(self, rng):
        results = [(i, j, fake_result(random_rigid(rng, t_scale=3.0), int(rng.integers(25, 90)),
                                      100)) for i, j in random_connected_pairs(9, rng, extra=1.5)]
        g = build_graph(results, 9)
        assert len(g.edges) == len(results)
        by_pair = {(i, j): res for i, j, res in results}
        for e in g.edges:
            ref = inverse(by_pair[(e.i, e.j)].transform)
            assert_same_bits(e.rotation, ref.rotation)
            assert_same_bits(e.translation, ref.translation)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("seed", range(3))
    def test_chordal_init_and_gauge_fix_bit_equal_to_vertex_loop(self, seed, dense,
                                                                 monkeypatch):
        """The stacked start against a per-vertex projection loop; the
        anchor block is the identity exactly, at the start and in the
        averaged rotations, with no gauge-fixing pass. The 12 covered
        frames solve densely, or with SuperLU when the size rule is forced
        below them."""
        if not dense:
            monkeypatch.setattr(pose_graph, "_DENSE_MAX_FRAMES", 0)
        # frame 0 is isolated, so the anchor is frame 1
        rng = np.random.default_rng(seed)
        g = benchmark_shaped_graph(rng, 12, 3)
        g = PoseGraph(13, tuple(Edge(e.i + 1, e.j + 1, e.rotation, e.translation, e.weight,
                                     e.quality) for e in g.edges))
        a = g.edge_arrays
        lap = _block_laplacian(a, np.flatnonzero(a.covered), a.rotation)
        start = _chordal_start(lap)
        assert_same_bits(start, _reference_chordal_start(lap))
        assert_same_bits(start[0], np.eye(3))
        rot = rotation_averaging(g)
        assert_same_bits(rot[:2], np.tile(np.eye(3), (2, 1, 1)))

    def test_assemble_global_bit_equal_to_frame_loop(self, rng):
        g = benchmark_shaped_graph(rng, 10, 2)
        rot = rotation_averaging(g)
        u = translation_averaging(g, rot)
        recovered = np.ones(10, dtype=bool)
        recovered[[3, 7]] = False
        gp = assemble_global(rot, u, recovered)
        ref_r, ref_t = _reference_assemble(rot, u, recovered)
        assert_same_bits(gp.rotations, ref_r)
        assert_same_bits(gp.translations, ref_t)
        assert_same_bits(gp.translations[0], np.zeros(3))  # the anchor: +0.0, not -0.0


class TestFrameRelabelling:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(3, 9), noisy=st.booleans(),
           data=st.data())
    def test_relabelling_permutes_the_averages(self, seed, n, noisy, data):
        """Averages on a graph with frame k renamed perm[k] are the
        original ones moved to perm[k], up to the gauge (one global
        rotation Q, and for centers a common offset).

        Consistent graphs are solved exactly, and with 1 degree of edge
        noise the Newton descent converges quadratically, so its last
        step is far below the stopping tolerance and both labellings
        agree to round-off. The tolerance is 1e-9; the largest difference
        over 1000 noisy and 1000 consistent random graphs of this test's
        distribution was 1.0e-14.
        """
        perm = data.draw(st.permutations(range(n)))
        rng = np.random.default_rng(seed)
        poses = [random_rigid(rng) for _ in range(n)]
        edges = consistent_edges(poses, random_connected_pairs(n, rng),
                                 noise_deg=1.0 if noisy else 0.0, rng=rng)
        g = PoseGraph(n, tuple(edges))
        h = PoseGraph(n, tuple(Edge(perm[e.i], perm[e.j], e.rotation, e.translation,
                                    e.weight, e.quality) for e in edges))
        rot_g, rot_h = rotation_averaging(g), rotation_averaging(h)
        u_g, u_h = translation_averaging(g, rot_g), translation_averaging(h, rot_h)

        rot_h, u_h = rot_h[list(perm)], u_h[list(perm)]  # back to g's labels
        q = rot_g[0] @ rot_h[0].T
        assert np.max(np.abs(rot_g - q @ rot_h)) <= 1e-9
        scale = max(1.0, np.abs(u_g).max())
        assert np.max(np.abs((u_g - u_g[0]) - (u_h - u_h[0]) @ q.T)) <= 1e-9 * scale

