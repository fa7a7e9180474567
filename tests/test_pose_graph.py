import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
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
    rotation_certified,
    rotation_objective,
    translation_averaging,
)
from pmsfm.pose_graph import (
    _SKEW,
    _block_laplacian,
    _chordal_start,
    _dual_blocks,
    _free_system,
    _newton_model,
)
from pmsfm.relative_pose import RelativePoseResult

from conftest import assert_same_bits, random_rigid, stable_rot_err_deg, winding_cycle


def fake_result(transform: RigidTransform, inlier_count: int,
                shape=(4, 4)) -> RelativePoseResult:
    return RelativePoseResult(transform=transform,
                              inlier_mask=np.zeros(shape, dtype=bool),
                              inlier_count=inlier_count, focal=100.0,
                              mean_inlier_reproj_err=0.1)


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
        results = []
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            results.append((i, j, fake_result(random_rigid(rng), 90), 100))
        g = build_graph(results, 3, quality_threshold=0.5)
        assert len(g.edges) == 3
        assert not any(e.rescued for e in g.edges)

    def test_chain_filtering(self, rng):
        results = [
            (0, 1, fake_result(random_rigid(rng), 90), 100),
            (1, 2, fake_result(random_rigid(rng), 80), 100),
            (0, 2, fake_result(random_rigid(rng), 5), 100),  # fails threshold
        ]
        g = build_graph(results, 3, quality_threshold=0.5)
        assert sorted((e.i, e.j) for e in g.edges) == [(0, 1), (1, 2)]
        assert len(g.components()) == 1

    def test_adversarial_isolation_rescue(self, rng):
        # frame 7's pairs all fail quality; temporal neighbors get rescued
        results = []
        for i in range(10):
            for j in range(i + 1, 10):
                quality = 2 if (i == 7 or j == 7) else 95
                results.append((i, j, fake_result(random_rigid(rng), quality), 100))
        g = build_graph(results, 10, quality_threshold=0.5)
        rescued = sorted((e.i, e.j) for e in g.edges if e.rescued)
        assert rescued == [(6, 7), (7, 8)]
        assert len(g.components()) == 1

    def test_disconnected_names_components(self, rng):
        results = [
            (0, 1, fake_result(random_rigid(rng), 90), 100),
            (2, 3, fake_result(random_rigid(rng), 90), 100),
        ]
        with pytest.raises(DisconnectedGraphError) as exc:
            build_graph(results, 4)
        assert exc.value.components == [[0, 1], [2, 3]]
        # pairs listed out of vertex order, frames 4 and 6 unmeasured
        results = [(i, j, fake_result(random_rigid(rng), 90), 100)
                   for i, j in [(5, 2), (3, 0), (7, 2), (1, 3)]]
        with pytest.raises(DisconnectedGraphError) as exc:
            build_graph(results, 8)
        assert exc.value.components == [[0, 1, 3], [2, 5, 7]]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), data=st.data())
    def test_components_match_depth_first_search(self, n, data):
        frame = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(frame, frame).filter(lambda p: p[0] != p[1]),
                                   unique=True, max_size=20))
        g = PoseGraph(n, tuple(Edge(i, j, np.eye(3), np.zeros(3), 1.0, 1.0)
                               for i, j in pairs))
        assert g.components() == _reference_components(pairs)

    def test_isolated_vertex_tolerated(self, rng):
        results = [(0, 1, fake_result(random_rigid(rng), 90), 100)]
        g = build_graph(results, 3)
        assert list(g.covered_vertices()) == [True, True, False]

    def test_edge_measurement_is_inverted_pnp(self, rng):
        t = random_rigid(rng)
        g = build_graph([(0, 1, fake_result(t, 90), 100)], 2)
        inv = inverse(t)
        np.testing.assert_allclose(g.edges[0].rotation, inv.rotation, atol=1e-12)
        np.testing.assert_allclose(g.edges[0].translation, inv.translation, atol=1e-12)

    def test_weights_normalized_to_max(self, rng):
        results = [
            (0, 1, fake_result(random_rigid(rng), 50), 100),
            (1, 2, fake_result(random_rigid(rng), 100), 100),
        ]
        g = build_graph(results, 3, quality_threshold=0.1)
        weights = {(e.i, e.j): e.weight for e in g.edges}
        assert weights[(1, 2)] == pytest.approx(1.0)
        assert weights[(0, 1)] == pytest.approx(0.5)

    def test_validity_injection_drops_pair(self, rng):
        results = [
            (0, 1, fake_result(random_rigid(rng), 90), 100),
            (1, 2, fake_result(random_rigid(rng), 90), 100),
            (0, 2, fake_result(random_rigid(rng), 90), 100),
        ]
        g = build_graph(results, 3, pair_validity={(0, 2): False})
        assert sorted((e.i, e.j) for e in g.edges) == [(0, 1), (1, 2)]

    def test_self_pair_rejected(self, rng):
        with pytest.raises(ValidationError):
            build_graph([(1, 1, fake_result(random_rigid(rng), 9), 10)], 2)


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


class TestRotationCertificate:
    def test_winding_cycle_fails(self):
        g, rot = winding_cycle(12)
        lam = rotation_certificate(g, rot)
        assert abs(lam - (2.0 * np.cos(2.0 * np.pi / 12) - 2.0)) <= 1e-6
        assert not rotation_certified(g, lam)
        # the identity is the global minimum of the same graph
        assert rotation_certified(g, rotation_certificate(g, rotation_averaging(g)))

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
        lam = rotation_certificate(g, rot)
        assert abs(lam - _reference_certificate(g, rot)) <= 1e-9
        assert rotation_certified(g, lam)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(3, 9),
           scale=st.floats(1e-4, 1e4), start=st.sampled_from(["chordal", "averaged",
                                                               "winding"]))
    def test_verdict_invariant_to_weight_scale(self, seed, n, scale, start):
        """Rescaling every weight scales lambda_min and the floor alike,
        at the optimum, at the chordal start (not yet stationary) and at
        the winding stationary point."""
        rng = np.random.default_rng(seed)
        if start == "winding":
            g, rot = winding_cycle(n)
        else:
            poses = [random_rigid(rng) for _ in range(n)]
            edges = consistent_edges(poses, random_connected_pairs(n, rng),
                                     noise_deg=10.0, rng=rng)
            g = PoseGraph(n, tuple(Edge(e.i, e.j, e.rotation, e.translation,
                                        float(rng.uniform(0.2, 2.0)), 1.0)
                                   for e in edges))
            rot = (rotation_averaging(g) if start == "averaged"
                   else chordal_start_rotations(g))
        h = PoseGraph(n, tuple(Edge(e.i, e.j, e.rotation, e.translation,
                                    scale * e.weight, e.quality) for e in g.edges))
        assert (rotation_certified(g, rotation_certificate(g, rot))
                == rotation_certified(h, rotation_certificate(h, rot)))

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
            lam = rotation_certificate(g, rot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rotation_certified(g, lam)
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
        scale = max(np.linalg.norm(p.camera_center()) for p in poses)
        for k in range(5):
            expected = poses[0].apply(poses[k].camera_center())  # center in frame 0
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
        results = [(0, 1, fake_result(random_rigid(rng), 90), 100),
                   (1, 3, fake_result(random_rigid(rng), 90), 100)]
        g = build_graph(results, 5)
        incident = set()
        for i, j, _, _ in results:
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


class TestStackedSolvers:
    """The block-matrix solvers against the per-edge references above."""

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
            assert rotation_certified(g, rotation_certificate(g, r))

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
        hess = hess.toarray()
        basis = np.eye(12).reshape(12, 4, 3)
        h = 1e-5
        numeric = [(objective(h * e) - objective(-h * e)) / (2 * h) for e in basis]
        np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-7 * np.abs(grad).max())
        h = 1e-4
        numeric = [[(objective(h * (e + d)) - objective(h * (e - d)) - objective(h * (d - e))
                     + objective(-h * (e + d))) / (4 * h * h) for d in basis] for e in basis]
        np.testing.assert_allclose(hess, numeric, rtol=0, atol=1e-5 * np.abs(hess).max())

    def test_non_finite_step_is_damped(self, monkeypatch):
        """A NaN Newton step counts as a rise: it is solved again with
        damping, and the descent still reaches the undamped optimum."""
        g = benchmark_shaped_graph(np.random.default_rng(4), 14, 4)
        expected = rotation_averaging(g)
        solve, calls = pose_graph.spla.spsolve, []

        def first_step_nan(mat, rhs):
            calls.append(mat.shape)
            x = solve(mat, rhs)
            return np.full_like(x, np.nan) if len(calls) == 2 else x  # 1 is the start

        monkeypatch.setattr(pose_graph.spla, "spsolve", first_step_nan)
        rot = rotation_averaging(g)
        assert len(calls) >= 3
        assert np.max(np.abs(rot - expected)) <= 1e-9
        assert rotation_certified(g, rotation_certificate(g, rot))

    def test_long_chain_converges_and_certifies(self):
        """A 400-frame window-10 chain, the shape a video gives, averages
        within the iteration cap (the Gauss-Seidel descent ran out of its
        500 sweeps here) and the result certifies."""
        g = benchmark_shaped_graph(np.random.default_rng(2), 400, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            rot = rotation_averaging(g)
        assert rotation_certified(g, rotation_certificate(g, rot))

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
        tall systems (C = R_ij for rotations, C = I for translations),
        and its right-hand sides are A^T b, to 1e-14 of the largest
        entry: sqrt(w)^2 and w differ in the last bits. The translation
        matrix has A^T A's sparsity pattern, explicit zeros dropped."""
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
        assert_close(_free_system(lap).toarray(), (ref_a.T @ ref_a).toarray())
        assert_close(-lap.tocsr()[3:, :3].toarray(), ref_a.T @ ref_rhs)

        rot = np.stack([random_rotation(rng) for _ in range(n)])
        y = rot[vertices].transpose(0, 2, 1)
        objective = float(np.trace(_dual_blocks(lap, y), axis1=1, axis2=2).sum())
        assert abs(objective - _reference_objective(g, rot)) <= 1e-12 * objective

        solve, systems = pose_graph.spla.spsolve, []

        def capture(mat, rhs):
            systems.append((mat.copy(), rhs.copy()))
            return solve(mat, rhs)

        monkeypatch.setattr(pose_graph.spla, "spsolve", capture)
        translation_averaging(g, rot)
        (mat, rhs), = systems
        ref_a, ref_b, _ = _reference_translation_system(g, rot, covered, anchor)
        ref_mat = (ref_a.T @ ref_a).tocsc()
        mat.sort_indices()
        ref_mat.sort_indices()
        np.testing.assert_array_equal(mat.indptr, ref_mat.indptr)
        np.testing.assert_array_equal(mat.indices, ref_mat.indices)
        assert_close(mat.data, ref_mat.data)
        assert_close(rhs, ref_a.T @ ref_b)

    def test_edge_arrays_built_once_and_read_only(self, rng):
        poses = [random_rigid(rng) for _ in range(4)]
        g = PoseGraph(5, tuple(consistent_edges(poses, [(0, 1), (2, 1), (2, 3)])))
        arrays = g.edge_arrays
        assert g.edge_arrays is arrays
        for name in ("i", "j", "weight", "rotation", "translation", "covered"):
            assert not getattr(arrays, name).flags.writeable
        np.testing.assert_array_equal(arrays.j, [1, 1, 3])
        np.testing.assert_array_equal(arrays.rotation[1], g.edges[1].rotation)
        covered = g.covered_vertices()
        covered[0] = False  # a caller's copy, not the cache
        assert list(g.covered_vertices()) == [True, True, True, True, False]


def _reference_chordal_start(lap):
    """`_chordal_start` projecting one vertex block at a time."""
    blocks = pose_graph.spla.spsolve(_free_system(lap), -lap.tocsr()[3:, :3].toarray())
    y = np.tile(np.eye(3), (lap.shape[0] // 3, 1, 1))
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
        results = [(i, j, fake_result(random_rigid(rng, t_scale=3.0), int(rng.integers(30, 90))),
                    100) for i, j in random_connected_pairs(9, rng, extra=1.5)]
        g = build_graph(results, 9, quality_threshold=0.0)
        assert len(g.edges) == len(results)
        by_pair = {(i, j): res for i, j, res, _ in results}
        for e in g.edges:
            ref = inverse(by_pair[(e.i, e.j)].transform)
            assert_same_bits(e.rotation, ref.rotation)
            assert_same_bits(e.translation, ref.translation)

    @pytest.mark.parametrize("seed", range(3))
    def test_chordal_init_and_gauge_fix_bit_equal_to_vertex_loop(self, seed):
        """The stacked start against a per-vertex projection loop; the
        anchor block is the identity exactly, at the start and in the
        averaged rotations, with no gauge-fixing pass."""
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

