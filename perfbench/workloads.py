"""Seeded inputs for the benchmark's three workloads.

Each workload function writes its inputs under a work directory and
returns a plan: the cases the measured process solves one at a time in a
closed loop, plus what the checks need (ground truth, the generator's
focal). The program only ever sees the written files.

views-sparse
    Seven scenes of ``SceneSpec(n_views=20, point_noise_sigma=0.005,
    outlier_fraction=0.1)`` written by ``pipeline.synthesize`` and solved
    in views mode: 190 pairs of ~550 valid pixels each. This is the
    ROADMAP baseline. Its pair stage is bound by per-hypothesis Python
    work (simulation, P3P, refinement), so P3P batching, back-projection
    reuse and the thread pool show here.
pairs-dense
    Three pairs-mode manifests of five consecutive-window pairs each, made
    of full-coverage 512x384 pointmaps (196,608 valid pixels per map) from
    an analytic ray caster and normalised per pair the way a pointmap
    network normalises its output. This is the input
    shape of real network output. Its pair stage is bound by
    O(iterations x N) scoring and refinement, and it reads its inputs
    from disk; P3P changes should not move it.
averaging
    Fifteen pose-graph instances, each a 60-frame complete graph and an
    80-frame window-10 chain, the two shapes ``solve`` builds under
    ``pair_policy auto``. In both solve workloads ``pose_graph`` is about
    1% of solve time, so changes to the averaging solvers show only here.

The accuracy columns are deterministic per case but differ between cases,
and one poorly solved pair can double a case's translation error; the run
reports their median over several cases so that a new seed moves them
little.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from pmsfm import io_formats, losses, pipeline
from pmsfm.geometry import (
    Pointmap,
    RigidTransform,
    axis_angle_matrix,
    change_frame,
    random_rotation,
)
from pmsfm.pose_graph import Edge, GlobalPoses, PoseGraph, assemble_global
from pmsfm.synth import SceneSpec

WORKLOADS = ("views-sparse", "pairs-dense", "averaging")

VIEWS_SCENES = 7

DENSE_SIZE = (512, 384)
DENSE_FOCALS = (440.0, 460.0, 480.0)  # one scene per focal
DENSE_FRAMES = 4
DENSE_WINDOW = 2  # pairs (i, j) with 0 < j - i <= 2: five pairs per scene
DENSE_NOISE = 0.005  # isotropic point noise, scene units before normalising
DENSE_OUTLIERS = 0.1
_ORBIT_RADIUS = 2.5
_ORBIT_STEP_RAD = 0.25
_BACKGROUND_RADIUS = 4.0
# Object spheres (center, radius) inside the background sphere. The layout
# is fixed so that the per-pair scale drift, which dominates the
# translation error, is the same on every seed.
_SPHERES = (
    ((0.3, 0.1, 0.0), 0.35),
    ((-0.35, 0.25, 0.1), 0.25),
    ((0.0, -0.4, -0.1), 0.3),
    ((-0.2, -0.1, 0.35), 0.2),
    ((0.15, 0.3, -0.3), 0.22),
)

AVERAGING_INSTANCES = 15
COMPLETE_FRAMES = 60
CHAIN_FRAMES = 80
CHAIN_WINDOW = 10
EDGE_NOISE_RAD = 0.05
OUTLIER_EDGE_FRACTION = 0.03
_TRAJECTORY_STEP = 0.1


def build(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload for one seed; return its plan."""
    makers = {"views-sparse": views_sparse, "pairs-dense": pairs_dense,
                "averaging": averaging}
    return makers[workload](seed, work)


# ---------------------------------------------------------------------------
# views-sparse


def views_sparse(seed: int, work: Path) -> dict:
    cases = []
    for k in range(VIEWS_SCENES):
        spec = SceneSpec(n_views=20, point_noise_sigma=0.005, outlier_fraction=0.1,
                         rng_seed=seed * VIEWS_SCENES + k)
        manifest = pipeline.synthesize(spec, work / f"scene{k}")
        cases.append({"manifest": str(manifest),
                      "out": str(work / f"scene{k}" / "run"),
                      "gt": str(manifest.parent / pipeline.GT_POSES_FILENAME),
                      "focal": pipeline.load_manifest(manifest).focal})
    return {"kind": "solve", "cases": cases, "setup_manifest": cases[0]["manifest"],
            "pair_of_path": {}, "focal_files": []}


# ---------------------------------------------------------------------------
# pairs-dense


def _look_at(position: np.ndarray) -> RigidTransform:
    """World-to-camera pose of a camera at ``position`` facing the origin."""
    z = -position / np.linalg.norm(position)
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    x /= np.linalg.norm(x)
    r = np.stack([x, np.cross(z, x), z])
    return RigidTransform.from_matrix_parts(r, -r @ position)


def ray_cast(pose: RigidTransform, focal: float, spheres) -> np.ndarray:
    """Camera-frame points (H, W, 3) seen through every pixel.

    Each pixel ray stops at the nearest object sphere in front of the
    camera, else at the enclosing background sphere, which the camera sits
    inside, so coverage is 100%.
    """
    w, h = DENSE_SIZE
    ii, jj = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    rays = np.stack([(ii - w / 2.0) / focal, (jj - h / 2.0) / focal,
                     np.ones_like(ii)], axis=-1).reshape(-1, 3)
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    origin = -pose.rotation.T @ pose.translation
    world_rays = rays @ pose.rotation

    def roots(center, radius):
        oc = np.asarray(center) - origin
        b = world_rays @ oc
        disc = b * b - (oc @ oc - radius * radius)
        root = np.sqrt(np.maximum(disc, 0.0))
        return b - root, b + root, disc > 0

    dist = np.full(len(rays), np.inf)
    for center, radius in spheres:
        near, _, hit = roots(center, radius)
        dist = np.where(hit & (near > 1e-6), np.minimum(dist, near), dist)
    _, far, _ = roots((0.0, 0.0, 0.0), _BACKGROUND_RADIUS)
    dist = np.where(np.isfinite(dist), dist, far)
    return (dist[:, None] * rays).reshape(h, w, 3)


def _corrupt(points: np.ndarray, bbox, rng: np.random.Generator):
    """Point noise on every pixel, then uniform bbox outliers with low
    confidence on a fixed share of them, as a network's output would."""
    h, w, _ = points.shape
    n = h * w
    flat = points.reshape(-1, 3) + rng.normal(0.0, DENSE_NOISE, size=(n, 3))
    conf = rng.uniform(0.5, 1.0, size=n)
    out = rng.choice(n, size=int(DENSE_OUTLIERS * n), replace=False)
    flat[out] = rng.uniform(bbox[0], bbox[1], size=(len(out), 3))
    conf[out] = rng.uniform(0.01, 0.05, size=len(out))
    return flat.reshape(h, w, 3), conf.reshape(h, w)


def pairs_dense(seed: int, work: Path) -> dict:
    cases, pair_of_path, focal_files = [], {}, []
    for s, focal in enumerate(DENSE_FOCALS):
        case, pairs, focals = _dense_scene(seed, s, focal, work / f"scene{s}")
        cases.append(case)
        pair_of_path.update(pairs)
        focal_files += focals
    return {"kind": "solve", "cases": cases, "setup_manifest": cases[0]["manifest"],
            "pair_of_path": pair_of_path, "focal_files": focal_files}


def _dense_scene(seed: int, scene: int, focal: float, work: Path):
    """One pairs-mode manifest: DENSE_FRAMES cameras on an orbit arc whose
    start depends on the scene index only, so every seed sees the same
    geometry and the seed draws the noise and the outliers."""
    w, h = DENSE_SIZE
    poses = []
    for k in range(DENSE_FRAMES):
        azimuth = 2.0 * math.pi * scene / len(DENSE_FOCALS) + _ORBIT_STEP_RAD * k
        elevation = 0.3 + 0.1 * math.sin(k)
        poses.append(_look_at(_ORBIT_RADIUS * np.array([
            math.cos(elevation) * math.cos(azimuth),
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation)])))
    ones = np.ones((h, w))
    full = np.ones((h, w), dtype=bool)
    own = [Pointmap(w, h, ray_cast(p, focal, _SPHERES), ones, full) for p in poses]

    work.mkdir(parents=True, exist_ok=True)
    pairs, scales, pair_of_path, focal_files = [], [], {}, []
    for i in range(DENSE_FRAMES):
        for j in range(i + 1, min(DENSE_FRAMES, i + 1 + DENSE_WINDOW)):
            clean = (own[i], change_frame(own[j], poses[j], poses[i]))
            scale = losses.norm_factor(*clean)
            scales.append(scale)
            both = np.concatenate([pm.points.reshape(-1, 3) for pm in clean])
            center = (both.max(axis=0) + both.min(axis=0)) / 2.0
            half = (both.max(axis=0) - both.min(axis=0)) / 2.0
            bbox = (center - 1.5 * half, center + 1.5 * half)
            names = (f"pair_{i:02d}_{j:02d}_ref.pmap", f"pair_{i:02d}_{j:02d}_src.pmap")
            for v, (pm, name) in enumerate(zip(clean, names)):
                rng = np.random.default_rng([seed, scene, i, j, v])
                points, conf = _corrupt(pm.points, bbox, rng)
                io_formats.write_pointmap(work / name,
                                          Pointmap(w, h, points / scale, conf, full))
                pair_of_path[str(work / name)] = f"{scene}:{i}-{j}"
            focal_files.append((str(work / names[0]), focal))
            pairs.append((i, j) + names)

    manifest = work / pipeline.MANIFEST_FILENAME
    manifest.write_text(pipeline.manifest_to_text(pipeline.Manifest(
        mode="pairs", n_frames=DENSE_FRAMES, base_dir=work, pairs=tuple(pairs))),
        encoding="utf-8")
    # Every pair carries its own scale; the reference trajectory is written
    # in the mean pair unit, so rigid alignment compares like with like and
    # the remaining per-pair scale spread shows as translation error.
    unit = float(np.mean(scales))
    gt = GlobalPoses(rotations=np.stack([p.rotation for p in poses]),
                     translations=np.stack([p.translation / unit for p in poses]),
                     recovered=np.ones(DENSE_FRAMES, dtype=bool))
    io_formats.write_poses(work / pipeline.GT_POSES_FILENAME, gt)
    case = {"manifest": str(manifest), "out": str(work / "run"),
            "gt": str(work / pipeline.GT_POSES_FILENAME), "focal": focal}
    return case, pair_of_path, focal_files


# ---------------------------------------------------------------------------
# averaging


def _so3_exp(v: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(v))
    return np.eye(3) if angle == 0.0 else axis_angle_matrix(v / angle, angle)


def pose_graph_instance(rng: np.random.Generator, n: int, window: int | None):
    """Ground-truth trajectory and a noisy pose graph over it.

    Camera-to-world rotations drift by ~0.05 rad per frame and centers
    follow a smooth random walk of fixed step. Each edge carries the
    frame-j to frame-i transform with ~0.05 rad of rotation noise and 5%
    translation noise; a fixed 3% of the edges, drawn at random, carry a
    random rotation and translation instead (gross outliers).
    """
    a = [np.eye(3)]
    u = [np.zeros(3)]
    heading = np.array([1.0, 0.0, 0.0])
    for _ in range(1, n):
        a.append(a[-1] @ _so3_exp(rng.normal(0.0, 0.05, 3)))
        heading = heading + rng.normal(0.0, 0.3, 3)
        heading /= np.linalg.norm(heading)
        u.append(u[-1] + _TRAJECTORY_STEP * heading)
    a, u = np.array(a), np.array(u)

    pairs = [(i, j) for i in range(n)
             for j in range(i + 1, n if window is None else min(n, i + 1 + window))]
    outliers = set(rng.choice(len(pairs), size=round(OUTLIER_EDGE_FRACTION * len(pairs)),
                              replace=False).tolist())
    sigma = EDGE_NOISE_RAD / math.sqrt(3.0)
    edges = []
    for k, (i, j) in enumerate(pairs):
        rot = a[i].T @ a[j]
        trans = a[i].T @ (u[j] - u[i])
        length = float(np.linalg.norm(trans))
        if k in outliers:
            rot = random_rotation(rng)
            trans = rng.normal(0.0, length, 3)
        else:
            rot = rot @ _so3_exp(rng.normal(0.0, sigma, 3))
            trans = trans + rng.normal(0.0, sigma * length, 3)
        edges.append(Edge(i=i, j=j, rotation=rot, translation=trans,
                          weight=1.0, quality=1.0))
    gt = assemble_global(a, u, np.ones(n, dtype=bool))
    return PoseGraph(n_frames=n, edges=tuple(edges)), gt


def averaging(seed: int, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    cases = []
    for k in range(AVERAGING_INSTANCES):
        rng = np.random.default_rng([seed, 3, k])
        graphs = []
        for shape, n, window in (("complete", COMPLETE_FRAMES, None),
                                 ("chain", CHAIN_FRAMES, CHAIN_WINDOW)):
            graph, gt = pose_graph_instance(rng, n, window)
            stem = work / f"{shape}_{k}"
            io_formats.write_graph(f"{stem}_graph.txt", graph)
            io_formats.write_poses(f"{stem}_gt.txt", gt)
            graphs.append({"graph": f"{stem}_graph.txt", "gt": f"{stem}_gt.txt",
                           "out": f"{stem}_{pipeline.POSES_FILENAME}"})
        cases.append({"graphs": graphs})
    return {"kind": "average", "cases": cases, "setup_manifest": "",
            "pair_of_path": {}, "focal_files": []}
