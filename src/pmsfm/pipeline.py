"""End-to-end orchestration: synthetic scenes to disk, pairwise relative
poses, graph averaging, and evaluation, all over the on-disk formats.

Every stage persists its outputs (depth maps, pose graph, global
poses, report), so any stage can be re-run or audited in isolation and
externally produced pairwise pointmaps can replace the synthetic ones
via a pairs-mode manifest.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import time
import warnings as _warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io_formats
from .errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    InsufficientDataError,
    PmsfmError,
    ValidationError,
)
from .geometry import CameraIntrinsics
from .metrics import (
    DEFAULT_THRESHOLDS,
    SequenceReport,
    align_gauge,
    evaluate,
    subsample_frames,
)
from .pose_graph import (
    GlobalPoses,
    PoseGraph,
    assemble_global,
    build_graph,
    rotation_averaging,
    rotation_certificate,
    rotation_objective,
    translation_averaging,
)
from .relative_pose import estimate_focal, make_intrinsics, pnp_ransac
from .synth import SceneBundle, SceneSpec, SceneView, generate, make_pair_pointmaps

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSUFFICIENT_DATA = 3
EXIT_DISCONNECTED = 4
EXIT_IO = 5

POSES_FILENAME = "poses_est.txt"
GRAPH_FILENAME = "graph.txt"
RUN_LOG_FILENAME = "run_log.txt"
MANIFEST_FILENAME = "manifest.txt"
GT_POSES_FILENAME = "gt_poses.txt"


@dataclass(frozen=True)
class PipelineConfig:
    manifest: str = ""
    output_dir: str = ""
    n_keep: int = 0  # 0 keeps every frame
    rng_seed: int = 0
    jobs: int = 0  # 0 picks one pool thread or one per core from the input
    pair_validity: str = ""

    def __post_init__(self):
        for name in ("n_keep", "rng_seed", "jobs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: {getattr(self, name)} is negative")


# ---------------------------------------------------------------------------
# key-value documents (grammar and codec in io_formats): config, scene spec,
# manifest, pair validity


_CONFIG_TITLE = "pmsfm pipeline config v1"
_SCENE_SPEC_TITLE = "pmsfm scene spec v1"
_MANIFEST_TITLE = "pmsfm manifest v1"


def config_to_text(cfg: PipelineConfig) -> str:
    try:
        return io_formats.kv_to_text(cfg, _CONFIG_TITLE)
    except FormatError as exc:
        raise ConfigError(f"unwritable config: {exc}") from None


def config_from_text(text: str) -> PipelineConfig:
    try:
        return io_formats.kv_from_text(PipelineConfig, text, "config", _CONFIG_TITLE)
    except FormatError as exc:
        # A value the config rejects already reads "invalid config: ...";
        # only a fault in the text itself gets the file's prefix.
        if isinstance(exc.__context__, ConfigError):
            raise ConfigError(str(exc)) from None
        raise ConfigError(f"malformed config file: {exc}") from None


def load_config(path) -> PipelineConfig:
    return config_from_text(Path(path).read_text(encoding="utf-8"))


def scene_spec_to_text(spec: SceneSpec) -> str:
    return io_formats.kv_to_text(spec, _SCENE_SPEC_TITLE)


def scene_spec_from_text(text: str) -> SceneSpec:
    return io_formats.kv_from_text(SceneSpec, text, "scene spec", _SCENE_SPEC_TITLE)


def load_scene_spec(path) -> SceneSpec:
    return scene_spec_from_text(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Manifest:
    """Input listing for a solve.

    Views mode references per-view depth files plus the ground-truth
    poses used to emit simulated pair pointmaps; pairs mode references
    externally produced (reference, source) pointmap files per pair.
    """

    mode: str  # views | pairs
    n_frames: int
    base_dir: Path
    focal: float = 0.0
    gt_poses: str = ""
    scene_scale: float = 1.0
    outlier_fraction: float = 0.0
    point_noise_sigma: float = 0.0
    rng_seed: int = 0
    views: tuple[tuple[int, str], ...] = field(  # (frame, depth)
        default=(), metadata={"record": "view"})
    pairs: tuple[tuple[int, int, str, str], ...] = field(  # (i, j, ref, src)
        default=(), metadata={"record": "pair"})

    def __post_init__(self):
        if self.mode not in ("views", "pairs"):
            raise ValidationError(f"mode: unknown manifest mode {self.mode!r}")
        io_formats.check_frame_count("n_frames", self.n_frames)
        for kind, records in (("view", self.views), ("pair", self.pairs)):
            if records and self.mode != kind + "s":
                raise ValidationError(f"{kind} record {' '.join(map(str, records[0]))}: "
                                      f"not allowed in a {self.mode} manifest")
        _check_records("view", [r[:1] for r in self.views], self.n_frames)
        _check_records("pair", [r[:2] for r in self.pairs], self.n_frames)
        if self.mode == "pairs":
            for key in ("focal", "gt_poses", "scene_scale", "outlier_fraction",
                        "point_noise_sigma", "rng_seed"):
                value = getattr(self, key)
                if value != self.__dataclass_fields__[key].default:
                    raise ValidationError(f"{key}: {value!r} is a views-mode setting;"
                                          " a pairs manifest keeps its default")
        if self.mode == "views" and not 0.0 < self.focal < math.inf:
            raise ValidationError(f"focal: {self.focal} is not a positive finite real")
        self.pair_simulation()  # checked on read, before any depth map

    def pair_simulation(self, **spec) -> SceneSpec:
        """The views-mode pair simulation settings, checked by SceneSpec;
        `spec` gives its other fields."""
        return SceneSpec(scene_scale=self.scene_scale, outlier_fraction=self.outlier_fraction,
                         point_noise_sigma=self.point_noise_sigma, rng_seed=self.rng_seed,
                         **spec)


def _check_records(kind: str, keys, n_frames: int):
    """Each record's frames lie in 0..n_frames-1, a pair joins two
    distinct frames, and no key repeats."""
    seen = set()
    for key in keys:
        record = f"{kind} record {' '.join(map(str, key))}"
        if not all(0 <= f < n_frames for f in key):
            raise ValidationError(f"{record}: frame outside 0..{n_frames - 1}")
        if len(set(key)) < len(key):
            raise ValidationError(f"{record}: self-pair")
        if key in seen:
            raise ValidationError(f"{record}: repeated {kind}")
        seen.add(key)


def manifest_to_text(m: Manifest) -> str:
    return io_formats.kv_to_text(m, _MANIFEST_TITLE, omit=("base_dir",))


def manifest_from_text(text: str, base_dir: Path) -> Manifest:
    return io_formats.kv_from_text(Manifest, text, "manifest", _MANIFEST_TITLE,
                                   base_dir=base_dir)


def load_manifest(path) -> Manifest:
    p = Path(path)
    return manifest_from_text(p.read_text(encoding="utf-8"), p.parent)


@dataclass(frozen=True)
class _PairValidity:
    n_frames: int  # the manifest's, not a key of the document
    pairs: tuple[tuple[int, int, bool], ...] = field(  # (i, j, valid)
        default=(), metadata={"record": "pair"})

    def __post_init__(self):
        _check_records("pair", [r[:2] for r in self.pairs], self.n_frames)


def load_pair_validity(path, n_frames: int) -> dict[tuple[int, int], bool]:
    """Pair verdicts whose records pass the manifest's record checks
    for `n_frames` frames."""
    doc = io_formats.kv_from_text(_PairValidity, Path(path).read_text(encoding="utf-8"),
                                  "pair-validity document", None, n_frames=n_frames)
    return {(i, j): ok for i, j, ok in doc.pairs}


# ---------------------------------------------------------------------------
# synth stage


def synthesize(spec: SceneSpec, out_dir) -> Path:
    """Generate a bundle and persist it: per-view depth containers,
    ground-truth poses, the scene spec, and a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = generate(spec)

    views = []
    for k, view in enumerate(bundle.views):
        depth_name = f"view_{k:03d}.dmap"
        io_formats.write_depthmap(out / depth_name, view.depth)
        views.append((k, depth_name))

    gt = GlobalPoses(
        rotations=np.stack([v.pose.rotation for v in bundle.views]),
        translations=np.stack([v.pose.translation for v in bundle.views]),
        recovered=np.ones(bundle.n_views, dtype=bool),
    )
    io_formats.write_poses(out / GT_POSES_FILENAME, gt)
    (out / "scene_spec.txt").write_text(scene_spec_to_text(spec), encoding="utf-8")

    manifest = Manifest(
        mode="views", n_frames=bundle.n_views, base_dir=out,
        focal=bundle.views[0].intrinsics.f, gt_poses=GT_POSES_FILENAME,
        scene_scale=spec.scene_scale, outlier_fraction=spec.outlier_fraction,
        point_noise_sigma=spec.point_noise_sigma, rng_seed=spec.rng_seed,
        views=tuple(views),
    )
    (out / MANIFEST_FILENAME).write_text(manifest_to_text(manifest), encoding="utf-8")
    return out / MANIFEST_FILENAME


# ---------------------------------------------------------------------------
# solve stage


@dataclass
class SolveResult:
    poses: GlobalPoses
    graph: PoseGraph
    frame_ids: list[int]
    objective: float
    rotation_lambda_min: float
    rotation_certified: bool
    timings: dict[str, float]
    n_pairs_attempted: int = 0
    n_pairs_failed: int = 0
    pair_workers: int = 0
    warnings: list[str] = field(default_factory=list)  # in the order raised


# Pixels per pair map from which `jobs 0` runs the pair stage on one pool
# thread per core. Below it a pair is many short numpy calls that hold the
# GIL, so a second thread only queues for it; above it the O(N) kernels
# release the GIL for long enough to overlap. On a 2-vCPU VM two threads
# took 77-119% longer than one at the ~730 valid pixels of a `views-sparse`
# pair, lost by 6-33% up to 2500, tied at 2600-7000 and won by 15-33% from
# 3400 on.
POOL_MIN_PIXELS_PER_MAP = 3_000


def _pair_workers(jobs: int, pixels_per_map: int) -> int:
    """Pool size of the pair stage: `jobs` when given, else one thread per
    core for maps of at least POOL_MIN_PIXELS_PER_MAP pixels and one below."""
    if jobs:
        return jobs
    return (os.cpu_count() or 1) if pixels_per_map >= POOL_MIN_PIXELS_PER_MAP else 1


def _header_pixels(base: Path, pairs) -> int:
    """Width x height of the first listed reference map whose container
    header reads; 0 when none does (then every pair fails on its own)."""
    for _, _, ref, _ in pairs:
        try:
            width, height = io_formats.read_pointmap_size(base / ref)
        except (PmsfmError, OSError):
            continue
        return width * height
    return 0


# Views-mode candidate pairs: every pair of up to ALL_PAIRS_MAX_FRAMES
# frames, beyond it each frame with its next PAIR_WINDOW frames.
ALL_PAIRS_MAX_FRAMES = 60
PAIR_WINDOW = 10


def _candidate_pairs(n: int) -> list[tuple[int, int]]:
    window = n if n <= ALL_PAIRS_MAX_FRAMES else PAIR_WINDOW
    return [(a, b) for a in range(n) for b in range(a + 1, min(n, a + 1 + window))]


def _load_views_bundle(manifest: Manifest, kept: np.ndarray) -> SceneBundle:
    if not manifest.gt_poses:
        raise FormatError("views manifest must reference a gt_poses document")
    gt, gt_ids = io_formats.read_poses(manifest.base_dir / manifest.gt_poses)
    by_id = {fid: k for k, fid in enumerate(gt_ids)}
    files = dict(manifest.views)

    views = []
    for frame in kept:
        frame = int(frame)
        if frame not in files:
            raise FormatError(f"manifest lists no depth file for frame {frame}")
        if frame not in by_id:
            raise FormatError(f"gt_poses lists no pose for frame {frame}")
        depth = io_formats.read_depthmap(manifest.base_dir / files[frame])
        if views and (depth.width, depth.height) != (views[0].depth.width,
                                                     views[0].depth.height):
            raise FormatError(f"frame {frame} has size {depth.width}x{depth.height},"
                              f" expected {views[0].depth.width}x{views[0].depth.height}")
        intr = CameraIntrinsics(f=manifest.focal, c_x=depth.width / 2.0,
                                c_y=depth.height / 2.0)
        views.append(SceneView(depth=depth, intrinsics=intr,
                               pose=gt.pose(by_id[frame])))
    spec = manifest.pair_simulation(
        n_views=len(views), image_size=(views[0].depth.width, views[0].depth.height))
    return SceneBundle(spec=spec, views=tuple(views))


def _simulate_pair(bundle: SceneBundle, a: int, b: int):
    pair = make_pair_pointmaps(bundle, a, b)
    return pair.rows1, pair.rows2


def _read_pair(base: Path, ref_file: str, src_file: str):
    return (io_formats.read_pointmap(base / ref_file),
            io_formats.read_pointmap(base / src_file))


def _solve_pair(load, rng_seed: int):
    """PnP result for the (reference, source) pointmaps, or their valid
    rows, that `load()` returns, which must be the same size. The
    reference map is released once its focal is known, so PnP runs
    without it in memory."""
    ref, src = load()
    if (ref.width, ref.height) != (src.width, src.height):
        raise FormatError(f"maps differ in size: reference {ref.width}x{ref.height},"
                          f" source {src.width}x{src.height}")
    focal = estimate_focal(ref)
    del ref
    k = make_intrinsics(src.width, src.height, focal)
    return pnp_ransac(src, k, rng_seed)


def _solve_stages(cfg: PipelineConfig) -> SolveResult:
    """Run subsample -> pairwise relative poses -> graph -> averaging.

    Failed pairs are skipped with a warning; they only abort the run if
    the surviving graph splits. `run_solve` records the warnings.
    """
    timings = {}
    t0 = time.perf_counter()

    manifest = load_manifest(cfg.manifest)
    if manifest.n_frames < 2:
        raise InsufficientDataError(
            f"need at least 2 frames, manifest declares {manifest.n_frames}"
        )
    kept = (subsample_frames(manifest.n_frames, cfg.n_keep) if cfg.n_keep
            else np.arange(manifest.n_frames))
    if len(kept) < 2:
        raise InsufficientDataError("fewer than 2 frames after subsampling")
    local_of = {int(f): i for i, f in enumerate(kept)}
    n_local = len(kept)

    raw = load_pair_validity(cfg.pair_validity, manifest.n_frames) if cfg.pair_validity else {}
    validity = {(local_of[i], local_of[j]): ok for (i, j), ok in raw.items()
                if i in local_of and j in local_of}

    # The pair source: (a, b, load) per candidate pair, in manifest order,
    # and the pixels per pair map that size the pool: the views' mean
    # valid count, or the container size of dense pairs-mode maps.
    if manifest.mode == "views":
        bundle = _load_views_bundle(manifest, kept)
        source = [(a, b, functools.partial(_simulate_pair, bundle, a, b))
                  for a, b in _candidate_pairs(n_local)]
        pixels = sum(int(np.count_nonzero(v.depth.mask))
                     for v in bundle.views) // len(bundle.views)
    else:
        if not manifest.pairs:
            raise InsufficientDataError("pairs manifest lists no pairs")
        listed = [p for p in manifest.pairs if p[0] in local_of and p[1] in local_of]
        source = [(local_of[i], local_of[j],
                   functools.partial(_read_pair, manifest.base_dir, ref, src))
                  for i, j, ref, src in listed]
        if not source:
            raise InsufficientDataError("no pairs survive frame subsampling")
        pixels = _header_pixels(manifest.base_dir, listed) if not cfg.jobs else 0
    workers = _pair_workers(cfg.jobs, pixels)
    timings["load_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_solve_pair, load, cfg.rng_seed) for _, _, load in source]
    results = []
    n_failed = 0
    for (a, b, _), fut in zip(source, futures):  # manifest order, schedule-independent
        try:
            results.append((a, b, fut.result()))
        except (PmsfmError, OSError, np.linalg.LinAlgError) as exc:
            n_failed += 1
            _warnings.warn(f"pair ({kept[a]},{kept[b]}) skipped: {exc}")
    timings["pairs_s"] = time.perf_counter() - t0

    if not results:
        raise InsufficientDataError("every candidate pair failed")

    t0 = time.perf_counter()
    graph = build_graph(results, n_local, validity)
    timings["graph_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rotations = rotation_averaging(graph)
    timings["rotation_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    lambda_min, certified = rotation_certificate(graph, rotations)
    timings["certificate_s"] = time.perf_counter() - t0
    if not certified:
        _warnings.warn("rotation averaging stopped at a stationary point not"
                       f" certified globally optimal (lambda_min {lambda_min!r})")
    t0 = time.perf_counter()
    translations = translation_averaging(graph, rotations)
    timings["translation_s"] = time.perf_counter() - t0

    poses = assemble_global(rotations, translations, graph.covered_vertices())
    objective = rotation_objective(graph, rotations)
    return SolveResult(
        poses=poses, graph=graph, frame_ids=[int(f) for f in kept],
        objective=objective, rotation_lambda_min=lambda_min,
        rotation_certified=certified, timings=timings,
        n_pairs_attempted=len(source), n_pairs_failed=n_failed, pair_workers=workers,
    )


def _write_run_log(out_dir: Path, warnings: list[str], result: SolveResult | None = None,
                   error: Exception | None = None):
    """Write the run log into `out_dir`: the finished `result`'s counts and
    timings, then the warnings in the order raised, then the `error`."""
    out = ["# pmsfm run log"]
    if result is not None:
        out += [f"n_frames_solved {len(result.frame_ids)}",
                "frames_kept " + " ".join(str(f) for f in result.frame_ids),
                f"n_pairs_attempted {result.n_pairs_attempted}",
                f"n_pairs_failed {result.n_pairs_failed}",
                f"pair_workers {result.pair_workers}",
                f"n_edges {result.graph.n_edges}",
                f"n_rescued {int(np.count_nonzero(result.graph.edge_arrays.rescued))}",
                f"n_recovered {int(np.count_nonzero(result.poses.recovered))}",
                f"objective_sra {repr(result.objective)}",
                f"rotation_lambda_min {result.rotation_lambda_min!r}",
                f"rotation_certified {int(result.rotation_certified)}"]
        out += [f"timing_{stage} {seconds:.6f}" for stage, seconds in result.timings.items()]
    out += [f"# warning: {msg}" for msg in warnings]
    if error is not None:
        out.append(f"# error: {error}")
    (out_dir / RUN_LOG_FILENAME).write_text("\n".join(out) + "\n", encoding="utf-8")


def run_solve(cfg: PipelineConfig) -> tuple[SolveResult, Path]:
    """Persist config, then solve and persist poses, graph and run log; the
    config's paths are absolute, so it repeats the run from any directory.
    Poses and graph of an earlier run in the same directory are deleted
    before the solve, so a failed solve leaves none behind. A PmsfmError
    or OSError of the solve is logged before it propagates."""
    if not cfg.manifest:
        raise ConfigError("manifest: no input manifest configured")
    if not cfg.output_dir:
        raise ConfigError("output_dir: no output directory configured")
    cfg = dataclasses.replace(cfg, **{name: os.path.abspath(getattr(cfg, name))
                                      for name in ("manifest", "output_dir", "pair_validity")
                                      if getattr(cfg, name)})
    config_text = config_to_text(cfg)  # refuses a config that would not read back
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_used.txt").write_text(config_text, encoding="utf-8")
    for name in (POSES_FILENAME, GRAPH_FILENAME):
        (out / name).unlink(missing_ok=True)
    # One recording block, entered once in the calling thread: the
    # warnings filters and hook it installs are process-global, so pool
    # threads report into it while it is open.
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        try:
            result = _solve_stages(cfg)
        except (PmsfmError, OSError) as exc:
            _write_run_log(out, [str(w.message) for w in caught], error=exc)
            raise
    result.warnings = [str(w.message) for w in caught]
    io_formats.write_poses(out / POSES_FILENAME, result.poses, result.frame_ids)
    io_formats.write_graph(out / GRAPH_FILENAME, result.graph)
    _write_run_log(out, result.warnings, result)
    return result, out


# ---------------------------------------------------------------------------
# eval stage


def evaluate_pose_files(est_path, gt_path, mode: str = "rigid") -> SequenceReport:
    """Align and score an estimated pose document against a reference.

    Estimated frames are matched to reference frames by frame id; the
    reference may cover a superset (e.g. all frames of the original
    video). If too few frames are commonly recovered for the requested
    alignment, the report degrades to rotation-only metrics.
    """
    est, est_ids = io_formats.read_poses(est_path)
    gt, gt_ids = io_formats.read_poses(gt_path)
    by_id = {fid: k for k, fid in enumerate(gt_ids)}
    missing = [fid for fid in est_ids if fid not in by_id]
    if missing:
        raise FormatError(f"reference poses lack frames {missing}")
    sel = [by_id[fid] for fid in est_ids]
    gt_sub = GlobalPoses(rotations=gt.rotations[sel],
                         translations=gt.translations[sel],
                         recovered=gt.recovered[sel])
    try:
        aligned, _ = align_gauge(est, gt_sub, mode=mode)
        return evaluate(aligned, gt_sub)
    except AlignmentError:
        return _evaluate_rotation_only(est, gt_sub)


def _evaluate_rotation_only(est: GlobalPoses, gt: GlobalPoses) -> SequenceReport:
    """Degraded scoring when the translation gauge cannot be fixed:
    rotations are aligned on the first commonly recovered frame and the
    accuracy columns count the rotation criterion alone; translation
    fields are NaN."""
    common = np.flatnonzero(est.recovered & gt.recovered)
    rotations = est.rotations.copy()
    if len(common):
        k0 = int(common[0])
        w = est.rotations[k0].T @ gt.rotations[k0]
        for k in common:
            rotations[k] = est.rotations[k] @ w
    est_aligned = GlobalPoses(rotations=rotations, translations=est.translations,
                              recovered=est.recovered)
    inf_thresholds = tuple((np.inf, deg) for _, deg in DEFAULT_THRESHOLDS)
    report = evaluate(est_aligned, gt, thresholds=inf_thresholds)
    return dataclasses.replace(report, trans_error=float("nan"),
                               trans_rmse=float("nan"))
