import argparse
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmsfm import io_formats, pipeline, pose_graph, relative_pose
from pmsfm.cli import _build_parser, main
from pmsfm.errors import ConfigError, FormatError, InsufficientDataError
from pmsfm.geometry import (
    DepthMap,
    Pointmap,
    axis_angle_matrix,
    change_frame,
    compose,
    geodesic_deg,
    inverse,
    pointmap_from_depth,
    so3_project,
)
from pmsfm.metrics import align_gauge, evaluate
from pmsfm.pose_graph import (
    GlobalPoses,
    assemble_global,
    rotation_averaging,
    rotation_objective,
    translation_averaging,
)
from pmsfm.synth import SceneSpec, generate

from conftest import random_rigid, winding_cycle
from test_synth import reference_pair_pointmaps


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def small_spec(**kw) -> SceneSpec:
    base = dict(n_views=6, rng_seed=12, image_size=(64, 48),
                focal_range=(60.0, 90.0), n_points=800)
    base.update(kw)
    return SceneSpec(**base)


@pytest.fixture
def bundle_dir(tmp_path):
    out = tmp_path / "bundle"
    pipeline.synthesize(small_spec(), out)
    return out


def write_pair_maps(pair_dir: Path, n_frames: int, maps) -> Path:
    """Pair pointmap files plus a pairs-mode manifest listing them; `maps`
    holds the `MapPair` of each pair (i, j)."""
    pair_dir.mkdir()
    lines = ["# pairs", "mode pairs", f"n_frames {n_frames}"]
    for (i, j), pair in maps.items():
        ref, src = f"p{i}{j}_ref.pmap", f"p{i}{j}_src.pmap"
        io_formats.write_pointmap(pair_dir / ref, pair.view1)
        io_formats.write_pointmap(pair_dir / src, pair.view2)
        lines.append(f"pair {i} {j} {ref} {src}")
    (pair_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return pair_dir / "manifest.txt"


def write_pairs_bundle(bundle, pair_dir: Path, pairs) -> Path:
    """The bundle's simulated pair pointmaps, as full grids in a pairs-mode
    manifest."""
    return write_pair_maps(pair_dir, bundle.n_views,
                           {(i, j): MapPair(*reference_pair_pointmaps(bundle, i, j)[:2])
                            for i, j in pairs})


class MapPair(typing.NamedTuple):
    """A pair's reference and source pointmaps."""

    view1: Pointmap
    view2: Pointmap


def dense_pair_maps(n_frames: int, pairs, size=(200, 150), f=180.0, seed=0):
    """Full-coverage pair pointmaps of random depths and
    poses with 0.01 point noise and 10% gross outliers, shaped like
    network output; every map has more valid pixels than the pair
    stage's strided subset takes."""
    rng = np.random.default_rng(seed)
    w, h = size
    k = relative_pose.make_intrinsics(w, h, f)
    poses = [random_rigid(rng, 0.5) for _ in range(n_frames)]
    full = np.ones((h, w), dtype=bool)
    own = [pointmap_from_depth(DepthMap(w, h, rng.uniform(2.0, 5.0, size=(h, w)), full), k)
           for _ in range(n_frames)]

    def corrupt(pm):
        pts = pm.points + rng.normal(scale=0.01, size=pm.points.shape)
        out = rng.uniform(size=(h, w)) < 0.1
        pts[out] += rng.normal(size=(int(out.sum()), 3))
        return Pointmap(w, h, pts, pm.confidence, pm.mask)

    return {(i, j): MapPair(corrupt(own[i]), corrupt(change_frame(own[j], poses[j], poses[i])))
            for i, j in pairs}


def run_log_value(run_dir: Path, key: str) -> str:
    for line in (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8").splitlines():
        if line.startswith(key + " "):
            return line.split(" ", 1)[1]
    raise AssertionError(f"run log has no {key} line")


def solve_with_jobs(manifest: Path, out: Path, jobs: int):
    """Solve with `jobs` pool threads and again with one; both must write
    the same poses and graph bytes and log their pool size. Returns the
    first run."""
    runs = [pipeline.run_solve(pipeline.PipelineConfig(
                manifest=str(manifest), output_dir=str(out / f"run{k}"), jobs=n))
            for k, n in enumerate((jobs, 1))]
    written = [{f: (run_dir / f).read_bytes()
                for f in (pipeline.POSES_FILENAME, pipeline.GRAPH_FILENAME)}
               for _, run_dir in runs]
    assert written[0] == written[1]
    for (result, run_dir), n in zip(runs, (jobs, 1)):
        assert result.pair_workers == n
        assert run_log_value(run_dir, "pair_workers") == str(n)
    return runs[0]


def pair_key(a, b, res):
    """The bits of one pair result as it reaches `build_graph`."""
    return (a, b, res.n_valid, res.inlier_count, res.focal, res.mean_inlier_reproj_err,
            res.transform.rotation.tobytes(), res.transform.translation.tobytes())


def solve_capturing_pairs(cfg, fail_pair=None):
    """`run_solve` with the pair results passed to `build_graph` recorded
    as `pair_key`s; the PnP of views pair `fail_pair` raises LinAlgError."""
    simulate, solve_pnp, build = (pipeline.make_pair_pointmaps, pipeline.pnp_ransac,
                                  pipeline.build_graph)
    doomed, seen = [], []

    def simulating(bundle, a, b):
        made = simulate(bundle, a, b)
        if (a, b) == fail_pair:
            doomed.append(made.rows2)
        return made

    def solving(pm, k, rng_seed):
        if any(pm is d for d in doomed):
            raise np.linalg.LinAlgError("SVD did not converge")
        return solve_pnp(pm, k, rng_seed)

    def building(results, *args):
        seen.extend(pair_key(*r) for r in results)
        return build(results, *args)

    with mock.patch.object(pipeline, "make_pair_pointmaps", simulating), \
            mock.patch.object(pipeline, "pnp_ransac", solving), \
            mock.patch.object(pipeline, "build_graph", building):
        result, run_dir = pipeline.run_solve(cfg)
    return result, run_dir, seen


# The strings of r"([\w./-]+( [\w./-]+)*)?": Python's \w is exactly the
# Unicode letters and numbers and "_". Drawing text and joining its words
# is several times faster than st.from_regex.
_TEXT = st.text(st.characters(categories=("L", "N")) | st.sampled_from("_./- ")).map(
    lambda s: " ".join(s.split()))
_BY_TYPE = {int: st.integers(), float: st.floats(allow_nan=False),
            bool: st.booleans(), str: _TEXT}
# Any text, biased towards the characters the line grammar splits and strips on.
_ANY_TEXT = st.text(st.sampled_from("a.# \t\n\r\x0b\x0c\x1c\x85\u2028\u3000")) | st.text()


def dataclass_values(cls, **overrides):
    """Instances of `cls` with every field drawn by its type unless overridden."""
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: overrides.get(f.name, _BY_TYPE.get(hints[f.name]))
                             for f in dataclasses.fields(cls)})


_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


class TestConfigAndManifest:
    def test_config_round_trip_lossless(self, tmp_path):
        cfg = pipeline.PipelineConfig(manifest="m.txt", output_dir="out dir with space",
                                      n_keep=60, rng_seed=7)
        path = tmp_path / "cfg.txt"
        path.write_text(pipeline.config_to_text(cfg), encoding="utf-8")
        assert pipeline.load_config(path) == cfg

    def test_config_rejects_unknown_key(self):
        with pytest.raises(ConfigError,
                           match="^malformed config file: line 1: unknown key 'bogus'$"):
            pipeline.config_from_text("bogus 1\n")

    def test_config_validates_values(self):
        for name in ("n_keep", "rng_seed", "jobs"):
            with pytest.raises(ConfigError, match=f"^{name}: -1 is negative$"):
                pipeline.PipelineConfig(**{name: -1})
            with pytest.raises(ConfigError, match=f"^invalid config: {name}: -1 is negative$"):
                pipeline.config_from_text(f"{name} -1\n")

    @given(dataclass_values(
        pipeline.PipelineConfig, n_keep=st.integers(min_value=0),
        rng_seed=st.integers(min_value=0), jobs=st.integers(min_value=0)))
    def test_config_round_trip_property(self, cfg):
        assert pipeline.config_from_text(pipeline.config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("field, value", [
        ("manifest", "in.txt\npair_validity other.txt"),
        ("output_dir", " run "),
        ("pair_validity", "v.txt\x85"),
    ])
    def test_config_writer_refuses_what_reads_back_differently(self, field, value):
        with pytest.raises(ConfigError, match=f"{field}: .* would not read back as written"):
            pipeline.config_to_text(pipeline.PipelineConfig(**{field: value}))

    @given(dataclass_values(pipeline.PipelineConfig, n_keep=st.just(0), rng_seed=st.just(0),
                            jobs=st.just(0), manifest=_ANY_TEXT,
                            output_dir=_ANY_TEXT, pair_validity=_ANY_TEXT))
    def test_config_text_round_trips_or_is_refused(self, cfg):
        try:
            text = pipeline.config_to_text(cfg)
        except ConfigError:
            return
        assert pipeline.config_from_text(text) == cfg

    def test_manifest_writer_refuses_a_file_name_with_a_space(self, tmp_path):
        m = pipeline.Manifest(mode="pairs", n_frames=2, base_dir=tmp_path,
                              pairs=((0, 1, "a b.pmap", "c.pmap"),))
        with pytest.raises(FormatError, match="^pairs: 'a b.pmap' is not one whitespace-free"):
            pipeline.manifest_to_text(m)

    @pytest.mark.parametrize("text, where", [
        ("n_keep 1_0\n", "line 1: n_keep: '1_0'"),
        ("jobs \u0663\n", "line 1: jobs: '\u0663'"),
        ("n_keep +007\n", "line 1: n_keep: '+007'"),
    ], ids=["underscore", "arabic-indic", "plus-sign"])
    def test_config_rejects_number_words_outside_the_grammar(self, text, where):
        with pytest.raises(ConfigError, match=f"{re.escape(where)} is not a decimal number$"):
            pipeline.config_from_text(text)

    @pytest.mark.parametrize("document, text, message", [
        ("graph", "edge 0 1 1 0 0 0 1 0 0 0 1 0 0 1 1 1\n", "missing key 'frames'"),
        ("graph", "frames -1\n", "invalid pose graph: frames: -1 is negative"),
        ("poses", "frame 0 1 1 0 0 0 1 0 0 0 1 0 0 0\n", "missing key 'frames'"),
        ("poses", "frames 1\n", "invalid poses document: frames: 1 declared, 0 present"),
        ("manifest", "n_frames 2\n", "missing key 'mode'"),
        ("manifest", "mode pairs\n", "missing key 'n_frames'"),
        ("manifest", "mode pairs\nn_frames -1\n", "invalid manifest: n_frames: -1 is negative"),
        ("pair-validity", "pair 0 9 1\n",
         "invalid pair-validity document: pair record 0 9: frame outside 0..3"),
        ("manifest", "mode pairs\nn_frames 3\npair 0 x a b\nview y d\n",
         "line 3: pair: invalid literal for int() with base 10: 'x'"),
        ("manifest", "pair 0 x a b\nmode pairs\nmode pairs\n",
         "line 1: pair: invalid literal for int() with base 10: 'x'"),
    ], ids=["graph-no-frames", "graph-frames", "poses-no-frames", "poses-frames",
            "manifest-no-mode", "manifest-no-n-frames", "manifest-n-frames", "pair-validity",
            "manifest-first-of-two-record-keys", "manifest-record-before-repeated-key"])
    def test_rejection_names_the_key_or_the_document(self, tmp_path, document, text, message):
        (tmp_path / "validity.txt").write_text(text, encoding="utf-8")
        read = {"graph": io_formats.graph_from_text, "poses": io_formats.poses_from_text,
                "manifest": lambda text: pipeline.manifest_from_text(text, tmp_path),
                "pair-validity": lambda _: pipeline.load_pair_validity(
                    tmp_path / "validity.txt", 4)}[document]
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read(text)

    def test_scene_spec_round_trip(self, tmp_path):
        spec = small_spec(depth_noise_sigma=0.01, object_shape="blob")
        path = tmp_path / "spec.txt"
        text = pipeline.scene_spec_to_text(spec)
        assert "focal_range 60.0 90.0\n" in text and "image_size 64 48\n" in text
        path.write_text(text, encoding="utf-8")
        assert pipeline.load_scene_spec(path) == spec

    @given(dataclass_values(
        SceneSpec, n_points=st.integers(min_value=1), n_views=st.integers(min_value=2),
        object_shape=st.sampled_from(["sphere-cluster", "box-cluster", "blob"]),
        trajectory=st.sampled_from(["orbit", "random-hemisphere"]),
        scene_scale=st.floats(min_value=0.0, exclude_min=True),
        focal_range=st.tuples(st.floats(min_value=0.0, exclude_min=True),
                              st.floats(min_value=0.0, exclude_min=True)).map(
                                  lambda r: tuple(sorted(r))),
        image_size=st.tuples(st.integers(min_value=2), st.integers(min_value=2)),
        depth_noise_sigma=_NON_NEGATIVE, point_noise_sigma=_NON_NEGATIVE,
        outlier_fraction=st.floats(min_value=0.0, max_value=1.0),
        occlusion_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        rng_seed=st.integers(min_value=0)))
    def test_scene_spec_round_trip_property(self, spec):
        assert pipeline.scene_spec_from_text(pipeline.scene_spec_to_text(spec)) == spec

    def test_manifest_round_trip(self, bundle_dir, tmp_path):
        views = pipeline.load_manifest(bundle_dir / "manifest.txt")
        pairs = pipeline.load_manifest(write_pairs_bundle(
            generate(small_spec(n_views=3)), tmp_path / "pairs", [(0, 1), (1, 2)]))
        assert pairs.mode == "pairs" and len(pairs.pairs) == 2
        for m in (views, pairs):
            again = pipeline.manifest_from_text(pipeline.manifest_to_text(m), m.base_dir)
            assert again == m

    @pytest.mark.parametrize("document", ["config", "scene spec", "manifest"])
    def test_title_of_another_document_rejected(self, bundle_dir, document):
        """Each document reads under its own writer's title, and under
        another document's title is rejected at line 1."""
        write, read = {
            "config": (pipeline.config_to_text, pipeline.config_from_text),
            "scene spec": (pipeline.scene_spec_to_text, pipeline.scene_spec_from_text),
            "manifest": (pipeline.manifest_to_text,
                         lambda text: pipeline.manifest_from_text(text, bundle_dir)),
        }[document]
        doc = {"config": pipeline.PipelineConfig(n_keep=3), "scene spec": small_spec(),
               "manifest": pipeline.load_manifest(bundle_dir / "manifest.txt")}[document]
        text = write(doc)
        assert read(text) == doc
        own, body = text.split("\n", 1)
        with pytest.raises((FormatError, ConfigError),
                           match=f"line 1: expected the title '{re.escape(own)}', "
                                 "got '# pmsfm poses v2'$"):
            read(f"# pmsfm poses v2\n{body}")

    def test_repeated_key_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="line 2: repeated key 'mode'"):
            pipeline.manifest_from_text("mode pairs\nmode views\nn_frames 2\n", tmp_path)
        with pytest.raises(FormatError, match="repeated key"):
            pipeline.scene_spec_from_text("n_views 3\nn_views 4\n")
        with pytest.raises(ConfigError, match="repeated key"):
            pipeline.config_from_text("n_keep 3\nn_keep 4\n")


class TestSynthStage:
    def test_outputs_parseable(self, bundle_dir):
        m = pipeline.load_manifest(bundle_dir / "manifest.txt")
        assert m.mode == "views" and m.n_frames == 6
        assert len(m.views) == 6
        for _, depth in m.views:
            io_formats.read_depthmap(bundle_dir / depth)
        assert not list(bundle_dir.glob("*.pmap"))
        gt, ids = io_formats.read_poses(bundle_dir / m.gt_poses)
        assert ids == list(range(6))
        assert gt.recovered.all()

    def test_same_seed_identical_tree(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.synthesize(small_spec(), a)
        pipeline.synthesize(small_spec(), b)
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.synthesize(small_spec(), a)
        pipeline.synthesize(small_spec(rng_seed=99), b)
        assert tree_digest(a) != tree_digest(b)


class TestSolveStage:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_noiseless_recovers_gt(self, bundle_dir, tmp_path, jobs):
        result, out = solve_with_jobs(bundle_dir / "manifest.txt", tmp_path / "run", jobs)
        assert result.poses.recovered.all()
        report = pipeline.evaluate_pose_files(out / pipeline.POSES_FILENAME,
                                              bundle_dir / "gt_poses.txt")
        assert report.rot_error_deg <= 1e-3
        assert report.trans_error <= 1e-8
        assert report.det_rate_pct == 100.0

    def test_views_pair_results_equal_reference_maps(self, tmp_path):
        # Every pair result of a views solve is, bit for bit, the focal and
        # PnP of the full-grid reference simulation of that pair.
        bundle_dir = tmp_path / "bundle"
        pipeline.synthesize(small_spec(outlier_fraction=0.1, point_noise_sigma=0.004,
                                       depth_noise_sigma=0.002, occlusion_fraction=0.05),
                            bundle_dir)
        cfg = pipeline.PipelineConfig(manifest=str(bundle_dir / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), rng_seed=3, jobs=2)
        result, _, pairs = solve_capturing_pairs(cfg)
        assert result.n_pairs_failed == 0
        bundle = pipeline._load_views_bundle(pipeline.load_manifest(cfg.manifest),
                                             np.arange(6))
        expected = []
        for a, b in pipeline._candidate_pairs(6):
            view1, view2, _, _ = reference_pair_pointmaps(bundle, a, b)
            k = relative_pose.make_intrinsics(view2.width, view2.height,
                                              relative_pose.estimate_focal(view1))
            expected.append(pair_key(a, b, relative_pose.pnp_ransac(view2, k, 3)))
        assert pairs == expected

    def test_minimal_two_view_bundle(self, tmp_path):
        out = tmp_path / "b2"
        pipeline.synthesize(small_spec(n_views=2), out)
        cfg = pipeline.PipelineConfig(manifest=str(out / "manifest.txt"),
                                      output_dir=str(tmp_path / "run2"), jobs=1)
        result, _ = pipeline.run_solve(cfg)
        gt, _ = io_formats.read_poses(out / "gt_poses.txt")
        expected = compose(gt.pose(1), inverse(gt.pose(0)))
        assert geodesic_deg(result.poses.rotations[1], expected.rotation) <= 1e-4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pair_stage_warnings_reach_run_log(self, tmp_path, monkeypatch, jobs):
        # A one-iteration focal budget makes every pair's IRLS warn, in
        # the pool's threads when jobs > 1.
        out = tmp_path / "bundle"
        pipeline.synthesize(small_spec(point_noise_sigma=0.01), out)
        monkeypatch.setattr(relative_pose, "_FOCAL_ITERS", 1)
        cfg = pipeline.PipelineConfig(manifest=str(out / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), jobs=jobs)
        result, run_dir = pipeline.run_solve(cfg)
        log = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8")
        budget_lines = [line for line in log.splitlines()
                        if line.startswith("# warning: focal IRLS hit its iteration budget")]
        assert result.n_pairs_failed == 0
        assert len(budget_lines) == result.n_pairs_attempted == 15

    def test_pool_and_pipeline_warnings_in_the_order_raised(self, tmp_path, monkeypatch):
        # Two pool threads raise the focal budget warning of the two
        # pairs that load; the pair whose source map is missing is
        # skipped afterwards, in the calling thread.
        bundle = generate(small_spec(n_views=3, point_noise_sigma=0.01))
        manifest = write_pairs_bundle(bundle, tmp_path / "pairs", [(0, 1), (0, 2), (1, 2)])
        (manifest.parent / "p02_src.pmap").unlink()
        monkeypatch.setattr(relative_pose, "_FOCAL_ITERS", 1)
        cfg = pipeline.PipelineConfig(manifest=str(manifest),
                                      output_dir=str(tmp_path / "run"), jobs=2)
        result, run_dir = pipeline.run_solve(cfg)
        assert result.pair_workers == 2 and result.n_pairs_failed == 1
        budget = "focal IRLS hit its iteration budget; returning best iterate"
        assert result.warnings[:2] == [budget, budget]
        assert result.warnings[2].startswith("pair (0,2) skipped: ")
        assert len(result.warnings) == 3
        log = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8")
        assert [line[len("# warning: "):] for line in log.splitlines()
                if line.startswith("# warning: ")] == result.warnings

    @pytest.fixture(scope="class")
    def clean_solve(self, tmp_path_factory):
        """A 6-view bundle, its clean solve's pair results and a directory
        for further runs."""
        root = tmp_path_factory.mktemp("linalg")
        manifest = pipeline.synthesize(small_spec(), root / "bundle")
        cfg = pipeline.PipelineConfig(manifest=str(manifest), output_dir=str(root / "clean"),
                                      jobs=2)
        result, _, pairs = solve_capturing_pairs(cfg)
        assert result.n_pairs_failed == 0 and len(pairs) == 15
        return cfg, pairs, root

    @settings(max_examples=6, deadline=None)
    @given(pair=st.sampled_from(pipeline._candidate_pairs(6)))
    def test_linalg_error_skips_only_its_pair(self, clean_solve, pair):
        cfg, clean, root = clean_solve
        cfg = dataclasses.replace(cfg, output_dir=tempfile.mkdtemp(dir=root))
        result, run_dir, pairs = solve_capturing_pairs(cfg, fail_pair=pair)
        assert pairs == [p for p in clean if p[:2] != pair]
        assert result.n_pairs_attempted == 15
        assert result.n_pairs_failed == 1
        assert result.poses.recovered.all()
        assert run_log_value(run_dir, "n_pairs_failed") == "1"
        log = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8")
        skipped = [line for line in log.splitlines()
                   if line.startswith("# warning: pair (") and " skipped: " in line]
        assert skipped == [f"# warning: pair ({pair[0]},{pair[1]}) skipped:"
                           " SVD did not converge"]

    def test_auto_jobs_sizes_pool_from_input(self, bundle_dir, tmp_path, monkeypatch):
        # jobs 0 on small sparse maps: one pool thread.
        cfg = pipeline.PipelineConfig(manifest=str(bundle_dir / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), jobs=0)
        result, run_dir = pipeline.run_solve(cfg)
        assert result.pair_workers == 1
        assert run_log_value(run_dir, "pair_workers") == "1"
        # Maps at the threshold get one thread per core; in pairs mode
        # the size comes from the first container's header.
        bundle = generate(small_spec(n_views=3))
        manifest = write_pairs_bundle(bundle, tmp_path / "pairs", [(0, 1), (0, 2), (1, 2)])
        monkeypatch.setattr(pipeline, "POOL_MIN_PIXELS_PER_MAP", 64 * 48)
        cfg = pipeline.PipelineConfig(manifest=str(manifest),
                                      output_dir=str(tmp_path / "run_pairs"), jobs=0)
        result, run_dir = pipeline.run_solve(cfg)
        assert result.pair_workers == (os.cpu_count() or 1)
        assert run_log_value(run_dir, "pair_workers") == str(result.pair_workers)
        # An unreadable first container leaves the choice to the next one
        # and fails only its own pair.
        (manifest.parent / "p01_ref.pmap").unlink()
        result, _ = pipeline.run_solve(cfg)
        assert result.pair_workers == (os.cpu_count() or 1)
        assert result.n_pairs_failed == 1
        monkeypatch.setattr(pipeline, "POOL_MIN_PIXELS_PER_MAP", 64 * 48 + 1)
        result, _ = pipeline.run_solve(cfg)
        assert result.pair_workers == 1

    def test_all_masked_frame_skipped(self, tmp_path):
        out = tmp_path / "bundle"
        pipeline.synthesize(small_spec(), out)
        # wipe frame 3: empty mask means every pair with it fails
        m = pipeline.load_manifest(out / "manifest.txt")
        depth_file = dict(m.views)[3]
        dm = io_formats.read_depthmap(out / depth_file)
        from pmsfm.geometry import DepthMap
        empty = DepthMap(dm.width, dm.height, np.zeros_like(dm.depth),
                         np.zeros_like(dm.mask))
        io_formats.write_depthmap(out / depth_file, empty)

        cfg = pipeline.PipelineConfig(manifest=str(out / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), jobs=1)
        result, run_dir = pipeline.run_solve(cfg)
        assert not result.poses.recovered[3]
        assert result.poses.recovered.sum() == 5
        assert result.n_pairs_failed == 5
        report = pipeline.evaluate_pose_files(run_dir / pipeline.POSES_FILENAME,
                                              out / "gt_poses.txt")
        assert report.det_rate_pct == pytest.approx(100.0 * 5 / 6)
        assert report.partial

    def test_run_log_objective_matches_reevaluation(self, bundle_dir, tmp_path):
        cfg = pipeline.PipelineConfig(manifest=str(bundle_dir / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), jobs=1)
        result, out = pipeline.run_solve(cfg)
        saved_poses, _ = io_formats.read_poses(out / pipeline.POSES_FILENAME)
        saved_graph = io_formats.read_graph(out / pipeline.GRAPH_FILENAME)
        # the saved poses are world-to-camera, the averaging variables their transposes
        reeval = rotation_objective(saved_graph, saved_poses.rotations.transpose(0, 2, 1))
        logged = None
        for line in (out / pipeline.RUN_LOG_FILENAME).read_text().splitlines():
            if line.startswith("objective_sra "):
                logged = float(line.split()[1])
        assert logged is not None
        assert abs(logged - reeval) <= 1e-12

    def test_run_log_records_certificate(self, bundle_dir, tmp_path):
        cfg = pipeline.PipelineConfig(manifest=str(bundle_dir / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), jobs=1)
        result, out = pipeline.run_solve(cfg)
        assert result.rotation_certified
        assert run_log_value(out, "rotation_certified") == "1"
        assert float(run_log_value(out, "rotation_lambda_min")) == result.rotation_lambda_min
        assert not any("certified" in w for w in result.warnings)
        # The certificate has its own timer, between rotation and translation.
        assert list(result.timings) == ["load_s", "pairs_s", "graph_s", "rotation_s",
                                        "certificate_s", "translation_s"]
        assert float(run_log_value(out, "timing_certificate_s")) >= 0.0

    @pytest.mark.parametrize("side", ["spectrum", "pivot signs"])
    def test_uncertified_rotations_warn_in_run_log(self, tmp_path, monkeypatch, side):
        # The solve's graph and rotations are replaced by the winding
        # 12-cycle and its stationary point, which the certificate rejects;
        # with the size rule forced below 12 frames it rejects them by the
        # pivot signs and logs no eigenvalue.
        out = tmp_path / "bundle"
        pipeline.synthesize(small_spec(n_views=12), out)
        graph, rotations = winding_cycle(12)
        monkeypatch.setattr(pipeline, "build_graph", lambda *args: graph)
        monkeypatch.setattr(pipeline, "rotation_averaging", lambda g: rotations)
        if side == "pivot signs":
            monkeypatch.setattr(pose_graph, "_DENSE_MAX_FRAMES", 11)
        cfg = pipeline.PipelineConfig(manifest=str(out / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), jobs=1)
        result, run_dir = pipeline.run_solve(cfg)
        assert not result.rotation_certified
        if side == "spectrum":
            assert abs(result.rotation_lambda_min - (np.sqrt(3.0) - 2.0)) <= 1e-6
            assert float(run_log_value(run_dir, "rotation_lambda_min")) == (
                result.rotation_lambda_min)
        else:
            assert math.isnan(result.rotation_lambda_min)
            assert run_log_value(run_dir, "rotation_lambda_min") == "nan"
        assert run_log_value(run_dir, "rotation_certified") == "0"
        log = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8")
        assert sum(line.startswith("# warning: rotation averaging stopped at a stationary"
                                   " point not certified") for line in log.splitlines()) == 1

    def test_deterministic_outputs(self, bundle_dir, tmp_path):
        # literally identical config run twice; the run log is excluded
        # from the contract (it carries wall-clock timings)
        cfg = pipeline.PipelineConfig(manifest=str(bundle_dir / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"))
        tracked = (pipeline.POSES_FILENAME, pipeline.GRAPH_FILENAME, "config_used.txt")
        pipeline.run_solve(cfg)
        first = {f: (tmp_path / "run" / f).read_bytes() for f in tracked}
        pipeline.run_solve(cfg)
        for f in tracked:
            assert (tmp_path / "run" / f).read_bytes() == first[f]

    def test_averaging_reruns_from_persisted_graph(self, bundle_dir, tmp_path):
        """Averaging the run's graph.txt again writes its poses_est.txt
        byte for byte, as the CI job checks through the installed package."""
        cfg = pipeline.PipelineConfig(manifest=str(bundle_dir / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), jobs=1)
        result, out = pipeline.run_solve(cfg)
        graph = io_formats.read_graph(out / pipeline.GRAPH_FILENAME)
        rotations = rotation_averaging(graph)
        translations = translation_averaging(graph, rotations)
        io_formats.write_poses(tmp_path / "again.txt", assemble_global(
            rotations, translations, graph.covered_vertices()))
        assert (tmp_path / "again.txt").read_bytes() == \
            (out / pipeline.POSES_FILENAME).read_bytes()
        assert run_log_value(out, "n_edges") == str(graph.n_edges) == \
            str(len(result.graph.edges))
        assert run_log_value(out, "n_rescued") == \
            str(sum(e.rescued for e in result.graph.edges))

    def test_subsampling(self, tmp_path):
        out = tmp_path / "b"
        pipeline.synthesize(small_spec(n_views=9), out)
        cfg = pipeline.PipelineConfig(manifest=str(out / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"),
                                      n_keep=3, jobs=1)
        result, run_dir = pipeline.run_solve(cfg)
        assert result.frame_ids == [0, 3, 6]
        _, ids = io_formats.read_poses(run_dir / pipeline.POSES_FILENAME)
        assert ids == [0, 3, 6]
        # eval matches by frame id against the full gt document
        report = pipeline.evaluate_pose_files(run_dir / pipeline.POSES_FILENAME,
                                              out / "gt_poses.txt")
        assert report.n_frames == 3
        assert report.rot_error_deg <= 1e-3

    def test_candidate_pairs_all_then_window(self):
        # Every pair up to 60 frames; beyond, each frame with its next 10.
        complete = pipeline._candidate_pairs(60)
        assert len(complete) == 60 * 59 // 2 and (0, 59) in complete
        chain = pipeline._candidate_pairs(61)
        assert len(chain) == 51 * 10 + 45  # the last ten frames have fewer successors
        assert max(b - a for a, b in chain) == 10
        assert (0, 10) in chain and (0, 11) not in chain and (50, 60) in chain
        for pairs in (complete, chain):
            assert pairs == sorted(set(pairs)) and all(a < b for a, b in pairs)

    def test_pair_validity_injection(self, bundle_dir, tmp_path):
        validity = tmp_path / "validity.txt"
        validity.write_text("pair 0 2 0\npair 1 3 0\n", encoding="utf-8")
        cfg = pipeline.PipelineConfig(manifest=str(bundle_dir / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"),
                                      pair_validity=str(validity), jobs=1)
        result, _ = pipeline.run_solve(cfg)
        edge_set = {(e.i, e.j) for e in result.graph.edges}
        assert (0, 2) not in edge_set and (1, 3) not in edge_set
        assert result.poses.recovered.all()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pairs_mode_manifest(self, tmp_path, jobs):
        # externally produced pair pointmaps stand in for a network
        bundle = generate(small_spec(n_views=4))
        manifest = write_pairs_bundle(bundle, tmp_path / "pairs",
                                      [(i, j) for i in range(4) for j in range(i + 1, 4)])
        result, _ = solve_with_jobs(manifest, tmp_path / "run", jobs)
        assert result.poses.recovered.all()
        # float32 container quantization keeps this from being exact
        gt = compose(bundle.views[1].pose, inverse(bundle.views[0].pose))
        assert geodesic_deg(result.poses.rotations[1], gt.rotation) <= 1e-2

    def test_pairs_mode_polish_path_is_deterministic(self, tmp_path, monkeypatch):
        # Maps above the strided-subset threshold take the full-resolution
        # polish, which walks its more than `_LO_POINTS` inliers in two
        # blocks; two pool threads and one must write the same bytes.
        maps = dense_pair_maps(3, [(0, 1), (0, 2), (1, 2)])
        assert all(pm.n_valid > relative_pose._LO_POINTS
                   for pair in maps.values() for pm in (pair.view1, pair.view2))
        index_sizes = []
        refine = relative_pose.refine_pose

        def recording(*args):
            index_sizes.append(len(args[5]))
            return refine(*args)

        monkeypatch.setattr(relative_pose, "refine_pose", recording)
        result, _ = solve_with_jobs(write_pair_maps(tmp_path / "pairs", 3, maps),
                                    tmp_path / "run", 2)
        assert result.poses.recovered.all()
        # Per pair and run, one LO refinement on the subset and one polish.
        assert sum(n > relative_pose._LO_POINTS for n in index_sizes) == 6
        assert all(n <= 2 * relative_pose._LO_POINTS for n in index_sizes)

    def test_corrupt_pair_file_skipped(self, tmp_path):
        bundle = generate(small_spec(n_views=3))
        manifest = write_pairs_bundle(bundle, tmp_path / "pairs", [(0, 1), (0, 2), (1, 2)])
        # truncate one pair file
        f = manifest.parent / "p02_src.pmap"
        f.write_bytes(f.read_bytes()[:-10])

        cfg = pipeline.PipelineConfig(manifest=str(manifest),
                                      output_dir=str(tmp_path / "run"), jobs=1)
        result, _ = pipeline.run_solve(cfg)
        assert result.n_pairs_failed == 1
        assert any("skipped" in w for w in result.warnings)
        assert result.poses.recovered.all()

    def test_pair_of_two_sizes_skipped(self, tmp_path):
        # A source map at half the reference's size (every other row and
        # column) is refused, not solved on two grids; the others solve.
        bundle = generate(small_spec(n_views=3))
        manifest = write_pairs_bundle(bundle, tmp_path / "pairs", [(0, 1), (0, 2), (1, 2)])
        f = manifest.parent / "p01_src.pmap"
        pm = io_formats.read_pointmap(f)
        half = Pointmap(-(-pm.width // 2), -(-pm.height // 2), pm.points[::2, ::2],
                        pm.confidence[::2, ::2], pm.mask[::2, ::2])
        io_formats.write_pointmap(f, half)

        cfg = pipeline.PipelineConfig(manifest=str(manifest),
                                      output_dir=str(tmp_path / "run"), jobs=1)
        result, _ = pipeline.run_solve(cfg)
        assert result.n_pairs_failed == 1
        skipped = [w for w in result.warnings if "skipped" in w]
        assert len(skipped) == 1 and skipped[0].startswith("pair (0,1) skipped")
        assert f"{pm.width}x{pm.height}" in skipped[0]
        assert f"{half.width}x{half.height}" in skipped[0]
        a = result.graph.edge_arrays
        assert sorted(zip(a.i.tolist(), a.j.tolist())) == [(0, 2), (1, 2)]
        assert result.poses.recovered.all()

    def test_empty_manifest_insufficient(self, tmp_path):
        p = tmp_path / "manifest.txt"
        p.write_text("mode pairs\nn_frames 0\n", encoding="utf-8")
        cfg = pipeline.PipelineConfig(manifest=str(p),
                                      output_dir=str(tmp_path / "run"))
        with pytest.raises(InsufficientDataError):
            pipeline.run_solve(cfg)


class TestPairsManifestProperties:
    """End-to-end facts of a pairs manifest, on 4 frames and all 6 pairs of
    64x48 `dense_pair_maps`. The tolerances stand on seeds 0-19 of this
    setup, measured before these tests were written."""

    N = 4

    @pytest.fixture(params=range(3))
    def pairs_run(self, request, tmp_path):
        """The manifest's directory, header and records, and its solve."""
        pairs = [(i, j) for i in range(self.N) for j in range(i + 1, self.N)]
        maps = dense_pair_maps(self.N, pairs, size=(64, 48), seed=request.param)
        manifest = write_pair_maps(tmp_path / "pairs", self.N, maps)
        lines = manifest.read_text(encoding="utf-8").splitlines()
        result, run_dir = self.solve(manifest, tmp_path / "run")
        assert result.poses.recovered.all()
        return manifest.parent, lines[:3], lines[3:], result, run_dir

    @staticmethod
    def solve(manifest: Path, out: Path):
        return pipeline.run_solve(pipeline.PipelineConfig(
            manifest=str(manifest), output_dir=str(out), jobs=1))

    def solve_records(self, pair_dir: Path, head, records, out: Path):
        manifest = pair_dir / f"{out.name}.txt"
        manifest.write_text("\n".join(head + records) + "\n", encoding="utf-8")
        return self.solve(manifest, out)

    def test_record_order_does_not_change_outputs(self, pairs_run, tmp_path):
        pair_dir, head, records, _, run_dir = pairs_run
        _, reversed_dir = self.solve_records(pair_dir, head, records[::-1], tmp_path / "rev")
        for name in (pipeline.POSES_FILENAME, pipeline.GRAPH_FILENAME):
            assert (reversed_dir / name).read_bytes() == (run_dir / name).read_bytes()

    def test_relabelled_frames_give_the_same_poses(self, pairs_run, tmp_path):
        # Frame k becomes n-1-k on the same files. The anchor moves to the
        # other end, so the poses agree after rigid gauge alignment:
        # within 6.2e-15 on seeds 0-19.
        pair_dir, head, records, result, _ = pairs_run
        n = self.N
        relabelled = [f"pair {n - 1 - int(i)} {n - 1 - int(j)} {ref} {src}"
                      for _, i, j, ref, src in (r.split() for r in records)]
        other, _ = self.solve_records(pair_dir, head, relabelled, tmp_path / "relabel")
        p = other.poses
        back = GlobalPoses(p.rotations[::-1], p.translations[::-1], p.recovered[::-1])
        aligned, _ = align_gauge(back, result.poses)
        assert np.abs(aligned.rotations - result.poses.rotations).max() <= 1e-12
        assert np.abs(aligned.translations - result.poses.translations).max() <= 1e-12

    def test_one_pair_in_another_unit_moves_no_rotation(self, pairs_run, tmp_path):
        # Pair (0, 1)'s two maps times 7: the rotations move by at most
        # 3.9e-9 on seeds 0-19. The translations move by up to 5.2 (|t| up
        # to 2.0), a defect of translation averaging this test leaves out.
        pair_dir, head, records, result, _ = pairs_run
        for name in ("p01_ref.pmap", "p01_src.pmap"):
            pm = io_formats.read_pointmap(pair_dir / name)
            io_formats.write_pointmap(pair_dir / f"x7_{name}", Pointmap(
                pm.width, pm.height, 7.0 * pm.points, pm.confidence, pm.mask))
        scaled = [r.replace(" p01_", " x7_p01_") for r in records]
        assert scaled != records
        other, _ = self.solve_records(pair_dir, head, scaled, tmp_path / "scaled")
        assert np.abs(other.poses.rotations - result.poses.rotations).max() <= 1e-8


class TestEvalStage:
    def test_est_equals_gt_files(self, bundle_dir, tmp_path):
        gt_path = bundle_dir / "gt_poses.txt"
        report = pipeline.evaluate_pose_files(gt_path, gt_path)
        assert report.rot_error_deg <= 1e-5
        assert report.trans_error <= 1e-18
        assert report.det_rate_pct == 100.0

    def test_global_rotation_invariance(self, bundle_dir, tmp_path):
        # a 90-degree global re-orientation scores identically after
        # rigid alignment
        from pmsfm.metrics import GaugeAlignment, apply_gauge
        gt, ids = io_formats.read_poses(bundle_dir / "gt_poses.txt")
        quarter_turn = axis_angle_matrix([0.0, 0.0, 1.0], math.radians(90.0))
        moved = apply_gauge(gt, GaugeAlignment(quarter_turn, np.zeros(3), 1.0))
        est_path = tmp_path / "est.txt"
        io_formats.write_poses(est_path, moved, ids)
        report = pipeline.evaluate_pose_files(est_path, bundle_dir / "gt_poses.txt")
        assert report.rot_error_deg <= 1e-5
        assert report.trans_error <= 1e-16
        assert report.acc_15_15_pct == 100.0


class TestCli:
    def test_synth_solve_eval_loop(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(pipeline.scene_spec_to_text(small_spec()),
                             encoding="utf-8")
        assert main(["synth", "--spec", str(spec_file),
                     "--out", str(tmp_path / "bundle")]) == 0
        assert main(["solve", "--manifest", str(tmp_path / "bundle" / "manifest.txt"),
                     "--out", str(tmp_path / "run"), "--jobs", "1"]) == 0
        assert main(["eval", "--est", str(tmp_path / "run" / "poses_est.txt"),
                     "--gt", str(tmp_path / "bundle" / "gt_poses.txt"),
                     "--out", str(tmp_path / "report.txt")]) == 0
        report = io_formats.report_from_text(
            (tmp_path / "report.txt").read_text(encoding="utf-8"))
        assert report.det_rate_pct == 100.0
        out = capsys.readouterr().out
        assert "rot_error_deg trans_error det_rate_pct" in out

    def test_formats_prints_the_packaged_file(self, capsys):
        assert main(["formats"]) == 0
        formats_md = Path(io_formats.__file__).with_name("FORMATS.md")
        assert capsys.readouterr().out.encode("utf-8") == formats_md.read_bytes()

    def test_exit_code_config_error(self, tmp_path, capsys):
        assert main(["solve", "--manifest", str(tmp_path / "nope.txt")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("n_keep -1\n", "invalid config: n_keep: -1 is negative"),
        ("bogus 1\n", "malformed config file: line 1: unknown key 'bogus'"),
    ], ids=["value", "syntax"])
    def test_config_file_error_exits_2_with_one_prefix(self, tmp_path, capsys, text, message):
        (tmp_path / "cfg.txt").write_text(text, encoding="utf-8")
        assert main(["solve", "--config", str(tmp_path / "cfg.txt"),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_exit_code_io_error(self, tmp_path, capsys):
        cfg_out = tmp_path / "run"
        missing = tmp_path / "missing_manifest.txt"
        assert main(["solve", "--manifest", str(missing),
                     "--out", str(cfg_out)]) == 5

    def test_missing_pair_maps_exit_3_with_run_log(self, tmp_path, capsys):
        # Every pair fails on its missing map files: the run log keeps
        # each pair's reason and the error, beside the config it ran.
        bundle = generate(small_spec(n_views=4))
        pairs = [(0, 1), (0, 2), (1, 3)]
        manifest = write_pairs_bundle(bundle, tmp_path / "pairs", pairs)
        for pmap in manifest.parent.glob("*.pmap"):
            pmap.unlink()
        run_dir = tmp_path / "run"
        assert main(["solve", "--manifest", str(manifest), "--out", str(run_dir)]) == 3
        assert capsys.readouterr().err == "error: every candidate pair failed\n"
        lines = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# pmsfm run log"
        assert [line.split(" skipped: ")[0] for line in lines[1:-1]] == [
            f"# warning: pair ({i},{j})" for i, j in pairs]
        assert all("No such file or directory" in line for line in lines[1:-1])
        assert lines[-1] == "# error: every candidate pair failed"
        assert pipeline.load_config(run_dir / "config_used.txt").manifest == str(manifest)
        assert not (run_dir / pipeline.POSES_FILENAME).exists()
        assert not (run_dir / pipeline.GRAPH_FILENAME).exists()

    def test_failed_resolve_leaves_no_earlier_outputs(self, bundle_dir, tmp_path, capsys):
        # A second solve into a directory holding a run, failing on a
        # missing view, deletes that run's poses and graph: the directory
        # holds only what the failed run wrote.
        run_dir = tmp_path / "run"
        args = ["solve", "--manifest", str(bundle_dir / "manifest.txt"), "--out", str(run_dir)]
        assert main(args) == 0
        assert (run_dir / pipeline.POSES_FILENAME).exists()
        assert (run_dir / pipeline.GRAPH_FILENAME).exists()
        (bundle_dir / "view_000.dmap").unlink()
        capsys.readouterr()
        assert main(args) == 5
        assert not (run_dir / pipeline.POSES_FILENAME).exists()
        assert not (run_dir / pipeline.GRAPH_FILENAME).exists()
        log = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8").splitlines()
        assert log[-1].startswith("# error: ") and "view_000.dmap" in log[-1]
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config_used.txt", pipeline.RUN_LOG_FILENAME]

    def test_invalid_views_exit_2_with_run_log(self, bundle_dir, tmp_path, capsys):
        # One-pixel-wide depth maps pass the manifest's checks and fail
        # the pair simulation's inside the solve; the frame-count warning
        # raised before it stays in the log.
        manifest = pipeline.load_manifest(bundle_dir / "manifest.txt")
        for _, depth_file in manifest.views:
            io_formats.write_depthmap(bundle_dir / depth_file, DepthMap(
                1, 2, np.ones((2, 1)), np.ones((2, 1), dtype=bool)))
        run_dir = tmp_path / "run"
        assert main(["solve", "--manifest", str(bundle_dir / "manifest.txt"),
                     "--out", str(run_dir), "--n-keep", "99"]) == 2
        message = "image_size: need at least 2x2 pixels"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8") == (
            "# pmsfm run log\n"
            "# warning: requested 99 frames from 6; keeping all\n"
            f"# error: {message}\n")
        assert (run_dir / "config_used.txt").exists()

    @pytest.mark.parametrize("manifest, validity, where", [
        ("mode pairs\nn_frames 2\npair x 1 a.pmap b.pmap\n", "", "line 3:"),
        ("mode pairs\nn_frames abc\npair 0 1 a.pmap b.pmap\n", "", "line 2:"),
        ("mode pairs\nn_frames 2\npair 0 1 a.pmap b.pmap\n", "pair 0 y 1\n", "line 1:"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\npair 2 7 c.pmap d.pmap\n", "",
         "pair record 2 7: frame outside 0..3"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\npair 1 1 c.pmap d.pmap\n", "",
         "pair record 1 1: self-pair"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\npair 1 0 c.pmap d.pmap\n"
         "pair 0 1 e.pmap f.pmap\n", "", "pair record 0 1: repeated pair"),
        ("mode views\nn_frames 2\nview 0 a.dmap\nview 2 b.dmap\n", "",
         "view record 2: frame outside 0..1"),
        ("mode views\nn_frames 2\nview 0 a.dmap\nview 0 b.dmap\n", "",
         "view record 0: repeated view"),
        ("mode views\nn_frames 2\nview 0 a.dmap a.pmap\n", "",
         "line 3: expected 2 view fields, got 3"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\n", "pair 0 9 0\n",
         "pair record 0 9: frame outside 0..3"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\n", "pair 2 2 0\n",
         "pair record 2 2: self-pair"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\n", "pair 0 1 0\npair 0 1 1\n",
         "pair record 0 1: repeated pair"),
        ("mode views\nn_frames 2\nfocal 100.0\nview 0 a.dmap\nview 1 b.dmap\n"
         "pair 0 1 x.pmap y.pmap\n", "", "pair record 0 1 x.pmap y.pmap: not allowed in a views"
         " manifest"),
        ("mode pairs\nn_frames 2\npair 0 1 a.pmap b.pmap\nview 0 a.dmap\n", "",
         "view record 0 a.dmap: not allowed in a pairs manifest"),
        ("mode pairs\nn_frames 2\nfocal 450.0\npair 0 1 a.pmap b.pmap\n", "",
         "focal: 450.0 is a views-mode setting"),
        ("mode pairs\nn_frames 2\ngt_poses nowhere.txt\npair 0 1 a.pmap b.pmap\n", "",
         "gt_poses: 'nowhere.txt' is a views-mode setting"),
        ("mode pairs\nn_frames 2\nscene_scale 2.0\npair 0 1 a.pmap b.pmap\n", "",
         "scene_scale: 2.0 is a views-mode setting"),
        ("mode pairs\nn_frames 2\noutlier_fraction 0.1\npair 0 1 a.pmap b.pmap\n", "",
         "outlier_fraction: 0.1 is a views-mode setting"),
        ("mode pairs\nn_frames 2\npoint_noise_sigma 0.01\npair 0 1 a.pmap b.pmap\n", "",
         "point_noise_sigma: 0.01 is a views-mode setting"),
        ("mode pairs\nn_frames 2\nrng_seed 3\npair 0 1 a.pmap b.pmap\n", "",
         "rng_seed: 3 is a views-mode setting"),
    ], ids=["manifest-record", "manifest-scalar", "pair-validity", "pair-out-of-range",
            "self-pair", "repeated-pair", "view-out-of-range", "repeated-view",
            "three-field-view", "validity-out-of-range", "validity-self-pair", "validity-repeated-pair",
            "pair-in-views-manifest", "view-in-pairs-manifest", "focal-in-pairs-manifest",
            "gt-poses-in-pairs-manifest", "scene-scale-in-pairs-manifest",
            "outlier-fraction-in-pairs-manifest", "noise-in-pairs-manifest",
            "rng-seed-in-pairs-manifest"])
    def test_exit_code_malformed_input(self, tmp_path, capsys, manifest, validity, where):
        (tmp_path / "manifest.txt").write_text(manifest, encoding="utf-8")
        args = ["solve", "--manifest", str(tmp_path / "manifest.txt"),
                "--out", str(tmp_path / "run")]
        if validity:
            (tmp_path / "validity.txt").write_text(validity, encoding="utf-8")
            args += ["--pair-validity", str(tmp_path / "validity.txt")]
        assert main(args) == 5
        assert where in capsys.readouterr().err

    def test_manifest_frames_over_cap_exit_5(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("mode pairs\nn_frames 100000000000\npair 0 1 a.pmap b.pmap\n",
                            encoding="utf-8")
        assert main(["solve", "--manifest", str(manifest),
                     "--out", str(tmp_path / "run")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "n_frames: 100000000000 is over the 1000000-frame cap" in err[0]
        cap = io_formats.MAX_FRAMES
        text = f"mode pairs\nn_frames {cap}\npair 0 {cap - 1} a.pmap b.pmap\n"
        assert pipeline.manifest_from_text(text, tmp_path).n_frames == cap

    def test_manifest_negative_frames_exit_5(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("mode pairs\nn_frames -5\n", encoding="utf-8")
        assert main(["solve", "--manifest", str(manifest),
                     "--out", str(tmp_path / "run")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "n_frames: -5 is negative" in err[0]

    def test_eval_rejects_repeated_frame(self, bundle_dir, tmp_path, capsys):
        text = (bundle_dir / "gt_poses.txt").read_text(encoding="utf-8")
        est = tmp_path / "est.txt"
        est.write_text(text.replace("\nframe 1 ", "\nframe 0 "), encoding="utf-8")
        assert main(["eval", "--est", str(est),
                     "--gt", str(bundle_dir / "gt_poses.txt")]) == 5
        assert "invalid poses document: frame id 0 is repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("count, where", [
        ("-1", "invalid poses document: frames: -1 is negative"),
        ("100000000000", "invalid poses document: frames: 100000000000 is over the"
                         " 1000000-frame cap"),
    ], ids=["negative", "huge"])
    def test_eval_rejects_bad_frame_count(self, bundle_dir, tmp_path, capsys, count, where):
        text = (bundle_dir / "gt_poses.txt").read_text(encoding="utf-8")
        assert text.splitlines()[1] == "frames 6"
        est = tmp_path / "est.txt"
        est.write_text(text.replace("frames 6\n", f"frames {count}\n"), encoding="utf-8")
        assert main(["eval", "--est", str(est),
                     "--gt", str(bundle_dir / "gt_poses.txt")]) == 5
        assert where in capsys.readouterr().err

    def test_eval_rejects_version_1_poses(self, bundle_dir, tmp_path, capsys):
        est = tmp_path / "est.txt"
        est.write_text("# pmsfm poses v1\nframes 1\nframe 0 recovered 1\n1.0 0.0 0.0 0.0\n"
                       "0.0 1.0 0.0 0.0\n0.0 0.0 1.0 0.0\n0.0 0.0 0.0 1.0\n", encoding="utf-8")
        assert main(["eval", "--est", str(est),
                     "--gt", str(bundle_dir / "gt_poses.txt")]) == 5
        assert ("line 1: expected the title '# pmsfm poses v2', got '# pmsfm poses v1'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("line", ["staircase 0", "ransac_min_sample 4",
                                      "weight_mode inlier", "acc1_dist 0.15",
                                      "ransac_max_iterations 1024",
                                      "ransac_inlier_threshold_px 5.0",
                                      "ransac_confidence 0.999", "quality_threshold 0.25",
                                      "pair_policy auto", "window 10", "align_mode rigid"],
                             ids=lambda line: line.split()[0])
    def test_retired_key_rejected(self, bundle_dir, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"# pmsfm pipeline config v1\n{line}\n", encoding="utf-8")
        assert main(["solve", "--config", str(cfg),
                     "--manifest", str(bundle_dir / "manifest.txt"),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"unknown key '{line.split()[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["solve", "--weight-mode", "inlier"],
        ["solve", "--ransac-min-sample", "4"],
        ["eval", "--est", "e.txt", "--gt", "g.txt", "--thresholds", "0.15:15,0.3:30"],
        ["solve", "--ransac-max-iterations", "1024"],
        ["solve", "--ransac-inlier-threshold-px", "5.0"],
        ["solve", "--ransac-confidence", "0.999"],
        ["solve", "--quality-threshold", "0.25"],
        ["solve", "--pair-policy", "auto"],
        ["solve", "--window", "10"],
        ["eval", "--est", "e.txt", "--gt", "g.txt", "--config", "x"],
    ], ids=lambda args: args[-2].lstrip("-"))
    def test_retired_flag_rejected(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {args[-2]}" in capsys.readouterr().err

    def test_solve_flags_map_onto_config_fields(self):
        # Each solve flag sets the config field of its name; --out and
        # --seed are the only renamed ones, and --config reads a whole config.
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        renamed = {"out": "output_dir", "seed": "rng_seed"}
        fields = []
        for action in sub.choices["solve"]._actions:
            (flag,) = [o for o in action.option_strings if o.startswith("--")]
            name = flag[2:].replace("-", "_")
            if name in ("help", "config"):
                continue
            fields.append(renamed.get(name, name))
            assert action.dest in (name, fields[-1])
        config_fields = [f.name for f in dataclasses.fields(pipeline.PipelineConfig)]
        assert sorted(fields) == sorted(config_fields)

    def test_synth_negative_seed_exit_2(self, tmp_path, capsys):
        assert main(["synth", "--seed", "-3", "--out", str(tmp_path / "b")]) == 2
        assert "error: rng_seed: -3 is negative" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_unwritable_out_exits_2_before_solving(self, bundle_dir, tmp_path, capsys):
        out = str(tmp_path / "run") + " "
        with mock.patch.object(pipeline, "_solve_pair") as solve_pair:
            assert main(["solve", "--manifest", str(bundle_dir / "manifest.txt"),
                         "--out", out]) == 2
        solve_pair.assert_not_called()
        assert "would not read back as written" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_config_used_reproduces_run_from_another_directory(self, tmp_path, monkeypatch):
        pipeline.synthesize(small_spec(), tmp_path / "a" / "bundle")
        (tmp_path / "a" / "validity.txt").write_text("pair 0 1 1\n", encoding="utf-8")
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        assert main(["solve", "--manifest", "bundle/manifest.txt", "--out", "run",
                     "--pair-validity", "validity.txt"]) == 0
        cfg = pipeline.load_config(tmp_path / "a" / "run" / "config_used.txt")
        for path in (cfg.manifest, cfg.output_dir, cfg.pair_validity):
            assert Path(path).is_absolute() and Path(path).exists()
        monkeypatch.chdir(tmp_path / "b")
        assert main(["solve", "--config", "../a/run/config_used.txt",
                     "--out", "../a/run2"]) == 0
        for name in (pipeline.POSES_FILENAME, pipeline.GRAPH_FILENAME):
            assert ((tmp_path / "a" / "run" / name).read_bytes()
                    == (tmp_path / "a" / "run2" / name).read_bytes())

    @pytest.mark.parametrize("mode", ["rigid", "similarity"])
    def test_eval_mode_selects_alignment(self, bundle_dir, tmp_path, mode):
        gt_path = bundle_dir / "gt_poses.txt"
        gt, ids = io_formats.read_poses(gt_path)
        est_path = tmp_path / "est.txt"  # the reference at twice its scale
        io_formats.write_poses(est_path, GlobalPoses(gt.rotations, 2.0 * gt.translations,
                                                     gt.recovered), ids)
        assert main(["eval", "--est", str(est_path), "--gt", str(gt_path), "--mode", mode,
                     "--out", str(tmp_path / "report.txt")]) == 0
        report = io_formats.report_from_text(
            (tmp_path / "report.txt").read_text(encoding="utf-8"))
        if mode == "similarity":  # the similarity gauge absorbs the scale
            assert report.trans_error <= 1e-12
            assert report.acc_15_15_pct == 100.0
        else:  # rigid alignment keeps the doubled scale
            assert report.trans_error == pytest.approx(5.70, abs=0.01)

    def test_solve_negative_seed_exit_2(self, bundle_dir, tmp_path, capsys):
        assert main(["solve", "--manifest", str(bundle_dir / "manifest.txt"), "--seed", "-3",
                     "--out", str(tmp_path / "run")]) == 2
        assert "error: rng_seed: -3 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("rng_seed -1", "rng_seed: -1 is negative"),
        ("scene_scale -1.0", "scene_scale: must be positive"),
        ("outlier_fraction 2.0", "outlier_fraction: must be <= 1"),
        ("point_noise_sigma inf", "point_noise_sigma: must be a non-negative finite real"),
        ("focal nan", "focal: nan is not a positive finite real"),
        ("focal 0.0", "focal: 0.0 is not a positive finite real"),
    ], ids=["negative-seed", "scene-scale", "outlier-fraction", "point-noise", "focal-nan",
            "focal-zero"])
    def test_views_manifest_values_checked_on_read(self, bundle_dir, tmp_path, capsys,
                                                   line, message):
        # The views manifest's simulation values are checked when the
        # manifest is read, before any depth map, and exit as a parse error.
        key = line.split()[0]
        text = (bundle_dir / "manifest.txt").read_text(encoding="utf-8")
        lines = [line if old.startswith(key + " ") else old for old in text.splitlines()]
        assert line in lines
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for view in pipeline.manifest_from_text(text, bundle_dir).views:
            (tmp_path / view[1]).symlink_to(bundle_dir / view[1])
        with pytest.raises(FormatError, match=message):
            pipeline.load_manifest(manifest)
        assert main(["solve", "--manifest", str(manifest),
                     "--out", str(tmp_path / "run")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_exit_code_insufficient(self, tmp_path, capsys):
        p = tmp_path / "manifest.txt"
        p.write_text("mode pairs\nn_frames 0\n", encoding="utf-8")
        assert main(["solve", "--manifest", str(p),
                     "--out", str(tmp_path / "run")]) == 3

    def test_exit_code_disconnected(self, tmp_path, capsys):
        bundle = generate(small_spec(n_views=4))
        manifest = write_pairs_bundle(bundle, tmp_path / "pairs",
                                      [(0, 1), (2, 3)])  # two islands
        assert main(["solve", "--manifest", str(manifest),
                     "--out", str(tmp_path / "run")]) == 4

    def test_failed_bridge_pair_splits_the_window_graph(self, tmp_path):
        # A window-1 pairs manifest whose bridge pair (1, 2) cannot be read
        # splits into two components: the solve exits 4 with no poses, and
        # its run log names the skipped pair and the components formed.
        bundle = generate(small_spec(n_views=4))
        manifest = write_pairs_bundle(bundle, tmp_path / "pairs", [(0, 1), (1, 2), (2, 3)])
        (manifest.parent / "p12_src.pmap").unlink()
        run_dir = tmp_path / "run"
        assert main(["solve", "--manifest", str(manifest), "--out", str(run_dir)]) == 4
        log = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8").splitlines()
        warned = [line for line in log if line.startswith("# warning: ")]
        assert len(warned) == 1 and warned[0].startswith("# warning: pair (1,2) skipped: ")
        assert log[-1] == ("# error: pose graph splits into 2 components:"
                           " [[0, 1], [2, 3]]")
        assert not (run_dir / pipeline.POSES_FILENAME).exists()
        assert not (run_dir / pipeline.GRAPH_FILENAME).exists()

    def test_formats_prints_doc(self, capsys):
        assert main(["formats"]) == 0
        assert "PMAP1" in capsys.readouterr().out

    def test_synth_needs_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    @staticmethod
    def child_env() -> dict:
        """The environment of a child interpreter that finds the package
        where this process imported it from, installed or not."""
        src = str(Path(pipeline.__file__).resolve().parents[1])
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

    def test_entry_point_subprocess(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "pmsfm.cli", "formats"],
                              capture_output=True, text=True, env=self.child_env())
        assert proc.returncode == 0
        assert "DMAP1" in proc.stdout

    def test_short_commands_import_no_scipy(self, tmp_path):
        # scipy loads only with the first pose graph: importing the
        # package, synthesizing, reading a manifest and scoring poses in a
        # fresh interpreter leave no scipy module behind.
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "import pmsfm\n"
            "from pmsfm import pipeline\n"
            "from pmsfm.synth import SceneSpec\n"
            "out = Path(sys.argv[1])\n"
            "pipeline.synthesize(SceneSpec(n_views=3, n_points=200, image_size=(32, 24)), out)\n"
            "pipeline.load_manifest(out / 'manifest.txt')\n"
            "pipeline.evaluate_pose_files(out / 'gt_poses.txt', out / 'gt_poses.txt')\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "b")],
                              capture_output=True, text=True, env=self.child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"
        assert (tmp_path / "b" / "gt_poses.txt").exists()

    def test_small_solve_imports_no_scipy(self, tmp_path):
        # A pose graph of at most 100 frames is built, averaged and
        # certified with numpy alone: a whole solve of a synthetic bundle
        # in a fresh interpreter leaves no scipy module behind.
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from pmsfm import pipeline\n"
            "from pmsfm.synth import SceneSpec\n"
            "out = Path(sys.argv[1])\n"
            "manifest = pipeline.synthesize(SceneSpec(n_views=6, rng_seed=12, image_size=(64, 48),"
            " focal_range=(60.0, 90.0), n_points=800), out / 'b')\n"
            "result, _ = pipeline.run_solve(pipeline.PipelineConfig(manifest=str(manifest),"
            " output_dir=str(out / 'run')))\n"
            "print(result.rotation_certified)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=self.child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n\n"
        assert (tmp_path / "run" / "poses_est.txt").exists()

    def test_100_frame_chain_averages_without_scipy(self):
        # Up to 100 covered frames the averaging solves and the
        # certificate run in numpy: averaging and certifying a noisy
        # 100-frame window-10 chain in a fresh interpreter leaves no scipy
        # module behind.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from pmsfm import pose_graph\n"
            "from pmsfm.geometry import random_rotation, so3_project\n"
            "rng = np.random.default_rng(3)\n"
            "n = 100\n"
            "a = np.stack([random_rotation(rng) for _ in range(n)])\n"
            "i, j = np.array([(i, j) for i in range(n) for j in range(i + 1, min(n, i + 11))]).T\n"
            "rot = so3_project(a[i].transpose(0, 2, 1) @ a[j]"
            " + rng.normal(0.0, 0.02, (len(i), 3, 3)))\n"
            "graph = pose_graph.PoseGraph.from_arrays(n, i, j, rot, rng.normal(size=(len(i), 3)),"
            " np.ones(len(i)), np.ones(len(i)), np.zeros(len(i), dtype=bool))\n"
            "rotations = pose_graph.rotation_averaging(graph)\n"
            "pose_graph.translation_averaging(graph, rotations)\n"
            "print(pose_graph.rotation_certificate(graph, rotations).certified)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=self.child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n\n"


class TestDegradedEval:
    def test_rotation_only_path_scores_rot_only_deg(self, tmp_path, rng):
        # Similarity alignment needs 3 common frames; with 2 the report
        # degrades to rotation-only metrics and still carries the
        # rotation-only score, which no gauge moves.
        from pmsfm.geometry import random_rotation
        n = 4
        rot = np.stack([random_rotation(rng) for _ in range(n)])
        t = rng.normal(size=(n, 3))
        gt = GlobalPoses(rot, t, np.ones(n, dtype=bool))
        noisy = so3_project(rot + rng.normal(scale=0.05, size=(n, 3, 3))) @ random_rotation(rng)
        est = GlobalPoses(noisy, t, np.array([True, True, False, False]))
        io_formats.write_poses(tmp_path / "gt.txt", gt)
        io_formats.write_poses(tmp_path / "est.txt", est)
        report = pipeline.evaluate_pose_files(tmp_path / "est.txt", tmp_path / "gt.txt",
                                              mode="similarity")
        assert np.isnan(report.trans_error)
        assert report.rot_only_deg > 0.5
        assert report.rot_only_deg == pytest.approx(evaluate(est, gt).rot_only_deg, abs=1e-9)

    def test_rotation_only_when_single_common_frame(self, tmp_path, rng):
        from pmsfm.geometry import random_rotation
        n = 4
        rot = np.stack([random_rotation(rng) for _ in range(n)])
        t = rng.normal(size=(n, 3))
        gt = GlobalPoses(rot, t, np.ones(n, dtype=bool))
        est = GlobalPoses(rot, t, np.array([True, False, False, False]))
        io_formats.write_poses(tmp_path / "gt.txt", gt)
        io_formats.write_poses(tmp_path / "est.txt", est)
        report = pipeline.evaluate_pose_files(tmp_path / "est.txt",
                                              tmp_path / "gt.txt")
        assert np.isnan(report.trans_error)
        assert report.det_rate_pct == 25.0
        assert report.rot_error_deg <= 1e-5  # rotations identical
        assert report.partial
