import dataclasses
import functools
import hashlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmsfm import io_formats, pipeline, relative_pose
from pmsfm.cli import main
from pmsfm.errors import ConfigError, FormatError, InsufficientDataError
from pmsfm.geometry import compose, geodesic_deg, inverse
from pmsfm.pose_graph import GlobalPoses, rotation_objective
from pmsfm.synth import SceneSpec, generate, make_pair_pointmaps

from conftest import winding_cycle


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


def write_pairs_bundle(bundle, pair_dir: Path, pairs) -> Path:
    """Pair pointmap files plus a pairs-mode manifest listing them."""
    pair_dir.mkdir()
    lines = ["# pairs", "mode pairs", f"n_frames {bundle.n_views}"]
    for i, j in pairs:
        pair = make_pair_pointmaps(bundle, i, j)
        ref, src = f"p{i}{j}_ref.pmap", f"p{i}{j}_src.pmap"
        io_formats.write_pointmap(pair_dir / ref, pair.view1)
        io_formats.write_pointmap(pair_dir / src, pair.view2)
        lines.append(f"pair {i} {j} {ref} {src}")
    (pair_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return pair_dir / "manifest.txt"


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


_TEXT = st.from_regex(r"[\w./-]+( [\w./-]+)*", fullmatch=True) | st.just("")
_BY_TYPE = {int: st.integers(), float: st.floats(allow_nan=False),
            bool: st.booleans(), str: _TEXT}


def dataclass_values(cls, **overrides):
    """Instances of `cls` with every field drawn by its type unless overridden."""
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: overrides.get(f.name, _BY_TYPE.get(hints[f.name]))
                             for f in dataclasses.fields(cls)})


_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


class TestConfigAndManifest:
    def test_config_round_trip_lossless(self, tmp_path):
        cfg = pipeline.PipelineConfig(manifest="m.txt", output_dir="out dir with space",
                                      ransac_inlier_threshold_px=3.25,
                                      n_keep=60, quality_threshold=0.125)
        path = tmp_path / "cfg.txt"
        pipeline.save_config(path, cfg)
        assert pipeline.load_config(path) == cfg

    def test_config_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            pipeline.config_from_text("bogus 1\n")

    def test_config_validates_values(self):
        with pytest.raises(ConfigError):
            pipeline.PipelineConfig(pair_policy="ring")

    @given(dataclass_values(
        pipeline.PipelineConfig, window=st.integers(min_value=1),
        n_keep=st.integers(min_value=0), jobs=st.integers(min_value=0),
        pair_policy=st.sampled_from(["auto", "all", "window"]),
        align_mode=st.sampled_from(["rigid", "similarity"])))
    def test_config_round_trip_property(self, cfg):
        assert pipeline.config_from_text(pipeline.config_to_text(cfg)) == cfg

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
        occlusion_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
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

    def test_repeated_key_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="line 2: repeated key 'mode'"):
            pipeline.manifest_from_text("mode pairs\nmode views\nn_frames 2\n", tmp_path)
        with pytest.raises(FormatError, match="repeated key"):
            pipeline.scene_spec_from_text("n_views 3\nn_views 4\n")
        with pytest.raises(ConfigError, match="repeated key"):
            pipeline.config_from_text("window 3\nwindow 4\n")


class TestSynthStage:
    def test_outputs_parseable(self, bundle_dir):
        m = pipeline.load_manifest(bundle_dir / "manifest.txt")
        assert m.mode == "views" and m.n_frames == 6
        assert len(m.views) == 6
        for _, depth, pm in m.views:
            io_formats.read_depthmap(bundle_dir / depth)
            io_formats.read_pointmap(bundle_dir / pm)
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
        monkeypatch.setattr(pipeline, "estimate_focal",
                            functools.partial(relative_pose.estimate_focal, max_iters=1))
        cfg = pipeline.PipelineConfig(manifest=str(out / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"), jobs=jobs)
        result, run_dir = pipeline.run_solve(cfg)
        log = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8")
        budget_lines = [line for line in log.splitlines()
                        if line.startswith("# warning: focal IRLS hit its iteration budget")]
        assert result.n_pairs_failed == 0
        assert len(budget_lines) == result.n_pairs_attempted == 15

    def test_linalg_error_skips_only_its_pair(self, tmp_path, monkeypatch):
        out = tmp_path / "bundle"
        pipeline.synthesize(small_spec(), out)
        simulate = pipeline.make_pair_pointmaps

        def failing(bundle, a, b, **kw):
            if (a, b) == (1, 3):
                raise np.linalg.LinAlgError("SVD did not converge")
            return simulate(bundle, a, b, **kw)

        monkeypatch.setattr(pipeline, "make_pair_pointmaps", failing)
        cfg = pipeline.PipelineConfig(manifest=str(out / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"))
        result, run_dir = pipeline.run_solve(cfg)
        assert result.n_pairs_attempted == 15
        assert result.n_pairs_failed == 1
        assert result.poses.recovered.all()
        log = (run_dir / pipeline.RUN_LOG_FILENAME).read_text(encoding="utf-8")
        assert "# warning: pair (1,3) skipped: SVD did not converge\n" in log
        assert run_log_value(run_dir, "n_pairs_failed") == "1"

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
        depth_file = dict((f, d) for f, d, _ in m.views)[3]
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

    def test_uncertified_rotations_warn_in_run_log(self, tmp_path, monkeypatch):
        # The solve's graph and rotations are replaced by the winding
        # 12-cycle and its stationary point, which the certificate rejects.
        out = tmp_path / "bundle"
        pipeline.synthesize(small_spec(n_views=12), out)
        graph, rotations = winding_cycle(12)
        monkeypatch.setattr(pipeline, "build_graph", lambda *args: graph)
        monkeypatch.setattr(pipeline, "rotation_averaging", lambda g: rotations)
        cfg = pipeline.PipelineConfig(manifest=str(out / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"),
                                      pair_policy="window", window=1, jobs=1)
        result, run_dir = pipeline.run_solve(cfg)
        assert not result.rotation_certified
        assert abs(result.rotation_lambda_min - (np.sqrt(3.0) - 2.0)) <= 1e-6
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

    def test_window_policy(self, bundle_dir, tmp_path):
        cfg = pipeline.PipelineConfig(manifest=str(bundle_dir / "manifest.txt"),
                                      output_dir=str(tmp_path / "run"),
                                      pair_policy="window", window=1, jobs=1)
        result, _ = pipeline.run_solve(cfg)
        assert result.n_pairs_attempted == 5  # chain only
        assert result.poses.recovered.all()

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

    def test_empty_manifest_insufficient(self, tmp_path):
        p = tmp_path / "manifest.txt"
        p.write_text("mode pairs\nn_frames 0\n", encoding="utf-8")
        cfg = pipeline.PipelineConfig(manifest=str(p),
                                      output_dir=str(tmp_path / "run"))
        with pytest.raises(InsufficientDataError):
            pipeline.run_solve(cfg)


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
        from pmsfm.geometry import rot_z
        from pmsfm.metrics import GaugeAlignment, apply_gauge
        gt, ids = io_formats.read_poses(bundle_dir / "gt_poses.txt")
        moved = apply_gauge(gt, GaugeAlignment(rot_z(90.0), np.zeros(3), 1.0))
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
        report = io_formats.read_report(tmp_path / "report.txt")
        assert report.det_rate_pct == 100.0
        out = capsys.readouterr().out
        assert "rot_error_deg trans_error det_rate_pct" in out

    def test_exit_code_config_error(self, tmp_path, capsys):
        assert main(["solve", "--manifest", str(tmp_path / "nope.txt")]) == 2

    def test_exit_code_io_error(self, tmp_path, capsys):
        cfg_out = tmp_path / "run"
        missing = tmp_path / "missing_manifest.txt"
        assert main(["solve", "--manifest", str(missing),
                     "--out", str(cfg_out)]) == 5

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
        ("mode views\nn_frames 2\nview 0 a.dmap a.pmap\nview 2 b.dmap b.pmap\n", "",
         "view record 2: frame outside 0..1"),
        ("mode views\nn_frames 2\nview 0 a.dmap a.pmap\nview 0 b.dmap b.pmap\n", "",
         "view record 0: repeated view"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\n", "pair 0 9 0\n",
         "pair record 0 9: frame outside 0..3"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\n", "pair 2 2 0\n",
         "pair record 2 2: self-pair"),
        ("mode pairs\nn_frames 4\npair 0 1 a.pmap b.pmap\n", "pair 0 1 0\npair 0 1 1\n",
         "pair record 0 1: repeated pair"),
    ], ids=["manifest-record", "manifest-scalar", "pair-validity", "pair-out-of-range",
            "self-pair", "repeated-pair", "view-out-of-range", "repeated-view",
            "validity-out-of-range", "validity-self-pair", "validity-repeated-pair"])
    def test_exit_code_malformed_input(self, tmp_path, capsys, manifest, validity, where):
        (tmp_path / "manifest.txt").write_text(manifest, encoding="utf-8")
        args = ["solve", "--manifest", str(tmp_path / "manifest.txt"),
                "--out", str(tmp_path / "run")]
        if validity:
            (tmp_path / "validity.txt").write_text(validity, encoding="utf-8")
            args += ["--pair-validity", str(tmp_path / "validity.txt")]
        assert main(args) == 5
        assert where in capsys.readouterr().err

    def test_eval_rejects_repeated_frame(self, bundle_dir, tmp_path, capsys):
        text = (bundle_dir / "gt_poses.txt").read_text(encoding="utf-8")
        est = tmp_path / "est.txt"
        est.write_text(text.replace("frame 1 recovered", "frame 0 recovered"),
                       encoding="utf-8")
        assert main(["eval", "--est", str(est),
                     "--gt", str(bundle_dir / "gt_poses.txt")]) == 5
        assert "repeated frame 0" in capsys.readouterr().err

    @pytest.mark.parametrize("count, where", [
        ("-1", "line 2: expected 'frames <count>' with a non-negative count"),
        ("100000000000", "line 2: 100000000000 frames declared, 6 present"),
    ], ids=["negative", "huge"])
    def test_eval_rejects_bad_frame_count(self, bundle_dir, tmp_path, capsys, count, where):
        text = (bundle_dir / "gt_poses.txt").read_text(encoding="utf-8")
        assert text.splitlines()[1] == "frames 6"
        est = tmp_path / "est.txt"
        est.write_text(text.replace("frames 6\n", f"frames {count}\n"), encoding="utf-8")
        assert main(["eval", "--est", str(est),
                     "--gt", str(bundle_dir / "gt_poses.txt")]) == 5
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["staircase 0", "ransac_min_sample 4",
                                      "weight_mode inlier", "acc1_dist 0.15"],
                             ids=["staircase", "ransac_min_sample", "weight_mode",
                                  "acc1_dist"])
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
    ], ids=["weight-mode", "ransac-min-sample", "thresholds"])
    def test_retired_flag_rejected(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {args[-2]}" in capsys.readouterr().err

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

    def test_formats_prints_doc(self, capsys):
        assert main(["formats"]) == 0
        assert "PMAP1" in capsys.readouterr().out

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(pipeline.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        spec_file = tmp_path / "spec.txt"
        spec_file.write_text(pipeline.scene_spec_to_text(small_spec(n_views=2)),
                             encoding="utf-8")
        assert main(["synth", "--spec", str(spec_file)]) == 0
        assert (tmp_path / "envout" / "manifest.txt").exists()

    def test_entry_point_subprocess(self, tmp_path):
        # The child finds the package where this process imported it from,
        # installed or not.
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "pmsfm.cli", "formats"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "DMAP1" in proc.stdout


class TestDegradedEval:
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


class TestEvalConfigFile:
    def test_config_supplies_mode(self, bundle_dir, tmp_path, capsys):
        cfg = pipeline.PipelineConfig(align_mode="similarity")
        pipeline.save_config(tmp_path / "cfg.txt", cfg)
        gt_path = bundle_dir / "gt_poses.txt"
        gt, ids = io_formats.read_poses(gt_path)
        est_path = tmp_path / "est.txt"  # the reference at twice its scale
        io_formats.write_poses(est_path, GlobalPoses(gt.rotations, 2.0 * gt.translations,
                                                     gt.recovered), ids)
        assert main(["eval", "--est", str(est_path), "--gt", str(gt_path),
                     "--config", str(tmp_path / "cfg.txt"),
                     "--out", str(tmp_path / "report.txt")]) == 0
        report = io_formats.read_report(tmp_path / "report.txt")
        assert report.trans_error <= 1e-12  # the similarity gauge absorbs the scale
        assert report.acc_15_15_pct == 100.0

    def test_flag_overrides_config(self, bundle_dir, tmp_path):
        cfg = pipeline.PipelineConfig(align_mode="similarity")
        pipeline.save_config(tmp_path / "cfg.txt", cfg)
        gt_path = bundle_dir / "gt_poses.txt"
        gt, ids = io_formats.read_poses(gt_path)
        est_path = tmp_path / "est.txt"  # the reference at twice its scale
        io_formats.write_poses(est_path, GlobalPoses(gt.rotations, 2.0 * gt.translations,
                                                     gt.recovered), ids)
        assert main(["eval", "--est", str(est_path), "--gt", str(gt_path),
                     "--config", str(tmp_path / "cfg.txt"), "--mode", "rigid",
                     "--out", str(tmp_path / "report.txt")]) == 0
        report = io_formats.read_report(tmp_path / "report.txt")
        # Rigid alignment keeps the doubled scale; similarity would absorb it.
        assert report.trans_error == pytest.approx(5.70, abs=0.01)
