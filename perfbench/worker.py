"""Measured process of the pmsfm benchmark; ``run.py`` starts it.

``--setup MANIFEST`` times what every CLI invocation pays in a fresh
interpreter: ``import pmsfm`` and parsing the workload's manifest (an
empty MANIFEST times the import alone), and prints it as JSON.

``--plan PLAN`` runs the plan's cases one program call at a time, cycling
through them until ``--seconds`` have passed and every case has run at
least once, and writes timings, counts, reports and checks as JSON to
``--out``. With ``--trace 1`` an untraced and a traced call alternate on
each case, and one case suffices: the untraced calls give the tracing
overhead, and the traced ones give the per-layer metrics and must write
the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _setup(src: str, manifest: str) -> None:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import pmsfm
    from pmsfm import pipeline
    if manifest:
        pipeline.load_manifest(manifest)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "pmsfm": pmsfm.__file__}))


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Runner:
    """Runs one case of a plan through the program's public calls.

    Every call looks its function up on the module at call time, so the
    tracer's wrappers see it while installed.
    """

    def __init__(self, plan: dict):
        from pmsfm import errors, io_formats, pipeline, pose_graph
        self.plan = plan
        self.errors = errors
        self.io_formats = io_formats
        self.pipeline = pipeline
        self.pose_graph = pose_graph

    def run(self, case: dict) -> tuple[int, int, list[str]]:
        """Return (attempted, failed, written poses paths)."""
        if self.plan["kind"] == "solve":
            cfg = self.pipeline.PipelineConfig(manifest=case["manifest"],
                                               output_dir=case["out"])
            result, out = self.pipeline.run_solve(cfg)
            return (result.n_pairs_attempted, result.n_pairs_failed,
                    [str(out / self.pipeline.POSES_FILENAME)])
        failed = 0
        written = []
        for g in case["graphs"]:
            try:
                graph = self.io_formats.read_graph(g["graph"])
                rotations = self.pose_graph.rotation_averaging(graph)
                translations = self.pose_graph.translation_averaging(graph, rotations)
                poses = self.pose_graph.assemble_global(rotations, translations,
                                                        graph.covered_vertices())
                self.io_formats.write_poses(g["out"], poses)
                written.append(g["out"])
            except self.errors.PmsfmError:
                failed += 1
        return len(case["graphs"]), failed, written

    def evaluate(self, case: dict) -> dict:
        """Scores the case's written poses against ground truth; a case
        with several graphs reports the mean of their columns."""
        pairs = ([(str(Path(case["out"]) / self.pipeline.POSES_FILENAME), case["gt"])]
                 if self.plan["kind"] == "solve"
                 else [(g["out"], g["gt"]) for g in case["graphs"]])
        reports = []
        for est, gt in pairs:
            self.io_formats.read_poses(est)  # must read back on its own
            reports.append(self.pipeline.evaluate_pose_files(est, gt))
        keys = ("rot_error_deg", "trans_error", "trans_rmse", "det_rate_pct",
                "acc_15_15_pct", "acc_30_30_pct")
        return {k: sum(getattr(r, k) for r in reports) / len(reports) for k in keys}


def _measure(args) -> dict:
    sys.path.insert(0, args.src)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    runner = Runner(plan)
    cases = plan["cases"]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(plan["pair_of_path"])

    times, traced_times = [], []
    attempted = failed = 0
    digests: dict[int, set] = {}
    reports: dict[int, dict] = {}
    identical = True
    # Untraced runs solve every case once for the accuracy columns; traced
    # runs need one case only, because their calls take twice as long.
    min_calls = 1 if args.trace else len(cases)
    start = time.perf_counter()
    n = 0
    while n < min_calls or time.perf_counter() - start < args.seconds:
        k = n % len(cases)
        case = cases[k]
        t0 = time.perf_counter()
        a, f, written = runner.run(case)
        times.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        untraced = [_digest(p) for p in written]
        digests.setdefault(k, set()).add(tuple(untraced))
        if k not in reports:
            reports[k] = runner.evaluate(case)
        if tracer is not None:
            tracer.true_focal = case.get("focal", 0.0)
            with tracer:
                with tracer.op():
                    t0 = time.perf_counter()
                    a, f, _ = runner.run(case)
                    traced_times.append(time.perf_counter() - t0)
                attempted += a
                failed += f
                runner.evaluate(case)
            identical &= [_digest(p) for p in written] == untraced
        n += 1

    out = {
        "times": times,
        "attempted": attempted,
        "failed": failed,
        "repeatable": all(len(d) == 1 for d in digests.values()),
        "reports": [reports[k] for k in sorted(reports)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "focal_checks": [],
    }
    if tracer is not None:
        overhead = 100.0 * (sum(traced_times) / sum(times) - 1.0)
        out["per_layer"] = tracer.metrics(overhead)
        out["identical"] = identical
        out["spans"] = tracer.records()
    else:
        from pmsfm import io_formats, relative_pose
        work = Path(args.plan).parent
        for path, focal in plan["focal_files"]:
            est = relative_pose.estimate_focal(io_formats.read_pointmap(path))
            out["focal_checks"].append({"file": str(Path(path).relative_to(work)),
                                        "estimated": est, "true": focal})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory that holds the pmsfm package")
    ap.add_argument("--setup", help="manifest to parse after the import ('' for none)")
    ap.add_argument("--plan", help="plan written by run.py")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="where to write the measurement as JSON")
    args = ap.parse_args(argv)
    if args.setup is not None:
        _setup(args.src, args.setup)
        return 0
    if not (args.plan and args.out):
        ap.error("--plan and --out are required unless --setup is given")
    result = _measure(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
