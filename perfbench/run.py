"""pmsfm benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload views-sparse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

For one workload it writes the seeded inputs (see ``workloads.py``) under
``perfbench/.work``, times ``import pmsfm`` plus manifest parsing in fresh
interpreters, and runs the program in a separate measured process
(``worker.py``) as a closed loop of one call at a time with the shipped
default ``PipelineConfig`` (``jobs=0``: one pool thread per core) and one
BLAS thread. It checks the outputs, prints every metric by name with its
unit, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run (see ``tracing.py``), whose spans are
written to ``perfbench/.work/spans-<workload>-<seed>.json``.
``--workload all`` runs every workload untraced and traced.

The exit code is 0 when every check passes, 1 when an output is wrong,
and 2 when the checkout holds no ``src/pmsfm`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Pool threads x BLAS threads must stay within the core count: the pool
# takes one thread per core, so BLAS gets one.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 9
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150

VIEWS_ROT_CEILING_DEG = 1.0
AVERAGING_ROT_CEILING_DEG = 10.0
FOCAL_TOLERANCE = 0.01

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_pct", "%"),
    ("rot_error_deg", "deg"),
    ("trans_rmse", "unit"),
    ("det_rate_pct", "%"),
    ("acc_15_15_pct", "%"),
    ("acc_30_30_pct", "%"),
)


class BenchmarkError(Exception):
    """The program could not be measured (crash, timeout, missing output)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    return env


def environment() -> dict:
    import numpy
    import scipy

    from pmsfm import pipeline
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    jobs = pipeline.PipelineConfig().jobs
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "jobs": jobs,
        "pool_threads": jobs or os.cpu_count() or 1,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: BLAS_THREADS for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _python(*args: str, timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
                               *args], env=_child_env(), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return proc


def setup_seconds(manifest: str) -> float:
    """Median time over fresh interpreters to import pmsfm and parse the manifest."""
    times = []
    for _ in range(SETUP_PROBES):
        out = json.loads(_python("--setup", manifest, timeout=SETUP_TIMEOUT_S)
                         .stdout.strip().splitlines()[-1])
        if Path(out["pmsfm"]).resolve().parent != SRC / "pmsfm":
            raise BenchmarkError(f"imported pmsfm from {out['pmsfm']}, not {SRC}")
        times.append(out["setup_s"])
    return statistics.median(times)


def check(workload: str, trace: int, result: dict) -> list[str]:
    """Every reason the program's outputs are wrong; empty when correct."""
    problems = []
    if not result["repeatable"]:
        problems.append("repeated calls on one input wrote different poses")
    if trace and not result["identical"]:
        problems.append("traced and untraced calls wrote different poses")
    for k, rep in enumerate(result["reports"]):
        if rep["det_rate_pct"] != 100.0:
            problems.append(f"case {k}: det_rate_pct {rep['det_rate_pct']} != 100")
        ceiling = {"views-sparse": VIEWS_ROT_CEILING_DEG,
                   "averaging": AVERAGING_ROT_CEILING_DEG}.get(workload)
        if ceiling is not None and not rep["rot_error_deg"] < ceiling:
            problems.append(f"case {k}: rot_error_deg {rep['rot_error_deg']:.4f}"
                            f" >= ceiling {ceiling}")
    for fc in result["focal_checks"]:
        rel = abs(fc["estimated"] - fc["true"]) / fc["true"]
        if not rel < FOCAL_TOLERANCE:
            problems.append(f"{fc['file']}: focal {fc['estimated']:.2f} vs generator"
                            f" {fc['true']:.2f} ({100 * rel:.2f}% off)")
    if workload == "pairs-dense":
        if trace:
            if not result["per_layer"]["relative_pose.focal_rel_err"] < FOCAL_TOLERANCE:
                problems.append("traced focal error exceeds 1%")
        elif len(result["focal_checks"]) == 0:
            problems.append("no focal was checked")
    if workload == "averaging" and result["failed"]:
        problems.append(f"{result['failed']} graph(s) failed to average")
    return problems


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    reports = result["reports"]

    def median_of(key):
        return statistics.median(r[key] for r in reports)

    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(result["times"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_pct": 100.0 * (result["attempted"] - result["failed"]) / result["attempted"],
        "rot_error_deg": median_of("rot_error_deg"),
        "trans_rmse": median_of("trans_rmse"),
        "det_rate_pct": median_of("det_rate_pct"),
        "acc_15_15_pct": median_of("acc_15_15_pct"),
        "acc_30_30_pct": median_of("acc_30_30_pct"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Build, measure and check one workload; return the result object."""
    import workloads
    from tracing import PER_LAYER_METRICS

    work = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.build(workload, seed, work)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        setup_s = 0.0 if trace else setup_seconds(plan["setup_manifest"])
        out_path = work / "measure.json"
        _python("--plan", str(plan_path), "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(out_path), timeout=MEASURE_TIMEOUT_S)
        result = json.loads(out_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        spans_path = WORK / f"spans-{workload}-{seed}.json"
        spans_path.write_text(json.dumps(result.pop("spans")), encoding="utf-8")
        print(f"{workload} spans written to {spans_path.relative_to(ROOT)}")
        values, units = result["per_layer"], dict(PER_LAYER_METRICS)
    else:
        values, units = end_to_end(result, setup_s), dict(END_TO_END)
    problems = check(workload, trace, result)
    for name, value in values.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"{workload} CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="views-sparse, pairs-dense, averaging, or all")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pmsfm" / "__init__.py").is_file():
        print(f"no pmsfm package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        ap.error(f"unknown workload {args.workload!r}")
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    print("env " + json.dumps(environment()))
    results = {}
    try:
        for name in names:
            for trace in traces:
                results[(name, trace)] = run_workload(name, args.seed, args.seconds, trace)
                if len(names) > 1:
                    print(json.dumps(results[(name, trace)]))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": v for (name, _), r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
