"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload views-sparse --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --baseline perfbench/baseline.json

Runs ``run.py`` once per seed with the ``run_seconds`` of BENCHMARK.json.
For each end-to-end metric it reports the median and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound; a spread at or above a
third of its bound is flagged. ``--baseline`` stores the values and their
medians with the environment, merged into the file by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help=f"one of {names}, or all")
    ap.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    ap.add_argument("--baseline", help="JSON file to merge the results into")
    args = ap.parse_args(argv)
    workloads = names if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, env = {}, None
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            result, env = run_once(workload, seed, bench["run_seconds"])
            if set(result["metrics"]) != set(bounds):
                raise SystemExit(f"metrics {sorted(result['metrics'])} do not match"
                                 f" BENCHMARK.json {sorted(bounds)}")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"{workload:13s} {name:14s} median {s['median']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bounds[name]}{flag}")

    if args.baseline:
        path = Path(args.baseline)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        doc.setdefault("workloads", {}).update(summary)
        doc.update({"env": env, "run_seconds": bench["run_seconds"], "seeds": seeds})
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
