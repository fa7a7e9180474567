"""Command-line interface: synth, solve, eval, formats.

Exit codes: 0 ok, 2 config error, 3 insufficient data, 4 disconnected
graph, 5 io/parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import io_formats, pipeline
from .errors import (
    ConfigError,
    DisconnectedGraphError,
    FormatError,
    InsufficientDataError,
    PmsfmError,
    ValidationError,
)
from .synth import SceneSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmsfm",
        description="Globally consistent rigid motion from dense pointmaps: "
                    "synthetic scenes, pairwise PnP-RANSAC, pose averaging, "
                    "and trajectory evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene bundle")
    p_synth.add_argument("--spec", help="scene spec file (key-value text)")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, help="override the scene spec's rng seed")

    p_solve = sub.add_parser("solve", help="recover global poses from a manifest")
    p_solve.add_argument("--config", help="pipeline config file; flags override it")
    p_solve.add_argument("--manifest", help="input manifest")
    p_solve.add_argument("--out", dest="output_dir", help="output directory")
    p_solve.add_argument("--n-keep", type=int, dest="n_keep",
                         help="subsample to this many evenly spaced frames")
    p_solve.add_argument("--seed", type=int, dest="rng_seed")
    p_solve.add_argument("--jobs", type=int,
                         help="pair-solver pool size (0 = auto: one thread per core"
                              " for pair maps of at least 3000 pixels, else one)")
    p_solve.add_argument("--pair-validity", dest="pair_validity",
                         help="external pair-validity verdict file")

    p_eval = sub.add_parser("eval", help="score estimated poses against a reference")
    p_eval.add_argument("--est", required=True, help="estimated poses document")
    p_eval.add_argument("--gt", required=True, help="reference poses document")
    p_eval.add_argument("--mode", choices=("rigid", "similarity"), default="rigid")
    p_eval.add_argument("--out", help="also write the report here")

    sub.add_parser("formats", help="print the on-disk format documentation")
    return parser


def _cmd_synth(args) -> int:
    if not args.spec:
        spec = SceneSpec()
    else:
        spec = pipeline.load_scene_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, rng_seed=args.seed)
    manifest_path = pipeline.synthesize(spec, args.out)
    print(f"wrote bundle for {spec.n_views} views to {Path(args.out).resolve()}")
    print(f"manifest: {manifest_path}")
    return pipeline.EXIT_OK


def _cmd_solve(args) -> int:
    cfg = pipeline.load_config(args.config) if args.config else pipeline.PipelineConfig()
    cfg = dataclasses.replace(cfg, **{f.name: getattr(args, f.name)
                                      for f in dataclasses.fields(cfg)
                                      if getattr(args, f.name) is not None})
    result, out = pipeline.run_solve(cfg)
    n = len(result.frame_ids)
    n_rec = int(result.poses.recovered.sum())
    print(f"solved {n_rec}/{n} frames over {result.graph.n_edges} edges "
          f"(objective {result.objective:.3e})")
    for msg in result.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    print(f"poses:  {out / pipeline.POSES_FILENAME}")
    print(f"graph:  {out / pipeline.GRAPH_FILENAME}")
    print(f"log:    {out / pipeline.RUN_LOG_FILENAME}")
    return pipeline.EXIT_OK


def _cmd_eval(args) -> int:
    report = pipeline.evaluate_pose_files(args.est, args.gt, mode=args.mode)
    if args.out:
        io_formats.write_report(args.out, report)
    print("rot_error_deg trans_error det_rate_pct acc_15_15_pct acc_30_30_pct")
    print(report.table_row())
    return pipeline.EXIT_OK


# The first row whose types match an error gives its exit code.
_EXIT_CODES = (
    ((ConfigError, ValidationError), pipeline.EXIT_CONFIG),
    (InsufficientDataError, pipeline.EXIT_INSUFFICIENT_DATA),
    (DisconnectedGraphError, pipeline.EXIT_DISCONNECTED),
    ((FormatError, OSError), pipeline.EXIT_IO),
    (PmsfmError, 1),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "formats":
            print(io_formats.FORMAT_DOC, end="")
            return pipeline.EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (PmsfmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
