"""Span recorder for the traced benchmark run.

The tracer wraps the public names that ``pmsfm.pipeline``,
``pmsfm.relative_pose``, ``pmsfm.pose_graph`` and ``pmsfm.io_formats``
look up at call time, so every call into a layer records one span:
name, start, end, thread, enclosing span and the pair it served. Spans
stay in memory until the run ends. ``uninstall`` puts every original
name back, and nothing inside ``pmsfm`` is edited.

A pair span starts at the first pair-stage call on a thread
(``make_pair_pointmaps`` in views mode, ``read_pointmap`` in pairs mode)
and ends when that thread's ``pnp_ransac`` returns or raises. A layer's
self time is its span minus its child spans on the same thread.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field

from pmsfm import io_formats, pipeline, pose_graph, relative_pose

# (module, attribute, layer) for every wrapped name. A function imported
# into two namespaces is wrapped in both, and a call runs through exactly
# one of the two wrappers.
_TARGETS = (
    (pipeline, "make_pair_pointmaps", "synth.simulate"),
    (pipeline, "estimate_focal", "relative_pose.focal"),
    (pipeline, "pnp_ransac", "relative_pose.pnp"),
    (relative_pose, "p3p_solve", "relative_pose.p3p"),
    (relative_pose, "refine_pose", "relative_pose.refine"),
    (pipeline, "build_graph", "pose_graph.build"),
    (pipeline, "rotation_averaging", "pose_graph.rotation"),
    (pose_graph, "rotation_averaging", "pose_graph.rotation"),
    (pipeline, "translation_averaging", "pose_graph.translation"),
    (pose_graph, "translation_averaging", "pose_graph.translation"),
    (pipeline, "evaluate_pose_files", "metrics.eval"),
    (io_formats, "read_pointmap", "io_formats.read"),
    (io_formats, "read_depthmap", "io_formats.read"),
    (io_formats, "read_poses", "io_formats.read"),
    (io_formats, "read_graph", "io_formats.read"),
    (io_formats, "write_poses", "io_formats.write"),
    (io_formats, "write_graph", "io_formats.write"),
)

_SWEEP_BUDGET_PREFIX = "rotation averaging hit its sweep budget"

PER_LAYER_METRICS = (
    ("synth.simulate_ms", "ms"),
    ("synth.simulate_share_pct", "%"),
    ("io_formats.read_ms", "ms"),
    ("io_formats.read_mb_per_s", "MB/s"),
    ("io_formats.read_share_pct", "%"),
    ("io_formats.write_ms", "ms"),
    ("relative_pose.focal_ms", "ms"),
    ("relative_pose.focal_share_pct", "%"),
    ("relative_pose.focal_budget_hits", "count"),
    ("relative_pose.focal_rel_err", "ratio"),
    ("relative_pose.pnp_ms", "ms"),
    ("relative_pose.hypotheses_per_pair", "count"),
    ("relative_pose.p3p_ms", "ms"),
    ("relative_pose.p3p_roots_per_call", "count"),
    ("relative_pose.p3p_share_pct", "%"),
    ("relative_pose.refine_calls", "count"),
    ("relative_pose.refine_ms", "ms"),
    ("relative_pose.refine_share_pct", "%"),
    ("relative_pose.ransac_self_ms", "ms"),
    ("relative_pose.ransac_self_share_pct", "%"),
    ("relative_pose.inlier_ratio", "ratio"),
    ("relative_pose.valid_px_per_pair", "count"),
    ("pose_graph.build_ms", "ms"),
    ("pose_graph.edges_kept_pct", "%"),
    ("pose_graph.edges_rescued", "count"),
    ("pose_graph.rotation_ms", "ms"),
    ("pose_graph.rotation_share_pct", "%"),
    ("pose_graph.rotation_objective", "1"),
    ("pose_graph.sweep_budget_hits", "count"),
    ("pose_graph.translation_ms", "ms"),
    ("metrics.eval_ms", "ms"),
    ("pipeline.pair_wall_s", "s"),
    ("pipeline.pair_busy_s", "s"),
    ("pipeline.pair_concurrency", "ratio"),
    ("pipeline.self_s", "s"),
    ("pipeline.tracing_overhead_pct", "%"),
)


@dataclass
class Span:
    name: str
    start: float
    thread: int
    parent: Span | None
    pair: str | None
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class PairSpan:
    pair: str
    start: float
    end: float
    thread: int


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside one pmsfm module:
    counts each warning by category and message, then forwards it with
    the caller's stack level so its attribution does not change."""

    def __init__(self, real, tracer: Tracer, module: str):
        self._real = real
        self._tracer = tracer
        self._module = module

    def warn(self, message, category=None, stacklevel=1, source=None):
        self._tracer._count_warning(self._module, str(message), category)
        self._real.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans of the calls made while installed.

    ``pair_of_path`` maps a pointmap file path to the id of the pair it
    belongs to; ``true_focal`` is the generator's focal for the current
    operation. Use ``op()`` around each program call so spans can be
    attributed to it.
    """

    def __init__(self, pair_of_path: dict[str, str] | None = None):
        self.pair_of_path = pair_of_path or {}
        self.true_focal = 0.0
        self.spans: list[Span] = []
        self.pairs: list[PairSpan] = []
        self.ops: list[tuple[float, float]] = []
        self.warnings: list[tuple[float, str]] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, layer in _TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        for module, key in ((relative_pose, "relative_pose"),
                            (pose_graph, "pose_graph")):
            self._saved.append((module, "warnings", module.warnings))
            module.warnings = _CountingWarnings(module.warnings, self, key)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextlib.contextmanager
    def op(self):
        """Records the window of one program call."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops.append((start, time.perf_counter()))

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_pair(self) -> str | None:
        open_pair = getattr(self._local, "pair", None)
        return open_pair[0] if open_pair else None

    def _open_pair(self, pair: str, start: float):
        self._close_pair(start)
        self._local.pair = (pair, start)

    def _close_pair(self, end: float):
        open_pair = getattr(self._local, "pair", None)
        if open_pair:
            self.pairs.append(PairSpan(open_pair[0], open_pair[1], end,
                                       threading.get_ident()))
            self._local.pair = None

    def _wrap(self, layer: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            start = time.perf_counter()
            if not stack:
                tracer._before(layer, args, start)
            span = Span(layer, start, threading.get_ident(),
                        stack[-1] if stack else None, tracer._current_pair())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._finish(span, stack)
                if span.parent is None and layer.startswith("relative_pose."):
                    tracer._close_pair(span.end)  # a failed pair ends here
                raise
            tracer._finish(span, stack)
            tracer._after(span, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _finish(self, span: Span, stack: list[Span]):
        span.end = time.perf_counter()
        stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def _before(self, layer: str, args, start: float):
        if layer == "synth.simulate":
            self._open_pair(f"{args[1]}-{args[2]}", start)
        elif layer == "io_formats.read":
            pair = self.pair_of_path.get(os.fspath(args[0]))
            if pair is not None and pair != self._current_pair():
                self._open_pair(pair, start)

    def _after(self, span: Span, args, result):
        layer = span.name
        if layer == "io_formats.read":
            span.info["bytes"] = os.path.getsize(args[0])
        elif layer == "relative_pose.focal" and self.true_focal > 0:
            span.info["rel_err"] = abs(result - self.true_focal) / self.true_focal
        elif layer == "relative_pose.pnp":
            n_valid = args[0].n_valid
            span.info["n_valid"] = n_valid
            span.info["inlier_ratio"] = result.inlier_count / max(n_valid, 1)
            if span.parent is None:
                self._close_pair(span.end)
        elif layer == "relative_pose.p3p":
            span.info["roots"] = len(result)
        elif layer == "pose_graph.build":
            span.info["pairs_in"] = len(args[0])
            span.info["edges"] = len(result.edges)
            span.info["rescued"] = sum(1 for e in result.edges if e.rescued)
        elif layer == "pose_graph.rotation":
            span.info["graph"] = args[0]
            span.info["rotations"] = result

    def _count_warning(self, module: str, message: str, category):
        if module == "relative_pose" and category is relative_pose.ConvergenceWarning:
            self.warnings.append((time.perf_counter(), "focal_budget"))
        elif module == "pose_graph" and message.startswith(_SWEEP_BUDGET_PREFIX):
            self.warnings.append((time.perf_counter(), "sweep_budget"))

    def records(self) -> list[dict]:
        """Every span as a plain record, ``parent`` indexing the list, then
        the pair spans."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        out = [{"name": s.name, "start": s.start, "end": s.end, "thread": s.thread,
                "parent": index[id(s.parent)] if s.parent else None, "pair": s.pair}
               for s in self.spans]
        out += [{"name": "pipeline.pair", "start": p.start, "end": p.end,
                 "thread": p.thread, "parent": None, "pair": p.pair} for p in self.pairs]
        return out

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        """Per-layer metrics over the spans inside recorded op windows,
        plus ``metrics.eval`` spans wherever they ran."""
        n_ops = max(len(self.ops), 1)

        def in_ops(t: float) -> bool:
            return any(a <= t <= b for a, b in self.ops)

        spans = [s for s in self.spans if s.name == "metrics.eval" or in_ops(s.start)]
        by_layer: dict[str, list[Span]] = {}
        for s in spans:
            by_layer.setdefault(s.name, []).append(s)

        def calls(layer):
            return by_layer.get(layer, [])

        def total_s(layer):
            return sum(s.duration for s in calls(layer))

        def mean_ms(layer):
            c = calls(layer)
            return 1e3 * total_s(layer) / len(c) if c else 0.0

        def mean_info(layer, key):
            vals = [s.info[key] for s in calls(layer) if key in s.info]
            return sum(vals) / len(vals) if vals else 0.0

        def share(part_s, whole_s):
            return 100.0 * part_s / whole_s if whole_s > 0 else 0.0

        pairs = [p for p in self.pairs if in_ops(p.start)]
        busy = sum(p.end - p.start for p in pairs)
        n_pnp = len(calls("relative_pose.pnp"))
        read_s = total_s("io_formats.read")
        read_bytes = sum(s.info.get("bytes", 0) for s in calls("io_formats.read"))
        ransac_self = sum(s.self_s for s in calls("relative_pose.pnp"))
        pair_layer_s = {
            layer: sum(s.duration for s in calls(layer) if s.pair is not None)
            for layer in ("synth.simulate", "io_formats.read", "relative_pose.focal",
                          "relative_pose.p3p", "relative_pose.refine")
        }
        builds = calls("pose_graph.build")
        op_s = sum(b - a for a, b in self.ops)

        pair_wall = self_s = 0.0
        for a, b in self.ops:
            op_pairs = [p for p in pairs if a <= p.start <= b]
            if op_pairs:
                pair_wall += max(p.end for p in op_pairs) - min(p.start for p in op_pairs)
            top = sorted((s.start, s.end) for s in spans
                         if s.parent is None and s.name != "metrics.eval"
                         and a <= s.start <= b)
            self_s += (b - a) - _union_length(top)

        objectives = [pose_graph.rotation_objective(s.info["graph"], s.info["rotations"])
                      for s in calls("pose_graph.rotation")]
        warn_counts = {"focal_budget": 0, "sweep_budget": 0}
        for t, kind in self.warnings:
            if in_ops(t):
                warn_counts[kind] += 1

        values = {
            "synth.simulate_ms": mean_ms("synth.simulate"),
            "synth.simulate_share_pct": share(pair_layer_s["synth.simulate"], busy),
            "io_formats.read_ms": mean_ms("io_formats.read"),
            "io_formats.read_mb_per_s": read_bytes / 1e6 / read_s if read_s > 0 else 0.0,
            "io_formats.read_share_pct": share(pair_layer_s["io_formats.read"], busy),
            "io_formats.write_ms": mean_ms("io_formats.write"),
            "relative_pose.focal_ms": mean_ms("relative_pose.focal"),
            "relative_pose.focal_share_pct": share(pair_layer_s["relative_pose.focal"], busy),
            "relative_pose.focal_budget_hits": warn_counts["focal_budget"] / n_ops,
            "relative_pose.focal_rel_err": mean_info("relative_pose.focal", "rel_err"),
            "relative_pose.pnp_ms": mean_ms("relative_pose.pnp"),
            "relative_pose.hypotheses_per_pair":
                len(calls("relative_pose.p3p")) / n_pnp if n_pnp else 0.0,
            "relative_pose.p3p_ms": mean_ms("relative_pose.p3p"),
            "relative_pose.p3p_roots_per_call": mean_info("relative_pose.p3p", "roots"),
            "relative_pose.p3p_share_pct": share(pair_layer_s["relative_pose.p3p"], busy),
            "relative_pose.refine_calls":
                len(calls("relative_pose.refine")) / n_pnp if n_pnp else 0.0,
            "relative_pose.refine_ms": mean_ms("relative_pose.refine"),
            "relative_pose.refine_share_pct":
                share(pair_layer_s["relative_pose.refine"], busy),
            "relative_pose.ransac_self_ms": 1e3 * ransac_self / n_pnp if n_pnp else 0.0,
            "relative_pose.ransac_self_share_pct": share(ransac_self, busy),
            "relative_pose.inlier_ratio": mean_info("relative_pose.pnp", "inlier_ratio"),
            "relative_pose.valid_px_per_pair": mean_info("relative_pose.pnp", "n_valid"),
            "pose_graph.build_ms": mean_ms("pose_graph.build"),
            "pose_graph.edges_kept_pct": share(sum(s.info["edges"] for s in builds),
                                               sum(s.info["pairs_in"] for s in builds)),
            "pose_graph.edges_rescued": mean_info("pose_graph.build", "rescued"),
            "pose_graph.rotation_ms": mean_ms("pose_graph.rotation"),
            "pose_graph.rotation_share_pct": share(total_s("pose_graph.rotation"), op_s),
            "pose_graph.rotation_objective":
                sum(objectives) / len(objectives) if objectives else 0.0,
            "pose_graph.sweep_budget_hits": warn_counts["sweep_budget"] / n_ops,
            "pose_graph.translation_ms": mean_ms("pose_graph.translation"),
            "metrics.eval_ms": mean_ms("metrics.eval"),
            "pipeline.pair_wall_s": pair_wall / n_ops,
            "pipeline.pair_busy_s": busy / n_ops,
            "pipeline.pair_concurrency": busy / pair_wall if pair_wall > 0 else 0.0,
            "pipeline.self_s": self_s / n_ops,
            "pipeline.tracing_overhead_pct": overhead_pct,
        }
        return {name: values[name] for name, _ in PER_LAYER_METRICS}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by sorted (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in intervals:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
