"""Bit-exact serialization for pointmaps, depth maps, poses, graphs, reports.

Binary containers are little-endian regardless of host, with payload
sizes fully determined by the header. Text documents are line oriented
with ``#`` comments, stable field order, and shortest-round-trip decimal
floats (Python ``repr``), so write-read is value-exact. Readers reject
malformed input, never repair it.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import FormatError
from .geometry import DepthMap, Pointmap
from .metrics import SequenceReport
from .pose_graph import Edge, GlobalPoses, PoseGraph

MAGIC_POINTMAP = b"PMAP1"
MAGIC_DEPTH = b"DMAP1"
FLAG_CONFIDENCE = 1
FLAG_MASK = 2

_HEADER = struct.Struct("<III")
_HEADER_END = 5 + _HEADER.size  # magic + width/height/flags

FORMAT_DOC = """\
pmsfm on-disk formats
=====================

Pixel convention: (i, j) = (column/x, row/y), zero-indexed. "Row-major"
payloads iterate rows (j) outer, columns (i) inner. All binary numbers
are little-endian regardless of host. All text files are UTF-8, one
record per line, with '#' starting a comment line and a stable field
order; floats print with shortest-round-trip decimals so reading them
back is value-exact.

Pointmap container (magic "PMAP1")
----------------------------------
offset  size          field
0       5             magic bytes "PMAP1"
5       4             width  (u32 LE)
9       4             height (u32 LE)
13      4             flags  (u32 LE): bit 0 = has confidence plane,
                      bit 1 = has mask plane
17      W*H*3*4       points, float32 LE, row-major, (x, y, z) per pixel
...     W*H*4         confidence plane, float32 LE (if flag bit 0)
...     W*H           mask plane, bytes 0/1 (if flag bit 1)

The file length must match the header exactly. Confidence values must
be strictly positive and finite; mask bytes must be 0 or 1; NaN is
forbidden in masked-in point entries. Without a mask plane every pixel
counts as valid; without a confidence plane confidence reads as 1.

Depth container (magic "DMAP1")
-------------------------------
Same 17-byte header; flag bit 0 must be 0 (no confidence plane). The
payload is one float32 depth plane, then the optional mask plane.
Masked-in depths must be strictly positive and finite; masked-out
pixels must carry depth 0.

Poses document ("pmsfm poses v1")
---------------------------------
    # pmsfm poses v1
    frames <count>
    frame <id> recovered <0|1>
    <m00> <m01> <m02> <m03>        4 rows: the 4x4 row-major
    ...                            world-to-camera matrix
Repeated per frame, ascending file order. The count is non-negative
and equals the number of frames that follow. Frame ids may be any
non-negative integers (e.g. original video frame numbers); an id
appears at most once. Every matrix entry is finite and each rotation
block lies in SO(3) (||R'R - I||_F and |det R - 1| at most 1e-9); the
reader names a frame that breaks this by its position, counted from 0.

Pose graph document ("pmsfm pose graph v1")
-------------------------------------------
    # pmsfm pose graph v1
    frames <n_frames>
    edge <i> <j> <r00 r01 r02 r10 r11 r12 r20 r21 r22> <t0 t1 t2> <weight> <quality>
n_frames is a non-negative count. The edge transform maps frame-j
camera coordinates to frame-i camera coordinates; an edge whose
rotation is not in SO(3) (the poses document's tolerance) or whose
entries are not finite is rejected, naming its (i, j). weight is the
averaging concentration, a finite positive number (an edge line with
any other weight is rejected), and quality the inlier fraction that
passed filtering.

Key-value documents
-------------------
The manifest, pair-validity, config, scene-spec and sequence-report
documents share one grammar. A content line is `<key> <value>`: the key
is the first word, the value the rest of the line. A value is read by
the type of the field it fills: decimal integers; floats with
shortest-round-trip decimals (Python repr, so nan and inf too); strings
as the rest of the line; booleans as 0 or 1, nothing else; fixed pairs
as two words (`focal_range 110.0 180.0`). A key appears at most once,
unknown keys are rejected, and absent keys take their defaults. Record
lines repeat their key, one record per line, each with a fixed number
of whitespace-separated fields. Every read error names its line.
Writers emit a "# pmsfm <document> v1" comment, then the keys in the
order listed below, leaving out empty strings.

Manifest ("pmsfm manifest v1")
    mode <views|pairs>             required
    n_frames <int>                 required
    focal <float>                  views mode: the shared focal, > 0
    gt_poses <path>                views mode: poses document
    scene_scale, outlier_fraction, point_noise_sigma <float>
    rng_seed <int>                 views mode: pair simulation settings
    view <frame> <depth.dmap> <pointmap.pmap>      record, views mode
    pair <i> <j> <ref.pmap> <src.pmap>             record, pairs mode
Paths are relative to the manifest's directory. A pair record's
source map is expressed in its reference view's camera frame. Record
frames lie in 0..n_frames-1; a view frame appears at most once, and a
pair (i, j) at most once with i != j ((i, j) and (j, i) are distinct
pairs).

Pair validity (no header)
    pair <i> <j> <0|1>             record; 0 keeps the pair out of the
                                   graph unless it is a rescued
                                   temporal neighbor (|i - j| = 1)
Its records follow the manifest's pair record rules, with the
manifest's n_frames.

Config ("pmsfm pipeline config v1")
The fields of PipelineConfig, all optional: manifest, output_dir,
ransac_max_iterations, ransac_inlier_threshold_px, ransac_confidence,
quality_threshold, pair_policy (auto|all|window), window, align_mode
(rigid|similarity), n_keep, rng_seed, jobs (pair-stage pool size; 0 =
one thread per core when a pair map has at least 3000 pixels, else
one), pair_validity. Config files written by earlier versions carry
lines for removed options: staircase, ransac_min_sample, weight_mode,
acc1_dist, acc1_deg, acc2_dist and acc2_deg. Each is rejected as an
unknown key, so delete those lines.

Scene spec ("pmsfm scene spec v1")
The fields of SceneSpec, all optional: n_points, object_shape,
scene_scale, n_views, trajectory, focal_range <lo> <hi>,
image_size <width> <height>, depth_noise_sigma, point_noise_sigma,
outlier_fraction, occlusion_fraction, rng_seed.

Sequence report ("pmsfm sequence report v1")
All required: rot_error_deg, trans_error, det_rate_pct, acc_15_15_pct,
acc_30_30_pct, n_frames, trans_rmse, partial (0/1). Error means cover
recovered frames only when partial is 1.
"""


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# binary containers


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated payload: needed {self.pos + n} bytes, file has "
                f"{len(self.data)}", offset=len(self.data))
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out


def _read_header(cur: _Cursor, magic: bytes) -> tuple[int, int, int]:
    got = cur.take(len(magic))
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset=0)
    width, height, flags = _HEADER.unpack(cur.take(_HEADER.size))
    if width == 0 or height == 0:
        raise FormatError("zero image dimension in header", offset=5)
    if flags & ~(FLAG_CONFIDENCE | FLAG_MASK):
        raise FormatError(f"unknown flag bits {flags:#x}", offset=13)
    return width, height, flags


def _read_mask(cur: _Cursor, n: int) -> np.ndarray:
    start = cur.pos
    raw = np.frombuffer(cur.take(n), dtype=np.uint8)
    bad = np.flatnonzero(raw > 1)
    if len(bad):
        raise FormatError(f"mask byte is {raw[bad[0]]}, expected 0 or 1",
                          offset=start + int(bad[0]))
    return raw.astype(bool)


def _expect_end(cur: _Cursor):
    if cur.pos != len(cur.data):
        raise FormatError(
            f"trailing data: expected {cur.pos} bytes, file has {len(cur.data)}",
            offset=cur.pos)


def pointmap_to_bytes(pm: Pointmap, with_confidence: bool = True,
                      with_mask: bool = True) -> bytes:
    flags = (FLAG_CONFIDENCE if with_confidence else 0) | (FLAG_MASK if with_mask else 0)
    parts = [MAGIC_POINTMAP, _HEADER.pack(pm.width, pm.height, flags),
             pm.points.astype("<f4").tobytes()]
    if with_confidence:
        parts.append(pm.confidence.astype("<f4").tobytes())
    if with_mask:
        parts.append(pm.mask.astype(np.uint8).tobytes())
    return b"".join(parts)


def pointmap_from_bytes(data: bytes, frame_id: str = "") -> Pointmap:
    cur = _Cursor(data)
    width, height, flags = _read_header(cur, MAGIC_POINTMAP)
    n = width * height

    # Planes are validated as read, before widening to float64, which
    # keeps finiteness and sign.
    points_off = cur.pos
    points = np.frombuffer(cur.take(n * 12), dtype="<f4")
    if flags & FLAG_CONFIDENCE:
        conf_off = cur.pos
        conf = np.frombuffer(cur.take(n * 4), dtype="<f4")
        if not (np.isfinite(conf) & (conf > 0)).all():
            bad = int(np.flatnonzero(~np.isfinite(conf) | (conf <= 0))[0])
            raise FormatError(
                f"confidence value {np.float64(conf[bad])} is not strictly positive"
                " and finite", offset=conf_off + bad * 4)
        conf = conf.astype(np.float64).reshape(height, width)
    else:
        conf = np.ones((height, width))
    if flags & FLAG_MASK:
        mask = _read_mask(cur, n).reshape(height, width)
    else:
        mask = np.ones((height, width), dtype=bool)
    _expect_end(cur)

    if not np.isfinite(points).all():
        # Masked-out pixels may hold NaN/inf; report the first masked-in one.
        masked_in = np.flatnonzero(mask.reshape(-1))
        bad = np.flatnonzero(~np.isfinite(points.reshape(-1, 3)[masked_in]).all(axis=1))
        if len(bad):
            raise FormatError("NaN/inf in a masked-in point",
                              offset=points_off + int(masked_in[bad[0]]) * 12)
    points = points.astype(np.float64).reshape(height, width, 3)
    return Pointmap(width, height, points, conf, mask, frame_id=frame_id)


def depthmap_to_bytes(dm: DepthMap, with_mask: bool = True) -> bytes:
    flags = FLAG_MASK if with_mask else 0
    parts = [MAGIC_DEPTH, _HEADER.pack(dm.width, dm.height, flags),
             dm.depth.astype("<f4").tobytes()]
    if with_mask:
        parts.append(dm.mask.astype(np.uint8).tobytes())
    return b"".join(parts)


def depthmap_from_bytes(data: bytes) -> DepthMap:
    cur = _Cursor(data)
    width, height, flags = _read_header(cur, MAGIC_DEPTH)
    if flags & FLAG_CONFIDENCE:
        raise FormatError("depth containers carry no confidence plane", offset=13)
    n = width * height

    depth_off = cur.pos
    depth = np.frombuffer(cur.take(n * 4), dtype="<f4").astype(np.float64)
    if flags & FLAG_MASK:
        mask = _read_mask(cur, n)
    else:
        mask = depth > 0
    _expect_end(cur)

    bad = np.flatnonzero(mask & (~np.isfinite(depth) | (depth <= 0)))
    if len(bad):
        raise FormatError(f"masked-in depth {depth[bad[0]]} is not strictly"
                          " positive and finite", offset=depth_off + int(bad[0]) * 4)
    bad = np.flatnonzero(~mask & (depth != 0))
    if len(bad):
        raise FormatError(f"masked-out pixel carries depth {depth[bad[0]]}, expected 0",
                          offset=depth_off + int(bad[0]) * 4)
    return DepthMap(width, height, depth.reshape(height, width),
                    mask.reshape(height, width))


def write_pointmap(path, pm: Pointmap, with_confidence: bool = True,
                   with_mask: bool = True):
    Path(path).write_bytes(pointmap_to_bytes(pm, with_confidence, with_mask))


def read_pointmap(path, frame_id: str = "") -> Pointmap:
    return pointmap_from_bytes(Path(path).read_bytes(), frame_id=frame_id)


def read_pointmap_size(path) -> tuple[int, int]:
    """(width, height) of a pointmap container, read from its header alone."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_END)
    width, height, _ = _read_header(_Cursor(head), MAGIC_POINTMAP)
    return width, height


def write_depthmap(path, dm: DepthMap, with_mask: bool = True):
    Path(path).write_bytes(depthmap_to_bytes(dm, with_mask))


def read_depthmap(path) -> DepthMap:
    return depthmap_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# text documents


class _Lines:
    """Content lines with original numbers; comments and blanks skipped."""

    def __init__(self, text: str):
        self.lines = [(n + 1, line.strip()) for n, line in enumerate(text.splitlines())
                      if line.strip() and not line.strip().startswith("#")]
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.lines):
            raise FormatError(f"unexpected end of document, expected {what}")
        out = self.lines[self.pos]
        self.pos += 1
        return out

    def done(self) -> bool:
        return self.pos >= len(self.lines)


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _fields(lineno: int, parts: list[str], kinds, what: str) -> tuple:
    """`parts` read one per entry of `kinds`: a type, or `_flag` for 0/1."""
    if len(parts) != len(kinds):
        raise FormatError(f"line {lineno}: expected {len(kinds)} {what} fields,"
                          f" got {len(parts)}")
    try:
        return tuple([kind(p) for kind, p in zip(kinds, parts)])
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {what}: {exc}") from None


_MATRIX_ROW = (float,) * 4
_EDGE = (str, int, int) + (float,) * 14


def _frames_header(lines: _Lines) -> tuple[int, int]:
    """The header's line number and its non-negative frame count."""
    lineno, line = lines.next("frames header")
    word, n = _fields(lineno, line.split(), (str, int), "frames header")
    if word != "frames" or n < 0:
        raise FormatError(f"line {lineno}: expected 'frames <count>' with a"
                          f" non-negative count, got {line!r}")
    return lineno, n


def poses_to_text(poses: GlobalPoses, frame_ids=None) -> str:
    if frame_ids is None:
        frame_ids = list(range(poses.n_frames))
    if len(frame_ids) != poses.n_frames:
        raise FormatError(f"{len(frame_ids)} frame ids for {poses.n_frames} poses")
    out = ["# pmsfm poses v1", f"frames {poses.n_frames}"]
    for k in range(poses.n_frames):
        out.append(f"frame {frame_ids[k]} recovered {int(poses.recovered[k])}")
        m = np.eye(4)
        m[:3, :3] = poses.rotations[k]
        m[:3, 3] = poses.translations[k]
        for row in m:
            out.append(" ".join(_fmt(x) for x in row))
    return "\n".join(out) + "\n"


def poses_from_text(text: str) -> tuple[GlobalPoses, list[int]]:
    lines = _Lines(text)
    header, n = _frames_header(lines)
    rotations, translations, recovered, frame_ids = [], [], [], []
    seen = set()
    while not lines.done():
        lineno, line = lines.next("frame header")
        if len(frame_ids) == n:
            raise FormatError(f"line {lineno}: trailing content {line!r}")
        word, frame_id, word2, flag = _fields(lineno, line.split(),
                                              (str, int, str, _flag), "frame header")
        if (word, word2) != ("frame", "recovered"):
            raise FormatError(
                f"line {lineno}: expected 'frame <id> recovered <0|1>', got {line!r}")
        if frame_id in seen:
            raise FormatError(f"line {lineno}: repeated frame {frame_id}")
        seen.add(frame_id)
        frame_ids.append(frame_id)
        recovered.append(flag)
        m = np.empty((3, 4))
        for r in range(3):
            lineno, line = lines.next("matrix row")
            m[r] = _fields(lineno, line.split(), _MATRIX_ROW, "matrix")
        lineno, line = lines.next("matrix row")
        x, y, z, one = _fields(lineno, line.split(), _MATRIX_ROW, "matrix")
        # np.allclose(row, [0, 0, 0, 1], atol=1e-12) as plain float tests,
        # which are false for NaN as allclose is.
        if not (abs(x) <= 1e-12 and abs(y) <= 1e-12 and abs(z) <= 1e-12
                and abs(one - 1.0) <= 1e-12 + 1e-5):
            raise FormatError(f"line {lineno}: last matrix row must be 0 0 0 1")
        rotations.append(m[:3, :3])
        translations.append(m[:3, 3])
    if len(frame_ids) < n:
        raise FormatError(f"line {header}: {n} frames declared, {len(frame_ids)} present")
    rotations = np.array(rotations).reshape(-1, 3, 3)
    translations = np.array(translations).reshape(-1, 3)
    try:
        return GlobalPoses(rotations, translations, np.array(recovered, dtype=bool)), frame_ids
    except ValueError as exc:
        raise FormatError(f"invalid pose document: {exc}") from None


def graph_to_text(graph: PoseGraph) -> str:
    out = ["# pmsfm pose graph v1", f"frames {graph.n_frames}"]
    for e in graph.edges:
        fields = ([str(e.i), str(e.j)]
                  + [_fmt(x) for x in e.rotation.reshape(-1)]
                  + [_fmt(x) for x in e.translation]
                  + [_fmt(e.weight), _fmt(e.quality)])
        out.append("edge " + " ".join(fields))
    return "\n".join(out) + "\n"


def graph_from_text(text: str) -> PoseGraph:
    lines = _Lines(text)
    _, n = _frames_header(lines)
    edges = []
    while not lines.done():
        lineno, line = lines.next("edge")
        rec = _fields(lineno, line.split(), _EDGE, "edge")
        if rec[0] != "edge":
            raise FormatError(
                f"line {lineno}: expected 'edge i j r00..r22 t0..t2 weight quality'")
        try:
            edges.append(Edge(
                i=rec[1], j=rec[2],
                rotation=np.array(rec[3:12]).reshape(3, 3),
                translation=np.array(rec[12:15]),
                weight=rec[15], quality=rec[16],
            ))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: invalid edge: {exc}") from None
    try:
        return PoseGraph(n_frames=n, edges=tuple(edges))
    except ValueError as exc:
        raise FormatError(f"invalid pose graph: {exc}") from None


# ---------------------------------------------------------------------------
# key-value documents


def _kinds(types) -> tuple:
    return tuple(_flag if t is bool else t for t in types)


def _value_text(hint, v) -> str:
    if get_origin(hint) is tuple:
        return " ".join(_value_text(t, x) for t, x in zip(get_args(hint), v))
    if hint is float:
        return _fmt(v)
    return str(int(v)) if hint in (bool, int) else str(v)


def kv_to_text(obj, title: str, omit=()) -> str:
    """The dataclass `obj` as a key-value document: ``# <title>``, then one
    ``<field> <value>`` line per field in declaration order. A record field
    writes one ``<key> <values>`` line per element. Fields named in `omit`
    and empty strings, which the reader defaults to, are left out."""
    hints = get_type_hints(type(obj))
    out = [f"# {title}"]
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if f.name in omit or v == "":
            continue
        if "record" in f.metadata:
            hint = get_args(hints[f.name])[0]
            out += [f"{f.metadata['record']} {_value_text(hint, r)}" for r in v]
        else:
            out.append(f"{f.name} {_value_text(hints[f.name], v)}")
    return "\n".join(out) + "\n"


def kv_from_text(cls, text: str, **given):
    """Read a key-value document into the dataclass `cls`.

    Each value is read by its field's type: int, float, str (the rest of
    the line), bool as 0/1, or a fixed tuple of those as whitespace-separated
    fields. A field whose metadata names a ``record`` key collects every
    line with that key, in order. `given` supplies the fields the document
    does not carry; absent fields take their defaults.
    """
    hints = get_type_hints(cls)
    slots = {}  # line key -> (field name, value type, record field?)
    for f in dataclasses.fields(cls):
        if "record" in f.metadata:
            slots[f.metadata["record"]] = (f.name, get_args(hints[f.name])[0], True)
        elif f.name not in given:
            slots[f.name] = (f.name, hints[f.name], False)
    values = dict(given)
    records = {name: [] for name, _, is_record in slots.values() if is_record}
    for lineno, line in _Lines(text).lines:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'key value', got {line!r}")
        key, value = parts
        if key not in slots:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        name, hint, is_record = slots[key]
        if not is_record and name in values:
            raise FormatError(f"line {lineno}: repeated key {key!r}")
        if get_origin(hint) is tuple:
            v = _fields(lineno, value.split(), _kinds(get_args(hint)), key)
        else:
            v = _fields(lineno, [value], _kinds((hint,)), key)[0]
        if is_record:
            records[name].append(v)
        else:
            values[name] = v
    values.update((name, tuple(rows)) for name, rows in records.items())
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # a missing key or an invalid value
        raise FormatError(f"invalid {cls.__name__} document: {exc}") from None


def report_to_text(report: SequenceReport) -> str:
    return kv_to_text(report, "pmsfm sequence report v1")


def report_from_text(text: str) -> SequenceReport:
    return kv_from_text(SequenceReport, text)


def write_poses(path, poses: GlobalPoses, frame_ids=None):
    Path(path).write_text(poses_to_text(poses, frame_ids), encoding="utf-8")


def read_poses(path) -> tuple[GlobalPoses, list[int]]:
    return poses_from_text(Path(path).read_text(encoding="utf-8"))


def write_graph(path, graph: PoseGraph):
    Path(path).write_text(graph_to_text(graph), encoding="utf-8")


def read_graph(path) -> PoseGraph:
    return graph_from_text(Path(path).read_text(encoding="utf-8"))


def write_report(path, report: SequenceReport):
    Path(path).write_text(report_to_text(report), encoding="utf-8")


def read_report(path) -> SequenceReport:
    return report_from_text(Path(path).read_text(encoding="utf-8"))
