"""Bit-exact serialization for pointmaps, depth maps, poses, graphs, reports.

Binary containers are little-endian regardless of host, with payload
sizes fully determined by the header. Text documents are line oriented
with ``#`` comments, stable field order, and shortest-round-trip decimal
floats (Python ``repr``), so write-read is value-exact. Readers reject
malformed input, never repair it.
"""

from __future__ import annotations

import dataclasses
import re
import struct
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import FormatError, ValidationError
from .geometry import DepthMap, Pointmap
from .metrics import SequenceReport
from .pose_graph import GlobalPoses, PoseGraph

MAGIC_POINTMAP = b"PMAP1"
MAGIC_DEPTH = b"DMAP1"
FLAG_CONFIDENCE = 1
FLAG_MASK = 2

# Most frames a graph, poses document or manifest may declare: 9 h of
# 30 fps video, with every n_frames-long array under 100 MB.
MAX_FRAMES = 1_000_000

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
be strictly positive and finite; mask bytes must be 0 or 1; NaN and inf
are forbidden in masked-in point entries. Writers always write both
optional planes. Readers accept files without them: without a mask
plane every pixel counts as valid; without a confidence plane
confidence reads as 1. A bad value is reported at a byte offset inside
its pixel's entry in its plane. The solver checks the confidence plane
but no stage reads it: the focal and PnP treat every masked-in pixel
alike.

Depth container (magic "DMAP1")
-------------------------------
Same 17-byte header; bit 1 (mask plane) is its only flag bit, so bit 0
is rejected as unknown. The payload is one float32 depth plane, then
the mask plane, which writers always write; without it a pixel is
masked in where its depth is > 0. Masked-in depths must be strictly
positive and finite; masked-out pixels must carry depth 0.

Poses document ("pmsfm poses v2")
---------------------------------
    # pmsfm poses v2
    frames <count>
    frame <id> <0|1> <r00 r01 r02 r10 r11 r12 r20 r21 r22> <t0 t1 t2>
A key-value document (below): frames is required, lies in 0..1000000
(MAX_FRAMES) and equals the number of frame records. frame is a record,
one line per frame: its id, 1 if it was recovered, then its
world-to-camera transform as the pose graph's edge record holds one.
Frame ids may be any non-negative integers (e.g. original video frame
numbers); an id appears at most once. The writer refuses what the
reader rejects. Every entry is finite and each rotation lies in SO(3)
(||R'R - I||_F and |det R - 1| at most 1e-9); the reader names a frame
that breaks this by its position, counted from 0. Version 1 documents
hold each frame as a header line and four matrix rows, and are rejected
at their title line. Regenerate gt_poses.txt
with `pmsfm synth --spec <old>/scene_spec.txt --out <new>`, and
poses_est.txt by running solve again.

Pose graph document ("pmsfm pose graph v1")
-------------------------------------------
    # pmsfm pose graph v1
    frames <n_frames>
    edge <i> <j> <r00 r01 r02 r10 r11 r12 r20 r21 r22> <t0 t1 t2> <weight> <quality>
A key-value document (below): frames is required and lies in
0..1000000 (MAX_FRAMES); edge is a record, one line per edge. The edge
transform maps frame-j camera coordinates to frame-i camera
coordinates; an edge whose rotation is not in SO(3) (the poses
document's tolerance) or whose entries are not finite is rejected,
naming its (i, j). weight is the averaging concentration, a finite
positive number (an edge with any other weight is rejected, naming its
(i, j)), and quality the inlier fraction that passed filtering.

Key-value documents
-------------------
The manifest, pair-validity, config, scene-spec, sequence-report, pose
graph and poses documents share one grammar. A content line is
`<key> <value>`: the key is the first word, the value the rest of the
line. A value is read by the type of the field it fills: integers as
-?[0-9]+; floats with shortest-round-trip decimals (Python repr, so nan
and inf too); strings as the rest of the line; booleans as 0 or 1,
nothing else; fixed pairs as two words (`focal_range 110.0 180.0`). A
float word may not start with '+', and a non-finite float is exactly
nan, inf or -inf, as repr writes them (not Infinity, NaN or -nan). A
number word holding '_' or a non-ASCII character is rejected. A key
appears at most once, unknown keys are rejected, a required key that is
absent is rejected as missing, and other absent keys take their
defaults. Record lines repeat their key, one record per line, each with
a fixed number of whitespace-separated fields. Every read error names
its line, its missing key or its document. Writers emit a
"# pmsfm <document> v<version>" title, then the keys in the
order listed below, leaving out empty strings. They refuse a string
with a line break or edge whitespace, or a record field with any space.
A reader rejects a document whose first non-blank line is such a title
but not its own, naming that line; a document without a title line
(pair validity has none) is read by its keys alone.

Manifest ("pmsfm manifest v1")
    mode <views|pairs>             required
    n_frames <int>                 required, 0..1000000 (MAX_FRAMES)
    focal <float>                  views mode: the shared focal, finite, > 0
    gt_poses <path>                views mode: poses document
    scene_scale, outlier_fraction, point_noise_sigma <float>
    rng_seed <int>                 views mode: pair simulation settings,
                                   under the scene spec's rules
    view <frame> <depth.dmap>                      record, views mode
    pair <i> <j> <ref.pmap> <src.pmap>             record, pairs mode
A record of the other mode is rejected, naming the record.
A views-mode key off its default in a pairs manifest is rejected.
Paths are relative to the manifest's directory. A pair record's source
map is expressed in its reference view's camera frame and has the
reference map's size; a pair whose maps differ in size is skipped and
logged. Record frames lie in 0..n_frames-1; a view frame appears at
most once, and a pair (i, j) at most once with i != j ((i, j) and
(j, i) are distinct pairs). Views manifests written by earlier versions
carry a third view field, a pointmap file no stage read; such a record
is rejected by its field count. Regenerate the bundle with
`pmsfm synth --spec <old>/scene_spec.txt --out <new>`, which writes the
same depth maps and poses.

Pair validity (no header)
    pair <i> <j> <0|1>             record; 0 keeps the pair out of the
                                   graph unless it is a rescued
                                   temporal neighbor (|i - j| = 1)
Its records follow the manifest's pair record rules, with the
manifest's n_frames.

Config ("pmsfm pipeline config v1")
The fields of PipelineConfig, all optional: manifest, output_dir,
n_keep, rng_seed, jobs (pair-stage pool size; 0 = one thread per core
when a pair map has at least 3000 pixels, else one), pair_validity.
n_keep, rng_seed and jobs are >= 0. A solve writes the config it ran
as config_used.txt in its output directory, with manifest, output_dir
and pair_validity as absolute paths, so it repeats the run from any
working directory. Config files written by earlier versions carry
lines for removed options: staircase, ransac_min_sample, weight_mode,
acc1_dist, acc1_deg, acc2_dist, acc2_deg, ransac_max_iterations,
ransac_inlier_threshold_px, ransac_confidence, quality_threshold,
pair_policy, window and align_mode. Each is rejected as an unknown
key, so delete those lines. ransac_max_iterations through window are
now solver constants, fixed at their former defaults; the alignment
that align_mode chose is `pmsfm eval --mode`.

Scene spec ("pmsfm scene spec v1")
The fields of SceneSpec, all optional: n_points, object_shape,
scene_scale, n_views, trajectory, focal_range <lo> <hi>,
image_size <width> <height>, depth_noise_sigma, point_noise_sigma,
outlier_fraction, occlusion_fraction, rng_seed (>= 0).

Sequence report ("pmsfm sequence report v2")
All required: rot_error_deg, trans_error, det_rate_pct, acc_15_15_pct,
acc_30_30_pct, n_frames, trans_rmse, partial (0/1), rot_only_deg. Error
means cover recovered frames only when partial is 1. rot_only_deg is
the mean rotation error (degrees) after the one global rotation that
best aligns the estimated rotations to the reference, fitted on the
rotations alone; nan when no frame is recovered in both. A v1 report
is rejected at its title line.
"""


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# binary containers


# Planes of each container in file order: (name, stored dtype, values per
# pixel, flag bit of an optional plane or 0). A name is also the field of
# the type that the plane fills.
_PLANES = {
    MAGIC_POINTMAP: (("points", "<f4", 3, 0), ("confidence", "<f4", 1, FLAG_CONFIDENCE),
                     ("mask", "u1", 1, FLAG_MASK)),
    MAGIC_DEPTH: (("depth", "<f4", 1, 0), ("mask", "u1", 1, FLAG_MASK)),
}


def _read_header(data: bytes, magic: bytes) -> tuple[int, int, int]:
    if len(data) >= len(magic) and data[:len(magic)] != magic:
        raise FormatError(f"bad magic {data[:len(magic)]!r}, expected {magic!r}", offset=0)
    if len(data) < _HEADER_END:
        raise FormatError(f"truncated header: needed {_HEADER_END} bytes, file has"
                          f" {len(data)}", offset=len(data))
    width, height, flags = _HEADER.unpack_from(data, len(magic))
    if width == 0 or height == 0:
        raise FormatError("zero image dimension in header", offset=5)
    if flags & ~sum(bit for *_, bit in _PLANES[magic]):
        raise FormatError(f"unknown flag bits {flags:#x}", offset=13)
    return width, height, flags


def _encode(magic: bytes, obj) -> bytes:
    """Container of every plane of `obj`, a Pointmap or DepthMap."""
    planes = _PLANES[magic]
    return b"".join([magic, _HEADER.pack(obj.width, obj.height, sum(p[3] for p in planes))]
                    + [np.asarray(getattr(obj, name), dtype).tobytes()
                       for name, dtype, _, _ in planes])


def _decode(data: bytes, magic: bytes) -> tuple[int, int, dict]:
    """Width, height and each plane present in the container `data`, by
    name: (flat read-only array, byte offset). The file length is checked
    against the header before any plane is read; mask bytes must be 0/1."""
    width, height, flags = _read_header(data, magic)
    n = width * height
    present = [p for p in _PLANES[magic] if not p[3] or flags & p[3]]
    sizes = [n * per * np.dtype(dtype).itemsize for _, dtype, per, _ in present]
    end = _HEADER_END + sum(sizes)
    if len(data) != end:
        what = "truncated payload" if len(data) < end else "trailing data"
        raise FormatError(f"{what}: the header declares {end} bytes, file has {len(data)}",
                          offset=min(len(data), end))
    planes, offset = {}, _HEADER_END
    for (name, dtype, per, _), size in zip(present, sizes):
        planes[name] = (np.frombuffer(data, dtype, n * per, offset), offset)
        offset += size
    if "mask" in planes:
        raw, offset = planes["mask"]
        bad = np.flatnonzero(raw > 1)
        if len(bad):
            raise FormatError(f"mask byte is {raw[bad[0]]}, expected 0 or 1",
                              offset=offset + int(bad[0]))
        mask = raw.astype(bool)  # not a view, which would keep the file's bytes alive
        mask.flags.writeable = False  # so the map takes it without a copy
        planes["mask"] = (mask, offset)
    return width, height, planes


def _typed(cls, width: int, height: int, planes: dict, **grids):
    """`cls(width, height, **grids)`; a pixel its invariants reject is
    reported at that pixel's bytes in the plane it came from."""
    try:
        with np.errstate(invalid="ignore"):  # a signalling NaN warns as float32 widens
            return cls(width, height, **grids)
    except ValidationError as exc:
        values, offset = planes[exc.array]
        per_pixel = values.nbytes // (width * height)
        raise FormatError(str(exc), offset=offset + exc.pixel * per_pixel) from None


def pointmap_to_bytes(pm: Pointmap) -> bytes:
    return _encode(MAGIC_POINTMAP, pm)


def pointmap_from_bytes(data: bytes) -> Pointmap:
    width, height, planes = _decode(data, MAGIC_POINTMAP)
    shape = (height, width)
    conf = planes["confidence"][0].reshape(shape) if "confidence" in planes else np.ones(shape)
    mask = planes["mask"][0].reshape(shape) if "mask" in planes else np.ones(shape, bool)
    return _typed(Pointmap, width, height, planes,
                  points=planes["points"][0].reshape(height, width, 3),
                  confidence=conf, mask=mask)


def depthmap_to_bytes(dm: DepthMap) -> bytes:
    return _encode(MAGIC_DEPTH, dm)


def depthmap_from_bytes(data: bytes) -> DepthMap:
    width, height, planes = _decode(data, MAGIC_DEPTH)
    depth = planes["depth"][0].reshape(height, width)
    mask = planes["mask"][0].reshape(height, width) if "mask" in planes else depth > 0
    return _typed(DepthMap, width, height, planes, depth=depth, mask=mask)


def write_pointmap(path, pm: Pointmap):
    Path(path).write_bytes(pointmap_to_bytes(pm))


def read_pointmap(path) -> Pointmap:
    return pointmap_from_bytes(Path(path).read_bytes())


def read_pointmap_size(path) -> tuple[int, int]:
    """(width, height) of a pointmap container, read from its header alone."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_END)
    width, height, _ = _read_header(head, MAGIC_POINTMAP)
    return width, height


def write_depthmap(path, dm: DepthMap):
    Path(path).write_bytes(depthmap_to_bytes(dm))


def read_depthmap(path) -> DepthMap:
    return depthmap_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# text documents


def check_frame_count(name: str, n: int):
    """Reject a frame count `n`, the value of field `name`, outside 0..MAX_FRAMES."""
    if n < 0:
        raise ValidationError(f"{name}: {n} is negative")
    if n > MAX_FRAMES:
        raise ValidationError(f"{name}: {n} is over the {MAX_FRAMES}-frame cap")


_POSES_TITLE = "pmsfm poses v2"
# id, recovered, the world-to-camera rotation row-major, the translation
_FrameRecord = tuple[(int, bool) + (float,) * 12]


@dataclasses.dataclass(frozen=True)
class _Poses:
    frames: int
    frame: tuple[_FrameRecord, ...] = dataclasses.field(default=(), metadata={"record": "frame"})

    def __post_init__(self):
        check_frame_count("frames", self.frames)
        if self.frames != len(self.frame):
            raise ValidationError(f"frames: {self.frames} declared, {len(self.frame)} present")
        seen = set()
        for fid, *_ in self.frame:
            if isinstance(fid, bool) or not isinstance(fid, (int, np.integer)):
                raise ValidationError(f"frame id {fid!r} is not an integer")
            if fid < 0 or fid in seen:
                raise ValidationError(f"frame id {fid} is {'negative' if fid < 0 else 'repeated'}")
            seen.add(fid)


def poses_to_text(poses: GlobalPoses, frame_ids=None) -> str:
    if frame_ids is None:
        frame_ids = range(poses.n_frames)
    if len(frame_ids) != poses.n_frames:
        raise FormatError(f"{len(frame_ids)} frame ids for {poses.n_frames} poses")
    rows = zip(frame_ids, poses.recovered.tolist(),
               poses.rotations.reshape(-1, 9).tolist(), poses.translations.tolist())
    doc = _Poses(poses.n_frames, tuple((fid, rec, *r, *t) for fid, rec, r, t in rows))
    return kv_to_text(doc, _POSES_TITLE)


def _columns(rows: tuple, width: int) -> list[tuple]:
    """Records of `width` fields as their columns."""
    return list(zip(*rows)) or [()] * width


def poses_from_text(text: str) -> tuple[GlobalPoses, list[int]]:
    doc = kv_from_text(_Poses, text, "poses document", _POSES_TITLE)
    ids, recovered, *columns = _columns(doc.frame, 14)
    values = np.array(columns, dtype=np.float64).T
    try:  # a frame that breaks a pose rule is named by its position
        return GlobalPoses(values[:, :9].reshape(-1, 3, 3), values[:, 9:],
                           np.array(recovered, bool)), list(ids)
    except ValueError as exc:
        raise FormatError(f"invalid poses document: {exc}") from None


_GRAPH_TITLE = "pmsfm pose graph v1"
# i, j, the rotation row-major, the translation, weight, quality
_EdgeRecord = tuple[(int, int) + (float,) * 14]


@dataclasses.dataclass(frozen=True)
class _PoseGraph:
    frames: int
    edges: tuple[_EdgeRecord, ...] = dataclasses.field(default=(), metadata={"record": "edge"})

    def __post_init__(self):
        check_frame_count("frames", self.frames)


def graph_to_text(graph: PoseGraph) -> str:
    a = graph.edge_arrays
    values = np.column_stack([a.rotation.reshape(-1, 9), a.translation, a.weight, a.quality])
    edges = [(i, j, *v) for i, j, v in zip(a.i.tolist(), a.j.tolist(), values.tolist())]
    return kv_to_text(_PoseGraph(graph.n_frames, edges), _GRAPH_TITLE)


def graph_from_text(text: str) -> PoseGraph:
    doc = kv_from_text(_PoseGraph, text, "pose graph", _GRAPH_TITLE)
    i, j, *columns = _columns(doc.edges, 16)
    values = np.array(columns, dtype=np.float64).T
    try:  # every rejection names its edge (i, j)
        return PoseGraph.from_arrays(doc.frames, i, j, values[:, :9].reshape(-1, 3, 3),
                                     values[:, 9:12], values[:, 12], values[:, 13],
                                     np.zeros(len(i), dtype=bool))  # no rescue flags
    except ValueError as exc:
        raise FormatError(f"invalid pose graph: {exc}") from None


# ---------------------------------------------------------------------------
# key-value documents


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _kinds(hint) -> tuple:
    """How each word of a `hint` value reads: a tuple's by its member types."""
    types = get_args(hint) if get_origin(hint) is tuple else (hint,)
    return tuple(_flag if t is bool else t for t in types)


def _writer(name: str, hint, word=False):
    """A function writing a `hint` value as its reader reads it back, a
    tuple's members as words. A string the reader would cut, strip or split
    differently is refused, naming field `name`; number text needs no check."""
    if get_origin(hint) is tuple:
        writers = [_writer(name, t, True) for t in get_args(hint)]
        return lambda v: " ".join([w(x) for w, x in zip(writers, v)])
    if hint is float:
        return _fmt
    if hint in (bool, int):
        return lambda v: str(int(v))

    def text(v):
        out = str(v)
        if word and out.split() != [out]:
            raise FormatError(f"{name}: {out!r} is not one whitespace-free word")
        if out != out.strip() or out.splitlines() != [out]:
            raise FormatError(f"{name}: {out!r} would not read back as written")
        return out
    return text


def kv_to_text(obj, title: str, omit=()) -> str:
    """The dataclass `obj` as a key-value document: ``# <title>``, then one
    ``<field> <value>`` line per field in declaration order. A record field
    writes one ``<key> <values>`` line per element. Fields named in `omit`
    and empty strings, which the reader defaults to, are left out. A value
    the reader would read back differently raises FormatError."""
    hints = get_type_hints(type(obj))
    out = [f"# {title}"]
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if f.name in omit or v == "":
            continue
        if "record" in f.metadata:
            key, write = f.metadata["record"], _writer(f.name, get_args(hints[f.name])[0])
            out += [f"{key} {write(r)}" for r in v]
        else:
            out.append(f"{f.name} {_writer(f.name, hints[f.name])(v)}")
    return "\n".join(out) + "\n"


_INT_WORD = re.compile(r"-?[0-9]+")
_TITLE = re.compile(r"# pmsfm .+ v[0-9]+")


def _number_word_ok(kind, word: str) -> bool:
    """Whether `word` is in the grammar of a `kind` value: an int as
    -?[0-9]+, a float without a leading '+' whose non-finite values are
    spelled nan, inf or -inf, as repr writes them. Other kinds pass."""
    if kind is int:
        return _INT_WORD.fullmatch(word) is not None
    if kind is float:
        if word.startswith("+") or "_" in word or not word.isascii():
            return False
        return word in ("nan", "inf", "-inf") or not ("n" in word or "N" in word)
    return True


def kv_from_text(cls, text: str, what: str, title: str | None, **given):
    """Read a key-value document, named `what` in its errors, into the
    dataclass `cls`. A first non-blank line that is a
    ``# pmsfm <document> v<n>`` title other than ``# <title>`` is rejected;
    with `title` None no title is checked.

    Each value is read by its field's type: int, float, str (the rest of
    the line), bool as 0/1, or a fixed tuple of those as whitespace-separated
    fields. A field whose metadata names a ``record`` key collects every
    line with that key, in order. `given` supplies the fields the document
    does not carry; absent fields take their defaults, and an absent field
    without one is reported as a missing key.
    """
    hints = get_type_hints(cls)
    slots = {}  # line key -> (field name, word kinds, split the value?, record field?)
    required = []
    for f in dataclasses.fields(cls):
        record = f.metadata.get("record")
        hint = get_args(hints[f.name])[0] if record else hints[f.name]
        if record or f.name not in given:
            slots[record or f.name] = (f.name, _kinds(hint), get_origin(hint) is tuple,
                                       bool(record))
        if f.name not in given and f.default is f.default_factory is dataclasses.MISSING:
            required.append(f.name)
    values = dict(given)
    records = {name: [] for name, _, _, is_record in slots.values() if is_record}
    first = True
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if first and title and line != f"# {title}" and _TITLE.fullmatch(line):
            raise FormatError(f"line {lineno}: expected the title '# {title}', got {line!r}")
        first = False
        if line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'key value', got {line!r}")
        key, value = parts
        if key not in slots:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        name, kinds, split, is_record = slots[key]
        if not is_record and name in values:
            raise FormatError(f"line {lineno}: repeated key {key!r}")
        words = value.split() if split else [value]
        if len(words) != len(kinds):
            raise FormatError(f"line {lineno}: expected {len(kinds)} {key} fields,"
                              f" got {len(words)}")
        # Python's int and float also read '+7', '1_0', '٣', 'Infinity' and
        # '-NaN'; every such word holds one of these characters.
        if ("_" in value or "+" in value or "n" in value or "N" in value
                or not value.isascii()):
            for kind, w in zip(kinds, words):
                if not _number_word_ok(kind, w):
                    raise FormatError(f"line {lineno}: {key}: {w!r} is not a decimal number")
        try:
            v = tuple([kind(w) for kind, w in zip(kinds, words)])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {key}: {exc}") from None
        if is_record:
            records[name].append(v)
        else:
            values[name] = v if split else v[0]
    for name in required:
        if name not in values:
            raise FormatError(f"missing key {name!r}")
    values.update((name, tuple(rows)) for name, rows in records.items())
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(f"invalid {what}: {exc}") from None


_REPORT_TITLE = "pmsfm sequence report v2"


def report_to_text(report: SequenceReport) -> str:
    return kv_to_text(report, _REPORT_TITLE)


def report_from_text(text: str) -> SequenceReport:
    return kv_from_text(SequenceReport, text, "sequence report", _REPORT_TITLE)


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
