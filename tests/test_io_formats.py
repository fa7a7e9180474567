import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from pmsfm.errors import FormatError, ValidationError
from pmsfm.geometry import DepthMap, Pointmap, random_rotation
from pmsfm.io_formats import (
    FORMAT_DOC,
    MAX_FRAMES,
    depthmap_from_bytes,
    depthmap_to_bytes,
    graph_from_text,
    graph_to_text,
    pointmap_from_bytes,
    pointmap_to_bytes,
    poses_from_text,
    poses_to_text,
    read_pointmap,
    read_pointmap_size,
    report_from_text,
    report_to_text,
    write_pointmap,
)
from pmsfm.metrics import SequenceReport
from pmsfm.pose_graph import Edge, GlobalPoses, PoseGraph

from conftest import assert_same_bits, cut_planes


def random_pointmap(rng, width=16, height=12, with_mask=True):
    # float32-valued payload so binary round trips are exact
    pts = rng.normal(size=(height, width, 3)).astype(np.float32).astype(np.float64)
    conf = rng.uniform(0.1, 2.0, size=(height, width)).astype(np.float32).astype(np.float64)
    mask = rng.uniform(size=(height, width)) > 0.3 if with_mask else np.ones(
        (height, width), dtype=bool)
    return Pointmap(width, height, pts, conf, mask)


def random_depthmap(rng, width=10, height=7):
    depth = rng.uniform(0.5, 5.0, size=(height, width)).astype(np.float32).astype(np.float64)
    mask = rng.uniform(size=(height, width)) > 0.25
    depth[~mask] = 0.0
    return DepthMap(width, height, depth, mask)


class TestPointmapContainer:
    def test_round_trip_byte_identical(self, rng):
        pm = random_pointmap(rng)
        data = pointmap_to_bytes(pm)
        again = pointmap_to_bytes(pointmap_from_bytes(data))
        assert data == again

    def test_values_preserved(self, rng):
        pm = random_pointmap(rng)
        back = pointmap_from_bytes(pointmap_to_bytes(pm))
        np.testing.assert_array_equal(back.points, pm.points)
        np.testing.assert_array_equal(back.confidence, pm.confidence)
        np.testing.assert_array_equal(back.mask, pm.mask)

    def test_optional_planes(self, rng):
        pm = random_pointmap(rng, with_mask=False)
        data = cut_planes(pointmap_to_bytes(pm), with_confidence=False, with_mask=False)
        back = pointmap_from_bytes(data)
        assert np.all(back.confidence == 1.0)
        assert back.mask.all()
        assert len(data) == 17 + pm.width * pm.height * 12

    def test_bad_magic(self, rng):
        data = b"XMAP1" + pointmap_to_bytes(random_pointmap(rng))[5:]
        with pytest.raises(FormatError) as exc:
            pointmap_from_bytes(data)
        assert exc.value.offset == 0

    def test_truncation_offset(self, rng):
        data = pointmap_to_bytes(random_pointmap(rng))
        with pytest.raises(FormatError) as exc:
            pointmap_from_bytes(data[:-1])
        assert exc.value.offset == len(data) - 1

    def test_trailing_data(self, rng):
        data = pointmap_to_bytes(random_pointmap(rng))
        with pytest.raises(FormatError) as exc:
            pointmap_from_bytes(data + b"\x00")
        assert exc.value.offset == len(data)

    def test_nan_in_valid_region_rejected(self, rng):
        pm = random_pointmap(rng, width=4, height=3)
        data = bytearray(pointmap_to_bytes(pm))
        # overwrite the x-component of the first masked-in pixel with NaN
        flat_idx = int(np.flatnonzero(pm.mask.reshape(-1))[0])
        off = 17 + flat_idx * 12
        data[off:off + 4] = np.float32("nan").tobytes()
        with pytest.raises(FormatError) as exc:
            pointmap_from_bytes(bytes(data))
        assert exc.value.offset == off

    def test_nan_in_masked_out_region_allowed(self, rng):
        pm = random_pointmap(rng, width=4, height=3)
        masked_out = np.flatnonzero(~pm.mask.reshape(-1))
        if len(masked_out) == 0:
            pytest.skip("no masked-out pixel")
        data = bytearray(pointmap_to_bytes(pm))
        off = 17 + int(masked_out[0]) * 12
        data[off:off + 4] = np.float32("nan").tobytes()
        back = pointmap_from_bytes(bytes(data))
        assert np.isnan(back.points.reshape(-1, 3)[masked_out[0], 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_masked_out_point_allowed(self, value):
        pts = np.zeros((3, 4, 3))
        mask = np.ones((3, 4), bool)
        mask[1, 2] = False
        data = bytearray(pointmap_to_bytes(Pointmap(4, 3, pts, np.ones((3, 4)), mask)))
        off = 17 + 6 * 12 + 8  # z of pixel 6, the masked-out one
        data[off:off + 4] = np.float32(value).tobytes()
        back = pointmap_from_bytes(bytes(data))
        assert back.points[1, 2, 2] != 0.0
        np.testing.assert_array_equal(back.mask, mask)

    def test_signalling_nan_read_without_warning(self):
        pts = np.zeros((3, 4, 3))
        mask = np.ones((3, 4), bool)
        mask[1, 2] = False
        data = bytearray(pointmap_to_bytes(Pointmap(4, 3, pts, np.ones((3, 4)), mask)))
        snan = np.uint32(0x7F800001).tobytes()  # widening it to float64 raises "invalid"
        data[17 + 6 * 12:17 + 6 * 12 + 4] = snan  # pixel 6, masked out
        assert np.isnan(pointmap_from_bytes(bytes(data)).points[1, 2, 0])
        data[17 + 5 * 12 + 8:17 + 5 * 12 + 12] = snan  # z of pixel 5, masked in
        with pytest.raises(FormatError, match="NaN/inf in a masked-in point") as exc:
            pointmap_from_bytes(bytes(data))
        assert exc.value.offset == 17 + 5 * 12

    def test_masked_in_inf_reported_past_masked_out_nan(self):
        pts = np.zeros((3, 4, 3))
        mask = np.ones((3, 4), bool)
        mask[0, 1] = False
        data = bytearray(pointmap_to_bytes(Pointmap(4, 3, pts, np.ones((3, 4)), mask)))
        data[17 + 12:17 + 16] = np.float32("nan").tobytes()  # pixel 1, masked out
        off = 17 + 9 * 12 + 4  # y of pixel 9, masked in
        data[off:off + 4] = np.float32("inf").tobytes()
        with pytest.raises(FormatError, match="NaN/inf in a masked-in point") as exc:
            pointmap_from_bytes(bytes(data))
        assert exc.value.offset == 17 + 9 * 12

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -2.5, 0.0])
    def test_bad_confidence_reported_at_its_own_offset(self, value):
        data = bytearray(pointmap_to_bytes(Pointmap(4, 3, np.zeros((3, 4, 3)),
                                                    np.ones((3, 4)), np.ones((3, 4), bool))))
        off = 17 + 12 * 12 + 7 * 4  # confidence of pixel 7
        data[off:off + 4] = np.float32(value).tobytes()
        with pytest.raises(FormatError) as exc:
            pointmap_from_bytes(bytes(data))
        assert exc.value.offset == off
        assert str(exc.value).startswith(f"confidence value {value} is not strictly positive")

    def test_nonpositive_confidence_rejected(self, rng):
        pm = random_pointmap(rng, width=4, height=3)
        data = bytearray(pointmap_to_bytes(pm))
        off = 17 + pm.width * pm.height * 12  # first confidence entry
        data[off:off + 4] = np.float32(0.0).tobytes()
        with pytest.raises(FormatError) as exc:
            pointmap_from_bytes(bytes(data))
        assert exc.value.offset == off

    def test_bad_mask_byte(self, rng):
        pm = random_pointmap(rng, width=4, height=3)
        data = bytearray(pointmap_to_bytes(pm))
        off = len(data) - pm.width * pm.height  # first mask byte
        data[off] = 7
        with pytest.raises(FormatError) as exc:
            pointmap_from_bytes(bytes(data))
        assert exc.value.offset == off

    def test_unknown_flags(self, rng):
        data = bytearray(pointmap_to_bytes(random_pointmap(rng)))
        data[13] |= 0x10
        with pytest.raises(FormatError) as exc:
            pointmap_from_bytes(bytes(data))
        assert exc.value.offset == 13

    def test_file_round_trip(self, rng, tmp_path):
        pm = random_pointmap(rng)
        write_pointmap(tmp_path / "x.pmap", pm)
        back = read_pointmap(tmp_path / "x.pmap")
        np.testing.assert_array_equal(back.points, pm.points)

    def test_size_from_header_alone(self, rng, tmp_path):
        write_pointmap(tmp_path / "x.pmap", random_pointmap(rng, width=16, height=12))
        data = (tmp_path / "x.pmap").read_bytes()
        (tmp_path / "head.pmap").write_bytes(data[:17])  # magic + width/height/flags
        assert read_pointmap_size(tmp_path / "head.pmap") == (16, 12)
        (tmp_path / "short.pmap").write_bytes(data[:16])
        with pytest.raises(FormatError):
            read_pointmap_size(tmp_path / "short.pmap")
        (tmp_path / "depth.pmap").write_bytes(depthmap_to_bytes(random_depthmap(rng)))
        with pytest.raises(FormatError, match="bad magic"):
            read_pointmap_size(tmp_path / "depth.pmap")

    def test_little_endian_layout(self):
        pts = np.zeros((1, 1, 3))
        pts[0, 0] = [1.0, 2.0, 3.0]
        pm = Pointmap(1, 1, pts, np.ones((1, 1)), np.ones((1, 1), bool))
        data = cut_planes(pointmap_to_bytes(pm), with_confidence=False, with_mask=False)
        assert data[:5] == b"PMAP1"
        assert data[5:9] == (1).to_bytes(4, "little")
        assert data[9:13] == (1).to_bytes(4, "little")
        assert data[13:17] == (0).to_bytes(4, "little")
        assert np.frombuffer(data[17:], dtype="<f4").tolist() == [1.0, 2.0, 3.0]


_NON_FINITE = [np.nan, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bad_value_reported_inside_its_pixel(data):
    """One bad value in one plane of a valid container, with each optional
    plane present or cut: the reader names a byte of that pixel in that plane."""
    draw = data.draw
    w, h = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    n = w * h
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.booleans())
    with_conf, with_mask = draw(st.booleans()) and not depth, draw(st.booleans())
    if depth:
        dm = random_depthmap(rng, w, h)
        container, mask, read = depthmap_to_bytes(dm), dm.mask, depthmap_from_bytes
        planes = {"depth": (17, 4), "mask": (17 + 4 * n, 1)}
    else:
        pm = random_pointmap(rng, w, h, with_mask=with_mask)
        container, mask, read = pointmap_to_bytes(pm), pm.mask, pointmap_from_bytes
        planes = {"points": (17, 12), "confidence": (17 + 12 * n, 4),
                  "mask": (17 + (16 if with_conf else 12) * n, 1)}
    masked_in = np.flatnonzero(mask).tolist()
    masked_out = np.flatnonzero(~mask).tolist()
    every = list(range(n))
    # corruption: (plane, pixels it may hit, float32 values that break the
    # plane's invariant there, or None for a mask byte over 1)
    corruptions = {"mask": ("mask", every if with_mask else [], None)}
    if depth:
        # Without a mask plane a zero depth reads as masked out, which is valid.
        corruptions["masked-in depth"] = ("depth", masked_in, [-1.5] + _NON_FINITE
                                          + ([0.0, -0.0] if with_mask else []))
        corruptions["masked-out depth"] = ("depth", masked_out if with_mask else [],
                                           [1.5, -1.5, 1e-40] + _NON_FINITE)
    else:
        corruptions["point"] = ("points", masked_in, _NON_FINITE)
        corruptions["confidence"] = ("confidence", every if with_conf else [],
                                     [0.0, -0.0, -1.5] + _NON_FINITE)
    usable = sorted(name for name, (_, pixels, _) in corruptions.items() if pixels)
    assume(usable)
    plane, pixels, values = corruptions[draw(st.sampled_from(usable))]
    k = draw(st.sampled_from(pixels))
    offset, size = planes[plane]
    start = offset + k * size
    buf = bytearray(cut_planes(container, with_conf, with_mask))
    if values is None:
        buf[start] = draw(st.integers(2, 255))
    else:
        at = start + 4 * draw(st.integers(0, size // 4 - 1))
        buf[at:at + 4] = np.float32(draw(st.sampled_from(values))).tobytes()
    with pytest.raises(FormatError) as exc:
        read(bytes(buf))
    assert start <= exc.value.offset < start + size


class TestDepthContainer:
    def test_round_trip(self, rng):
        dm = random_depthmap(rng)
        data = depthmap_to_bytes(dm)
        assert depthmap_to_bytes(depthmap_from_bytes(data)) == data

    def test_confidence_flag_rejected(self, rng):
        data = bytearray(depthmap_to_bytes(random_depthmap(rng)))
        data[13] |= 1
        with pytest.raises(FormatError) as exc:
            depthmap_from_bytes(bytes(data))
        assert exc.value.offset == 13

    def test_masked_out_nonzero_depth_rejected(self, rng):
        dm = random_depthmap(rng, width=4, height=3)
        masked_out = np.flatnonzero(~dm.mask.reshape(-1))
        data = bytearray(depthmap_to_bytes(dm))
        off = 17 + int(masked_out[0]) * 4
        data[off:off + 4] = np.float32(1.5).tobytes()
        with pytest.raises(FormatError) as exc:
            depthmap_from_bytes(bytes(data))
        assert exc.value.offset == off


def random_poses(rng, n=5):
    rot = np.stack([random_rotation(rng) for _ in range(n)])
    t = rng.normal(size=(n, 3))
    rec = rng.uniform(size=n) > 0.2
    for k in np.flatnonzero(~rec):
        rot[k] = np.eye(3)
        t[k] = 0
    return GlobalPoses(rot, t, rec)


IDENTITY = "1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0"  # a frame record's transform


class TestPosesDocument:
    @pytest.mark.parametrize("seed", range(10))
    def test_print_parse_exact(self, seed):
        rng = np.random.default_rng(seed)
        poses = random_poses(rng)
        ids = sorted(rng.choice(1000, size=poses.n_frames, replace=False).tolist())
        text = poses_to_text(poses, ids)
        back, back_ids = poses_from_text(text)
        assert back_ids == ids
        # shortest-round-trip decimals: bit-exact restore
        np.testing.assert_array_equal(back.rotations, poses.rotations)
        np.testing.assert_array_equal(back.translations, poses.translations)
        np.testing.assert_array_equal(back.recovered, poses.recovered)

    def test_write_read_write_stable(self, rng):
        poses = random_poses(rng)
        t1 = poses_to_text(poses)
        back, _ = poses_from_text(t1)
        assert poses_to_text(back) == t1

    def test_rejects_malformed(self):
        with pytest.raises(FormatError):
            poses_from_text("frames x\n")
        with pytest.raises(FormatError, match="^line 2: frame: expected 0 or 1, got '2'$"):
            poses_from_text(f"frames 1\nframe 0 2 {IDENTITY}\n")
        with pytest.raises(FormatError, match="^line 2: expected 14 frame fields, got 6$"):
            poses_from_text("frames 1\nframe 0 1 1 0 0 0\n")
        with pytest.raises(FormatError, match="^invalid poses document: frame id 0 is repeated$"):
            poses_from_text(f"frames 2\nframe 0 1 {IDENTITY}\nframe 0 1 {IDENTITY}\n")

    def test_rejects_negative_frame_id(self):
        with pytest.raises(FormatError, match="^invalid poses document: frame id -3 is negative$"):
            poses_from_text(f"# pmsfm poses v2\nframes 1\nframe -3 1 {IDENTITY}\n")

    @pytest.mark.parametrize("ids, message", [
        ([-3, 1], "frame id -3 is negative"),
        ([4, 4], "frame id 4 is repeated"),
        ([1.5, 2], "frame id 1.5 is not an integer"),
        ([True, 2], "frame id True is not an integer"),
        ([0, "1"], "frame id '1' is not an integer"),
    ], ids=["negative", "repeated", "float", "bool", "str"])
    def test_writer_refuses_what_the_reader_rejects(self, rng, ids, message):
        poses = random_poses(rng, 2)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            poses_to_text(poses, ids)
        if all(type(i) is int for i in ids):  # the reader rejects them in the same words
            text = poses_to_text(poses, [0, 1]).replace("frame 0 ", f"frame {ids[0]} ")
            with pytest.raises(FormatError, match=f"^invalid poses document: {re.escape(message)}$"):
                poses_from_text(text.replace("frame 1 ", f"frame {ids[1]} "))
        ids = [np.int64(7), np.uint8(3)]  # numpy integers write as plain ids
        assert poses_from_text(poses_to_text(poses, ids))[1] == [7, 3]

    def test_rejects_non_rotation(self):
        with pytest.raises(FormatError):
            poses_from_text("frames 1\nframe 0 1 2.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0 0 0 0\n")

    @pytest.mark.parametrize("x, t", [("1.5", "0.0"), ("-1.0", "0.0"), ("1.0", "nan")],
                             ids=["non-orthonormal", "det-minus-one", "nan-translation"])
    def test_rejects_bad_frame_by_position(self, rng, x, t):
        ids = [10, 20, 30, 40]
        lines = poses_to_text(random_poses(rng, 4), ids).splitlines()
        assert lines[4].startswith("frame 30 ")
        lines[4] = f"frame 30 1 {x} 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0 {t} 0.0 0.0"
        with pytest.raises(FormatError, match=r"^invalid poses document: frame 2: not finite or"
                                              r" off SO\(3\)"):
            poses_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("count, message", [
        ("-1", "frames: -1 is negative"),
        ("100000000000", "frames: 100000000000 is over the 1000000-frame cap"),
        ("1000000", "frames: 1000000 declared, 1 present"),
        ("2", "frames: 2 declared, 1 present"),
    ], ids=["negative", "over-cap", "cap-declared", "2-declared"])
    def test_rejects_bad_frame_count(self, count, message):
        text = poses_to_text(GlobalPoses(np.eye(3)[None], np.zeros((1, 3)), np.ones(1, bool)))
        with pytest.raises(FormatError, match=f"^invalid poses document: {re.escape(message)}$"):
            poses_from_text(text.replace("frames 1", f"frames {count}"))
        empty = text.replace("frames 1\n", "frames 0\n").split("frame 0")[0]
        assert poses_from_text(empty)[0].n_frames == 0

    def test_text_layout(self):
        poses = GlobalPoses(np.eye(3)[None], [[0.5, 0, -1]], [True])
        assert poses_to_text(poses, [4]) == ("# pmsfm poses v2\nframes 1\nframe 4 1 1.0 0.0 0.0"
                                             " 0.0 1.0 0.0 0.0 0.0 1.0 0.5 0.0 -1.0\n")

    def test_version_1_document_rejected_by_title(self):
        identity = "1.0 0.0 0.0 0.0\n0.0 1.0 0.0 0.0\n0.0 0.0 1.0 0.0\n0.0 0.0 0.0 1.0\n"
        with pytest.raises(FormatError, match="^line 1: expected the title '# pmsfm poses v2',"
                                              " got '# pmsfm poses v1'$"):
            poses_from_text(f"# pmsfm poses v1\nframes 1\nframe 0 recovered 1\n{identity}")

    @given(st.data())
    @settings(deadline=None)
    def test_round_trip_property(self, data):
        ids = data.draw(st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=8))
        n = len(ids)
        ids = [data.draw(st.sampled_from([int, np.int64, np.uint64]))(i) for i in ids]
        recovered = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        quaternions = data.draw(st.lists(st.lists(st.floats(-1, 1), min_size=4, max_size=4)
                                         .filter(lambda q: np.linalg.norm(q) > 0.1),
                                         min_size=n, max_size=n))
        translations = data.draw(st.lists(st.lists(st.floats(-1e300, 1e300), min_size=3,
                                                   max_size=3), min_size=n, max_size=n))
        rotations = Rotation.from_quat(quaternions).as_matrix() if n else np.zeros((0, 3, 3))
        poses = GlobalPoses(rotations, np.reshape(translations, (n, 3)), recovered)
        text = poses_to_text(poses, ids)
        back, back_ids = poses_from_text(text)
        assert back_ids == [int(i) for i in ids]
        np.testing.assert_array_equal(back.rotations, poses.rotations)
        np.testing.assert_array_equal(back.translations, poses.translations)
        np.testing.assert_array_equal(back.recovered, poses.recovered)
        assert poses_to_text(back, back_ids) == text


def _reference_graph_text(graph: PoseGraph) -> str:
    """The graph document written one `Edge` at a time, each number by repr."""
    lines = ["# pmsfm pose graph v1", f"frames {graph.n_frames}"]
    for e in graph.edges:
        numbers = [*e.rotation.reshape(-1).tolist(), *e.translation.tolist(), e.weight, e.quality]
        lines.append(f"edge {e.i} {e.j} " + " ".join(repr(float(x)) for x in numbers))
    return "\n".join(lines) + "\n"


_GOOD = "1 0 0 0 1 0 0 0 1 1 0 0"  # an edge transform, then one off SO(3)
_OFF_SO3 = "1 0 0 0 1 0 0 0 1.5 1 0 0"


class TestGraphDocument:
    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_stacked_codec_matches_edge_by_edge_property(self, data):
        """Random graphs write the bytes of a per-edge repr writer, read
        back bit for bit, and their `edges` rebuild every array."""
        n = data.draw(st.integers(2, 12))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                   .filter(lambda p: p[0] != p[1]), unique=True, max_size=24))
        m = len(pairs)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rotation = np.array([random_rotation(rng) for _ in range(m)]).reshape(-1, 3, 3)
        finite = st.floats(-1e300, 1e300)
        translation = data.draw(st.lists(st.tuples(finite, finite, finite),
                                         min_size=m, max_size=m))
        # from subnormals to 1e308, so the weights span over 600 orders of magnitude
        weight = data.draw(st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                                    min_size=m, max_size=m))
        quality = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
        rescued = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        g = PoseGraph.from_arrays(n, [p[0] for p in pairs], [p[1] for p in pairs], rotation,
                                  np.reshape(translation, (m, 3)), weight, quality, rescued)
        text = graph_to_text(g)
        assert text == _reference_graph_text(g)
        back = graph_from_text(text)
        rebuilt = PoseGraph(n, g.edges)
        assert back.n_frames == rebuilt.n_frames == n
        for name in ("i", "j", "weight", "rotation", "translation", "quality", "rescued",
                     "covered"):
            assert_same_bits(getattr(rebuilt.edge_arrays, name), getattr(g.edge_arrays, name))
            if name != "rescued":  # the document holds no rescue flags
                assert_same_bits(getattr(back.edge_arrays, name), getattr(g.edge_arrays, name))
        assert not back.edge_arrays.rescued.any()
        assert back.edge_arrays.components == rebuilt.edge_arrays.components == \
            g.edge_arrays.components

    @pytest.mark.parametrize("edges, message", [
        ([f"0 1 {_OFF_SO3} 1 1", f"1 2 {_GOOD} 0 1", f"3 3 {_GOOD} 1 1"],
         "edge (1,2): weight must be finite and positive, got 0.0"),
        ([f"2 2 {_GOOD} -1 1", f"1 2 {_GOOD} nan 1"], "edge (2,2): self-loop"),
        ([f"0 1 {_OFF_SO3} 1 1", f"1 4 {_GOOD} 1 1", f"0 1 {_GOOD} 1 1"],
         "edge (1,4) outside 0..3"),
        ([f"0 1 {_GOOD} 1 1", f"0 1 {_GOOD} 1 1", f"-1 2 {_GOOD} 1 1"],
         "duplicate edge (0,1)"),
        ([f"0 5 {_GOOD} 1 1", f"0 5 {_GOOD} 1 1"], "edge (0,5) outside 0..3"),
        ([f"0 1 {_GOOD} 1 1", f"1 -100000000000000000000 {_GOOD} 1 1"],
         "edge (1,-100000000000000000000) outside 0..3"),
    ], ids=["so3-weight-self-loop", "self-loop-before-weight", "range-before-later-repeat",
            "repeat-before-later-range", "range-before-repeat", "frame-beyond-int64"])
    def test_fault_precedence(self, edges, message):
        """The fault named among several is the one `PoseGraph` documents:
        self-loop or weight, then range or repeat, then the transform."""
        text = "# pmsfm pose graph v1\nframes 4\n" + "".join(f"edge {e}\n" for e in edges)
        with pytest.raises(FormatError, match=f"^invalid pose graph: {re.escape(message)}$"):
            graph_from_text(text)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_exact(self, seed):
        rng = np.random.default_rng(seed)
        edges = []
        for k in range(6):
            i, j = sorted(rng.choice(8, size=2, replace=False).tolist())
            if any(e.i == i and e.j == j for e in edges):
                continue
            edges.append(Edge(i, j, random_rotation(rng), rng.normal(size=3),
                              float(rng.uniform(0.1, 1.0)), float(rng.uniform(0, 1))))
        g = PoseGraph(8, tuple(edges))
        back = graph_from_text(graph_to_text(g))
        assert back.n_frames == 8
        for e1, e2 in zip(g.edges, back.edges):
            assert (e1.i, e1.j) == (e2.i, e2.j)
            np.testing.assert_array_equal(e1.rotation, e2.rotation)
            np.testing.assert_array_equal(e1.translation, e2.translation)
            assert e1.weight == e2.weight and e1.quality == e2.quality

    def test_rejects_malformed(self):
        with pytest.raises(FormatError, match="^line 2: expected 16 edge fields, got 5$"):
            graph_from_text("frames 2\nedge 0 1 1 2 3\n")

    @pytest.mark.parametrize("text, message", [
        ("edge 0 1 1 0 0 0 1 0 0 0 1 0 0 1 1 1\n", "missing key 'frames'"),
        ("frames 2\nframes 2\n", "line 2: repeated key 'frames'"),
        ("frames 2\nedge 0 x 1 0 0 0 1 0 0 0 1 0 0 1 1 1\n", "line 2: edge: invalid literal"),
        ("frames 2\nedge 1 1 1 0 0 0 1 0 0 0 1 0 0 1 1 1\n",
         "invalid pose graph: edge (1,1): self-loop"),
    ], ids=["no-frames", "repeated-frames", "bad-field", "self-loop"])
    def test_rejects_by_locator(self, text, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            graph_from_text(text)

    @pytest.mark.parametrize("lines, message", [
        ([f"edge 0 1 {_GOOD} 1_0 1", "frames 4"], "line 3: edge: '1_0' is not a decimal number"),
        ([f"edge 0 1 {_GOOD} 1 x", "edge 0 1"],
         "line 3: edge: could not convert string to float: 'x'"),
        ([f"edge 0 1 {_GOOD} 1 +1", f"edge 0 x {_GOOD} 1 1"],
         "line 3: edge: '+1' is not a decimal number"),
        ([f"edge 0 1.5 {_GOOD} nan 1"], "line 3: edge: '1.5' is not a decimal number"),
        ([f"edge 0 1.5 {_GOOD} 1 1"],
         "line 3: edge: invalid literal for int() with base 10: '1.5'"),
    ], ids=["bad-word-before-repeated-key", "bad-word-before-field-count",
            "first-of-two-bad-lines", "int-word-outside-grammar", "int-word-unreadable"])
    def test_first_bad_line_named(self, lines, message):
        """The error names the first bad line, ahead of any fault on a
        later line."""
        text = "# pmsfm pose graph v1\nframes 4\n" + "".join(f"{line}\n" for line in lines)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            graph_from_text(text)

    def test_text_layout(self):
        g = PoseGraph(3, (Edge(0, 2, np.eye(3), [0.5, 0, -1], 0.25, 0.75),))
        assert graph_to_text(g) == ("# pmsfm pose graph v1\nframes 3\n"
                                    "edge 0 2 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0"
                                    " 0.5 0.0 -1.0 0.25 0.75\n")

    @pytest.mark.parametrize("rotation, translation", [
        ("1 0 0 0 1 0 0 0 1.001", "0 0 1"),
        ("1 0 0 0 1 0 0 0 -1", "0 0 1"),
        ("1 0 0 0 1 0 0 0 1", "0 inf 1"),
        ("1 0 0 0 nan 0 0 0 1", "0 0 1"),
    ], ids=["non-orthonormal", "det-minus-one", "inf-translation", "nan-rotation"])
    def test_rejects_bad_edge_transform_by_name(self, rotation, translation):
        good = "1 0 0 0 1 0 0 0 1 1 0 0 1 1"
        text = (f"# pmsfm pose graph v1\nframes 4\nedge 0 1 {good}\n"
                f"edge 1 2 {rotation} {translation} 1 1\nedge 2 3 {good}\n")
        with pytest.raises(FormatError, match=r"pose graph: edge \(1,2\): not finite or off SO"):
            graph_from_text(text)

    def test_rejects_negative_frame_count(self):
        with pytest.raises(FormatError, match="^invalid pose graph: frames: -1 is negative$"):
            graph_from_text("# pmsfm pose graph v1\nframes -1\n")

    def test_frame_count_capped(self):
        edge = "edge 0 1 1 0 0 0 1 0 0 0 1 0 0 1 1 1\n"
        with pytest.raises(FormatError, match="^invalid pose graph: frames: 100000000000 is"
                                              " over the 1000000-frame cap$"):
            graph_from_text(f"# pmsfm pose graph v1\nframes 100000000000\n{edge}")
        g = graph_from_text(f"# pmsfm pose graph v1\nframes {MAX_FRAMES}\n{edge}")
        assert g.n_frames == MAX_FRAMES == 1_000_000

    @pytest.mark.parametrize("weight", ["inf", "-inf", "nan", "0", "-1"])
    def test_rejects_non_finite_or_non_positive_weight(self, weight):
        good = "edge 0 1 1 0 0 0 1 0 0 0 1 0 0 1 1 1"
        text = f"# pmsfm pose graph v1\nframes 3\n{good}\nedge 1 2 1 0 0 0 1 0 0 0 1 1 0 0 {weight} 1\n"
        assert len(graph_from_text(text.replace(f" {weight} 1\n", " 1 1\n")).edges) == 2
        with pytest.raises(FormatError, match=r"^invalid pose graph: edge \(1,2\): weight must"
                                              " be finite"):
            graph_from_text(text)


class TestReportDocument:
    def test_round_trip(self):
        r = SequenceReport(1.5, 0.01, 95.0, 80.0, 90.0, 20, 0.1, True, 0.25)
        back = report_from_text(report_to_text(r))
        assert back == r

    def test_nan_fields_survive(self):
        r = SequenceReport(float("nan"), float("nan"), 0.0, 0.0, 0.0, 3,
                           float("nan"), True, float("nan"))
        text = report_to_text(r)
        back = report_from_text(text)
        assert np.isnan([back.rot_error_deg, back.trans_error, back.trans_rmse,
                        back.rot_only_deg]).all()
        assert (back.det_rate_pct, back.n_frames, back.partial) == (0.0, 3, True)
        assert report_to_text(back) == text

    def test_rejects_non_flag_and_repeated_key(self):
        text = report_to_text(SequenceReport(1.5, 0.01, 95.0, 80.0, 90.0, 20, 0.1, True, 0.25))
        with pytest.raises(FormatError, match="expected 0 or 1"):
            report_from_text(text.replace("partial 1", "partial 7"))
        with pytest.raises(FormatError, match="repeated key 'n_frames'"):
            report_from_text(text + "n_frames 21\n")

    def test_missing_field(self):
        with pytest.raises(FormatError):
            report_from_text("n_frames 3\n")
        v2 = report_to_text(SequenceReport(1.5, 0.01, 95.0, 80.0, 90.0, 20, 0.1, True, 0.25))
        with pytest.raises(FormatError, match="missing key 'rot_only_deg'"):
            report_from_text(v2.replace("rot_only_deg 0.25\n", ""))
        v1 = v2.replace("report v2", "report v1").replace("rot_only_deg 0.25\n", "")
        with pytest.raises(FormatError, match="^line 1: expected the title"):
            report_from_text(v1)


_REPORT = report_to_text(SequenceReport(float("inf"), -float("inf"), 95.0, 80.0, 90.0, 20,
                                        float("nan"), True, 0.5))
_GRAPH = "frames 3\nedge 0 1 1 0 0 0 1 0 0 0 1 0 0 1 1.5 1\n"


@pytest.mark.parametrize("read, text, old, new, where", [
    (report_from_text, _REPORT, "n_frames 20", "n_frames 2_0", "line 7: n_frames: '2_0'"),
    (report_from_text, _REPORT, "n_frames 20", "n_frames \u0662\u0660",
     "line 7: n_frames: '\u0662\u0660'"),
    (report_from_text, _REPORT, "det_rate_pct 95.0", "det_rate_pct 9_5.0",
     "line 4: det_rate_pct: '9_5.0'"),
    (report_from_text, _REPORT, "det_rate_pct 95.0", "det_rate_pct \u0669\u0665",
     "line 4: det_rate_pct: '\u0669\u0665'"),
    (graph_from_text, _GRAPH, "frames 3", "frames 0_3", "line 1: frames: '0_3'"),
    (graph_from_text, _GRAPH, " 1.5 1\n", " 1_0.5 1\n", "line 2: edge: '1_0.5'"),
    (graph_from_text, _GRAPH, " 1.5 1\n", " \uff11.5 1\n", "line 2: edge: '\uff11.5'"),
    (report_from_text, _REPORT, "n_frames 20", "n_frames +20", "line 7: n_frames: '+20'"),
    (report_from_text, _REPORT, "det_rate_pct 95.0", "det_rate_pct +95.0",
     "line 4: det_rate_pct: '+95.0'"),
    (report_from_text, _REPORT, "rot_error_deg inf", "rot_error_deg Infinity",
     "line 2: rot_error_deg: 'Infinity'"),
    (report_from_text, _REPORT, "rot_error_deg inf", "rot_error_deg +inf",
     "line 2: rot_error_deg: '+inf'"),
    (report_from_text, _REPORT, "trans_error -inf", "trans_error -INF",
     "line 3: trans_error: '-INF'"),
    (report_from_text, _REPORT, "trans_rmse nan", "trans_rmse -NaN", "line 8: trans_rmse: '-NaN'"),
    (report_from_text, _REPORT, "trans_rmse nan", "trans_rmse -nan", "line 8: trans_rmse: '-nan'"),
    (graph_from_text, _GRAPH, "edge 0 1", "edge +0 1", "line 2: edge: '+0'"),
    (graph_from_text, _GRAPH, " 1.5 1\n", " +1.5 1\n", "line 2: edge: '+1.5'"),
    (graph_from_text, _GRAPH, " 1.5 1\n", " NaN 1\n", "line 2: edge: 'NaN'"),
], ids=["report-int-underscore", "report-int-arabic-indic", "report-float-underscore",
        "report-float-arabic-indic", "graph-int-underscore", "graph-float-underscore",
        "graph-float-fullwidth", "report-int-plus", "report-float-plus", "report-infinity",
        "report-plus-inf", "report-upper-inf", "report-minus-nan-mixed-case",
        "report-minus-nan", "graph-int-plus", "graph-float-plus", "graph-nan-mixed-case"])
def test_number_words_outside_the_grammar_rejected(read, text, old, new, where):
    read(text)  # inf, -inf and nan read
    with pytest.raises(FormatError, match=f"^{re.escape(where)} is not a decimal number$"):
        read(text.replace(old, new))


@pytest.mark.parametrize("old, new, value", [
    ("rot_error_deg inf", "rot_error_deg 1e+16", 1e16),
    ("rot_error_deg inf", "rot_error_deg 1E-3", 1e-3),
    ("n_frames 20", "n_frames 007", 7),
], ids=["float-exponent-plus", "float-upper-exponent", "int-leading-zeros"])
def test_number_words_inside_the_grammar_read(old, new, value):
    # repr writes a '+' inside an exponent; only a leading '+' is refused.
    report = report_from_text(_REPORT.replace(old, new))
    assert getattr(report, old.split()[0]) == value


class TestFuzzRoundTrips:
    @pytest.mark.parametrize("seed", range(50))
    def test_binary_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        w, h = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        pm = random_pointmap(rng, w, h)
        flags = (bool(rng.integers(2)), bool(rng.integers(2)))
        data = cut_planes(pointmap_to_bytes(pm), *flags)
        assert cut_planes(pointmap_to_bytes(pointmap_from_bytes(data)), *flags) == data
        dm = random_depthmap(rng, w, h)
        ddata = depthmap_to_bytes(dm)
        assert depthmap_to_bytes(depthmap_from_bytes(ddata)) == ddata

    @pytest.mark.parametrize("seed", range(20))
    def test_pose_fuzz(self, seed):
        rng = np.random.default_rng(100 + seed)
        poses = random_poses(rng, n=int(rng.integers(1, 12)))
        text = poses_to_text(poses)
        back, _ = poses_from_text(text)
        assert np.max(np.abs(back.rotations - poses.rotations)) <= 1e-15
        assert np.max(np.abs(back.translations - poses.translations)) <= 1e-15


_POSES = poses_to_text(GlobalPoses(np.eye(3)[None], [[0.5, 0, -1]], [True]))


@pytest.mark.parametrize("read, text, title", [
    (report_from_text, _REPORT, "# pmsfm sequence report v1"),
    (poses_from_text, _POSES, "# pmsfm pose graph v1"),
    (graph_from_text, "# pmsfm pose graph v1\n" + _GRAPH, "# pmsfm poses v2"),
], ids=["report", "poses", "graph"])
def test_document_titles_checked(read, text, title):
    """A document read under another document's or version's title is
    rejected at that line, even when it holds every key of its own; one
    with no title line, or with another comment first, reads."""
    own = text.splitlines()[0]
    body = text[len(own) + 1:]
    read(text)
    for untitled in (body, f"# notes\n{own}\n{body}", f"# pmsfm notes\n{body}"):
        read(untitled)
    with pytest.raises(FormatError, match=f"^line 1: expected the title '{re.escape(own)}', "
                                          f"got '{re.escape(title)}'$"):
        read(f"{title}\n{body}")
    with pytest.raises(FormatError, match=f"^line 3: expected the title '{re.escape(own)}'"):
        read(f"\n  \n{title}\n{body}")


def test_format_doc_matches_repo_file():
    from pathlib import Path
    formats_md = Path(__file__).resolve().parent.parent / "FORMATS.md"
    assert formats_md.read_text(encoding="utf-8") == FORMAT_DOC
