import re

import numpy as np
import pytest

from pmsfm.errors import FormatError
from pmsfm.geometry import DepthMap, Pointmap, random_rotation
from pmsfm.io_formats import (
    FORMAT_DOC,
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
        data = pointmap_to_bytes(pm, with_confidence=False, with_mask=False)
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
        data = pointmap_to_bytes(pm, with_confidence=False, with_mask=False)
        assert data[:5] == b"PMAP1"
        assert data[5:9] == (1).to_bytes(4, "little")
        assert data[9:13] == (1).to_bytes(4, "little")
        assert data[13:17] == (0).to_bytes(4, "little")
        assert np.frombuffer(data[17:], dtype="<f4").tolist() == [1.0, 2.0, 3.0]


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
        with pytest.raises(FormatError):
            poses_from_text("frames 1\nframe 0 recovered 2\n")
        with pytest.raises(FormatError):
            poses_from_text("frames 1\nframe 0 recovered 1\n1 0 0 0\n")
        identity = "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        with pytest.raises(FormatError, match="line 7: repeated frame 0"):
            poses_from_text("frames 2\nframe 0 recovered 1\n" + identity
                            + "frame 0 recovered 1\n" + identity)

    def test_rejects_non_rotation(self):
        text = ("frames 1\nframe 0 recovered 1\n"
                "2.0 0.0 0.0 0.0\n0.0 1.0 0.0 0.0\n0.0 0.0 1.0 0.0\n0.0 0.0 0.0 1.0\n")
        with pytest.raises(FormatError):
            poses_from_text(text)

    @pytest.mark.parametrize("x, t", [("1.5", "0.0"), ("-1.0", "0.0"), ("1.0", "nan")],
                             ids=["non-orthonormal", "det-minus-one", "nan-translation"])
    def test_rejects_bad_frame_by_position(self, rng, x, t):
        ids = [10, 20, 30, 40]
        lines = poses_to_text(random_poses(rng, 4), ids).splitlines()
        assert lines[12].startswith("frame 30 recovered ")
        lines[13:16] = [f"{x} 0.0 0.0 {t}", "0.0 1.0 0.0 0.0", "0.0 0.0 1.0 0.0"]
        with pytest.raises(FormatError, match=r"document: frame 2: not finite or off SO\(3\)"):
            poses_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("value", ["1.000009", "1.0000101", "1e-12", "-1e-12", "2e-12",
                                       "nan", "inf"])
    def test_last_row_accepted_as_allclose_does(self, rng, position, value):
        row = [0.0, 0.0, 0.0, 1.0]
        row[position] = float(value)
        lines = poses_to_text(random_poses(rng, 3)).splitlines()
        assert lines[12].startswith("frame 2 recovered ")
        lines[11] = " ".join(str(x) for x in row)
        text = "\n".join(lines) + "\n"
        if np.allclose(row, [0, 0, 0, 1], atol=1e-12):
            poses_from_text(text)
        else:
            with pytest.raises(FormatError,
                               match="^line 12: last matrix row must be 0 0 0 1$"):
                poses_from_text(text)

    @pytest.mark.parametrize("count, message", [
        ("-1", "line 2: expected 'frames <count>' with a non-negative count"),
        ("100000000000", "line 2: 100000000000 frames declared, 1 present"),
        ("2", "line 2: 2 frames declared, 1 present"),
    ])
    def test_rejects_bad_frame_count(self, count, message):
        text = poses_to_text(GlobalPoses(np.eye(3)[None], np.zeros((1, 3)), np.ones(1, bool)))
        with pytest.raises(FormatError, match=re.escape(message)):
            poses_from_text(text.replace("frames 1", f"frames {count}"))
        empty = text.replace("frames 1\n", "frames 0\n").split("frame 0")[0]
        assert poses_from_text(empty)[0].n_frames == 0


class TestGraphDocument:
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
        with pytest.raises(FormatError):
            graph_from_text("frames 2\nedge 0 1 1 2 3\n")

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
        with pytest.raises(FormatError, match="line 2: expected 'frames <count>' with a"):
            graph_from_text("# pmsfm pose graph v1\nframes -1\n")

    @pytest.mark.parametrize("weight", ["inf", "-inf", "nan", "0", "-1"])
    def test_rejects_non_finite_or_non_positive_weight(self, weight):
        good = "edge 0 1 1 0 0 0 1 0 0 0 1 0 0 1 1 1"
        text = f"# pmsfm pose graph v1\nframes 3\n{good}\nedge 1 2 1 0 0 0 1 0 0 0 1 1 0 0 {weight} 1\n"
        assert len(graph_from_text(text.replace(f" {weight} 1\n", " 1 1\n")).edges) == 2
        with pytest.raises(FormatError, match="line 4: invalid edge: edge weight must be finite"):
            graph_from_text(text)


class TestReportDocument:
    def test_round_trip(self):
        r = SequenceReport(1.5, 0.01, 95.0, 80.0, 90.0, 20, 0.1, True)
        back = report_from_text(report_to_text(r))
        assert back == r

    def test_nan_fields_survive(self):
        r = SequenceReport(float("nan"), float("nan"), 0.0, 0.0, 0.0, 3,
                           float("nan"), True)
        text = report_to_text(r)
        back = report_from_text(text)
        assert np.isnan([back.rot_error_deg, back.trans_error, back.trans_rmse]).all()
        assert (back.det_rate_pct, back.n_frames, back.partial) == (0.0, 3, True)
        assert report_to_text(back) == text

    def test_rejects_non_flag_and_repeated_key(self):
        text = report_to_text(SequenceReport(1.5, 0.01, 95.0, 80.0, 90.0, 20, 0.1, True))
        with pytest.raises(FormatError, match="expected 0 or 1"):
            report_from_text(text.replace("partial 1", "partial 7"))
        with pytest.raises(FormatError, match="repeated key 'n_frames'"):
            report_from_text(text + "n_frames 21\n")

    def test_missing_field(self):
        with pytest.raises(FormatError):
            report_from_text("n_frames 3\n")


class TestFuzzRoundTrips:
    @pytest.mark.parametrize("seed", range(50))
    def test_binary_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        w, h = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        pm = random_pointmap(rng, w, h)
        flags = (bool(rng.integers(2)), bool(rng.integers(2)))
        data = pointmap_to_bytes(pm, with_confidence=flags[0], with_mask=flags[1])
        assert pointmap_to_bytes(pointmap_from_bytes(data), *flags) == data
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


def test_format_doc_matches_repo_file():
    from pathlib import Path
    formats_md = Path(__file__).resolve().parent.parent / "FORMATS.md"
    assert formats_md.read_text(encoding="utf-8") == FORMAT_DOC
