import math
import warnings

import numpy as np
import pytest

from pmsfm.errors import ShapeMismatchError, ValidationError
from pmsfm.geometry import (
    CameraIntrinsics,
    DepthMap,
    Pointmap,
    PointmapRows,
    RigidTransform,
    axis_angle_matrix,
    change_frame,
    check_rigid,
    compose,
    geodesic_deg,
    inverse,
    pointmap_from_depth,
    random_rotation,
    so3_project,
)
from pmsfm.relative_pose import _reproj_errors

from conftest import assert_same_bits, random_rigid


def random_depth(rng, width=8, height=6):
    depth = rng.uniform(0.5, 3.0, size=(height, width))
    mask = rng.uniform(size=(height, width)) > 0.2
    depth[~mask] = 0.0
    return DepthMap(width=width, height=height, depth=depth, mask=mask)


def scalar_pointmap_oracle(depth: DepthMap, k: CameraIntrinsics) -> np.ndarray:
    """Per-pixel reference: explicit 3x3 inverse times the homogeneous
    pixel vector, one pixel at a time."""
    k_inv = np.linalg.inv(k.matrix())
    out = np.zeros((depth.height, depth.width, 3))
    for j in range(depth.height):
        for i in range(depth.width):
            d = depth.depth[j, i]
            out[j, i] = k_inv @ np.array([i * d, j * d, d])
    return out


class TestPointmapFromDepth:
    def test_identity_intrinsics(self):
        # f=1, c=0 -> X_{i,j} = (i, j, 1)
        depth = DepthMap(4, 3, np.ones((3, 4)), np.ones((3, 4), dtype=bool))
        pm = pointmap_from_depth(depth, CameraIntrinsics(1.0, 0.0, 0.0))
        for j in range(3):
            for i in range(4):
                assert pm.points[j, i] == pytest.approx([i, j, 1.0], abs=0)

    def test_principal_ray(self):
        # the pixel at the principal point maps to (0, 0, d)
        k = CameraIntrinsics(500.0, 2.0, 1.0)
        d = np.full((3, 4), 1.7)
        pm = pointmap_from_depth(DepthMap(4, 3, d, np.ones((3, 4), bool)), k)
        np.testing.assert_allclose(pm.points[1, 2], [0.0, 0.0, 1.7], atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = CameraIntrinsics(float(rng.uniform(200, 800)),
                             float(rng.uniform(2, 6)), float(rng.uniform(1, 5)))
        depth = random_depth(rng)
        pm = pointmap_from_depth(depth, k)
        expected = scalar_pointmap_oracle(depth, k)
        assert np.max(np.abs(pm.points - expected)) <= 1e-12
        np.testing.assert_array_equal(pm.mask, depth.mask)
        assert np.all(pm.confidence == 1.0)

    def test_eq1_round_trip(self, rng):
        k = CameraIntrinsics(350.0, 64.0, 48.0)
        depth = random_depth(rng, 16, 12)
        pm = pointmap_from_depth(depth, k)
        for j, i in zip(*np.nonzero(pm.mask)):
            x, y, z = pm.points[j, i]
            px = [k.f * x / z + k.c_x, k.f * y / z + k.c_y]
            assert px == pytest.approx([i, j], abs=1e-9)
            assert z == depth.depth[j, i]


def identity_pose_error(point, pixel, k: CameraIntrinsics) -> float:
    """Distance from a camera-frame point's projection to `pixel`, as the
    pose kernels measure it under the identity pose."""
    points = np.asarray(point, dtype=np.float64).reshape(3, 1)
    pixels = np.asarray(pixel, dtype=np.float64).reshape(2, 1)
    return float(_reproj_errors(points, pixels, k, np.eye(3), np.zeros(3))[0])


class TestProject:
    def test_principal_axis(self):
        k = CameraIntrinsics(100.0, 32.0, 24.0)
        assert identity_pose_error([0.0, 0.0, 2.5], [32.0, 24.0], k) == 0.0

    def test_behind_camera(self):
        k = CameraIntrinsics(100.0, 0.0, 0.0)
        assert identity_pose_error([0.0, 0.0, -1.0], [0.0, 0.0], k) == math.inf

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = CameraIntrinsics(float(rng.uniform(100, 900)), 11.0, 7.0)
        p = rng.normal(size=3)
        p[2] = abs(p[2]) + 0.1
        homo = k.matrix() @ p
        px = homo[:2] / homo[2]
        assert identity_pose_error(p, px, k) <= 1e-12 * np.linalg.norm(px)


class TestChangeFrame:
    def make_pm(self, rng, n=10):
        pts = rng.normal(size=(1, n, 3))
        return Pointmap(n, 1, pts, np.ones((1, n)), np.ones((1, n), bool))

    def test_same_pose_is_exact_identity(self, rng):
        pm = self.make_pm(rng)
        pose = random_rigid(rng)
        out = change_frame(pm, pose, pose)
        np.testing.assert_array_equal(out.points, pm.points)

    def test_pure_translation(self, rng):
        pm = self.make_pm(rng)
        t0 = np.array([1.0, -2.0, 3.0])
        out = change_frame(pm, RigidTransform(np.eye(3), np.zeros(3)),
                           RigidTransform(np.eye(3), t0))
        np.testing.assert_allclose(out.points, pm.points + t0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_rotation_translation_product_oracle(self, seed):
        """x -> R_d R_s^T (x - t_s) + t_d, one point at a time."""
        rng = np.random.default_rng(seed)
        pm = self.make_pm(rng)
        src, dst = random_rigid(rng), random_rigid(rng)
        out = change_frame(pm, src, dst)
        rot = dst.rotation @ src.rotation.T
        trans = dst.translation - rot @ src.translation
        for idx in range(pm.width):
            np.testing.assert_allclose(out.points[0, idx], rot @ pm.points[0, idx] + trans,
                                       atol=1e-10)

    def test_composition_property(self, rng):
        pm = self.make_pm(rng)
        p1, p2, p3 = (random_rigid(rng) for _ in range(3))
        a = change_frame(change_frame(pm, p1, p2), p2, p3)
        b = change_frame(pm, p1, p3)
        assert np.max(np.abs(a.points - b.points)) <= 1e-10


class TestComposeInverse:
    def test_inverse_round_trip(self, rng):
        a = random_rigid(rng)
        ident = compose(a, inverse(a))
        assert np.max(np.abs(ident.rotation - np.eye(3))) <= 1e-12
        assert np.max(np.abs(ident.translation)) <= 1e-12

    def test_identity_neutral(self, rng):
        b = random_rigid(rng)
        out = compose(RigidTransform(np.eye(3), np.zeros(3)), b)
        np.testing.assert_allclose(out.rotation, b.rotation, atol=1e-15)
        np.testing.assert_allclose(out.translation, b.translation, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_rigid(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.max(np.abs(left.rotation - right.rotation)) <= 1e-12
        assert np.max(np.abs(left.translation - right.translation)) <= 1e-12
        # direct product oracle: R = R_a R_b R_c, t = R_a (R_b t_c + t_b) + t_a
        rot = a.rotation @ b.rotation @ c.rotation
        trans = a.rotation @ (b.rotation @ c.translation + b.translation) + a.translation
        assert np.max(np.abs(left.rotation - rot)) <= 1e-12
        assert np.max(np.abs(left.translation - trans)) <= 1e-12


class TestGeodesic:
    def test_zero_for_equal(self, rng):
        r = random_rotation(rng)
        assert geodesic_deg(r, r) == 0.0

    def test_axis_angle_construction(self, rng):
        r = random_rotation(rng)
        rz = axis_angle_matrix([0.0, 0.0, 1.0], math.radians(30.0))
        assert geodesic_deg(r, r @ rz) == pytest.approx(30.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_log_map_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ra, rb = random_rotation(rng), random_rotation(rng)
        rel = ra.T @ rb
        # axis-angle oracle: angle from the skew part, quadrant from trace
        w = np.array([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0],
                      rel[1, 0] - rel[0, 1]]) / 2.0
        angle = np.degrees(np.arctan2(np.linalg.norm(w), (np.trace(rel) - 1.0) / 2.0))
        assert geodesic_deg(ra, rb) == pytest.approx(angle, abs=1e-9)

    def test_symmetry_and_bi_invariance(self, rng):
        ra, rb, q = (random_rotation(rng) for _ in range(3))
        d = geodesic_deg(ra, rb)
        assert geodesic_deg(rb, ra) == pytest.approx(d, abs=1e-9)
        assert geodesic_deg(q @ ra, q @ rb) == pytest.approx(d, abs=1e-9)
        assert geodesic_deg(ra @ q, rb @ q) == pytest.approx(d, abs=1e-9)

    def test_clamping_at_pi(self):
        r = np.diag([1.0, -1.0, -1.0])  # 180 degrees about x
        assert geodesic_deg(np.eye(3), r) == pytest.approx(180.0)


class TestRigidTransformInvariants:
    def test_rejects_non_rotation(self):
        with pytest.raises(ValidationError):
            RigidTransform(np.eye(3) * 1.5, np.zeros(3))

    def test_renormalization_idempotent(self, rng):
        a = random_rigid(rng)
        b = RigidTransform.from_matrix_parts(a.rotation, a.translation)
        assert np.max(np.abs(a.rotation - b.rotation)) <= 1e-12
        assert np.max(np.abs(a.translation - b.translation)) <= 1e-12

    def test_from_matrix_parts_projects(self, rng):
        r = random_rotation(rng) + rng.normal(scale=1e-4, size=(3, 3))
        rt = RigidTransform.from_matrix_parts(r, np.zeros(3))
        assert np.max(np.abs(rt.rotation.T @ rt.rotation - np.eye(3))) <= 1e-12

    def test_so3_project_is_nearest(self, rng):
        # Procrustes optimality: the projection beats random rotations
        m = rng.normal(size=(3, 3))
        r = so3_project(m)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        for _ in range(20):
            other = random_rotation(rng)
            assert np.linalg.norm(m - r) <= np.linalg.norm(m - other) + 1e-12


def reference_so3_project(m):
    """One 3x3 matrix at a time: SVD, the sign of det(U V'), and a flip
    of U's last column on a copy."""
    u, _, vt = np.linalg.svd(m)
    if np.sign(np.linalg.det(u @ vt)) < 0:
        u = u.copy()
        u[:, -1] *= -1.0
    return u @ vt


class TestStackedSo3:
    def test_projection_bit_equal_to_matrix_loop(self, rng):
        m = rng.normal(size=(5, 4, 3, 3))
        m[0, 0] = np.diag([1.0, 1.0, -1.0])          # an exact reflection
        m[1, 2] = -random_rotation(rng)                 # a reflected rotation
        dets = np.linalg.det(m)
        assert (dets < 0).sum() >= 5 and (dets > 0).sum() >= 5
        got = so3_project(m)
        ref = np.stack([reference_so3_project(x) for x in m.reshape(-1, 3, 3)])
        assert_same_bits(got, ref.reshape(m.shape))
        assert np.all(np.linalg.det(got) > 0)
        for x, r in zip(m.reshape(-1, 3, 3), ref):
            assert_same_bits(so3_project(x), r)
        # a transposed view projects like its contiguous copy
        assert_same_bits(so3_project(m.swapaxes(-1, -2)),
                         so3_project(np.ascontiguousarray(m.swapaxes(-1, -2))))

    def test_projection_of_empty_stack(self):
        assert so3_project(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("bad, reason", [
        (lambda r, t: r.__setitem__((0, 0), 1.5), r"\|\|R'R - I\|\| = [1-9]"),
        (lambda r, t: r.__setitem__(slice(None), -r), r"\|\|R'R - I\|\| = .*e-1.*"
                                                      r"\|det R - 1\| = 2.000e\+00"),
        (lambda r, t: t.__setitem__(1, np.nan), r"t = \[.*nan"),
        (lambda r, t: r.__setitem__((2, 1), np.inf), r"\|\|R'R - I\|\| = (nan|inf)"),
    ], ids=["non-orthonormal", "reflection", "nan-translation", "inf-rotation"])
    def test_check_names_first_bad_transform(self, rng, bad, reason):
        rot = np.stack([random_rotation(rng) for _ in range(6)])
        trans = rng.normal(size=(6, 3))
        check_rigid(rot, trans, lambda k: f"item {k}")
        bad(rot[3], trans[3])
        bad(rot[5], trans[5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^item 3: not finite or off SO\(3\) .*"
                                                      + reason):
                check_rigid(rot, trans, lambda k: f"item {k}")
        with pytest.raises(ValidationError, match="^transform: .*" + reason):
            RigidTransform(rot[3], trans[3])


class TestTypeValidation:
    def test_pointmap_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Pointmap(3, 2, np.zeros((2, 4, 3)), np.ones((2, 3)), np.ones((2, 3), bool))

    def test_pointmap_nonpositive_confidence(self):
        with pytest.raises(ValidationError):
            Pointmap(2, 2, np.zeros((2, 2, 3)), np.zeros((2, 2)), np.ones((2, 2), bool))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_pointmap_confidence_rejected_at_any_pixel(self, value):
        conf = np.ones((2, 3))
        conf[1, 2] = value
        with pytest.raises(ValidationError, match="confidence"):
            Pointmap(3, 2, np.zeros((2, 3, 3)), conf, np.ones((2, 3), bool))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_pointmap_non_finite_point_only_where_masked_in(self, value):
        pts = np.zeros((2, 3, 3))
        pts[0, 1, 2] = value
        mask = np.ones((2, 3), bool)
        mask[0, 1] = False
        pm = Pointmap(3, 2, pts, np.ones((2, 3)), mask)
        assert pm.points[0, 1, 2] != 0.0
        pts[1, 2, 0] = value  # a later, masked-in pixel
        with pytest.raises(ValidationError, match="valid points must be finite"):
            Pointmap(3, 2, pts, np.ones((2, 3)), mask)

    @pytest.mark.parametrize("array, value", [("points", np.nan), ("points", -np.inf),
                                              ("confidence", 0.0), ("confidence", np.inf)])
    def test_pointmap_rows_checks_name_the_pixel(self, array, value):
        # Rows of the valid pixels 1, 4 and 5 of a 3 x 2 map; row 1 is pixel 4.
        rows = {"points": np.zeros((3, 3)), "confidence": np.ones(3)}
        rows[array][1] = value
        with pytest.raises(ValidationError, match="at pixel 4$") as exc:
            PointmapRows(3, 2, np.array([1, 4, 5]), **rows)
        assert (exc.value.array, exc.value.pixel) == (array, 4)

    @pytest.mark.parametrize("index", [[1, 1, 5], [4, 1, 5], [-1, 1, 5], [1, 4, 6]])
    def test_pointmap_rows_index_ascends_inside_the_grid(self, index):
        with pytest.raises(ValidationError, match="^index: "):
            PointmapRows(3, 2, np.array(index), np.zeros((3, 3)), np.ones(3))

    def test_pointmap_rows_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            PointmapRows(3, 2, np.array([1, 4]), np.zeros((3, 3)), np.ones(3))
        with pytest.raises(ShapeMismatchError):
            PointmapRows(3, 2, np.array([[1, 4, 5]]), np.zeros((3, 3)), np.ones(3))

    def test_depthmap_rejects_negative(self):
        d = np.array([[1.0, -0.5]])
        with pytest.raises(ValidationError):
            DepthMap(2, 1, d, np.ones((1, 2), bool))

    def test_depthmap_invalid_pixels_zero(self):
        d = np.array([[1.0, 0.5]])
        with pytest.raises(ValidationError):
            DepthMap(2, 1, d, np.array([[True, False]]))

    def test_caller_arrays_stay_writeable_and_unshared(self, rng):
        pts, conf, mask = np.zeros((2, 3, 3)), np.ones((2, 3)), np.ones((2, 3), bool)
        depth, dmask = np.ones((2, 3)), np.ones((2, 3), bool)
        r, t = random_rotation(rng), np.zeros(3)
        pm = Pointmap(3, 2, pts, conf, mask)
        dm = DepthMap(3, 2, depth, dmask)
        rt = RigidTransform(r, t)
        kept = [a.copy() for a in (pm.points, pm.confidence, pm.mask, dm.depth, dm.mask,
                                   rt.rotation, rt.translation)]
        for a in (pts, conf, depth, r, t):
            a.reshape(-1)[0] = 7.0
        mask[0, 0] = dmask[0, 0] = False
        for a, before in zip((pm.points, pm.confidence, pm.mask, dm.depth, dm.mask,
                              rt.rotation, rt.translation), kept):
            assert_same_bits(a, before)
            assert not a.flags.writeable

    def test_immutable_arrays(self, rng):
        pm = Pointmap(2, 2, np.zeros((2, 2, 3)), np.ones((2, 2)),
                      np.ones((2, 2), bool))
        with pytest.raises(ValueError):
            pm.points[0, 0, 0] = 1.0
