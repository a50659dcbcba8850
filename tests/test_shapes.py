"""Spline supercell geometry: curves, symmetry, rasters, connectivity."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from idkit.problems import get_space
from idkit.shapes import (
    ControlPolygon,
    GeometryError,
    bspline_closed,
    check_simple,
    check_single_connected,
    rasterize,
    scf_layout,
    subcell_rasters,
    subcell_shape,
    supercell_polygons,
    tpv_layout,
)


def knot_shrink_factor(m):
    # the knot point is (P_prev + 4 P + P_next)/6, so controls on a circle
    # give knots at radius (4 + 2 cos(2 pi / m)) / 6 times the control radius
    return (4.0 + 2.0 * math.cos(2.0 * math.pi / m)) / 6.0


def ring(n, r, phase=0.0):
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


class TestBspline:
    def test_needs_four_controls(self):
        with pytest.raises(GeometryError):
            bspline_closed(ring(3, 1.0), 16)

    def test_circle_controls_knot_radius(self):
        # at integer parameters the curve passes through (P_prev + 4P + P_next)/6
        m, r = 8, 100.0
        pts = bspline_closed(ring(m, r), samples=m)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        want = r * knot_shrink_factor(m)
        assert np.max(np.abs(radii - want)) <= 1e-9

    def test_shrink_factor_formula(self):
        assert knot_shrink_factor(16) == pytest.approx(
            (4.0 + 2.0 * math.cos(math.pi / 8.0)) / 6.0, abs=1e-15
        )

    def test_scaling_controls_scales_curve(self):
        ctrl = ring(8, 1.0, phase=0.3) + np.array([0.2, -0.1])
        a = bspline_closed(ctrl, 64)
        b = bspline_closed(1.7 * ctrl, 64)
        assert np.max(np.abs(b - 1.7 * a)) <= 1e-12 * np.max(np.abs(a))

    def test_curve_inside_convex_hull(self):
        rng = np.random.default_rng(0)
        ctrl = rng.random((7, 2)) * 10.0
        curve = bspline_closed(ctrl, 200)
        hull = ConvexHull(ctrl)
        # hull face equations: a.x + b.y + c <= 0 inside
        vals = curve @ hull.equations[:, :2].T + hull.equations[:, 2]
        assert np.max(vals) <= 1e-9

    def test_c2_continuity_at_knots(self):
        # second difference of a dense sampling stays smooth across segments
        ctrl = ring(8, 5.0, phase=0.1)
        dense = bspline_closed(ctrl, 800)
        dd = np.diff(dense, n=2, axis=0)
        assert np.max(np.abs(np.diff(dd, axis=0))) <= 1e-3


class TestSubcell:
    def test_equal_radii_nearly_circular(self):
        cp = ControlPolygon((120.0,) * 4, cell=400.0)
        pts = subcell_shape(cp, samples=640)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert (radii.max() - radii.min()) <= 0.01 * 120.0

    def test_mirror_symmetric_vertex_sets(self):
        cp = ControlPolygon((60.0, 110.0, 85.0, 140.0), cell=400.0)
        pts = subcell_shape(cp, samples=256)
        for mirrored in (pts * np.array([-1.0, 1.0]), pts * np.array([1.0, -1.0])):
            d = np.abs(mirrored[:, None, :] - pts[None, :, :]).max(axis=2).min(axis=1)
            assert np.max(d) <= 1e-12 * 400.0

    def test_star_shaped_about_origin(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            radii = tuple(40.0 + 160.0 * rng.random(4))
            pts = subcell_shape(ControlPolygon(radii, cell=400.0), samples=512)
            ang = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
            steps = np.diff(ang)
            assert np.all(steps > 0)
            assert ang[-1] - ang[0] < 2.0 * np.pi

    def test_stays_inside_the_cell(self):
        pts = subcell_shape(ControlPolygon((40.0,) * 4, cell=500.0))
        assert np.max(np.abs(pts)) < 250.0
        pts = subcell_shape(ControlPolygon((250.0,) * 4, cell=500.0))
        assert np.max(np.abs(pts)) <= 250.0

    def test_scale_equivariance(self):
        base = (60.0, 110.0, 85.0, 140.0)
        a = subcell_shape(ControlPolygon(base, cell=400.0))
        s = 1.375
        b = subcell_shape(ControlPolygon(tuple(s * r for r in base), cell=s * 400.0))
        assert np.max(np.abs(b - s * a)) <= 1e-12 * 400.0

    def test_radius_bounds_enforced(self):
        with pytest.raises(GeometryError):
            ControlPolygon((39.0, 100.0, 100.0, 100.0), cell=400.0)
        with pytest.raises(GeometryError):
            ControlPolygon((201.0, 100.0, 100.0, 100.0), cell=400.0)


class TestRasterize:
    def test_full_square_sets_every_pixel(self):
        e = 100.0
        square = np.array([[0.0, 0.0], [e, 0.0], [e, e], [0.0, e]])
        grid = rasterize(square, extent=e, resolution=64)
        assert grid.all()

    def test_disc_area_within_two_percent(self):
        e, r = 256.0, 80.0
        disc = ring(720, r) + e / 2.0
        grid = rasterize(disc, extent=e, resolution=256)
        h = e / 256
        assert abs(grid.sum() * h * h - math.pi * r * r) <= 0.02 * math.pi * r * r

    def test_mirroring_commutes_with_rasterization(self):
        rng = np.random.default_rng(2)
        radii = tuple(40.0 + 160.0 * rng.random(4))
        pts = subcell_shape(ControlPolygon(radii, cell=400.0), samples=256)
        e = 400.0
        shifted = pts + e / 2.0
        mirrored = np.column_stack([e - shifted[:, 0], shifted[:, 1]])
        a = rasterize(shifted, extent=e, resolution=128)
        b = rasterize(mirrored, extent=e, resolution=128)
        assert np.array_equal(np.fliplr(a), b)

    def test_self_intersection_rejected(self):
        bowtie = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
        assert not check_simple(bowtie)
        with pytest.raises(GeometryError, match="self-intersect"):
            rasterize(bowtie, extent=2.0, resolution=32)

    def test_simple_polygon_accepted(self):
        assert check_simple(ring(64, 1.0))

    def test_deterministic(self):
        disc = ring(100, 30.0) + 50.0
        a = rasterize(disc, extent=100.0, resolution=128)
        b = rasterize(disc, extent=100.0, resolution=128)
        assert np.array_equal(a, b)


class TestConnectivity:
    def test_single_disc_connected(self):
        grid = rasterize(ring(200, 30.0) + 50.0, extent=100.0, resolution=128)
        assert check_single_connected(grid)

    def test_two_discs_not_connected(self):
        a = ring(200, 10.0) + np.array([25.0, 25.0])
        b = ring(200, 10.0) + np.array([75.0, 75.0])
        grid = rasterize([a, b], extent=100.0, resolution=128)
        assert not check_single_connected(grid)

    def test_hole_breaks_connectivity(self):
        outer = ring(200, 40.0) + 50.0
        inner = ring(200, 15.0) + 50.0
        grid = rasterize([outer, inner], extent=100.0, resolution=128)
        assert not check_single_connected(grid)

    def test_empty_grid_is_not_connected(self):
        assert not check_single_connected(np.zeros((16, 16), dtype=bool))


class TestLayouts:
    def tpv_point(self, u=0.5):
        space = get_space("tpv")
        return space.denormalize(np.full(space.dim, u))

    def test_tpv_raster_properties(self):
        raster = tpv_layout(self.tpv_point())
        assert raster.grid.shape == (256, 256)
        assert raster.extent_nm == 2.0 * raster.cell_nm
        assert raster.meta["x1_nm"] == pytest.approx(80.0)
        assert raster.grid.any()

    def test_scf_raster_metadata(self):
        space = get_space("scf")
        raster = scf_layout(space.denormalize(np.full(space.dim, 0.5)))
        assert raster.meta["film_nm"] == 70.0
        assert raster.grid.shape == (256, 256)

    def test_each_subcell_connected(self):
        rng = np.random.default_rng(3)
        space = get_space("tpv")
        for _ in range(10):
            pt = space.sample_uniform(rng)
            for sub in subcell_rasters(float(pt[0]), [float(v) for v in pt.values[3:]]):
                assert check_single_connected(sub)

    def test_tangent_subcells_never_overlap(self):
        cell = 400.0
        subs = subcell_rasters(cell, [cell / 2.0] * 16, resolution=256)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.any(subs[i] & subs[j])

    def test_supercell_covers_four_quadrants(self):
        raster = tpv_layout(self.tpv_point())
        g = raster.grid
        h = g.shape[0] // 2
        for quad in (g[:h, :h], g[:h, h:], g[h:, :h], g[h:, h:]):
            assert quad.any()

    def test_swapping_identical_blocks_is_a_flip(self):
        # with left/right blocks swapped the raster mirrors horizontally
        rng = np.random.default_rng(4)
        cell = 420.0
        blocks = [list(40.0 + (cell / 2 - 40.0) * rng.random(4)) for _ in range(4)]
        a = rasterize(supercell_polygons(cell, sum(blocks, [])), extent=2 * cell)
        swapped = blocks[1] + blocks[0] + blocks[3] + blocks[2]
        b = rasterize(supercell_polygons(cell, swapped), extent=2 * cell)
        assert np.array_equal(np.fliplr(a), b)

    def test_sixteen_radii_required(self):
        with pytest.raises(GeometryError, match="16 radii"):
            supercell_polygons(400.0, [100.0] * 15)
