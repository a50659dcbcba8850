"""Smooth mirrored supercell geometry: closed B-splines, rasters, connectivity.

A sub-cell boundary is a closed uniform cubic B-spline through 16 control
points: four polar control points in the first quadrant (fixed angles, radii
from the design point) mirrored across both axes.  Four such sub-cells tile a
square supercell of twice the cell size, centered on the quadrant centers, so
shapes at the maximum radius (half the cell size) touch but never overlap.

Rasters are boolean occupancy grids filled by even-odd scanline with the
pixel-center rule; connectivity is one 4-connected foreground component and
one 8-connected background component (no holes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import ndimage

from .space import DesignPoint

__all__ = [
    "GeometryError",
    "SUBCELL_ANGLES",
    "ControlPolygon",
    "bspline_closed",
    "subcell_shape",
    "supercell_polygons",
    "check_simple",
    "rasterize",
    "check_single_connected",
    "SupercellRaster",
    "tpv_layout",
    "scf_layout",
    "subcell_rasters",
]

MIN_RADIUS_NM = 40.0
DEFAULT_RESOLUTION = 256
DEFAULT_CURVE_SAMPLES = 256

# first-quadrant polar control angles; mirroring yields all (2j+1)*pi/16
SUBCELL_ANGLES = (math.pi / 16, 3 * math.pi / 16, 5 * math.pi / 16, 7 * math.pi / 16)


class GeometryError(ValueError):
    """Invalid geometry: bad control radii or a self-intersecting boundary."""


@dataclass(frozen=True)
class ControlPolygon:
    """Four control radii (nm) for one sub-cell in a cell of the given size."""

    radii: tuple[float, float, float, float]
    cell: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if len(self.radii) != 4:
            raise GeometryError(f"need exactly 4 radii, got {len(self.radii)}")
        if self.cell <= 0:
            raise GeometryError(f"cell size must be positive, got {self.cell}")
        hi = self.cell / 2.0
        tol = 1e-9 * self.cell
        for r in self.radii:
            if not (MIN_RADIUS_NM - tol <= r <= hi + tol):
                raise GeometryError(f"radius {r} outside [{MIN_RADIUS_NM}, {hi}]")


def bspline_closed(points: Sequence[Sequence[float]], samples: int) -> np.ndarray:
    """Closed periodic uniform cubic B-spline through the control points.

    Returns `samples` curve points covering one full period, start point not
    repeated.  The curve is C2 and lies in the convex hull of the controls.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 4 or pts.shape[1] != 2:
        raise GeometryError("need at least 4 two-dimensional control points")
    if samples < 1:
        raise GeometryError("need at least 1 sample")
    m = pts.shape[0]
    s = np.arange(samples) * (m / samples)
    seg = np.floor(s).astype(int)
    t = s - seg
    t2, t3 = t * t, t * t * t
    b0 = (1.0 - 3.0 * t + 3.0 * t2 - t3) / 6.0
    b1 = (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0
    b2 = (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0
    b3 = t3 / 6.0
    p0 = pts[(seg - 1) % m]
    p1 = pts[seg % m]
    p2 = pts[(seg + 1) % m]
    p3 = pts[(seg + 2) % m]
    return (
        b0[:, None] * p0 + b1[:, None] * p1 + b2[:, None] * p2 + b3[:, None] * p3
    )


def _mirrored_controls(cp: ControlPolygon) -> np.ndarray:
    """All 16 control points, counterclockwise from angle pi/16.

    Quadrant I radii (r0..r3), then their y-mirror in reversed order, then the
    point-mirrored and x-mirrored copies; the sequence is invariant (up to
    index reversal) under both axis mirrors.
    """
    r = np.asarray(cp.radii)
    radii16 = np.concatenate([r, r[::-1], r, r[::-1]])
    ang16 = (2.0 * np.arange(16) + 1.0) * math.pi / 16.0
    return np.column_stack([radii16 * np.cos(ang16), radii16 * np.sin(ang16)])


def subcell_shape(cp: ControlPolygon, samples: int = DEFAULT_CURVE_SAMPLES) -> np.ndarray:
    """Closed boundary of one sub-cell, centered on the origin.

    Sample count should be a multiple of 16 so the curve vertices map onto
    each other exactly under the mirror symmetries.
    """
    return bspline_closed(_mirrored_controls(cp), samples)


# sub-cell block order: bottom-left, bottom-right, top-left, top-right
_SUBCELL_CENTER_FACTORS = ((0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5))


def supercell_polygons(
    cell: float, radii: Sequence[float], samples: int = DEFAULT_CURVE_SAMPLES
) -> list[np.ndarray]:
    """Boundaries of the four sub-cells in supercell coordinates [0, 2*cell]^2.

    `radii` holds four blocks of four control radii, one block per sub-cell
    in the block order bottom-left, bottom-right, top-left, top-right.
    """
    radii = [float(r) for r in radii]
    if len(radii) != 16:
        raise GeometryError(f"need 16 radii (4 sub-cells x 4), got {len(radii)}")
    polys = []
    for q, (fx, fy) in enumerate(_SUBCELL_CENTER_FACTORS):
        cp = ControlPolygon(tuple(radii[4 * q : 4 * q + 4]), cell)
        poly = subcell_shape(cp, samples)
        polys.append(poly + np.array([fx * cell, fy * cell]))
    return polys


def check_simple(poly: np.ndarray) -> bool:
    """True iff the closed polyline has no properly crossing edge pair."""
    a = np.asarray(poly, dtype=float)
    n = a.shape[0]
    b = np.roll(a, -1, axis=0)
    ex, ey = (b[:, 0] - a[:, 0])[:, None], (b[:, 1] - a[:, 1])[:, None]
    ax, ay = a[:, 0][:, None], a[:, 1][:, None]
    # orientation of each edge end point (column) relative to each edge (row)
    start = ex * (a[:, 1] - ay) - ey * (a[:, 0] - ax)
    end = ex * (b[:, 1] - ay) - ey * (b[:, 0] - ax)
    # edge j straddles edge i's line, and edge i straddles edge j's line
    straddle = start * end < 0
    crossing = np.triu(straddle & straddle.T, k=2)
    if n > 2:
        crossing[0, n - 1] = False  # first and last edge are adjacent
    return not bool(np.any(crossing))


def rasterize(
    polys: Sequence[np.ndarray] | np.ndarray,
    extent: float,
    resolution: int = DEFAULT_RESOLUTION,
    origin: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Even-odd scanline fill of closed polylines onto a square pixel grid.

    Grid covers [origin, origin + extent]^2; entry [row, col] is the pixel
    whose center is origin + ((col + 0.5) h, (row + 0.5) h) with
    h = extent / resolution.  A pixel is set iff its center is inside an odd
    number of boundary crossings.  Self-intersecting input is rejected.
    """
    if isinstance(polys, np.ndarray) and polys.ndim == 2:
        polys = [polys]
    if resolution < 1 or extent <= 0:
        raise GeometryError("resolution must be >= 1 and extent positive")
    for poly in polys:
        if not check_simple(poly):
            raise GeometryError("self-intersecting boundary cannot be fabricated")
    h = extent / resolution
    ox, oy = origin
    centers = ox + (np.arange(resolution) + 0.5) * h
    rows_y = oy + (np.arange(resolution) + 0.5) * h
    x1s, y1s, x2s, y2s = [], [], [], []
    for poly in polys:
        p = np.asarray(poly, dtype=float)
        q = np.roll(p, -1, axis=0)
        x1s.append(p[:, 0]); y1s.append(p[:, 1])
        x2s.append(q[:, 0]); y2s.append(q[:, 1])
    x1 = np.concatenate(x1s); y1 = np.concatenate(y1s)
    x2 = np.concatenate(x2s); y2 = np.concatenate(y2s)
    # half-open vertical rule: an edge spans scanline y iff y1 <= y < y2 or y2 <= y < y1
    rows, edges = np.nonzero((y1 <= rows_y[:, None]) != (y2 <= rows_y[:, None]))
    y = rows_y[rows]
    t = (y - y1[edges]) / (y2[edges] - y1[edges])
    xs = x1[edges] + t * (x2[edges] - x1[edges])
    # a crossing counts for every pixel center at or right of it: tally each at
    # the first such column, and a running sum along the row counts them all
    cols = np.searchsorted(centers, xs, side="left")
    toggles = np.bincount(rows * (resolution + 1) + cols, minlength=resolution * (resolution + 1))
    counts = np.cumsum(toggles.reshape(resolution, resolution + 1), axis=1)
    return (counts[:, :resolution] % 2).astype(bool)


_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT = np.ones((3, 3), dtype=bool)


def check_single_connected(grid: np.ndarray) -> bool:
    """One 4-connected occupied component and no holes (8-connected background)."""
    g = np.asarray(grid, dtype=bool)
    if not g.any():
        return False
    _, n_fg = ndimage.label(g, structure=_FOUR)
    if n_fg != 1:
        return False
    bg = np.pad(~g, 1, constant_values=True)
    _, n_bg = ndimage.label(bg, structure=_EIGHT)
    return n_bg == 1


@dataclass(frozen=True)
class SupercellRaster:
    grid: np.ndarray
    cell_nm: float
    extent_nm: float
    resolution: int
    point: DesignPoint
    meta: dict = field(default_factory=dict)


def _layout(point: DesignPoint, radii_offset: int, resolution: int) -> tuple:
    cell = float(point[0])
    radii = [float(v) for v in point.values[radii_offset : radii_offset + 16]]
    polys = supercell_polygons(cell, radii)
    grid = rasterize(polys, extent=2.0 * cell, resolution=resolution)
    return cell, grid


def tpv_layout(point: DesignPoint, resolution: int = DEFAULT_RESOLUTION) -> SupercellRaster:
    """Supercell raster of a 19-parameter point: cell x0, radii x3..x18."""
    cell, grid = _layout(point, 3, resolution)
    meta = {"x1_nm": float(point[1]), "x2_nm": float(point[2])}
    return SupercellRaster(grid, cell, 2.0 * cell, resolution, point, meta)


def scf_layout(point: DesignPoint, resolution: int = DEFAULT_RESOLUTION) -> SupercellRaster:
    """Supercell raster of an 18-parameter point: cell x0, height x1, radii x2..x17."""
    cell, grid = _layout(point, 2, resolution)
    meta = {"pillar_height_nm": float(point[1]), "film": "SiN3", "film_nm": 70.0}
    return SupercellRaster(grid, cell, 2.0 * cell, resolution, point, meta)


def subcell_rasters(
    cell: float, radii: Sequence[float], resolution: int = DEFAULT_RESOLUTION
) -> list[np.ndarray]:
    """Each sub-cell rasterized alone onto the shared supercell grid."""
    polys = supercell_polygons(cell, radii)
    return [rasterize(p, extent=2.0 * cell, resolution=resolution) for p in polys]
