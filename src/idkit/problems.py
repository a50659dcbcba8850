"""Built-in inverse-design problems: their spaces and simulators.

Three benchmark problems are bundled:

``motf``
    Multilayer optical thin film on a silver substrate.  Ten layers, each a
    categorical material choice plus a continuous thickness in micrometres.
    The response is the thermal-emissivity spectrum on a fixed 2001-point
    wavelength grid.

``tpv``
    Thermophotovoltaic metasurface: a square supercell of four mirrored
    spline-bounded holes in a film.  The first three parameters set cell
    size, film thickness, and a height parameter; the rest are per-lobe
    radii conditional on the cell size.  Response length 500.

``scf``
    Structural-color filter: same four-hole geometry family on a thin
    nitride film, response is an (x, y, Y) color triple.

The TPV and SCF responses come from deterministic geometry-derived feature
simulators; they are stand-ins with the exact input/output contract of the
expensive solvers they replace, and are cheap enough for CI.
"""

from __future__ import annotations

import numpy as np

from .space import (
    Categorical,
    ConditionalContinuous,
    Continuous,
    DesignPoint,
    DesignSpace,
    ParamSpec,
    SpaceError,
)

__all__ = [
    "MATERIALS",
    "motf_space",
    "tpv_space",
    "scf_space",
    "get_space",
    "PROBLEM_NAMES",
]

# Candidate layer materials, declared order is the canonical categorical order.
MATERIALS = ("ZnO", "AlN", "Al2O3", "MgF2", "SiO2", "TiO2", "SiC")

PROBLEM_NAMES = ("motf", "tpv", "scf")


def motf_space() -> DesignSpace:
    """Ten-layer film stack: material choice and thickness (um) per layer.

    Layer 1 is outermost (air side), layer 10 sits on the substrate.  The
    one-hot feature length is 7*10 + 10 = 80.
    """
    params: list[ParamSpec] = []
    for i in range(1, 11):
        params.append(ParamSpec(f"mat{i}", Categorical(MATERIALS)))
    for i in range(1, 11):
        params.append(ParamSpec(f"d{i}", Continuous(0.0, 1.0)))
    return DesignSpace("motf", params, response_dim=2001)


def tpv_space() -> DesignSpace:
    """Four-hole spline metasurface for thermophotovoltaic emitters.

    x0 cell size (nm), x1 film thickness (nm), x2 pillar height (nm), then
    sixteen lobe radii (nm) bounded above by half the cell size so tangent
    sub-cells can touch but never overlap.
    """
    params = [
        ParamSpec("x0", Continuous(350.0, 500.0)),
        ParamSpec("x1", Continuous(30.0, 130.0)),
        ParamSpec("x2", Continuous(10.0, 80.0)),
    ]
    for i in range(3, 19):
        params.append(ParamSpec(f"x{i}", ConditionalContinuous(40.0, "x0", 0.5)))
    return DesignSpace("tpv", params, response_dim=500)


def scf_space() -> DesignSpace:
    """Structural-color variant of the four-hole geometry on a 70 nm film.

    x0 cell size 150..350 nm, x1 a free height parameter (nm), then sixteen
    conditional lobe radii (nm) with the same half-cell ceiling.
    """
    params = [
        ParamSpec("x0", Continuous(150.0, 350.0)),
        ParamSpec("x1", Continuous(100.0, 500.0)),
    ]
    for i in range(2, 18):
        params.append(ParamSpec(f"x{i}", ConditionalContinuous(40.0, "x0", 0.5)))
    return DesignSpace("scf", params, response_dim=3)


_SPACES = {"motf": motf_space, "tpv": tpv_space, "scf": scf_space}


def get_space(problem: str) -> DesignSpace:
    try:
        return _SPACES[problem]()
    except KeyError:
        raise SpaceError(f"unknown problem {problem!r}; expected one of {PROBLEM_NAMES}") from None


# -- synthetic responses for tpv / scf ----------------------------------------
#
# Both responses are smooth deterministic functions of the geometry, built
# from the first sub-cell's area and first few radial Fourier moments.  The
# map is nonlinear and mirror-symmetric inputs give identical outputs, but
# only the first sub-cell's four radii enter it: the other twelve (tpv x7-x18,
# scf x6-x17) leave the response bit-identical.


def _geometry_features(point: DesignPoint, problem: str) -> np.ndarray:
    from .shapes import supercell_polygons

    if problem == "tpv":
        cell, extra = float(point[0]), (float(point[1]), float(point[2]))
        radii = [float(v) for v in point.values[3:]]
    else:
        cell, extra = float(point[0]), (float(point[1]), 70.0)
        radii = [float(v) for v in point.values[2:]]
    polys = supercell_polygons(cell, radii)
    # area + low-order boundary moments of the first sub-cell polygon
    poly = polys[0]
    x, y = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    cross = x * y1 - x1 * y
    area = 0.5 * abs(float(np.sum(cross)))
    r = np.hypot(x - np.mean(x), y - np.mean(y))
    feats = [
        area / cell**2,
        float(np.mean(r)) / cell,
        float(np.std(r)) / cell,
        extra[0] / 500.0,
        extra[1] / 500.0,
        cell / 500.0,
    ]
    ang = np.arctan2(y - np.mean(y), x - np.mean(x))
    for m in (4, 8):
        feats.append(float(np.mean(r * np.cos(m * ang))) / cell)
    return np.asarray(feats)


def synthetic_response(point: DesignPoint, problem: str) -> np.ndarray:
    """Deterministic smooth response for tpv (500,) or scf (3,)."""
    if problem not in ("tpv", "scf"):
        raise SpaceError(f"no synthetic response for problem {problem!r}")
    f = _geometry_features(point, problem)
    if problem == "tpv":
        lam = np.linspace(0.0, 1.0, 500)
        y = np.zeros(500)
        for j, fj in enumerate(f):
            y += np.exp(-0.5 * ((lam - (0.1 + 0.12 * j)) / 0.08) ** 2) * np.sin(
                3.0 * fj + 1.7 * j
            )
        y = 0.5 + 0.5 * np.tanh(y)
        return y
    if problem == "scf":
        h = np.tanh(f @ np.arange(1.0, len(f) + 1.0) / len(f))
        x = 0.3 + 0.2 * np.sin(4.0 * f[0] + 2.0 * f[1] + h)
        yc = 0.3 + 0.2 * np.cos(3.0 * f[2] + 5.0 * f[5] + h)
        yy = 0.5 + 0.4 * np.sin(2.0 * f[3] + 2.0 * f[4] + x * yc)
        return np.asarray([x, yc, abs(yy)])
    raise SpaceError(f"no synthetic response for problem {problem!r}")
