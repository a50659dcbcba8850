"""Scalar 2x2 transfer-matrix reference for motf emissivity.

One wavelength at a time, with Python complex numbers: each layer's
characteristic matrix [[cos d, i sin d / N], [i N sin d, cos d]] is
multiplied in from the air side down, then [B, C] = M [1, N_s],
r = (B - C) / (B + C), T = 4 Re(N_s) / |B + C|^2 and emissivity = 1 - R - T.
It shares only the material tables and the wavelength grid with idkit, never
its solver, so it stays a valid oracle when the solver is rewritten.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from idkit.tmm import SUBSTRATE_MATERIAL, default_grid, load_material


def _index(name: str, lam_um: float) -> complex:
    table = load_material(name)
    n = float(np.interp(lam_um, table.wavelength_um, table.n))
    k = float(np.interp(lam_um, table.wavelength_um, table.k))
    return complex(n, -k)


def emissivity(values, lam_um: float) -> float:
    """Emissivity of a motf point (10 materials then 10 thicknesses in um) at one wavelength."""
    m00, m01, m10, m11 = 1 + 0j, 0j, 0j, 1 + 0j
    for mat, d_um in zip(values[:10], values[10:]):
        n = _index(mat, lam_um)
        delta = 2.0 * math.pi * n * float(d_um) / lam_um
        c, s = cmath.cos(delta), cmath.sin(delta)
        a01, a10 = 1j * s / n, 1j * n * s
        m00, m01, m10, m11 = (
            m00 * c + m01 * a10,
            m00 * a01 + m01 * c,
            m10 * c + m11 * a10,
            m10 * a01 + m11 * c,
        )
    n_sub = _index(SUBSTRATE_MATERIAL, lam_um)
    b = m00 + m01 * n_sub
    c = m10 + m11 * n_sub
    r = (b - c) / (b + c)
    t = 4.0 * n_sub.real / abs(b + c) ** 2
    return 1.0 - abs(r) ** 2 - t


def max_error(values, response, indices) -> float:
    """Largest |response[i] - reference| over the given wavelength-grid indices."""
    grid = default_grid()
    return max(abs(float(response[i]) - emissivity(values, float(grid[i]))) for i in indices)
