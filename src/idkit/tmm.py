"""Normal-incidence transfer-matrix solver for dispersive multilayer stacks.

Conventions:

* complex index N = n - i*k with k >= 0 for passive media, matching the
  engineering time convention exp(+i*omega*t);
* phase thickness delta = 2*pi*N*d/lambda, characteristic matrix
  [[cos d, i sin d / N], [i N sin d, cos d]] per layer;
* the ambient is air; layers are listed from the air side to the substrate;
* reflectance R = |r|^2 with r = (B - C)/(B + C) where
  [B, C]^T = (M_1 ... M_L) [1, N_s]^T, transmittance
  T = 4*Re(N_s)/|B + C|^2, emissivity = 1 - R - T.

One kernel, ``_spectrum``, runs this recurrence for ``stack_spectrum`` and
``motf_forward`` alike, with one complex exponential per layer: cos delta and
i sin delta are (e^{i delta} +- e^{-i delta})/2, e^{-i delta} being the
reciprocal of e^{i delta} (Byrnes, arXiv:1603.02720).

Wavelengths are micrometres throughout; ``LayerStack`` thicknesses are
nanometres and film-stack point thicknesses micrometres.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .problems import MATERIALS
from .space import DesignPoint, SpaceError

__all__ = [
    "ExtrapolationWarning",
    "TmmError",
    "MaterialTable",
    "LayerStack",
    "SpectrumResult",
    "default_grid",
    "load_material",
    "refresh_tables",
    "stack_spectrum",
    "motf_forward",
    "SUBSTRATE_MATERIAL",
]

GRID_POINTS = 2001
GRID_MIN_UM = 0.3
GRID_MAX_UM = 20.0

SUBSTRATE_MATERIAL = "Ag"


class ExtrapolationWarning(UserWarning):
    """A wavelength fell outside a material table; the edge value was used."""


class TmmError(RuntimeError):
    """Numerical failure inside the solver (non-finite intermediate)."""


def default_grid() -> np.ndarray:
    """The fixed 2001-point uniform wavelength grid, 0.3 to 20 um, in um."""
    return np.linspace(GRID_MIN_UM, GRID_MAX_UM, GRID_POINTS)


@dataclass(frozen=True)
class MaterialTable:
    """Tabulated optical constants: strictly increasing wavelengths, k >= 0."""

    name: str
    wavelength_um: np.ndarray
    n: np.ndarray
    k: np.ndarray

    def __post_init__(self) -> None:
        wl = np.asarray(self.wavelength_um, dtype=float)
        n = np.asarray(self.n, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if wl.ndim != 1 or wl.size < 2 or n.shape != wl.shape or k.shape != wl.shape:
            raise ValueError(f"{self.name}: need >= 2 aligned (wavelength, n, k) samples")
        if not np.all(np.diff(wl) > 0):
            raise ValueError(f"{self.name}: wavelengths must be strictly increasing")
        if np.any(k < 0):
            raise ValueError(f"{self.name}: k must be >= 0 (passive medium)")
        if not (np.all(np.isfinite(wl)) and np.all(np.isfinite(n)) and np.all(np.isfinite(k))):
            raise ValueError(f"{self.name}: non-finite table entry")
        object.__setattr__(self, "wavelength_um", wl)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    @classmethod
    def _parse(cls, name: str, raw: bytes) -> "MaterialTable":
        rows = []
        source = f"{name}.nk"
        for number, line in enumerate(raw.decode("ascii").splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                toks = line[1:].split()
                if len(toks) >= 2 and toks[0] == "material":
                    name = toks[1]
                continue
            try:
                lam, n, k = map(float, line.split())
            except ValueError:
                raise ValueError(
                    f"{source} line {number}: expected 'lambda_um n k', got {line!r}"
                ) from None
            rows.append((lam, n, k))
        arr = np.asarray(rows, dtype=float).reshape(-1, 3)
        return cls(name, arr[:, 0], arr[:, 1], arr[:, 2])

    def interp(self, lam_um) -> np.ndarray:
        """Complex index N = n - i*k at lam_um; out-of-range values clamp and warn."""
        lam = np.asarray(lam_um, dtype=float)
        lo, hi = self.wavelength_um[0], self.wavelength_um[-1]
        if np.any(lam < lo) or np.any(lam > hi):
            warnings.warn(
                f"{self.name}: wavelength outside tabulated range [{lo}, {hi}] um, clamping",
                ExtrapolationWarning,
                stacklevel=2,
            )
            lam = np.clip(lam, lo, hi)
        n = np.interp(lam, self.wavelength_um, self.n)
        k = np.interp(lam, self.wavelength_um, self.k)
        return n - 1j * k

    @cached_property
    def _on_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, K = 2*pi*N/lam) on the default grid."""
        lam = default_grid()
        idx = self.interp(lam)
        return idx, 2.0 * np.pi * idx / lam


def _data_dir() -> str:
    env = os.environ.get("IDKIT_DATA_DIR")
    if env:
        return env
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "materials")


# every table read so far, keyed by (directory, name): the SHA-256 of the
# bytes it was parsed from, and the table parsed from them
_TABLES: dict[tuple[str, str], tuple[str, MaterialTable]] = {}


def load_material(name: str) -> MaterialTable:
    """Load a bundled table by name (IDKIT_DATA_DIR overrides the bundled set)."""
    key = (_data_dir(), name)
    entry = _TABLES.get(key)
    if entry is None:
        path = os.path.join(key[0], f"{name}.nk")
        if not os.path.exists(path):
            raise SpaceError(f"unknown material {name!r}: no table at {path}")
        with open(path, "rb") as fh:
            raw = fh.read()
        entry = _TABLES[key] = (hashlib.sha256(raw).hexdigest(), MaterialTable._parse(name, raw))
    return entry[1]


def refresh_tables() -> None:
    """Bring the tables cached from the data directory up to date with its files.

    A table whose file's SHA-256 changed is parsed again from the new bytes.
    One whose file is gone or no longer parses is dropped, so the next solve
    rereads the file and fails its point with the reason.
    """
    d = _data_dir()
    for key, (sha, _) in list(_TABLES.items()):
        if key[0] != d:
            continue
        try:
            with open(os.path.join(d, f"{key[1]}.nk"), "rb") as fh:
                raw = fh.read()
        except OSError:
            _TABLES.pop(key, None)
            continue
        new_sha = hashlib.sha256(raw).hexdigest()
        if new_sha != sha:
            try:
                _TABLES[key] = (new_sha, MaterialTable._parse(key[1], raw))
            except ValueError:
                _TABLES.pop(key, None)


LayerSpec = tuple[Union[MaterialTable, complex, float], float]


@dataclass(frozen=True)
class LayerStack:
    """Layers from the air side to the substrate; thicknesses in nm, >= 0.

    Each layer is (material, thickness_nm) where material is a MaterialTable
    or a constant (possibly complex, N = n - i*k) index.  The substrate is
    semi-infinite and given the same way.  Zero-thickness layers are inert.
    """

    layers: tuple[LayerSpec, ...]
    substrate: Union[MaterialTable, complex, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        for i, (_, d) in enumerate(self.layers):
            if not (math.isfinite(d) and d >= 0):
                raise ValueError(f"layer {i}: thickness must be finite and >= 0, got {d}")


@dataclass(frozen=True)
class SpectrumResult:
    wavelength_um: np.ndarray
    reflectance: np.ndarray
    transmittance: np.ndarray

    @property
    def emissivity(self) -> np.ndarray:
        return 1.0 - self.reflectance - self.transmittance


def _index_at(material, lam: np.ndarray) -> np.ndarray:
    if isinstance(material, MaterialTable):
        return material.interp(lam)
    return np.full(lam.shape, complex(material))


def _spectrum(lam: np.ndarray, n_sub: np.ndarray, layers: list) -> tuple:
    """(R, T) over lam; layers are (N, K = 2*pi*N/lam, d_um) from the air side.

    [B, C] = (M_1 ... M_L) [1, N_s] is accumulated bottom layer first.
    """
    b = np.ones(lam.shape, dtype=complex)
    c = n_sub.copy()
    for layer in range(len(layers) - 1, -1, -1):
        idx, k, d_um = layers[layer]
        if d_um == 0.0:
            continue
        e = np.exp(1j * d_um * k)
        inv = 1.0 / e
        cd = 0.5 * (e + inv)
        isd = 0.5 * (e - inv)
        b, c = cd * b + (isd / idx) * c, (isd * idx) * b + cd * c
        finite = np.isfinite(b) & np.isfinite(c)
        if not finite.all():
            raise TmmError(f"non-finite field after layer {layer} at lambda = {lam[~finite][0]:.6g} um")
    denom = b + c
    reflectance = np.abs((b - c) / denom) ** 2
    transmittance = 4.0 * n_sub.real / np.abs(denom) ** 2
    finite = np.isfinite(reflectance) & np.isfinite(transmittance)
    if not finite.all():
        raise TmmError(f"non-finite spectrum at lambda = {lam[~finite][0]:.6g} um")
    return reflectance, transmittance


def stack_spectrum(stack: LayerStack, grid: Sequence[float] | None = None) -> SpectrumResult:
    """Reflectance and transmittance of the stack over the wavelength grid."""
    lam = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if lam.ndim != 1 or np.any(lam <= 0):
        raise ValueError("grid must be a 1-D array of positive wavelengths (um)")
    layers = []
    for mat, d_nm in stack.layers:
        if d_nm == 0.0:  # inert, so its table is never read
            layers.append((None, None, 0.0))
            continue
        idx = _index_at(mat, lam)
        layers.append((idx, 2.0 * np.pi * idx / lam, d_nm * 1e-3))
    n_sub = _index_at(stack.substrate, lam)
    return SpectrumResult(lam, *_spectrum(lam, n_sub, layers))


# -- the 20-parameter film-stack problem ---------------------------------------

def motf_forward(point: DesignPoint) -> np.ndarray:
    """Emissivity spectrum (2001,) of a ten-layer stack point on Ag.

    The first ten values pick layer materials (air side first), the last ten
    are thicknesses in micrometres.  Pure function of the point and the
    bundled tables.
    """
    vals = point.values
    if len(vals) != 20:
        raise SpaceError(f"film-stack point needs 20 values, got {len(vals)}")
    layers = []
    for mat, d_um in zip(vals[:10], vals[10:]):
        if mat not in MATERIALS:
            raise SpaceError(f"unknown material {mat!r}")
        layers.append((*load_material(mat)._on_grid, float(d_um)))
    r, t = _spectrum(default_grid(), load_material(SUBSTRATE_MATERIAL)._on_grid[0], layers)
    return 1.0 - r - t
