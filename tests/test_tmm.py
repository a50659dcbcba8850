"""Transfer-matrix solver: Fresnel limits, energy conservation, oracles."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from idkit.problems import MATERIALS
from idkit.space import DesignPoint, SpaceError
from idkit.tmm import (
    ExtrapolationWarning,
    LayerStack,
    MaterialTable,
    TmmError,
    default_grid,
    load_material,
    motf_forward,
    stack_spectrum,
)


def layer_matrix(n_complex: complex, d_nm: float, lam_um: float) -> np.ndarray:
    """Reference 2x2 characteristic matrix of one layer at one wavelength."""
    delta = 2.0 * math.pi * n_complex * (d_nm * 1e-3) / lam_um
    c, s = np.cos(delta), np.sin(delta)
    return np.array([[c, 1j * s / n_complex], [1j * n_complex * s, c]])


def film_point(materials, thicknesses_um):
    return DesignPoint(tuple(materials) + tuple(thicknesses_um))


class TestGridAndTables:
    def test_default_grid_shape_and_range(self):
        g = default_grid()
        assert g.shape == (2001,)
        assert g[0] == 0.3 and g[-1] == 20.0
        steps = np.diff(g)
        assert np.allclose(steps, steps[0], rtol=0, atol=1e-12)

    def test_constant_table_interpolates_flat(self):
        t = MaterialTable("flat", [1.0, 2.0], [1.5, 1.5], [0.0, 0.0])
        assert t.interp(1.37) == 1.5 + 0.0j

    def test_linear_table_midpoint(self):
        t = MaterialTable("lin", [1.0, 2.0], [1.4, 1.6], [0.0, 0.0])
        assert t.interp(1.5) == pytest.approx(1.5 + 0.0j, abs=1e-15)

    def test_tabulated_wavelength_returns_exact_pair(self):
        t = load_material("TiO2")
        i = 40
        lam = t.wavelength_um[i]
        got = t.interp(lam)
        assert got == t.n[i] - 1j * t.k[i]

    def test_out_of_range_clamps_and_warns(self):
        t = MaterialTable("lin", [1.0, 2.0], [1.4, 1.6], [0.0, 0.1])
        with pytest.warns(ExtrapolationWarning):
            got = t.interp(0.5)
        assert got == 1.4 - 0.0j
        with pytest.warns(ExtrapolationWarning):
            got = t.interp(9.0)
        assert got == 1.6 - 0.1j

    def test_table_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            MaterialTable("bad", [2.0, 1.0], [1.5, 1.5], [0.0, 0.0])
        with pytest.raises(ValueError, match="passive"):
            MaterialTable("bad", [1.0, 2.0], [1.5, 1.5], [0.0, -0.1])
        with pytest.raises(ValueError):
            MaterialTable("bad", [1.0], [1.5], [0.0])

    def test_every_film_material_is_bundled(self):
        for name in MATERIALS + ("Ag",):
            t = load_material(name)
            assert t.wavelength_um[0] <= 0.3 and t.wavelength_um[-1] >= 20.0

    def test_generator_rewrites_the_bundled_tables_byte_for_byte(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        tool = os.path.join(root, "tools", "make_material_tables.py")
        subprocess.run(
            [sys.executable, tool, "--out-dir", str(tmp_path)], check=True, capture_output=True
        )
        bundled = os.path.join(root, "src", "idkit", "data", "materials")
        names = sorted(os.listdir(bundled))
        assert names == sorted(f"{m}.nk" for m in MATERIALS + ("Ag",))
        assert sorted(os.listdir(tmp_path)) == names
        for name in names:
            with open(os.path.join(bundled, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name

    def test_unknown_material_raises(self):
        with pytest.raises(SpaceError, match="unknown material"):
            load_material("unobtainium")


class TestLayerMatrix:
    def test_zero_thickness_is_identity(self):
        m = layer_matrix(1.5 + 0.0j, 0.0, 1.0)
        assert np.allclose(m, np.eye(2), atol=0)

    def test_quarter_wave_matrix(self):
        # delta = pi/2 at n=1.5, lambda=1 um -> d = 1000/(4*1.5) nm
        m = layer_matrix(1.5 + 0.0j, 1000.0 / 6.0, 1.0)
        want = np.array([[0.0, 1j / 1.5], [1.5j, 0.0]])
        assert np.allclose(m, want, atol=1e-12)

    def test_lossless_determinant_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = 1.0 + 2.0 * rng.random()
            d = 500.0 * rng.random()
            lam = 0.3 + 19.0 * rng.random()
            m = layer_matrix(complex(n), d, lam)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(det - 1.0) <= 1e-12


class TestStackSpectrum:
    def test_bare_substrate_fresnel(self):
        res = stack_spectrum(LayerStack((), substrate=1.5))
        assert np.all(np.abs(res.reflectance - 0.04) <= 1e-12)
        assert np.all(np.abs(res.reflectance + res.transmittance - 1.0) <= 1e-12)

    def test_quarter_wave_antireflection(self):
        n1 = math.sqrt(1.5)
        d_nm = 1000.0 / (4.0 * n1)
        res = stack_spectrum(
            LayerStack(((complex(n1), d_nm),), substrate=1.5), grid=[1.0]
        )
        assert res.reflectance[0] <= 1e-10

    def test_lossless_energy_conservation(self):
        layers = ((1.8 + 0j, 320.0), (1.3 + 0j, 75.0), (2.4 + 0j, 410.0))
        res = stack_spectrum(LayerStack(layers, substrate=1.52))
        assert np.max(np.abs(res.reflectance + res.transmittance - 1.0)) <= 1e-10
        assert np.all((res.reflectance >= 0) & (res.reflectance <= 1))
        assert np.all((res.transmittance >= 0) & (res.transmittance <= 1))

    def test_zero_thickness_layer_is_inert(self):
        with_zero = LayerStack(
            ((1.8 + 0j, 320.0), (2.4 + 0j, 0.0), (1.3 + 0j, 75.0)), substrate=1.52
        )
        without = LayerStack(((1.8 + 0j, 320.0), (1.3 + 0j, 75.0)), substrate=1.52)
        a = stack_spectrum(with_zero)
        b = stack_spectrum(without)
        assert np.max(np.abs(a.reflectance - b.reflectance)) <= 1e-12

    def test_absorbing_stack_dissipates(self):
        layers = ((1.8 - 0.2j, 320.0), (1.3 - 0.05j, 75.0))
        res = stack_spectrum(LayerStack(layers, substrate=1.52))
        assert np.all(res.reflectance + res.transmittance <= 1.0 + 1e-9)
        assert np.any(res.emissivity > 1e-3)

    def test_matches_scalar_matrix_product_oracle(self):
        # independent path: explicit 2x2 matrix products, both groupings
        mats = [load_material(n) for n in ("TiO2", "SiO2", "SiC", "MgF2")]
        ds = [140.0, 510.0, 260.0, 380.0]
        sub = load_material("Ag")
        lams = [0.45, 1.7, 6.2, 13.9, 19.5]
        res = stack_spectrum(
            LayerStack(tuple(zip(mats, ds)), substrate=sub), grid=lams
        )
        for j, lam in enumerate(lams):
            ms = [layer_matrix(complex(m.interp(lam)), d, lam) for m, d in zip(mats, ds)]
            left = (ms[0] @ ms[1]) @ (ms[2] @ ms[3])
            right = ms[0] @ (ms[1] @ (ms[2] @ ms[3]))
            assert np.max(np.abs(left - right)) <= 1e-12
            ns = complex(sub.interp(lam))
            for m_total in (left, right):
                bc = m_total @ np.array([1.0, ns])
                r = (bc[0] - bc[1]) / (bc[0] + bc[1])
                t = 4.0 * ns.real / abs(bc[0] + bc[1]) ** 2
                assert abs(res.reflectance[j] - abs(r) ** 2) <= 1e-10
                assert abs(res.transmittance[j] - t) <= 1e-10

    def test_nonfinite_intermediate_names_wavelength(self):
        stack = LayerStack(((1.5 - 1e6j, 5e5),), substrate=1.5)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TmmError, match="lambda"):
                stack_spectrum(stack)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            stack_spectrum(LayerStack((), substrate=1.5), grid=[-1.0])


class TestFilmForward:
    def test_all_zero_thickness_is_bare_silver(self):
        pt = film_point(["SiO2"] * 10, [0.0] * 10)
        eps = motf_forward(pt)
        ns = load_material("Ag").interp(default_grid())
        r = (1.0 - ns) / (1.0 + ns)
        t = 4.0 * ns.real / np.abs(1.0 + ns) ** 2
        want = 1.0 - np.abs(r) ** 2 - t
        assert np.max(np.abs(eps - want)) <= 1e-14

    def test_zero_layers_are_permutable(self):
        base = ["TiO2", "SiO2", "MgF2", "AlN", "SiC", "ZnO", "Al2O3", "TiO2", "SiO2", "MgF2"]
        d = [0.3, 0.0, 0.1, 0.0, 0.2, 0.05, 0.0, 0.4, 0.0, 0.15]
        a = motf_forward(film_point(base, d))
        swapped = list(base)
        swapped[1], swapped[3] = swapped[3], swapped[1]
        b = motf_forward(film_point(swapped, d))
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_agrees_with_general_stack_solver(self):
        rng = np.random.default_rng(1)
        mats = [MATERIALS[i] for i in rng.integers(0, 7, size=10)]
        ds_um = rng.random(10)
        eps = motf_forward(film_point(mats, ds_um))
        stack = LayerStack(
            tuple((load_material(m), d * 1000.0) for m, d in zip(mats, ds_um)),
            substrate=load_material("Ag"),
        )
        assert np.max(np.abs(eps - stack_spectrum(stack).emissivity)) <= 1e-12

    def test_passivity_on_random_points(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            mats = [MATERIALS[i] for i in rng.integers(0, 7, size=10)]
            ds_um = rng.random(10)
            eps = motf_forward(film_point(mats, ds_um))
            assert np.all(eps >= -1e-9)
            assert np.all(eps <= 1.0 + 1e-9)
            # energy bounds on R and T themselves: 0 <= R, 0 <= T, R + T <= 1
            stack = LayerStack(
                tuple((load_material(m), d * 1000.0) for m, d in zip(mats, ds_um)),
                substrate=load_material("Ag"),
            )
            res = stack_spectrum(stack)
            assert np.all(res.reflectance >= -1e-12)
            assert np.all(res.transmittance >= -1e-12)
            assert np.all(res.reflectance + res.transmittance <= 1.0 + 1e-12)

    def test_thickness_continuity(self):
        rng = np.random.default_rng(3)
        mats = [MATERIALS[i] for i in rng.integers(0, 7, size=10)]
        d = list(rng.random(10))
        a = motf_forward(film_point(mats, d))
        d2 = list(d)
        d2[4] += 1e-6
        b = motf_forward(film_point(mats, d2))
        assert np.max(np.abs(a - b)) <= 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        mats = [MATERIALS[i] for i in rng.integers(0, 7, size=10)]
        pt = film_point(mats, rng.random(10))
        assert np.array_equal(motf_forward(pt), motf_forward(pt))

    def test_unknown_material_and_wrong_length(self):
        with pytest.raises(SpaceError, match="unknown material"):
            motf_forward(film_point(["Gold"] + ["SiO2"] * 9, [0.1] * 10))
        with pytest.raises(SpaceError, match="20 values"):
            motf_forward(DesignPoint(("SiO2", 0.5)))


class TestMaterialDirOverride:
    def test_env_var_points_at_table_directory(self, tmp_path, monkeypatch):
        import shutil

        from idkit.tmm import _data_dir, load_material

        bundled = _data_dir()
        shutil.copy(os.path.join(bundled, "SiO2.nk"), tmp_path / "Custom.nk")
        monkeypatch.setenv("IDKIT_DATA_DIR", str(tmp_path))
        table = load_material("Custom")
        assert np.array_equal(table.n, np.loadtxt(os.path.join(bundled, "SiO2.nk"))[:, 1])
        with pytest.raises(SpaceError, match="unknown material"):
            load_material("SiC")  # only Custom.nk lives in the override dir

    def test_refresh_rereads_the_tables_read_before(self, tmp_path, monkeypatch):
        from idkit.tmm import _data_dir, refresh_tables

        path = tmp_path / "Custom.nk"
        rows = np.loadtxt(os.path.join(_data_dir(), "SiO2.nk"))
        np.savetxt(path, rows, fmt="%.9e")
        monkeypatch.setenv("IDKIT_DATA_DIR", str(tmp_path))
        first = load_material("Custom")
        rows[:, 1] *= 1.1
        np.savetxt(path, rows, fmt="%.9e")
        assert load_material("Custom") is first  # each table is read once
        refresh_tables()
        assert np.array_equal(load_material("Custom").n, np.loadtxt(path)[:, 1])
        path.write_text("")
        refresh_tables()
        with pytest.raises(ValueError, match="need >= 2"):
            load_material("Custom")
        path.unlink()
        refresh_tables()
        with pytest.raises(SpaceError, match="unknown material"):
            load_material("Custom")
