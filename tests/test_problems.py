"""Built-in problem definitions and the synthetic stand-in simulators."""

import numpy as np
import pytest

from idkit.problems import MATERIALS, get_space, synthetic_response
from idkit.space import (
    Categorical,
    ConditionalContinuous,
    Continuous,
    DesignPoint,
    SpaceError,
)


class TestFilmSpace:
    def test_ten_materials_then_ten_thicknesses(self):
        space = get_space("motf")
        assert space.dim == 20
        for p in space.params[:10]:
            assert isinstance(p.kind, Categorical)
            assert p.kind.choices == MATERIALS
            assert len(p.kind.choices) == 7
        for p in space.params[10:]:
            assert isinstance(p.kind, Continuous)
            assert (p.kind.lo, p.kind.hi) == (0.0, 1.0)

    def test_response_and_onehot_widths(self):
        space = get_space("motf")
        assert space.response_dim == 2001
        assert space.onehot_length == 80

    def test_material_labels(self):
        assert MATERIALS == ("ZnO", "AlN", "Al2O3", "MgF2", "SiO2", "TiO2", "SiC")


class TestMetasurfaceSpaces:
    def test_tpv_bounds(self):
        space = get_space("tpv")
        assert space.dim == 19
        assert space.response_dim == 500
        k0, k1, k2 = (space.params[i].kind for i in range(3))
        assert (k0.lo, k0.hi) == (350.0, 500.0)
        assert (k1.lo, k1.hi) == (30.0, 130.0)
        assert (k2.lo, k2.hi) == (10.0, 80.0)
        for p in space.params[3:]:
            k = p.kind
            assert isinstance(k, ConditionalContinuous)
            assert (k.lo, k.hi_ref, k.hi_scale) == (40.0, "x0", 0.5)

    def test_scf_bounds(self):
        space = get_space("scf")
        assert space.dim == 18
        assert space.response_dim == 3
        k0 = space.params[0].kind
        assert (k0.lo, k0.hi) == (150.0, 350.0)
        assert isinstance(space.params[1].kind, Continuous)
        for p in space.params[2:]:
            assert isinstance(p.kind, ConditionalContinuous)
            assert p.kind.hi_scale == 0.5

    def test_unknown_problem_rejected(self):
        with pytest.raises(SpaceError, match="unknown problem"):
            get_space("meep")


def mid_point(problem):
    space = get_space(problem)
    return space.denormalize(np.full(space.dim, 0.5))


class TestSyntheticResponses:
    @pytest.mark.parametrize("problem,width", [("tpv", 500), ("scf", 3)])
    def test_shape_and_finiteness(self, problem, width):
        y = synthetic_response(mid_point(problem), problem)
        assert y.shape == (width,)
        assert np.all(np.isfinite(y))

    def test_deterministic(self):
        pt = mid_point("tpv")
        assert np.array_equal(
            synthetic_response(pt, "tpv"), synthetic_response(pt, "tpv")
        )

    def test_every_radius_matters(self):
        space = get_space("scf")
        base = space.denormalize(np.full(space.dim, 0.5))
        y0 = synthetic_response(base, "scf")
        for d in range(2, 6):
            u = np.full(space.dim, 0.5)
            u[d] = 0.9
            y = synthetic_response(space.denormalize(u), "scf")
            assert not np.allclose(y, y0)

    def test_no_film_response_defined(self):
        with pytest.raises(SpaceError):
            synthetic_response(mid_point("tpv"), "motf")

    def test_values_bounded(self):
        rng = np.random.default_rng(0)
        space = get_space("tpv")
        for _ in range(10):
            y = synthetic_response(space.sample_uniform(rng), "tpv")
            assert np.all((y >= 0.0) & (y <= 1.0))
