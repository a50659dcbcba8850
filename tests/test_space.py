"""Design spaces: validation, sampling, codecs, and the loss."""

import math

import numpy as np
import pytest
from scipy import stats

from idkit.problems import get_space
from idkit.space import (
    Categorical,
    ConditionalContinuous,
    Continuous,
    DesignPoint,
    DesignSpace,
    ParamSpec,
    SpaceError,
    mse_loss,
)

ALL_PROBLEMS = ("motf", "tpv", "scf")


def small_mixed_space():
    return DesignSpace(
        "toy",
        [
            ParamSpec("a", Continuous(4.0, 10.0)),
            ParamSpec("c", Categorical(("red", "green", "blue"))),
            ParamSpec("b", ConditionalContinuous(1.0, "a", 0.5)),
        ],
        response_dim=2,
    )


class TestParamSpecs:
    def test_continuous_requires_lo_below_hi(self):
        with pytest.raises(SpaceError):
            Continuous(2.0, 2.0)
        with pytest.raises(SpaceError):
            Continuous(float("nan"), 1.0)

    def test_categorical_requires_two_distinct_choices(self):
        with pytest.raises(SpaceError):
            Categorical(("only",))
        with pytest.raises(SpaceError):
            Categorical(("x", "x"))

    def test_conditional_must_reference_earlier_continuous(self):
        with pytest.raises(SpaceError, match="earlier"):
            DesignSpace(
                "bad",
                [ParamSpec("b", ConditionalContinuous(1.0, "a", 0.5)),
                 ParamSpec("a", Continuous(0.0, 10.0))],
                response_dim=1,
            )
        with pytest.raises(SpaceError, match="not Continuous"):
            DesignSpace(
                "bad",
                [ParamSpec("a", Categorical(("x", "y"))),
                 ParamSpec("b", ConditionalContinuous(1.0, "a", 0.5))],
                response_dim=1,
            )

    def test_conditional_interval_never_empty(self):
        # lo must sit below hi_scale * ref.lo
        with pytest.raises(SpaceError, match="empty"):
            DesignSpace(
                "bad",
                [ParamSpec("a", Continuous(0.0, 10.0)),
                 ParamSpec("b", ConditionalContinuous(1.0, "a", 0.5))],
                response_dim=1,
            )

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(SpaceError, match="duplicate"):
            DesignSpace(
                "bad",
                [ParamSpec("a", Continuous(0.0, 1.0)), ParamSpec("a", Continuous(0.0, 1.0))],
                response_dim=1,
            )


class TestValidate:
    def test_interior_film_point_is_valid(self):
        space = get_space("motf")
        pt = DesignPoint(("SiO2",) * 10 + (0.5,) * 10)
        assert space.validate(pt).ok

    def test_radius_above_half_cell_is_rejected(self):
        space = get_space("tpv")
        vals = [400.0, 50.0, 20.0] + [100.0] * 16
        vals[3] = 250.0  # above 400/2
        res = space.validate(DesignPoint(tuple(vals)))
        assert not res.ok
        assert any("x3" in v for v in res.violations)

    def test_conditional_boundary_is_valid(self):
        space = get_space("tpv")
        vals = [350.0, 50.0, 20.0] + [40.0] * 16
        assert space.validate(DesignPoint(tuple(vals))).ok
        vals[3] = 175.0  # exactly x0/2
        assert space.validate(DesignPoint(tuple(vals))).ok

    def test_wrong_length_is_structural_error(self):
        space = get_space("tpv")
        with pytest.raises(SpaceError):
            space.validate(DesignPoint((400.0, 50.0)))

    def test_rejection_lists_each_violation(self):
        space = get_space("tpv")
        vals = [400.0, 1000.0, 20.0] + [100.0] * 16
        vals[4] = 300.0
        res = space.validate(DesignPoint(tuple(vals)))
        assert len(res.violations) == 2

    def test_point_constructor_raises_on_invalid(self):
        space = small_mixed_space()
        with pytest.raises(SpaceError):
            space.point((5.0, "cyan", 2.0))
        pt = space.point((5.0, "red", 2.0))
        assert pt.values == (5.0, "red", 2.0)


class TestSampling:
    def test_deterministic_given_seed(self):
        for name in ALL_PROBLEMS:
            space = get_space(name)
            a = space.sample_uniform(np.random.default_rng(42))
            b = space.sample_uniform(np.random.default_rng(42))
            assert a.values == b.values

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_samples_always_validate(self, name):
        space = get_space(name)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            assert space.validate(space.sample_uniform(rng)).ok

    def test_material_frequencies_uniform(self):
        space = get_space("motf")
        rng = np.random.default_rng(1)
        n = 20_000
        counts = {}
        for _ in range(n):
            pt = space.sample_uniform(rng)
            for layer in range(10):
                counts[(layer, pt[layer])] = counts.get((layer, pt[layer]), 0) + 1
        for (_, _), c in counts.items():
            assert abs(c / n - 1 / 7) < 0.01

    def test_conditional_radius_uniform_after_rescale(self):
        # (x3 - lo) / (x0/2 - lo) should be U(0,1) for every cell size
        space = get_space("tpv")
        rng = np.random.default_rng(2)
        v = []
        for _ in range(20_000):
            pt = space.sample_uniform(rng)
            v.append((pt[3] - 40.0) / (pt[0] / 2.0 - 40.0))
        assert stats.kstest(np.asarray(v), "uniform").pvalue > 0.01


class TestUnitBoxCodec:
    def test_midpoint_roundtrip(self):
        space = get_space("tpv")
        vals = [425.0, 80.0, 45.0] + [100.0] * 16
        u = space.normalize(DesignPoint(tuple(vals)))
        assert u[0] == pytest.approx(0.5, abs=1e-15)
        back = space.denormalize(u)
        assert back[0] == pytest.approx(425.0, abs=1e-12)

    def test_categorical_roundtrip_exact(self):
        space = get_space("motf")
        pt = DesignPoint(("MgF2",) * 10 + (0.25,) * 10)
        u = space.normalize(pt)
        assert u[0] == pytest.approx(3 / 7)
        assert space.denormalize(u)[0] == "MgF2"

    def test_conditional_affine_map(self):
        # u = (x - lo) / (hi_scale * x_ref - lo), resolved against the point itself
        space = get_space("tpv")
        vals = [500.0, 80.0, 45.0] + [100.0] * 16
        vals[3] = 145.0
        u = space.normalize(DesignPoint(tuple(vals)))
        assert u[3] == pytest.approx((145.0 - 40.0) / (250.0 - 40.0), abs=1e-15)
        back = space.denormalize(u)
        assert back[3] == pytest.approx(145.0, abs=1e-12)

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_roundtrip_fuzz(self, name):
        space = get_space(name)
        rng = np.random.default_rng(3)
        kinds = space.unit_kinds()
        for _ in range(300):
            pt = space.sample_uniform(rng)
            back = space.denormalize(space.normalize(pt))
            for v, w, k in zip(pt.values, back.values, kinds):
                if k is None:
                    assert abs(float(v) - float(w)) <= 1e-12 * max(1.0, abs(float(v)))
                else:
                    assert v == w

    def test_out_of_range_clamps(self):
        space = get_space("scf")
        u = np.full(space.dim, 0.5)
        u[0] = 1.5
        pt = space.denormalize(u)
        assert pt[0] == 350.0

    def test_denormalized_vectors_always_validate(self):
        rng = np.random.default_rng(4)
        for name in ALL_PROBLEMS:
            space = get_space(name)
            for _ in range(200):
                pt = space.denormalize(rng.random(space.dim))
                assert space.validate(pt).ok


class TestWideCategorical:
    @pytest.mark.parametrize("k", [7, 22, 47, 49])
    def test_every_choice_keeps_its_identity(self, k):
        # choice i is stored as i/k, and for k = 22, 47 or 49 some i/k * k
        # rounds below i, so truncation alone decodes that choice one bin low
        choices = tuple(f"c{i}" for i in range(k))
        space = DesignSpace(
            "wide",
            [ParamSpec("m", Categorical(choices)), ParamSpec("t", Continuous(0.0, 1.0))],
            response_dim=1,
        )
        pts = [DesignPoint((c, 0.5)) for c in choices]
        assert [space.denormalize(space.normalize(p)) for p in pts] == pts
        assert [space.decode_onehot(space.encode_onehot(p)) for p in pts] == pts
        units = np.array([space.normalize(p) for p in pts])
        np.testing.assert_array_equal(
            space.encode_units(units), [space.encode_onehot(p) for p in pts]
        )


class TestOnehot:
    def test_film_vector_is_80_wide_with_ten_ones(self):
        space = get_space("motf")
        rng = np.random.default_rng(5)
        vec = space.encode_onehot(space.sample_uniform(rng))
        assert vec.shape == (80,)
        head = vec[:70]
        assert np.sum(head == 1.0) == 10
        assert np.sum(head == 0.0) == 60

    def test_first_choice_sets_slot_zero(self):
        space = get_space("motf")
        pt = DesignPoint(("ZnO",) + ("SiC",) * 9 + (0.5,) * 10)
        vec = space.encode_onehot(pt)
        assert vec[0] == 1.0
        assert np.all(vec[1:7] == 0.0)

    def test_no_categoricals_gives_normalized_coords(self):
        space = get_space("tpv")
        rng = np.random.default_rng(6)
        pt = space.sample_uniform(rng)
        vec = space.encode_onehot(pt)
        assert vec.shape == (19,)
        assert np.all((vec >= 0.0) & (vec <= 1.0))

    def test_decode_inverts_encode(self):
        rng = np.random.default_rng(7)
        for name in ALL_PROBLEMS:
            space = get_space(name)
            for _ in range(50):
                pt = space.sample_uniform(rng)
                back = space.decode_onehot(space.encode_onehot(pt))
                for v, w in zip(pt.values, back.values):
                    if isinstance(v, str):
                        assert v == w
                    else:
                        assert abs(float(v) - float(w)) <= 1e-9 * max(1.0, abs(float(v)))


class TestLoss:
    def test_zero_on_equal(self):
        y = np.linspace(0, 1, 11)
        assert mse_loss(y, y) == 0.0

    def test_hand_sum(self):
        assert mse_loss([0.0, 0.0, 0.0], [1.0, 2.0, 2.0]) == 9.0

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(8)
        y = rng.random(2001)
        t = rng.random(2001)
        ref = 0.0
        for a, b in zip(y, t):
            ref += (b - a) ** 2
        assert mse_loss(y, t) == pytest.approx(ref, abs=1e-12)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(9)
        y, t = rng.random(50), rng.random(50)
        assert mse_loss(y, t) == mse_loss(t, y)
        assert mse_loss(y, t) > 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(SpaceError):
            mse_loss([1.0, 2.0], [1.0, 2.0, 3.0])
