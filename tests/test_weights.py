import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracharm.grid import Cube, GridFunction, integrate
from fracharm.weights import (
    Weight,
    ap_constant,
    apq_constant,
    rh_constant,
    rw_estimate,
    weight_cube_family,
)

WINDOW = ((-8.0, 8.0),)
FAMILY = weight_cube_family(WINDOW, -6, 4)
SMALL_FAMILY = weight_cube_family(WINDOW, -2, 2)


def a2_product(t):
    # A_2 expression of |x|^(1/2) over a unit interval whose left endpoint
    # sits at distance t*side left of the singularity; scale invariant
    return (4.0 / 3.0) * (t ** 1.5 + (1 - t) ** 1.5) * (t ** 0.5 + (1 - t) ** 0.5)


class TestWeightBasics:
    def test_power_weight_rejects_nonintegrable(self):
        with pytest.raises(ValueError):
            Weight.power(-1.0, center=(0.0,))
        with pytest.raises(ValueError):
            Weight.power(-2.0, center=(0.0, 0.0))
        # boundary cases inside the admissible range are fine
        Weight.power(-0.99, center=(0.0,))
        Weight.power(-1.99, center=(0.0, 0.0))

    def test_sampled_weight_requires_positivity(self):
        g = GridFunction.zeros(((0.0, 1.0),), 0.25)
        with pytest.raises(ValueError):
            Weight.sampled(g)

    def test_constant_average(self):
        w = Weight.constant(5.0)
        q = Cube((0.3,), 0.7)
        assert w.average(q) == 5.0
        assert w.average(q, power=-1.0) == 0.2

    def test_power_average_unit_interval(self):
        # avg of |x|^(1/2) over [0,1] is 2/3; over [-1,1] also 2/3
        w = Weight.power(0.5)
        assert w.average(Cube((0.5,), 1.0)) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert w.average(Cube((0.0,), 2.0)) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_power_average_singular_cube_infinite(self):
        w = Weight.power(0.5)
        # power -3 gives |x|^(-3/2), not integrable through 0
        assert w.average(Cube((0.5,), 1.0), power=-3.0) == math.inf
        # but finite on a cube away from the singularity
        assert math.isfinite(w.average(Cube((2.0,), 1.0), power=-3.0))

    def test_power_average_matches_quadrature_off_singularity(self):
        w = Weight.power(0.5, center=(0.25,), multiplier=2.0)
        q = Cube((3.0,), 0.5)
        g = GridFunction.zeros(((2.75, 3.25),), 2.0 ** -10)
        g = g.with_samples(2.0 * np.abs(g.coords()[..., 0] - 0.25) ** 0.5)
        assert w.average(q) == pytest.approx(integrate(g) / q.volume, rel=1e-7)

    def test_pow_composes(self):
        w = Weight.power(0.5, multiplier=3.0)
        v = w.pow(-2.0)
        assert v.exponent == -1.0
        assert v.average(Cube((2.0,), 1.0)) == pytest.approx(
            w.average(Cube((2.0,), 1.0), power=-2.0), rel=1e-14
        )

    def test_sample_matches_pointwise(self):
        w = Weight.power(1.0, center=(0.0,))
        g = w.sample(((-2.0, 2.0),), 0.5)
        assert g.samples[0] == pytest.approx(1.75)

    def test_sampled_average_is_cell_mean(self):
        g = GridFunction(((0.0, 1.0),), 0.25, np.array([1.0, 2.0, 3.0, 4.0]))
        w = Weight.sampled(g)
        assert w.average(Cube((0.25,), 0.5)) == 1.5
        assert w.average(Cube((0.5,), 1.0)) == 2.5


class TestRect2D:
    def test_zero_exponent_is_area(self):
        w = Weight.power(0.0, center=(0.0, 0.0))
        q = Cube((0.7, -0.3), 1.3)
        assert w.average(q) == pytest.approx(1.0, rel=1e-9)

    def test_corner_formula_matches_riemann(self):
        # integral of |z|^(-1/2) over [-0.5,0.5]^2, singular at the center
        w = Weight.power(-0.5, center=(0.0, 0.0))
        q = Cube((0.0, 0.0), 1.0)
        h = 2.0 ** -9
        g = GridFunction.zeros(((-0.5, 0.5), (-0.5, 0.5)), h)
        g = g.with_samples(np.sum(g.coords() ** 2, axis=-1) ** -0.25)
        assert w.average(q) == pytest.approx(integrate(g), rel=2e-3)

    def test_far_rect_deep_negative_power(self):
        # |z|^(-3) is not integrable at 0 but fine on a far rectangle
        w = Weight.power(-1.0, center=(0.0, 0.0))
        q = Cube((2.5, 1.5), 1.0)
        h = 2.0 ** -8
        g = GridFunction.zeros(((2.0, 3.0), (1.0, 2.0)), h)
        g = g.with_samples(np.sum(g.coords() ** 2, axis=-1) ** -1.5)
        assert w.average(q, power=3.0) == pytest.approx(integrate(g), rel=1e-5)

    def test_touching_origin_deep_negative_power_infinite(self):
        w = Weight.power(-1.0, center=(0.0, 0.0))
        assert w.average(Cube((0.5, 0.5), 1.0), power=2.0) == math.inf

    def test_dilation_covariance(self):
        # avg of |z|^b over a cube scaled about the singularity picks up side^b
        w = Weight.power(0.75, center=(0.0, 0.0))
        q = Cube((0.5, 0.25), 0.5)
        big = q.scaled(4.0, about=(0.0, 0.0))
        assert w.average(big) == pytest.approx(4.0 ** 0.75 * w.average(q), rel=1e-9)


class TestApConstant:
    def test_unit_weight_is_exactly_one(self):
        rep = ap_constant(Weight.constant(1.0), 2.0, SMALL_FAMILY)
        assert rep.value == 1.0
        assert rep.stable

    def test_constant_scale_invariance(self):
        rep = ap_constant(Weight.constant(5.0), 2.0, SMALL_FAMILY)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("value", [4.0, 0.25])
    def test_constant_near_p_one(self, value):
        # v^(1-p') at p' = 1e6 leaves the float range either way
        rep = ap_constant(Weight.constant(value), 1.0 + 1e-6, SMALL_FAMILY)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_power_half_a2_value(self):
        rep = ap_constant(Weight.power(0.5), 2.0, FAMILY)
        # the family realizes singularity offsets 0, 1/3, 2/3, 1/2 only,
        # and the largest of those closed-form values is at 1/3
        assert rep.value == pytest.approx(a2_product(1.0 / 3.0), rel=1e-10)
        assert rep.stable
        levels = sorted(rep.per_level)
        assert rep.per_level[levels[0]] == pytest.approx(rep.per_level[levels[1]], rel=1e-9)

    def test_family_value_brackets_dense_supremum(self):
        rep = ap_constant(Weight.power(0.5), 2.0, FAMILY)
        ts = np.linspace(1e-9, 0.5, 20001)
        dense = max(a2_product(t) for t in ts)
        assert rep.value <= dense + 1e-12
        assert dense <= 1.5 * rep.value

    def test_multiplier_scale_invariance(self):
        a = ap_constant(Weight.power(0.5, multiplier=1.0), 2.0, SMALL_FAMILY)
        b = ap_constant(Weight.power(0.5, multiplier=7.0), 2.0, SMALL_FAMILY)
        assert b.value == pytest.approx(a.value, rel=1e-12)

    def test_nesting_in_p(self):
        vals = [ap_constant(Weight.power(0.5), p, SMALL_FAMILY).value
                for p in (1.8, 2.0, 2.5, 3.0, 4.0)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi * (1 + 1e-12)

    def test_blowup_below_critical_p(self):
        # |x|^(1/2) lies in A_p only for p > 3/2; at p = 1.4 the dual power
        # is below -1 and every singular cube reports an infinite average
        rep = ap_constant(Weight.power(0.5), 1.4, FAMILY)
        assert rep.value == math.inf
        assert not rep.stable

    def test_refinement_monotonicity(self):
        w = Weight.power(0.5, center=(0.1,))
        shallow = ap_constant(w, 2.0, weight_cube_family(WINDOW, -2, 2)).value
        deep = ap_constant(w, 2.0, weight_cube_family(WINDOW, -6, 2)).value
        assert deep >= shallow - 1e-12

    def test_2d_power_weight(self):
        fam = weight_cube_family(((-1.0, 1.0), (-1.0, 1.0)), -1, 0)
        rep = ap_constant(Weight.power(0.5, center=(0.0, 0.0)), 2.0, fam)
        assert math.isfinite(rep.value)
        assert rep.value >= 1.0 - 1e-12
        assert rep.stable

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            ap_constant(Weight.constant(1.0), 1.0, SMALL_FAMILY)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(min_value=-0.8, max_value=1.5),
           p=st.floats(min_value=1.2, max_value=3.5))
    def test_jensen_lower_bound(self, a, p):
        rep = ap_constant(Weight.power(a), p, SMALL_FAMILY)
        assert rep.value >= 1.0 - 1e-12


class TestRhConstant:
    def test_unit_weight(self):
        rep = rh_constant(Weight.constant(1.0), 2.0, SMALL_FAMILY)
        assert rep.value == 1.0

    @pytest.mark.parametrize("value", [4.0, 0.25])
    def test_constant_scale_invariance(self, value):
        # v^600 leaves the float range either way
        rep = rh_constant(Weight.constant(value), 600.0, SMALL_FAMILY)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_power_half_stable(self):
        rep = rh_constant(Weight.power(0.5), 2.0, FAMILY)
        assert math.isfinite(rep.value)
        assert rep.stable
        assert rep.value >= 1.0

    def test_negative_power_large_s_blows_up(self):
        # (|x|^(-1/2))^3 = |x|^(-3/2) fails local integrability through 0
        rep = rh_constant(Weight.power(-0.5), 3.0, FAMILY)
        assert rep.value == math.inf
        assert not rep.stable

    def test_gentle_sampled_profile(self):
        h = 2.0 ** -4
        g = GridFunction.zeros(WINDOW, h)
        g = g.with_samples(1.0 + 0.1 * np.sin(g.coords()[..., 0]))
        fam = weight_cube_family(WINDOW, 0, 2, h=h)
        rep = rh_constant(Weight.sampled(g), 2.0, fam)
        assert 1.0 <= rep.value <= 1.01


class TestApqConstant:
    def test_unit_weight(self):
        rep = apq_constant(Weight.constant(1.0), 2.0, 4.0, SMALL_FAMILY)
        assert rep.value == 1.0
        assert rep.metadata["consistent"]

    def test_constant_homogeneity(self):
        rep = apq_constant(Weight.constant(3.7), 2.0, 4.0, SMALL_FAMILY)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("value", [4.0, 0.25])
    def test_constant_near_p_one(self, value):
        # v^(-p') at p' = 1e6 leaves the float range either way
        rep = apq_constant(Weight.constant(value), 1.0 + 1e-6, 4.0, SMALL_FAMILY)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_power_eighth(self):
        # exponent pair from 1/q = 1/p - gamma with p = 2, gamma = 1/4
        rep = apq_constant(Weight.power(0.125), 2.0, 4.0, FAMILY)
        assert math.isfinite(rep.value)
        assert rep.stable
        assert 1.0 <= rep.value <= 1.2

    def test_inconsistent_pair_flagged(self):
        rep = apq_constant(Weight.power(0.125), 2.0, 1.5, SMALL_FAMILY)
        assert not rep.metadata["consistent"]


class TestRwEstimate:
    GRID = (1.1, 1.25, 1.4, 1.5, 1.6, 1.75, 2.0)

    def test_constant_weight_hits_first_point(self):
        assert rw_estimate(Weight.constant(2.0), SMALL_FAMILY, self.GRID) == 1.1

    def test_power_half_threshold(self):
        # r_w = 3/2 for |x|^(1/2) in 1D; at p = 1.5 the dual average is the
        # borderline |x|^(-1) and diverges, so 1.6 is the first stable point
        est = rw_estimate(Weight.power(0.5), FAMILY, self.GRID)
        assert est == 1.6

    def test_no_stable_point_returns_inf(self):
        est = rw_estimate(Weight.power(0.5), FAMILY, (1.1, 1.2, 1.3))
        assert est == math.inf

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            rw_estimate(Weight.constant(1.0), SMALL_FAMILY, (2.0, 1.5))


class TestReportShape:
    def test_json_dict_keys_and_inf_encoding(self):
        rep = rh_constant(Weight.power(-0.5), 3.0, SMALL_FAMILY)
        d = rep.to_json_dict()
        assert d["constant"] == "inf"
        assert d["stable"] is False
        assert {"level", "constant"} <= set(d["per_level"][0])
        assert "window" in d["family"] and "levels" in d["family"]
        assert d["weight_descriptor"]["kind"] == "power"

    def test_value_is_max_of_levels(self):
        rep = ap_constant(Weight.power(0.5), 2.0, FAMILY)
        assert rep.value == max(rep.per_level.values())
