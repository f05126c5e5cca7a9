import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracharm.varexp
from fracharm.grid import Cube, GridFunction, weighted_lp_quasinorm
from fracharm.maximal import hl_maximal, iterated_maximal
from fracharm.varexp import (
    ExponentFunction,
    derive_system,
    dual_witness,
    log_holder_estimate,
    luxemburg_norm,
    maximal_opnorm_estimate,
    modular,
    rubio_iterate,
    rubio_properties_check,
    target_exponent,
)

BOX = ((-8.0, 8.0),)
H = 2.0 ** -6


def uniform_profile(seed, box=BOX, h=H, lo=0.0, hi=2.0):
    g = GridFunction.zeros(box, h)
    rng = np.random.default_rng(seed)
    return g.with_samples(rng.uniform(lo, hi, size=g.samples.shape))


class TestExponentFunction:
    def test_constant_everywhere(self):
        p = ExponentFunction.constant(2.5)
        pts = np.linspace(-9, 9, 13)[:, None]
        assert np.all(p.evaluate(pts) == 2.5)
        assert p.p_minus == p.p_plus == 2.5

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ExponentFunction.constant(0.0)
        with pytest.raises(ValueError):
            ExponentFunction("derived", 1, 3.0, 2.0, lambda x: x)

    def test_log_decay_shape(self):
        p = ExponentFunction.log_decay(2.0, 1.0)
        at0 = p.evaluate(np.array([[0.0]]))[0]
        assert at0 == pytest.approx(3.0, rel=1e-12)
        far = p.evaluate(np.array([[1e9]]))[0]
        assert 2.0 < far < 2.05
        assert p.p_minus == 2.0 and p.p_plus == 3.0

    @settings(max_examples=25, deadline=None)
    @given(limit=st.floats(min_value=1.1, max_value=5.0),
           amp=st.floats(min_value=0.1, max_value=2.0),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_values_within_recorded_bounds(self, limit, amp, seed):
        p = ExponentFunction.log_decay(limit, amp)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1e4, 1e4, size=(64, 1))
        v = p.evaluate(pts)
        assert np.all(v >= p.p_minus) and np.all(v <= p.p_plus)

    def test_conjugate_identity_and_bounds(self):
        p = ExponentFunction.log_decay(2.0, 1.0)
        pc = p.conjugate()
        pts = np.linspace(-20, 20, 41)[:, None]
        resid = 1.0 / p.evaluate(pts) + 1.0 / pc.evaluate(pts) - 1.0
        assert np.max(np.abs(resid)) <= 1e-14
        assert pc.p_minus == pytest.approx(1.5)
        assert pc.p_plus == pytest.approx(2.0)

    def test_conjugate_needs_lower_bound_above_one(self):
        with pytest.raises(ValueError, match="p_minus"):
            ExponentFunction.constant(1.0).conjugate()

    def test_dimension_checked(self):
        p = ExponentFunction.constant(2.0, dim=2)
        with pytest.raises(ValueError, match="dimension"):
            p.evaluate(np.zeros((4, 1)))


class TestModular:
    def test_indicator_is_one_for_any_exponent(self):
        chi = Cube((0.5,), 1.0).indicator(BOX, H)
        for p in (ExponentFunction.constant(0.7),
                  ExponentFunction.constant(2.0),
                  ExponentFunction.log_decay(2.0, 1.0)):
            assert modular(chi, p) == pytest.approx(1.0, rel=1e-12)

    def test_doubled_indicator_squares(self):
        f = Cube((0.5,), 1.0).indicator(BOX, H) * 2.0
        assert modular(f, ExponentFunction.constant(2.0)) == pytest.approx(4.0, rel=1e-12)

    def test_variable_exponent_closed_form(self):
        # int_0^1 2^(2+x) dx = 4 / ln 2
        h = 2.0 ** -8
        p = ExponentFunction(
            "derived", 1, 2.0, 3.0, lambda x: 2.0 + np.clip(x[..., 0], 0.0, 1.0))
        f = Cube((0.5,), 1.0).indicator(BOX, h) * 2.0
        assert modular(f, p) == pytest.approx(4.0 / math.log(2.0), rel=1e-5)

    def test_monotone_in_magnitude(self):
        p = ExponentFunction.log_decay(2.0, 0.5)
        f = uniform_profile(5)
        g = f + uniform_profile(6, lo=0.0, hi=1.0)
        assert modular(f, p) <= modular(g, p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            modular(uniform_profile(0), ExponentFunction.constant(2.0, dim=2))


class TestLuxemburgNorm:
    def test_zero_function(self):
        assert luxemburg_norm(GridFunction.zeros(BOX, H),
                              ExponentFunction.constant(2.0)) == 0.0

    def test_indicator_constant_exponent(self):
        chi = Cube((2.0,), 4.0).indicator(BOX, H)
        val = luxemburg_norm(chi, ExponentFunction.constant(2.0))
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_matches_constant_exponent_norms(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            f = uniform_profile(seed)
            p = float(rng.uniform(0.5, 4.0))
            a = luxemburg_norm(f, ExponentFunction.constant(p))
            b = weighted_lp_quasinorm(f, p)
            worst = max(worst, abs(a - b) / b)
        assert worst <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(min_value=0.05, max_value=40.0))
    def test_homogeneity(self, c):
        p = ExponentFunction.log_decay(2.0, 1.0)
        f = uniform_profile(7)
        base = luxemburg_norm(f, p)
        assert luxemburg_norm(f * c, p) == pytest.approx(c * base, rel=1e-12)

    def test_variable_indicator_has_unit_norm(self):
        # modular of chi_[0,1] is 1 for every exponent, so the norm is 1
        p = ExponentFunction(
            "derived", 1, 2.0, 3.0, lambda x: 2.0 + np.clip(x[..., 0], 0.0, 1.0))
        chi = Cube((0.5,), 1.0).indicator(BOX, 2.0 ** -8)
        assert luxemburg_norm(chi, p) == pytest.approx(1.0, rel=1e-12)

    def test_modular_of_normalized_function_is_one(self):
        p = ExponentFunction.log_decay(2.0, 1.0)
        for seed in range(5):
            f = uniform_profile(seed)
            lam = luxemburg_norm(f, p)
            assert modular(f * (1.0 / lam), p) == pytest.approx(1.0, abs=1e-12)


BOX_2D = ((-2.0, 2.0), (-2.0, 2.0))

# exponents of every kind the runs hand to luxemburg_norm, p_- < 1 included
NEWTON_EXPONENTS = {
    "constant": ExponentFunction.constant(1.7),
    "log-decay": ExponentFunction.log_decay(2.0, 1.0),
    "p-minus-below-one": ExponentFunction.log_decay(0.4, 0.5),
    "wide-band": ExponentFunction.log_decay(0.1, 30.0),
    "derived": target_exponent([ExponentFunction.log_decay(1.5, 1.0),
                                ExponentFunction.log_decay(2.0, 0.5)], 0.5),
    "derived-constant": target_exponent([ExponentFunction.constant(2.0)] * 2,
                                        0.5),
    "2-D": ExponentFunction.log_decay(1.5, 1.0, dim=2),
}


def sparse_profile(seed, dim):
    """Samples in [1/4, 2] on a random third of the cells, zero elsewhere;
    every value stays a normal float under any scaling by 2^k, |k| <= 1000."""
    box, h = (BOX_2D, 2.0 ** -3) if dim == 2 else (BOX, H)
    g = GridFunction.zeros(box, h)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.25, 2.0, size=g.samples.shape)
    return g.with_samples(vals * (rng.random(g.samples.shape) < 1.0 / 3.0))


class TestLuxemburgNewton:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(NEWTON_EXPONENTS)),
           k=st.integers(min_value=-1000, max_value=1000),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_modular_residual_and_exact_dyadic_scaling(self, name, k, seed):
        p = NEWTON_EXPONENTS[name]
        f = sparse_profile(seed, p.dim)
        base = luxemburg_norm(f, p)
        assert base > 0
        rho = modular(f.with_samples(f.samples / base), p)
        assert abs(rho - 1.0) <= 1e-12
        scaled = f.with_samples(np.ldexp(f.samples, k))
        lam = luxemburg_norm(scaled, p)
        assert lam == math.ldexp(base, k)
        if lam >= np.finfo(float).tiny:
            rho = modular(scaled.with_samples(scaled.samples / lam), p)
            assert abs(rho - 1.0) <= 1e-12

    def test_constant_on_the_support_takes_the_closed_form(self):
        # target_exponent of constants is a derived exponent; the test is on
        # the sampled values, so it gets the constant's closed form bit for bit
        f = sparse_profile(3, 1)
        derived = NEWTON_EXPONENTS["derived-constant"]
        assert derived.kind == "derived"
        assert (luxemburg_norm(f, derived)
                == luxemburg_norm(f, ExponentFunction.constant(2.0)))
        # a variable exponent that is constant where f lives is closed form too
        step = ExponentFunction(
            "derived", 1, 1.5, 3.0, lambda x: np.where(x[..., 0] < 0, 1.5, 3.0))
        g = f.with_samples(f.samples * (f.coords()[..., 0] < 0))
        assert (luxemburg_norm(g, step)
                == luxemburg_norm(g, ExponentFunction.constant(1.5)))

    def test_subnormal_samples(self):
        f = GridFunction(((0.0, 0.5),), 0.25, np.array([1e-320, 0.0]))
        p = ExponentFunction.log_decay(1.5, 1.0)
        lam = luxemburg_norm(f, p)
        p0 = float(p.evaluate(np.array([[0.125]]))[0])
        assert lam == pytest.approx(1e-320 * 0.25 ** (1.0 / p0), rel=1e-3)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fracharm.varexp, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ValueError, match="did not converge"):
            luxemburg_norm(uniform_profile(0), NEWTON_EXPONENTS["log-decay"])

    def test_nan_exponent_does_not_converge(self):
        p = ExponentFunction("derived", 1, 1.0, 2.0,
                             lambda x: np.where(x[..., 0] < 0, np.nan, 2.0))
        with pytest.raises(ValueError, match="did not converge"):
            luxemburg_norm(uniform_profile(0), p)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_samples_rejected(self, bad):
        f = uniform_profile(0)
        samples = f.samples.copy()
        samples[5] = bad
        with pytest.raises(ValueError, match="finite"):
            luxemburg_norm(f.with_samples(samples),
                           NEWTON_EXPONENTS["log-decay"])


class TestLogHolderEstimate:
    def test_constant_exponent(self):
        rep = log_holder_estimate(ExponentFunction.constant(3.0))
        assert rep.c0 == 0.0 and rep.c_inf == 0.0
        assert rep.p_inf == pytest.approx(3.0, rel=1e-12)
        assert rep.stable

    def test_log_decay_moduli(self):
        rep = log_holder_estimate(ExponentFunction.log_decay(2.0, 1.0))
        # |p(x) - 2| log(e+|x|) = 1 identically; the fitted limit absorbs a bit
        assert 0.8 <= rep.c_inf <= 1.05
        assert 2.0 <= rep.p_inf <= 2.1
        assert rep.stable

    def test_step_exponent_flagged_unstable(self):
        step = ExponentFunction(
            "derived", 1, 2.0, 3.0, lambda x: 2.0 + (x[..., 0] > 0.0))
        seps = 2.0 ** -np.arange(2.0, 21.0)
        pts = np.stack([-seps / 2.0, seps / 2.0], axis=1)[:, :, None]
        rep = log_holder_estimate(step, pts)
        assert not rep.stable
        # the estimate grows without bound as the pairs refine
        coarse = log_holder_estimate(step, pts[:7])
        assert rep.c0 > coarse.c0 + 5.0

    def test_report_serializes(self):
        d = log_holder_estimate(ExponentFunction.constant(2.0)).to_json_dict()
        assert set(d) == {"C0", "C_inf", "p_inf", "stable"}


class TestDeriveSystem:
    def constant_system(self):
        p = ExponentFunction.constant(4.0)
        return derive_system([p, p], [2.0, 2.0], 0.25)

    def test_constant_reference_values(self):
        sys = self.constant_system()
        assert sys.gammas == pytest.approx((0.125, 0.125), abs=1e-15)
        assert sys.slot_scalars == pytest.approx((8.0 / 3.0,) * 2, rel=1e-14)
        assert sys.target_scalar == pytest.approx(4.0 / 3.0, rel=1e-14)
        pts = np.linspace(-6, 6, 25)[:, None]
        assert np.max(np.abs(sys.target.evaluate(pts) - 4.0)) <= 1e-12
        assert np.max(np.abs(sys.target_bar.evaluate(pts) - 3.0)) <= 1e-12
        for s in sys.sigmas:
            assert np.max(np.abs(s.evaluate(pts) - 1.5)) <= 1e-12
        for t in sys.thetas:
            assert np.max(np.abs(t.evaluate(pts) - 0.5)) <= 1e-12

    def test_theta_partition_of_unity(self):
        p1 = ExponentFunction.log_decay(4.0, 0.5)
        p2 = ExponentFunction.log_decay(3.0, 1.0, center=(1.0,))
        sys = derive_system([p1, p2], [2.0, 1.5], 0.3, samples=1000)
        assert sys.certificate["max_theta_residual"] <= 1e-12

    def test_pointwise_identities_certified(self):
        p1 = ExponentFunction.log_decay(4.0, 0.5)
        p2 = ExponentFunction.log_decay(3.0, 1.0, center=(1.0,))
        sys = derive_system([p1, p2], [2.0, 1.5], 0.3)
        cert = sys.certificate
        assert cert["max_target_identity_residual"] <= 1e-12
        assert cert["max_dual_residual"] <= 1e-14
        assert cert["gamma_total_residual"] <= 1e-15
        assert all(s["admissible"] for s in cert["slots"])

    def test_sigma_lower_bounds_above_one(self):
        p1 = ExponentFunction.log_decay(4.0, 0.5)
        p2 = ExponentFunction.log_decay(3.0, 1.0, center=(1.0,))
        sys = derive_system([p1, p2], [2.0, 1.5], 0.3)
        for lo, sampled in zip(sys.certificate["sigma_bound_min"],
                               sys.certificate["sigma_sampled_min"]):
            assert lo > 1.0
            assert sampled >= lo - 1e-12

    def test_slot_cap_equals_dual_form(self):
        # the cap n / gamma_i must agree with p_i * (q_i / p_i)'
        sys = self.constant_system()
        for s, qi, slot in zip(sys.hardy_exponents, sys.slot_scalars,
                               sys.certificate["slots"]):
            ratio = qi / s
            dual_form = s * ratio / (ratio - 1.0)
            assert slot["cap"] == pytest.approx(dual_form, rel=1e-12)

    def test_scalar_must_sit_below_lower_bound(self):
        p = ExponentFunction.constant(4.0)
        with pytest.raises(ValueError, match="strictly below"):
            derive_system([p], [4.0], 0.1)

    def test_room_precondition(self):
        p = ExponentFunction.constant(4.0)
        with pytest.raises(ValueError, match="exceed"):
            derive_system([p, p], [2.0, 2.0], 1.9)

    def test_length_mismatch(self):
        p = ExponentFunction.constant(4.0)
        with pytest.raises(ValueError, match="one scalar"):
            derive_system([p, p], [2.0], 0.25)

    def test_json_payload(self):
        d = self.constant_system().to_json_dict()
        assert d["gamma"] == 0.25
        assert d["inputs"][0]["kind"] == "constant"
        assert "sampled_ranges" in d["certificate"]
        rng = d["certificate"]["sampled_ranges"]
        assert rng["target"] == [pytest.approx(4.0), pytest.approx(4.0)]


class TestRubioIterate:
    def chi(self):
        return Cube((0.5,), 1.0).indicator(BOX, H)

    def test_depth_zero_is_identity(self):
        out = rubio_iterate(self.chi(), ExponentFunction.constant(2.0), 1.5, 0)
        assert np.array_equal(out.samples, self.chi().samples)

    def test_pointwise_domination(self):
        h = uniform_profile(11)
        out = rubio_iterate(h, ExponentFunction.constant(2.0), 1.5, 4)
        assert np.all(out.samples >= h.samples)

    def test_monotone_in_depth(self):
        sigma = ExponentFunction.constant(2.0)
        prev = rubio_iterate(self.chi(), sigma, 1.5, 0)
        for depth in range(1, 6):
            cur = rubio_iterate(self.chi(), sigma, 1.5, depth)
            assert np.all(cur.samples >= prev.samples)
            prev = cur

    def test_norm_inflation_below_two(self):
        sigma = ExponentFunction.constant(2.0)
        out = rubio_iterate(self.chi(), sigma, 1.5, 8)
        ratio = luxemburg_norm(out, sigma) / luxemburg_norm(self.chi(), sigma)
        assert ratio <= 2.0

    def test_validation(self):
        sigma = ExponentFunction.constant(2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            rubio_iterate(self.chi() * -1.0, sigma, 1.5, 2)
        with pytest.raises(ValueError, match="positive"):
            rubio_iterate(self.chi(), sigma, 0.0, 2)
        with pytest.raises(ValueError, match="depth"):
            rubio_iterate(self.chi(), sigma, 1.5, -1)
        with pytest.raises(ValueError, match="sigma"):
            rubio_iterate(self.chi(), ExponentFunction.constant(1.0), 1.5, 2)


class TestRubioPropertiesCheck:
    def test_constant_input_exact_geometry(self):
        # M of a constant is the constant, so the iteration sums a plain
        # geometric series and every property is exact
        ones = GridFunction.zeros(BOX, H) + 1.0
        rep = rubio_properties_check(ones, ExponentFunction.constant(2.0), 8)
        series = sum(3.0 ** -j for j in range(9))
        assert rep.domination_margin == pytest.approx(series - 1.0, rel=1e-12)
        assert rep.norm_ratio == pytest.approx(series, rel=1e-6)
        assert rep.a1_estimate == pytest.approx(1.0, rel=1e-12)
        assert rep.domination_ok and rep.a1_ok
        assert rep.rh_report.stable

    def test_indicator_all_properties(self):
        chi = Cube((0.5,), 1.0).indicator(BOX, H)
        rep = rubio_properties_check(chi, ExponentFunction.constant(2.0), 8)
        assert rep.domination_ok
        assert rep.norm_ratio <= 2.0
        assert rep.a1_ok
        assert rep.a1_estimate <= rep.a1_bound
        assert math.isfinite(rep.rh_report.value) and rep.rh_report.stable

    def test_report_serializes(self):
        chi = Cube((0.5,), 1.0).indicator(BOX, H)
        d = rubio_properties_check(chi, ExponentFunction.constant(2.0), 4).to_json_dict()
        assert d["domination_ok"] and d["a1_ok"]
        assert d["metadata"]["depth"] == 4
        assert "rh" in d and "constant" in d["rh"]

    @pytest.mark.parametrize("h", [
        uniform_profile(3),
        uniform_profile(4, box=((-2.0, 2.0), (-2.0, 2.0)), h=2.0 ** -3),
    ], ids=["1d", "2d"])
    def test_hands_out_iterate_and_next_power(self, h):
        # the chain reads A, the iterate and the norms from the report, so
        # they must be the bits the standalone functions compute
        sigma = ExponentFunction.constant(2.0, dim=h.dim)
        rep = rubio_properties_check(h, sigma, 3)
        orbit = [h, hl_maximal(h), iterated_maximal(h, 2)]
        assert rep.opnorm == maximal_opnorm_estimate(sigma, orbit)[0]
        assert rep.metadata["opnorm"] == rep.opnorm
        iterate = rubio_iterate(h, sigma, rep.opnorm, 3)
        assert np.array_equal(rep.iterate.samples, iterate.samples)
        assert rep.input_norm == luxemburg_norm(h, sigma)
        assert rep.iterate_norm == luxemburg_norm(iterate, sigma)
        assert rep.norm_ratio == rep.iterate_norm / rep.input_norm
        assert rep.next_power_norm == luxemburg_norm(iterated_maximal(h, 4), sigma)
        assert set(rep.to_json_dict()) == {
            "domination_margin", "domination_ok", "norm_ratio", "a1_estimate",
            "a1_bound", "a1_ok", "rh", "metadata"}


def orbit_of(f, links):
    """f, Mf, ..., M^(links-1) f."""
    orbit = [f]
    while len(orbit) < links:
        orbit.append(hl_maximal(orbit[-1]))
    return orbit


class TestMaximalOpnormEstimate:
    def test_constant_probe_gives_safety_factor(self):
        ones = GridFunction.zeros(BOX, H) + 1.0
        a, _ = maximal_opnorm_estimate(ExponentFunction.constant(2.0),
                                       orbit_of(ones, 2))
        assert a == 1.5

    def test_dominates_probe_ratios(self):
        sigma = ExponentFunction.constant(2.0)
        chi = Cube((0.5,), 1.0).indicator(BOX, H)
        orbit = orbit_of(chi, 3)
        a, norms = maximal_opnorm_estimate(sigma, orbit)
        assert norms == [luxemburg_norm(g, sigma) for g in orbit]
        worst = max(luxemburg_norm(hl_maximal(chi), sigma) / luxemburg_norm(chi, sigma),
                    luxemburg_norm(orbit[2], sigma) / luxemburg_norm(orbit[1], sigma))
        assert a >= worst
        assert a == 1.5 * worst

    def test_monotone_in_probe_set(self):
        sigma = ExponentFunction.constant(2.0)
        orbit = orbit_of(uniform_profile(0), 4)
        a1 = maximal_opnorm_estimate(sigma, orbit[:2])[0]
        a2 = maximal_opnorm_estimate(sigma, orbit[:3])[0]
        a3 = maximal_opnorm_estimate(sigma, orbit)[0]
        assert a1 <= a2 <= a3

    def test_validation(self):
        with pytest.raises(ValueError, match="probe"):
            maximal_opnorm_estimate(ExponentFunction.constant(2.0), [])
        with pytest.raises(ValueError, match="probe"):
            maximal_opnorm_estimate(ExponentFunction.constant(2.0), [uniform_profile(0)])
        with pytest.raises(ValueError, match="sigma"):
            maximal_opnorm_estimate(ExponentFunction.constant(1.0),
                                    orbit_of(uniform_profile(0), 2))
        with pytest.raises(ValueError, match="zero"):
            maximal_opnorm_estimate(ExponentFunction.constant(2.0),
                                    orbit_of(GridFunction.zeros(BOX, H), 2))


class TestDualWitness:
    def test_self_dual_constant_exponent(self):
        f = GridFunction.zeros(BOX, H)
        f = f.with_samples(np.exp(-f.coords()[..., 0] ** 2))
        q2 = ExponentFunction.constant(2.0)
        wit, norm = dual_witness(f, q2)
        assert norm == luxemburg_norm(f, q2)
        pairing = float(np.sum(f.samples * wit.samples) * H)
        assert pairing == pytest.approx(weighted_lp_quasinorm(f, 2.0), rel=1e-6)
        assert luxemburg_norm(wit, q2.conjugate()) == pytest.approx(1.0, abs=1e-6)

    def test_indicator_cubic_exponent(self):
        chi = Cube((0.5,), 1.0).indicator(BOX, H)
        wit, _ = dual_witness(chi, ExponentFunction.constant(3.0))
        pairing = float(np.sum(chi.samples * wit.samples) * H)
        assert pairing == pytest.approx(1.0, rel=1e-6)

    def test_variable_exponent_recovers_half_norm(self):
        qbar = ExponentFunction.log_decay(2.0, 1.0)
        f = GridFunction.zeros(BOX, H)
        f = f.with_samples(1.0 / (1.0 + f.coords()[..., 0] ** 2))
        wit, norm = dual_witness(f, qbar)
        pairing = float(np.sum(f.samples * wit.samples) * H)
        assert norm == luxemburg_norm(f, qbar)
        assert pairing >= 0.5 * norm
        assert luxemburg_norm(wit, qbar.conjugate()) == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        q2 = ExponentFunction.constant(2.0)
        with pytest.raises(ValueError, match="nonzero"):
            dual_witness(GridFunction.zeros(BOX, H), q2)
        with pytest.raises(ValueError, match="nonnegative"):
            dual_witness(GridFunction.zeros(BOX, H) - 1.0, q2)
        chi = Cube((0.5,), 1.0).indicator(BOX, H)
        with pytest.raises(ValueError, match="qbar"):
            dual_witness(chi, ExponentFunction.constant(1.0))


class TestGeneralizedHoelder:
    def test_pairing_bounded_by_product_of_norms(self):
        qbar = ExponentFunction.log_decay(2.5, 0.8)
        qbarc = qbar.conjugate()
        worst = 0.0
        for seed in range(10):
            f = uniform_profile(seed)
            g = uniform_profile(seed + 100)
            lhs = float(np.sum(np.abs(f.samples * g.samples)) * H)
            rhs = luxemburg_norm(f, qbar) * luxemburg_norm(g, qbarc)
            worst = max(worst, lhs / rhs)
        assert worst <= 4.0
