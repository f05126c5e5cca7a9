import math

import numpy as np
import pytest

from fracharm.grid import Cube, GridFunction, GridMismatchError
from fracharm.kernels import (
    KenigSteinKernel,
    _subdivision_profile_sum,
    apply_frac_operator,
    kernel_size_check,
    kernel_smoothness_check,
    local_product_bound_check,
    taylor_polynomial,
    taylor_remainder_check,
)


def ks(m, n, gamma, order=1):
    return KenigSteinKernel(m=m, n=n, gamma=gamma, order=order)


class ScaledKernel(KenigSteinKernel):
    """The model kernel times 2.5: size constant 2.5."""

    def profile(self, t):
        return 2.5 * super().profile(t)


class SineKernel(KenigSteinKernel):
    """The model kernel times 1 + sin(3t)/2: not homogeneous, size constant
    at most 1.5."""

    def profile(self, t):
        return super().profile(t) * (1.0 + 0.5 * np.sin(3.0 * t))


class TestKernelSpec:
    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            ks(1, 1, 1.5)
        with pytest.raises(ValueError):
            ks(2, 1, 0.0)
        ks(2, 1, 1.5)

    def test_descriptor_keys(self):
        d = ks(2, 1, 1.0, order=3).descriptor()
        assert d == {"kind": "kenig-stein", "m": 2, "n": 1, "gamma": 1.0,
                     "N": 3, "params": {}}

    def test_evaluate_matches_formula(self):
        k = ks(2, 1, 1.0)
        x = np.array([[0.0]])
        ys = np.array([[[0.25], [0.5]]])
        assert k.evaluate(x, ys)[0] == pytest.approx(1.0 / 0.75, rel=1e-14)


class TestApplyOperator:
    def test_single_slot_half_integral(self):
        # integral of y^(-1/2) over [0,1] evaluated at the origin is 2
        f = Cube((0.5,), 1.0).indicator(((-2.0, 2.0),), 2.0 ** -10)
        val = apply_frac_operator(ks(1, 1, 0.5), [f], points=np.array([[0.0]]))[0]
        assert val == pytest.approx(2.0, rel=0.015)

    def test_bilinear_log_integral(self):
        # double integral of (y1 + y2)^(-1) over the unit square is 2 ln 2
        f = Cube((0.5,), 1.0).indicator(((-2.0, 2.0),), 2.0 ** -8)
        val = apply_frac_operator(ks(2, 1, 1.0), [f, f], points=np.array([[0.0]]))[0]
        assert val == pytest.approx(2.0 * math.log(2.0), rel=0.01)

    def test_trilinear_inclusion_exclusion_oracle(self):
        # triple integral of (y1+y2+y3)^(-3/2) over the unit cube via the
        # third antiderivative -(8/3) s^(3/2) and corner inclusion-exclusion
        third = lambda s: -(8.0 / 3.0) * s ** 1.5
        exact = sum(
            (-1) ** (3 - sum(v)) * third(float(sum(v)))
            for v in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        )
        f = Cube((0.5,), 1.0).indicator(((-1.0, 1.0),), 2.0 ** -5)
        val = apply_frac_operator(ks(3, 1, 1.5), [f, f, f], points=np.array([[0.0]]))[0]
        assert val == pytest.approx(exact, rel=0.05)

    def test_2d_corner_value(self):
        # integral of |y|^(-1) over the unit square is 2 ln(1 + sqrt(2))
        box = ((-1.0, 1.0), (-1.0, 1.0))
        f = Cube((0.5, 0.5), 1.0).indicator(box, 2.0 ** -6)
        val = apply_frac_operator(ks(1, 2, 1.0), [f], points=np.array([[0.0, 0.0]]))[0]
        assert val == pytest.approx(2.0 * math.log(1.0 + math.sqrt(2.0)), rel=0.02)

    def test_singular_cells_finite_and_accurate(self):
        # output at a cell center inside the support: the subdivision rule
        # keeps it finite; exact value is 2 sqrt(x) + 2 sqrt(1-x)
        h = 2.0 ** -8
        f = Cube((0.5,), 1.0).indicator(((-2.0, 2.0),), h)
        out = apply_frac_operator(ks(1, 1, 0.5), [f])
        i = int(2.5 / h)  # cell center 0.5 + h/2
        x = out.coords()[i, 0]
        exact = 2.0 * math.sqrt(x) + 2.0 * math.sqrt(1.0 - x)
        assert np.all(np.isfinite(out.samples))
        assert out.samples[i] == pytest.approx(exact, rel=0.05)

    def test_slot_homogeneity_exact(self):
        h = 2.0 ** -6
        box = ((-2.0, 2.0),)
        f = Cube((0.5,), 1.0).indicator(box, h)
        g = Cube((-0.75,), 0.5).indicator(box, h)
        a = apply_frac_operator(ks(2, 1, 1.0), [f * 2.0, g])
        b = apply_frac_operator(ks(2, 1, 1.0), [f, g])
        assert np.array_equal(a.samples, 2.0 * b.samples)

    def test_symmetry_in_identical_kernel(self):
        h = 2.0 ** -6
        box = ((-2.0, 2.0),)
        f = Cube((0.5,), 1.0).indicator(box, h)
        g = Cube((-0.75,), 0.5).indicator(box, h) * 1.7
        a = apply_frac_operator(ks(2, 1, 1.0), [f, g])
        b = apply_frac_operator(ks(2, 1, 1.0), [g, f])
        assert np.allclose(a.samples, b.samples, rtol=1e-12, atol=0)

    def test_translation_covariance_exact(self):
        h = 2.0 ** -6
        box = ((-2.0, 2.0),)
        f1 = Cube((0.0,), 0.5).indicator(box, h)
        f2 = Cube((0.25,), 0.5).indicator(box, h)  # shift by 16 cells
        a = apply_frac_operator(ks(1, 1, 0.5), [f1])
        b = apply_frac_operator(ks(1, 1, 0.5), [f2])
        s = int(0.25 / h)
        assert np.array_equal(b.samples[s:], a.samples[:-s])

    def test_dilation_covariance_doubled_grid(self):
        samples = Cube((0.5,), 1.0).indicator(((-2.0, 2.0),), 2.0 ** -7).samples
        f1 = GridFunction(((-2.0, 2.0),), 2.0 ** -7, samples)
        f2 = GridFunction(((-4.0, 4.0),), 2.0 ** -6, samples)
        a = apply_frac_operator(ks(1, 1, 0.5), [f1])
        b = apply_frac_operator(ks(1, 1, 0.5), [f2])
        assert np.allclose(b.samples, 2.0 ** 0.5 * a.samples, rtol=1e-12)

    def test_dilation_same_grid_within_two_percent(self):
        h = 2.0 ** -8
        box = ((-4.0, 4.0),)
        f1 = Cube((0.5,), 1.0).indicator(box, h)
        f2 = Cube((1.0,), 2.0).indicator(box, h)
        a = apply_frac_operator(ks(1, 1, 0.5), [f1], points=np.array([[0.25]]))[0]
        b = apply_frac_operator(ks(1, 1, 0.5), [f2], points=np.array([[0.5]]))[0]
        assert b == pytest.approx(2.0 ** 0.5 * a, rel=0.02)

    def test_quadrature_convergence_rate(self):
        errs = []
        for k in (6, 8, 10):
            f = Cube((0.5,), 1.0).indicator(((-2.0, 2.0),), 2.0 ** -k)
            v = apply_frac_operator(ks(1, 1, 0.5), [f], points=np.array([[0.0]]))[0]
            errs.append(abs(v - 2.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] / errs[1] == pytest.approx(0.5, rel=0.05)

    def test_overridden_profile_is_applied(self):
        # the sum of exponentials expands the model profile only; a kernel
        # with its own profile is summed with that profile
        h = 2.0 ** -6
        box = ((-2.0, 2.0),)
        fs = [Cube((0.5,), 1.0).indicator(box, h), Cube((-0.75,), 0.5).indicator(box, h)]
        model = apply_frac_operator(ks(2, 1, 1.0), fs)
        scaled = apply_frac_operator(ScaledKernel(m=2, n=1, gamma=1.0), fs)
        assert np.allclose(scaled.samples, 2.5 * model.samples, rtol=1e-12, atol=0)

    def test_zero_support_short_circuits(self):
        f = GridFunction.zeros(((-1.0, 1.0),), 2.0 ** -4)
        out = apply_frac_operator(ks(1, 1, 0.5), [f])
        assert np.all(out.samples == 0)

    def test_cost_cap(self):
        f = Cube((0.5,), 1.0).indicator(((-1.0, 1.0),), 2.0 ** -3)
        with pytest.raises(ValueError):
            apply_frac_operator(ks(5, 1, 2.0), [f] * 5)

    def test_grid_mismatch(self):
        f = Cube((0.5,), 1.0).indicator(((-1.0, 1.0),), 2.0 ** -3)
        g = Cube((0.5,), 1.0).indicator(((-1.0, 1.0),), 2.0 ** -4)
        with pytest.raises(GridMismatchError):
            apply_frac_operator(ks(2, 1, 1.0), [f, g])


def dense_reference(kernel, fs):
    """apply_frac_operator's on-grid midpoint sum in 1-D, in long double, by
    the dense (cell x tuple) tensor.  t / h is the integer offset sum
    k = sum_i |a - b_i|, so one table of (k h)^(gamma - m) serves."""
    m, h = kernel.m, np.longdouble(fs[0].h)
    vs = [f.samples.astype(np.longdouble) for f in fs]
    G = vs[0].size
    table = np.zeros(m * G + 1, dtype=np.longdouble)
    k = np.arange(1, m * G + 1).astype(np.longdouble)
    table[1:] = (k * h) ** (np.longdouble(kernel.gamma) - m)  # k = 0 is singular
    sup = [np.flatnonzero(v) for v in vs]
    out = np.zeros(G, dtype=np.longdouble)
    chunk = max(1, (1 << 20) // int(np.prod([s.size for s in sup])))
    for c0 in range(0, G, chunk):
        a = np.arange(c0, min(G, c0 + chunk))[:, None]
        K = np.abs(a - sup[0])
        for i in range(1, m):
            D = np.abs(a - sup[i])
            K = K[..., None] + D.reshape(D.shape[:1] + (1,) * i + D.shape[1:])
        W = table[K]
        for i in reversed(range(m)):
            W = W @ vs[i][sup[i]]
        out[c0 : c0 + chunk] = W
    diag = np.prod(vs, axis=0)
    out += np.longdouble(_subdivision_profile_sum(kernel, fs[0].h)) * diag / 3 ** m
    return out * h ** m


def vanishing_moment_atom(rng, size):
    """Random signs and sizes on ``size`` cells with moments 0 and 1 zero."""
    f = rng.standard_normal(size)
    q, _ = np.linalg.qr(np.vander(np.arange(size) - (size - 1) / 2, 2))
    return f - q @ (q.T @ f)


FACTORIZED_CASES = (
    [(1, G, S, g) for G in (256, 1024) for S in (16, 32, 64, G) for g in (0.25, 0.5)]
    + [(2, 256, S, g) for S in (16, 32, 64, 256) for g in (0.25, 0.5, 1.3, 1.5)]
    + [(2, 1024, S, g) for S in (16, 32, 64) for g in (0.25, 0.5, 1.3, 1.5)]
    + [(3, 64, 16, 1.3), (4, 64, 16, 0.5)]
)


class TestFactorizedOperator:
    """The 1-D on-grid path against the long-double dense midpoint sum."""

    @pytest.mark.parametrize("m,G,S,gamma", FACTORIZED_CASES)
    def test_matches_dense_reference(self, m, G, S, gamma):
        rng = np.random.default_rng([m, G, S, int(100 * gamma)])
        h = 8.0 / G
        fs = []
        for i in range(m):
            # overlapping, unequal supports: every slot reaches past the
            # others' hulls on one side
            v = np.zeros(G)
            start = 0 if S == G else G // 3 + i * (S // 4)
            v[start : start + S] = vanishing_moment_atom(rng, S)
            fs.append(GridFunction(((-4.0, 4.0),), h, v))
        kernel = ks(m, 1, gamma)
        got = apply_frac_operator(kernel, fs).samples
        ref = dense_reference(kernel, fs)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert err <= 1e-13


class TestSizeCheck:
    def test_model_kernel_is_one(self):
        for k in (ks(1, 1, 0.5), ks(2, 1, 1.0), ks(1, 2, 1.0), ks(2, 2, 2.5)):
            assert kernel_size_check(k) == pytest.approx(1.0, rel=1e-12)

    def test_scaled_kernel(self):
        k = ScaledKernel(m=1, n=1, gamma=0.5)
        assert kernel_size_check(k) == pytest.approx(2.5, rel=1e-12)

    def test_sine_perturbation_bounded(self):
        k = SineKernel(m=1, n=1, gamma=0.5)
        r = kernel_size_check(k, 800)
        assert 1.2 <= r <= 1.5 + 1e-9


class TestSmoothnessCheck:
    def test_first_order_model_oracle(self):
        # d/dy |x-y|^(gamma-1) has modulus (1-gamma) |x-y|^(gamma-2)
        r = kernel_smoothness_check(ks(1, 1, 0.5), 1)
        assert r == pytest.approx(0.5, rel=0.02)

    def test_order_zero_equals_size_check(self):
        k = ks(2, 1, 1.0)
        assert kernel_smoothness_check(k, 0, 300, seed=7) == kernel_size_check(
            k, 300, seed=7, min_t=1e-2
        )

    def test_bilinear_second_order_oracle(self):
        # second slot derivatives of t^(-1) sum to 4 t^(-3) in 1D
        r = kernel_smoothness_check(ks(2, 1, 1.0), 2)
        assert r == pytest.approx(4.0, rel=0.02)

    def test_sample_stability(self):
        a = kernel_smoothness_check(ks(2, 1, 1.0), 2, 200, seed=0)
        b = kernel_smoothness_check(ks(2, 1, 1.0), 2, 400, seed=1)
        assert abs(a - b) <= 0.05 * max(a, b)

    def test_2d_mixed_partials_finite(self):
        r = kernel_smoothness_check(ks(1, 2, 1.0), 2, 100)
        assert math.isfinite(r) and r > 0


class TestTaylor:
    def test_zeroth_coefficient_is_kernel_value(self):
        k = ks(1, 1, 0.5)
        td = taylor_polynomial(k, 0, (0.0,), 1)
        x = np.array([[2.0]])
        ys = np.array([[[0.1]]])
        c = td.coefficients(x, ys)
        assert c[(0,)][0] == pytest.approx(2.0 ** -0.5, rel=1e-14)

    def test_first_coefficient_matches_hand_derivative(self):
        k = ks(1, 1, 0.5, order=2)
        td = taylor_polynomial(k, 0, (0.0,), 2)
        x = np.array([[2.0]])
        ys = np.array([[[0.1]]])
        c = td.coefficients(x, ys)
        # d/dy |x-y|^(-1/2) at y=0, x=2 is +0.5 * 2^(-3/2)
        assert c[(1,)][0] == pytest.approx(0.5 * 2.0 ** -1.5, rel=2e-3)

    def test_remainder_zero_at_center(self):
        k = ks(1, 1, 0.5)
        td = taylor_polynomial(k, 0, (0.0,), 1)
        x = np.array([[2.0]])
        ys = np.array([[[0.0]]])
        rem = k.evaluate(x, ys) - td.evaluate(x, ys)
        assert rem[0] == 0.0

    def test_first_order_ratio_band(self):
        # sup over admissible configurations is 0.375 in the far limit sense;
        # the x-near-star corner pushes it to about 0.337, never past 0.375
        k = ks(1, 1, 0.5)
        q = Cube((0.0,), 1.0)
        td = taylor_polynomial(k, 0, q.center, 1)
        r = taylor_remainder_check(k, td, q, n_samples=400, seed=2)
        assert 0.15 <= r <= 0.375 * 1.05

    def test_dilation_sweep_invariance(self):
        k = ks(1, 1, 0.5)
        vals = []
        for side in (0.5, 1.0, 2.0):
            q = Cube((0.0,), side)
            td = taylor_polynomial(k, 0, q.center, 1)
            vals.append(taylor_remainder_check(k, td, q, n_samples=200, seed=3))
        assert max(vals) <= min(vals) * (1 + 1e-9)

    def test_bilinear_remainder_finite(self):
        k = ks(2, 1, 1.0)
        q = Cube((0.0,), 1.0)
        td = taylor_polynomial(k, 0, q.center, 2)
        r = taylor_remainder_check(k, td, q, n_samples=150, seed=4)
        assert math.isfinite(r) and r > 0

    def test_center_mismatch_rejected(self):
        k = ks(1, 1, 0.5)
        td = taylor_polynomial(k, 0, (0.0,), 1)
        with pytest.raises(ValueError):
            taylor_remainder_check(k, td, Cube((1.0,), 1.0))


class TestLocalProductBound:
    BOX = ((-2.0, 2.0),)
    H = 2.0 ** -8

    def test_unit_cube_pair_oracle(self):
        q = Cube((0.5,), 1.0)
        r = local_product_bound_check(
            ks(2, 1, 1.0), [q, q], [0.5, 0.5], (0.0,), box=self.BOX, h=self.H
        )
        assert r == pytest.approx(2.0 * math.log(2.0), rel=0.01)

    def test_dilation_sweep_within_five_percent(self):
        vals = []
        for k in (-1, 0, 1):
            side = 2.0 ** k
            q = Cube((side / 2,), side)
            vals.append(local_product_bound_check(
                ks(2, 1, 1.0), [q, q], [0.5, 0.5], (0.0,), box=self.BOX, h=self.H
            ))
        assert max(vals) <= min(vals) * 1.05

    def test_point_outside_stars_rejected(self):
        q1 = Cube((0.5,), 1.0)
        q2 = Cube((10.5,), 1.0)
        with pytest.raises(ValueError):
            local_product_bound_check(
                ks(2, 1, 1.0), [q1, q2], [0.5, 0.5], (0.0,), box=self.BOX, h=self.H
            )

    def test_split_must_sum_to_gamma(self):
        q = Cube((0.5,), 1.0)
        with pytest.raises(ValueError):
            local_product_bound_check(
                ks(2, 1, 1.0), [q, q], [0.5, 0.75], (0.0,), box=self.BOX, h=self.H
            )
