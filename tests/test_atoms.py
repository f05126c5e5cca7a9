import math

import numpy as np
import pytest

from fracharm.atoms import (
    Atom,
    AtomicSum,
    hardy_quasinorm,
    make_atom,
    moment,
    random_atomic_family,
)
from fracharm.grid import Cube, GridFunction, weighted_lp_quasinorm
from fracharm.maximal import Mollifier
from fracharm.weights import Weight

BOX = ((-2.0, 2.0),)
H = 2.0 ** -6


def masked_profile(box, h, cube, fn):
    zero = GridFunction.zeros(box, h)
    x = zero.coords()[..., 0]
    inside = cube.contains(zero.coords().reshape(-1, zero.dim)).reshape(x.shape)
    return zero.with_samples(np.where(inside, fn(x), 0.0))


class TestMakeAtom:
    def test_constant_profile_annihilated(self):
        q = Cube((0.5,), 1.0)
        prof = q.indicator(BOX, H)
        with pytest.raises(ValueError, match="annihilates"):
            make_atom(prof, q, 0)

    def test_odd_profile_direction_preserved(self):
        q = Cube((0.0,), 1.0)
        prof = masked_profile(BOX, H, q, lambda x: x)
        a = make_atom(prof, q, 0)
        expect = prof.samples / np.max(np.abs(prof.samples))
        assert np.allclose(a.values.samples, expect, atol=1e-13)
        assert a.values.sup_norm() == 1.0

    def test_moments_vanish_and_match_gram_solve(self):
        q = Cube((0.5,), 1.0)
        h = 2.0 ** -7
        zero = GridFunction.zeros(BOX, h)
        rng = np.random.default_rng(11)
        x = zero.coords()[..., 0]
        sel = (x >= 0.0) & (x < 1.0)
        prof = np.zeros_like(zero.samples)
        prof[sel] = rng.uniform(-1.0, 1.0, size=int(sel.sum()))
        a = make_atom(zero.with_samples(prof), q, 3)
        for alpha in range(4):
            assert abs(moment(a.values, (alpha,))) <= 1e-10

        # independent oracle: normal-equations fit with raw monomials
        design = np.vander(x[sel], N=4, increasing=True)
        coef = np.linalg.solve(design.T @ design, design.T @ prof[sel])
        resid = prof[sel] - design @ coef
        assert np.allclose(a.values.samples[sel], resid / np.max(np.abs(resid)),
                           rtol=1e-8, atol=1e-10)

    def test_profile_outside_cube_rejected(self):
        q = Cube((0.5,), 1.0)
        prof = Cube((0.5,), 1.5).indicator(BOX, H)
        with pytest.raises(ValueError, match="outside"):
            make_atom(prof, q, 0)

    def test_moment_vanishing_survives_joint_dilation(self):
        q = Cube((0.5,), 1.0)
        rng = np.random.default_rng(3)
        zero = GridFunction.zeros(BOX, H)
        x = zero.coords()[..., 0]
        sel = (x >= 0.0) & (x < 1.0)
        prof = np.zeros_like(zero.samples)
        prof[sel] = rng.uniform(-1.0, 1.0, size=int(sel.sum()))
        a1 = make_atom(zero.with_samples(prof), q, 2)

        big = GridFunction(((-4.0, 4.0),), 2 * H, prof)
        a2 = make_atom(big, Cube((1.0,), 2.0), 2)
        # same scaled coordinates, so the same projection, bit for bit
        assert np.array_equal(a2.values.samples, a1.values.samples)

    def test_2d_atom_total_degree_moments(self):
        box = ((-1.0, 1.0), (-1.0, 1.0))
        h = 2.0 ** -4
        q = Cube((0.25, 0.25), 0.5)
        zero = GridFunction.zeros(box, h)
        pts = zero.coords()
        inside = q.contains(pts.reshape(-1, 2)).reshape(zero.samples.shape)
        rng = np.random.default_rng(5)
        prof = np.where(inside, rng.uniform(-1.0, 1.0, size=zero.samples.shape), 0.0)
        a = make_atom(zero.with_samples(prof), q, 1)
        for alpha in [(0, 0), (1, 0), (0, 1)]:
            bound = 1e-10 * q.side ** (2 + sum(alpha))
            assert abs(moment(a.values, alpha)) <= bound
        assert a.values.sup_norm() == 1.0

    def test_single_cell_cube_annihilated(self):
        q = Cube((0.5 + H / 2,), H)
        zero = GridFunction.zeros(BOX, H)
        prof = np.zeros_like(zero.samples)
        prof[np.argmin(np.abs(zero.coords()[..., 0] - q.center[0]))] = 0.7
        with pytest.raises(ValueError, match="annihilates"):
            make_atom(zero.with_samples(prof), q, 0)


class TestAtomValidation:
    def test_bound_enforced(self):
        q = Cube((0.0,), 1.0)
        prof = masked_profile(BOX, H, q, lambda x: x)
        a = make_atom(prof, q, 0)
        with pytest.raises(ValueError, match="bounded"):
            Atom(cube=q, order=0, values=a.values * 1.5)

    def test_support_enforced(self):
        q = Cube((0.0,), 1.0)
        prof = masked_profile(BOX, H, q, lambda x: x)
        a = make_atom(prof, q, 0)
        with pytest.raises(ValueError, match="outside"):
            Atom(cube=Cube((0.0,), 0.5), order=0, values=a.values)

    def test_moment_enforced(self):
        q = Cube((0.0,), 1.0)
        with pytest.raises(ValueError, match="moment"):
            Atom(cube=q, order=0, values=q.indicator(BOX, H))


class TestAtomicSum:
    def test_envelope_dominates_exactly(self):
        s = random_atomic_family(0, 10, box=((-4.0, 4.0),), h=2.0 ** -6,
                                 side_exponents=(-2, 0))
        assert np.all(np.abs(s.realized.samples) <= s.envelope.samples)

    def test_empty_sum_needs_grid(self):
        s = AtomicSum.build([], [], box=BOX, h=H)
        assert np.all(s.realized.samples == 0.0)
        with pytest.raises(ValueError):
            AtomicSum.build([], [])

    def test_coefficient_validation(self):
        q = Cube((0.0,), 1.0)
        a = make_atom(masked_profile(BOX, H, q, lambda x: x), q, 0)
        with pytest.raises(ValueError):
            AtomicSum.build([1.0, 2.0], [a])
        with pytest.raises(ValueError):
            AtomicSum.build([-1.0], [a])


class TestHardyQuasinorm:
    MOL = Mollifier.dyadic(-3, -1)

    def atom_sum(self, h):
        q = Cube((0.5,), 1.0)
        prof = masked_profile(BOX, h, q, lambda x: np.sin(2.0 * np.pi * x))
        a = make_atom(prof, q, 1)
        return AtomicSum.build([1.0], [a])

    def test_zero_function(self):
        z = GridFunction.zeros(BOX, H)
        assert hardy_quasinorm(z, 1.0, None, self.MOL) == 0.0

    def test_power_of_two_homogeneity_exact(self):
        f = self.atom_sum(H).realized
        assert hardy_quasinorm(f * 2.0, 1.0, None, self.MOL) == \
            2.0 * hardy_quasinorm(f, 1.0, None, self.MOL)

    def test_general_homogeneity(self):
        f = self.atom_sum(H).realized
        w = Weight.constant(1.0, 1).sample(BOX, H)
        got = hardy_quasinorm(f * 1.7, 0.8, w, self.MOL)
        ref = hardy_quasinorm(f, 0.8, w, self.MOL)
        assert got == pytest.approx(1.7 * ref, rel=1e-12)

    def test_single_atom_value_stable_under_refinement(self):
        # first-order convergence: consecutive levels agree within 1%
        # once h reaches 2^-9
        vals = [hardy_quasinorm(self.atom_sum(h).realized, 1.0,
                                Weight.constant(1.0, 1).sample(BOX, h), self.MOL)
                for h in (2.0 ** -8, 2.0 ** -9)]
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert vals[1] == pytest.approx(vals[0], rel=0.01)

    def test_margin_violation_propagates(self):
        q = Cube((-1.7,), 0.5)
        prof = masked_profile(BOX, H, q, lambda x: np.sin(8.0 * x + 0.3))
        f = AtomicSum.build([1.0], [make_atom(prof, q, 0)]).realized
        with pytest.raises(ValueError, match="margin"):
            hardy_quasinorm(f, 1.0, None, Mollifier.dyadic(-1, 0))


class TestEnvelopeNorm:
    def test_single_indicator_low_p(self):
        q = Cube((1.0,), 2.0)
        prof = masked_profile(BOX, H, q, lambda x: np.sin(np.pi * x))
        s = AtomicSum.build([1.0], [make_atom(prof, q, 0)])
        w = Weight.constant(1.0, 1).sample(BOX, H)
        assert weighted_lp_quasinorm(s.envelope, 0.5, w) == 4.0

    def test_disjoint_cubes_additive_at_p_one(self):
        q1, q2 = Cube((-1.0,), 0.5), Cube((1.0,), 0.5)
        a1 = make_atom(masked_profile(BOX, H, q1, lambda x: x + 1.0), q1, 0)
        a2 = make_atom(masked_profile(BOX, H, q2, lambda x: x - 1.0), q2, 0)
        s = AtomicSum.build([2.0, 3.0], [a1, a2])
        assert weighted_lp_quasinorm(s.envelope, 1.0) == pytest.approx(
            2.0 * 0.5 + 3.0 * 0.5, rel=1e-14)

    def test_overlapping_cubes_match_direct_quadrature(self):
        q1, q2 = Cube((0.0,), 1.0), Cube((0.25,), 1.0)
        a1 = make_atom(masked_profile(BOX, H, q1, lambda x: x), q1, 0)
        a2 = make_atom(masked_profile(BOX, H, q2, lambda x: x - 0.25), q2, 0)
        s = AtomicSum.build([1.0, 2.0], [a1, a2])
        env = q1.indicator(BOX, H).samples + 2.0 * q2.indicator(BOX, H).samples
        direct = (H * np.sum(env ** 0.5)) ** 2.0
        assert weighted_lp_quasinorm(s.envelope, 0.5) == pytest.approx(direct, rel=1e-14)


class TestRandomFamily:
    KW = dict(box=((-4.0, 4.0),), h=2.0 ** -6, side_exponents=(-2, 0))

    def test_deterministic_in_seed(self):
        s1 = random_atomic_family(9, 12, **self.KW)
        s2 = random_atomic_family(9, 12, **self.KW)
        assert np.array_equal(s1.realized.samples, s2.realized.samples)
        assert s1.lambdas == s2.lambdas
        assert [a.cube for a in s1.atoms] == [a.cube for a in s2.atoms]

    def test_zero_count(self):
        s = random_atomic_family(1, 0, **self.KW)
        assert np.all(s.realized.samples == 0.0)
        assert s.atoms == ()

    def test_statistics_reproducible(self):
        s1 = random_atomic_family(7, 50, **self.KW)
        s2 = random_atomic_family(7, 50, **self.KW)
        assert s1.envelope.sup_norm() == s2.envelope.sup_norm()
        assert s1.realized.sup_norm() == s2.realized.sup_norm()

    def test_margin_respected(self):
        s = random_atomic_family(2, 20, **self.KW)
        lo, hi = s.realized.box[0]
        for a in s.atoms:
            assert a.cube.lo[0] >= lo + 2.0 - 1e-12
            assert a.cube.hi[0] <= hi - 2.0 + 1e-12

    def test_side_too_small_for_order(self):
        with pytest.raises(ValueError):
            random_atomic_family(0, 1, box=BOX, h=2.0 ** -3,
                                 side_exponents=(-2, 0), order=1)

    def test_2d_family(self):
        s = random_atomic_family(3, 4, box=((-2.0, 2.0), (-2.0, 2.0)),
                                 h=2.0 ** -4, side_exponents=(-1, 0))
        assert np.all(np.abs(s.realized.samples) <= s.envelope.samples)
        assert all(a.values.sup_norm() == 1.0 for a in s.atoms)


class TestHardyEnvelopeControl:
    MOL = Mollifier.dyadic(-3, -1)
    KW = dict(box=((-4.0, 4.0),), h=2.0 ** -6, side_exponents=(-2, 0))

    def ratio(self, s, mol=None):
        num = hardy_quasinorm(s.realized, 1.0, None, mol or self.MOL)
        return num / weighted_lp_quasinorm(s.envelope, 1.0)

    def test_stable_across_seeds(self):
        # families of 24 atoms give the averaging the band presumes; tiny
        # families fluctuate well past it
        ratios = [self.ratio(random_atomic_family(seed, 24, **self.KW))
                  for seed in range(5)]
        assert max(ratios) <= 1.5 * min(ratios)

    def test_exact_under_joint_dilation(self):
        s1 = random_atomic_family(5, 6, **self.KW)
        s2 = random_atomic_family(5, 6, box=((-8.0, 8.0),), h=2.0 ** -5,
                                  side_exponents=(-1, 1))
        assert np.array_equal(s2.realized.samples, s1.realized.samples)
        r1 = self.ratio(s1)
        r2 = self.ratio(s2, mol=Mollifier.dyadic(-2, 0))
        assert r2 == pytest.approx(r1, rel=1e-13)
