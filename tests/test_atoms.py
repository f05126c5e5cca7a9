import math

import numpy as np
import pytest

from fracharm.atoms import (
    Atom,
    hardy_quasinorm,
    make_atom,
    moment,
    random_atomic_family,
    random_coefficient,
    random_cube,
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


def realized(lambdas, atoms):
    """sum_i lam_i a_i, added to zeros in order."""
    f = np.zeros_like(atoms[0].values.samples)
    for lam, a in zip(lambdas, atoms):
        f = f + lam * a.values.samples
    return atoms[0].values.with_samples(f)


def envelope(lambdas, atoms, box, h):
    """sum_i lam_i chi_{Q_i}, the pointwise majorant of the realized sum."""
    zero = GridFunction.zeros(box, h)
    env = np.zeros_like(zero.samples)
    for lam, a in zip(lambdas, atoms):
        env = env + lam * a.cube.indicator(box, h).samples
    return zero.with_samples(env)


def family_draws(seed, count, *, box, h, side_exponents, order=1,
                 lambda_range=(0.5, 2.0)):
    """The coefficients and atoms behind random_atomic_family, drawn again
    under its law."""
    zero = GridFunction.zeros(box, h)
    rng = np.random.default_rng(seed)
    lambdas, atoms = [], []
    for _ in range(count):
        cube = random_cube(rng, zero.box, h, side_exponents)
        prof = np.zeros_like(zero.samples)
        cells = zero.cells(cube)
        prof[cells] = rng.uniform(-1.0, 1.0, size=prof[cells].shape)
        atoms.append(make_atom(zero.with_samples(prof), cube, order))
        lambdas.append(random_coefficient(rng, lambda_range))
    return lambdas, atoms


def support_coords(f):
    """Cell centers where f is nonzero, shape (count, dim)."""
    return f.coords()[f.samples != 0.0]


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


class TestHardyQuasinorm:
    MOL = Mollifier.dyadic(-3, -1)

    def atom_sum(self, h):
        q = Cube((0.5,), 1.0)
        prof = masked_profile(BOX, h, q, lambda x: np.sin(2.0 * np.pi * x))
        a = make_atom(prof, q, 1)
        return realized([1.0], [a])

    def test_zero_function(self):
        z = GridFunction.zeros(BOX, H)
        assert hardy_quasinorm(z, 1.0, None, self.MOL) == 0.0

    def test_power_of_two_homogeneity_exact(self):
        f = self.atom_sum(H)
        assert hardy_quasinorm(f * 2.0, 1.0, None, self.MOL) == \
            2.0 * hardy_quasinorm(f, 1.0, None, self.MOL)

    def test_general_homogeneity(self):
        f = self.atom_sum(H)
        w = Weight.constant(1.0, 1).sample(BOX, H)
        got = hardy_quasinorm(f * 1.7, 0.8, w, self.MOL)
        ref = hardy_quasinorm(f, 0.8, w, self.MOL)
        assert got == pytest.approx(1.7 * ref, rel=1e-12)

    def test_single_atom_value_stable_under_refinement(self):
        # first-order convergence: consecutive levels agree within 1%
        # once h reaches 2^-9
        vals = [hardy_quasinorm(self.atom_sum(h), 1.0,
                                Weight.constant(1.0, 1).sample(BOX, h), self.MOL)
                for h in (2.0 ** -8, 2.0 ** -9)]
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert vals[1] == pytest.approx(vals[0], rel=0.01)

    def test_margin_violation_propagates(self):
        q = Cube((-1.7,), 0.5)
        prof = masked_profile(BOX, H, q, lambda x: np.sin(8.0 * x + 0.3))
        f = realized([1.0], [make_atom(prof, q, 0)])
        with pytest.raises(ValueError, match="margin"):
            hardy_quasinorm(f, 1.0, None, Mollifier.dyadic(-1, 0))


class TestEnvelopeNorm:
    def test_single_indicator_low_p(self):
        q = Cube((1.0,), 2.0)
        prof = masked_profile(BOX, H, q, lambda x: np.sin(np.pi * x))
        env = envelope([1.0], [make_atom(prof, q, 0)], BOX, H)
        w = Weight.constant(1.0, 1).sample(BOX, H)
        assert weighted_lp_quasinorm(env, 0.5, w) == 4.0

    def test_disjoint_cubes_additive_at_p_one(self):
        q1, q2 = Cube((-1.0,), 0.5), Cube((1.0,), 0.5)
        a1 = make_atom(masked_profile(BOX, H, q1, lambda x: x + 1.0), q1, 0)
        a2 = make_atom(masked_profile(BOX, H, q2, lambda x: x - 1.0), q2, 0)
        env = envelope([2.0, 3.0], [a1, a2], BOX, H)
        assert weighted_lp_quasinorm(env, 1.0) == pytest.approx(
            2.0 * 0.5 + 3.0 * 0.5, rel=1e-14)

    def test_overlapping_cubes_match_direct_quadrature(self):
        q1, q2 = Cube((0.0,), 1.0), Cube((0.25,), 1.0)
        a1 = make_atom(masked_profile(BOX, H, q1, lambda x: x), q1, 0)
        a2 = make_atom(masked_profile(BOX, H, q2, lambda x: x - 0.25), q2, 0)
        env = q1.indicator(BOX, H).samples + 2.0 * q2.indicator(BOX, H).samples
        direct = (H * np.sum(env ** 0.5)) ** 2.0
        assert weighted_lp_quasinorm(envelope([1.0, 2.0], [a1, a2], BOX, H), 0.5) == \
            pytest.approx(direct, rel=1e-14)


class TestRandomFamily:
    BOX, H = ((-4.0, 4.0),), 2.0 ** -6
    KW = dict(box=BOX, h=H, side_exponents=(-2, 0))

    def test_deterministic_in_seed(self):
        f1 = random_atomic_family(9, 12, **self.KW)
        f2 = random_atomic_family(9, 12, **self.KW)
        assert np.array_equal(f1.samples, f2.samples)
        lam1, atoms1 = family_draws(9, 12, **self.KW)
        lam2, atoms2 = family_draws(9, 12, **self.KW)
        assert lam1 == lam2
        assert [a.cube for a in atoms1] == [a.cube for a in atoms2]
        # the family is the sum of its draws, bit for bit
        assert np.array_equal(f1.samples, realized(lam1, atoms1).samples)

    def test_zero_count(self):
        f = random_atomic_family(1, 0, **self.KW)
        assert np.all(f.samples == 0.0)
        assert family_draws(1, 0, **self.KW) == ([], [])

    def test_statistics_reproducible(self):
        f1 = random_atomic_family(7, 50, **self.KW)
        f2 = random_atomic_family(7, 50, **self.KW)
        env1 = envelope(*family_draws(7, 50, **self.KW), self.BOX, self.H)
        env2 = envelope(*family_draws(7, 50, **self.KW), self.BOX, self.H)
        assert env1.sup_norm() == env2.sup_norm()
        assert f1.sup_norm() == f2.sup_norm()

    def test_margin_respected(self):
        f = random_atomic_family(2, 20, **self.KW)
        lo, hi = f.box[0]
        x = support_coords(f)[:, 0]
        assert x.size
        assert np.all(x - self.H / 2 >= lo + 2.0 - 1e-12)
        assert np.all(x + self.H / 2 <= hi - 2.0 + 1e-12)

    def test_side_too_small_for_order(self):
        with pytest.raises(ValueError):
            random_atomic_family(0, 1, box=BOX, h=2.0 ** -3,
                                 side_exponents=(-2, 0), order=1)

    def test_2d_family(self):
        box, h = ((-2.0, 2.0), (-2.0, 2.0)), 2.0 ** -4
        kw = dict(box=box, h=h, side_exponents=(-1, 0))
        f = random_atomic_family(3, 4, **kw)
        lambdas, atoms = family_draws(3, 4, **kw)
        assert np.all(np.abs(f.samples) <= envelope(lambdas, atoms, box, h).samples)
        assert all(a.values.sup_norm() == 1.0 for a in atoms)
        # the margin is a quarter of the box side on both axes
        pts = support_coords(f)
        assert pts.size
        assert np.all(pts - h / 2 >= -1.0 - 1e-12) and np.all(pts + h / 2 <= 1.0 + 1e-12)


class TestHardyEnvelopeControl:
    MOL = Mollifier.dyadic(-3, -1)
    KW = dict(box=((-4.0, 4.0),), h=2.0 ** -6, side_exponents=(-2, 0))

    def ratio(self, seed, count, kw, mol=None):
        f = random_atomic_family(seed, count, **kw)
        env = envelope(*family_draws(seed, count, **kw), kw["box"], kw["h"])
        num = hardy_quasinorm(f, 1.0, None, mol or self.MOL)
        return num / weighted_lp_quasinorm(env, 1.0)

    def test_stable_across_seeds(self):
        # families of 24 atoms give the averaging the band presumes; tiny
        # families fluctuate well past it
        ratios = [self.ratio(seed, 24, self.KW) for seed in range(5)]
        assert max(ratios) <= 1.5 * min(ratios)

    def test_exact_under_joint_dilation(self):
        kw2 = dict(box=((-8.0, 8.0),), h=2.0 ** -5, side_exponents=(-1, 1))
        s1 = random_atomic_family(5, 6, **self.KW)
        s2 = random_atomic_family(5, 6, **kw2)
        assert np.array_equal(s2.samples, s1.samples)
        r1 = self.ratio(5, 6, self.KW)
        r2 = self.ratio(5, 6, kw2, mol=Mollifier.dyadic(-2, 0))
        assert r2 == pytest.approx(r1, rel=1e-13)
