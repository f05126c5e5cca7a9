import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracharm.grid import Cube, GridFunction
from fracharm.maximal import (
    MaximalConfig,
    Mollifier,
    frac_maximal,
    grand_maximal,
    hl_maximal,
    iterated_maximal,
)

BOX = ((-4.0, 4.0),)
H = 2.0 ** -8


def unit_indicator():
    return Cube((0.5,), 1.0).indicator(BOX, H)


def cell_index(x):
    return int((x - BOX[0][0]) / H)


class TestLadder:
    def test_contains_powers_of_two_and_cap(self):
        cfg = MaximalConfig(ell_min=H, ell_max=8.0)
        lengths = cfg.cell_lengths(H)
        for L in (1, 2, 4, 256, 512, 1024, 2048):
            assert L in lengths
        assert lengths[-1] == 2048
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_floor_below_spacing_rejected(self):
        cfg = MaximalConfig(ell_min=H / 2, ell_max=1.0)
        with pytest.raises(ValueError):
            cfg.cell_lengths(H)


class TestHlMaximal:
    def test_indicator_at_distance_two(self):
        # at x just left of 2 the best window is [0,2): half ones, half zeros
        m = hl_maximal(unit_indicator())
        assert m.samples[cell_index(2.0 - H / 2)] == 0.5

    def test_constant_function(self):
        f = GridFunction.zeros(BOX, 2.0 ** -4) + 3.0
        m = hl_maximal(f)
        assert np.max(np.abs(m.samples - 3.0)) < 3.0 * 1e-12

    def test_dominates_f_exactly(self):
        rng = np.random.default_rng(3)
        f = GridFunction(BOX, 2.0 ** -5, rng.standard_normal(256))
        m = hl_maximal(f)
        assert np.all(m.samples >= np.abs(f.samples))

    def test_2d_indicator_interior(self):
        box = ((-2.0, 2.0), (-2.0, 2.0))
        h = 2.0 ** -6
        f = Cube((0.5, 0.5), 1.0).indicator(box, h)
        m = hl_maximal(f)
        i = int(2.5 / h)
        assert m.samples[i, i] == 1.0

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(min_value=0.01, max_value=50.0))
    def test_homogeneity(self, c):
        rng = np.random.default_rng(5)
        f = GridFunction(BOX, 2.0 ** -4, rng.standard_normal(128))
        a = hl_maximal(f * c).samples
        b = hl_maximal(f).samples * c
        assert np.max(np.abs(a - b)) <= 1e-12 * c

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_sublinearity(self, seed):
        rng = np.random.default_rng(seed)
        f = GridFunction(BOX, 2.0 ** -4, rng.standard_normal(128))
        g = GridFunction(BOX, 2.0 ** -4, rng.standard_normal(128))
        lhs = hl_maximal(f + g).samples
        rhs = hl_maximal(f).samples + hl_maximal(g).samples
        assert np.all(lhs <= rhs + 1e-12)


def brute_force_ladder(f, gamma, cfg):
    """Max over every L^n window holding each cell, L on the ladder, of
    (L h)^gamma times the window average of |f| (zero outside the box)."""
    absf = np.abs(f.samples)
    out = np.zeros_like(absf)
    for L in cfg.cell_lengths(f.h):
        scale = (L * f.h) ** gamma / float(L) ** f.dim
        for idx in np.ndindex(absf.shape):
            starts = [range(i - L + 1, i + 1) for i in idx]
            for start in itertools.product(*starts):
                window = tuple(slice(max(s, 0), s + L) for s in start)
                out[idx] = max(out[idx], absf[window].sum() * scale)
    return out


class TestLadderBruteForce:
    @pytest.mark.parametrize("box,h", [(((-1.0, 1.0),), 2.0 ** -4),
                                       (((-1.0, 1.0), (-0.5, 0.5)), 2.0 ** -3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_hl_and_frac_match_every_window(self, box, h, seed):
        rng = np.random.default_rng(seed)
        g = GridFunction.zeros(box, h)
        f = g.with_samples(rng.uniform(-1.0, 1.0, size=g.samples.shape))
        cfg = MaximalConfig.for_grid(f, ratio=1.5)
        np.testing.assert_allclose(hl_maximal(f, cfg).samples,
                                   brute_force_ladder(f, 0.0, cfg), rtol=1e-12)
        with pytest.warns(RuntimeWarning):
            frac = frac_maximal(f, 0.5, cfg).samples
        np.testing.assert_allclose(frac, brute_force_ladder(f, 0.5, cfg), rtol=1e-12)


def gather_ladder(f, gamma, cfg):
    """The ladder by gathers at clipped corner indices of an unpadded
    summed-area table and a sliding-window max over every window: a
    bit-level oracle for the sliced table and the running max."""
    absf = np.abs(f.samples)
    cs = absf
    for axis in range(absf.ndim):
        cs = np.cumsum(cs, axis=axis)
    table = np.zeros(tuple(s + 1 for s in absf.shape))
    table[(slice(1, None),) * absf.ndim] = cs
    best = None
    for L in cfg.cell_lengths(f.h):
        if L == 1:
            cand = absf * f.h ** gamma
            best = cand if best is None else np.maximum(best, cand)
            continue
        ends = []
        for axis, size in enumerate(table.shape):
            start = np.arange(-(L - 1), size - 1)
            shape = [1] * table.ndim
            shape[axis] = -1
            ends.append((np.maximum(start, 0).reshape(shape),
                         np.minimum(start + L, size - 1).reshape(shape)))
        vals = 0.0
        for corner in itertools.product((1, 0), repeat=table.ndim):
            corner = corner[::-1]
            term = table[tuple(e[c] for e, c in zip(ends, corner))]
            vals = vals - term if (table.ndim - sum(corner)) % 2 else vals + term
        for axis in range(f.dim):
            vals = sliding_window_view(vals, L, axis=axis).max(-1)
        cand = vals * ((L * f.h) ** gamma / float(L) ** f.dim)
        best = cand if best is None else np.maximum(best, cand)
    return best


class TestLadderBitForBit:
    @pytest.mark.parametrize("ratio", [2.0 ** 0.25, 1.5])
    @pytest.mark.parametrize("box", [((-2.0, 2.0),), ((-3.0, 3.0),), ((-1.0, 1.8125),),
                                     ((-1.0, 1.0), (-0.5, 0.5))],
                             ids=["64", "96", "45", "32x16"])
    def test_matches_gather_and_sliding_max(self, box, ratio):
        h = 2.0 ** -4
        g = GridFunction.zeros(box, h)
        f = g.with_samples(np.random.default_rng(7).uniform(-1.0, 1.0, g.samples.shape))
        cfg = MaximalConfig.for_grid(f, ratio=ratio)
        lengths = cfg.cell_lengths(h)
        assert lengths[-1] == min(g.samples.shape)
        assert {L % 2 for L in lengths if L > 1} == {0, 1}
        assert np.array_equal(hl_maximal(f, cfg).samples, gather_ladder(f, 0.0, cfg))
        with pytest.warns(RuntimeWarning):
            frac = frac_maximal(f, 0.5, cfg).samples
        assert np.array_equal(frac, gather_ladder(f, 0.5, cfg))


class TestFracMaximal:
    def test_indicator_center_value(self):
        m = frac_maximal(unit_indicator(), 0.5)
        assert m.samples[cell_index(0.5)] == 1.0

    def test_gamma_zero_matches_hl(self):
        rng = np.random.default_rng(6)
        f = GridFunction(BOX, 2.0 ** -5, rng.standard_normal(256))
        assert np.array_equal(frac_maximal(f, 0.0).samples, hl_maximal(f).samples)

    def test_full_support_hits_ladder_cap(self):
        f = GridFunction.zeros(BOX, 2.0 ** -5) + 1.0
        with pytest.warns(RuntimeWarning):
            m = frac_maximal(f, 0.5)
        # window side 8, constant 1: value is sqrt(8) everywhere
        assert np.max(np.abs(m.samples - 8.0 ** 0.5)) < 1e-12

    def test_monotone_in_gamma_above_unit_scales(self):
        cfg = MaximalConfig(ell_min=1.0, ell_max=8.0)
        f = unit_indicator()
        lo = frac_maximal(f, 0.3, cfg)
        hi = frac_maximal(f, 0.7, cfg)
        assert np.all(hi.samples >= lo.samples)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            frac_maximal(unit_indicator(), -0.1)


class TestIterated:
    def test_zero_is_identity(self):
        f = unit_indicator()
        assert iterated_maximal(f, 0) is f

    def test_one_is_hl(self):
        f = unit_indicator()
        assert np.array_equal(iterated_maximal(f, 1).samples, hl_maximal(f).samples)

    def test_monotone_in_iterates(self):
        f = unit_indicator()
        m1 = iterated_maximal(f, 1)
        m2 = iterated_maximal(f, 2)
        assert np.all(m2.samples >= m1.samples)


class TestGrandMaximal:
    def test_nonnegative_and_bounded_by_sup(self):
        rng = np.random.default_rng(7)
        prof = rng.standard_normal(64)
        samples = np.zeros(512)
        samples[224:288] = prof
        f = GridFunction(((-4.0, 4.0),), 2.0 ** -6, samples)
        g = grand_maximal(f, Mollifier.dyadic(-4, 0))
        assert np.all(g.samples >= 0)
        assert np.max(g.samples) <= np.max(np.abs(f.samples)) * (1 + 1e-12)

    def test_self_convolution_oracle(self):
        # f equal to the unit-scale bump; compare against a direct dot product
        h = H
        m = int(1.0 / h)
        off = np.arange(-m, m + 1) * h
        prof = np.clip(1.0 - off ** 2, 0.0, None) ** 4
        bump = prof / (prof.sum() * h)
        samples = np.zeros(2048)
        c = 1024
        samples[c - m : c + m + 1] = bump
        f = GridFunction(BOX, h, samples)
        oracle = float(np.dot(bump, bump)) * h  # (phi_1 * f) at the center
        g = grand_maximal(f, Mollifier((0.25, 0.5, 1.0)))
        assert g.samples[c] >= oracle - 1e-12
        assert oracle > 0

    def test_dilation_covariance_exact(self):
        rng = np.random.default_rng(8)
        prof = rng.standard_normal(32)
        samples = np.zeros(256)
        samples[112:144] = prof
        f = GridFunction(((-2.0, 2.0),), 2.0 ** -6, samples)
        f2 = GridFunction(((-4.0, 4.0),), 2.0 ** -5, samples)
        a = grand_maximal(f, Mollifier((0.25, 0.5)))
        b = grand_maximal(f2, Mollifier((0.5, 1.0)))
        assert np.array_equal(a.samples, b.samples)

    def test_margin_violation_raises(self):
        f = Cube((0.5,), 1.0).indicator(((-2.0, 2.0),), 2.0 ** -6)
        with pytest.raises(ValueError):
            grand_maximal(f, Mollifier((2.0,)))

    def test_zero_function(self):
        f = GridFunction.zeros(BOX, 2.0 ** -4)
        assert np.all(grand_maximal(f, Mollifier((0.5,))).samples == 0)

    def test_2d_bounded_by_sup(self):
        box = ((-2.0, 2.0), (-2.0, 2.0))
        h = 2.0 ** -5
        f = Cube((0.0, 0.0), 1.0).indicator(box, h)
        g = grand_maximal(f, Mollifier((0.25, 0.5)))
        assert np.all(g.samples >= 0)
        assert np.max(g.samples) <= 1 + 1e-12


def fresh_bump(t, h, dim):
    """The sampled (1 - |x|^2)^4 bump at scale t, normalized to unit mass."""
    m = int(math.floor(t / h + 1e-9))
    off = np.arange(-m, m + 1) * (h / t)
    r2 = sum(np.ix_(*[off ** 2] * dim))
    prof = np.clip(1.0 - r2, 0.0, None) ** 4
    return prof / (prof.sum() * h ** dim)


class TestMollifierKernel:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cached_bump_is_shared_read_only_and_exact(self, dim):
        mol = Mollifier.dyadic(-4, 0)
        for t in mol.scales:
            ker = mol.kernel(t, 2.0 ** -5, dim)
            assert ker is mol.kernel(t, 2.0 ** -5, dim)
            assert not ker.flags.writeable
            assert np.array_equal(ker, fresh_bump(t, 2.0 ** -5, dim))
            with pytest.raises(ValueError):
                ker[(0,) * dim] = 1.0


def domination_ratios(cube, gamma, delta, box=BOX):
    """Worst side^gamma / M_{gamma*delta}(chi_Q)^(1/delta) on the star of Q
    and on Q itself."""
    ind = cube.indicator(box, H)
    ratios = cube.side ** gamma / frac_maximal(ind, gamma * delta).samples ** (1.0 / delta)
    coords = ind.coords()
    return (float(np.max(ratios[cube.star().contains(coords)])),
            float(np.max(ratios[cube.contains(coords)])))


class TestDominationCheck:
    def test_unit_cube_interior_and_star(self):
        star_max, interior_max = domination_ratios(Cube((0.5,), 1.0), 0.5, 1.0)
        assert interior_max == 1.0
        # at the star corners the continuum ratio is sqrt(3/2); the ladder
        # can overshoot it by at most one ratio step
        lo = math.sqrt(1.5)
        assert lo - 1e-9 <= star_max <= lo * 2.0 ** 0.25 + 1e-9

    def test_dilation_sweep_stable(self):
        box = ((-8.0, 8.0),)
        vals = []
        for k in range(-2, 3):
            side = 2.0 ** k
            vals.append(domination_ratios(Cube((side / 2,), side), 0.5, 1.0, box)[0])
        assert max(vals) <= 1.10 * min(vals)

    def test_smaller_delta_finite(self):
        star_max, interior_max = domination_ratios(Cube((0.5,), 1.0), 0.5, 0.5)
        assert math.isfinite(star_max)
        assert star_max >= interior_max >= 1.0 - 1e-12
