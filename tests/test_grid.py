import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracharm.grid import (
    Cube,
    GridFunction,
    GridMismatchError,
    dyadic_cubes,
    integrate,
    weighted_lp_quasinorm,
)

BOX1 = ((-2.0, 2.0),)
BOX2 = ((-2.0, 2.0), (-2.0, 2.0))
H = 2.0 ** -6


class TestCube:
    def test_geometry(self):
        q = Cube((0.5,), 1.0)
        assert q.lo == (0.0,)
        assert q.hi == (1.0,)
        assert q.volume == 1.0
        assert q.dim == 1

    def test_dilate_scales_side_only(self):
        q = Cube((0.25, -0.5), 0.5)
        d = q.dilate(3.0)
        assert d.center == q.center
        assert d.side == 1.5

    def test_dilate_rejects_shrinking(self):
        with pytest.raises(ValueError):
            Cube((0.0,), 1.0).dilate(0.5)
        with pytest.raises(ValueError):
            Cube((0.0,), 1.0).dilate(1.0)

    def test_star_factor(self):
        assert Cube((0.0,), 1.0).star().side == 2.0
        assert Cube((0.0, 0.0), 1.0).star().side == pytest.approx(2.0 * math.sqrt(2.0))

    def test_star_of_star_side_is_4n_times_side(self):
        # (2 sqrt(n))^2 == 4n, concentric both times
        for dim in (1, 2):
            q = Cube((0.0,) * dim, 0.75)
            ss = q.star().star()
            assert ss.side == pytest.approx(4.0 * dim * q.side)
            assert ss.center == q.center

    def test_scaled_about_point(self):
        q = Cube((1.0,), 1.0)
        s = q.scaled(0.5, about=(0.0,))
        assert s.center == (0.5,)
        assert s.side == 0.5
        t = q.scaled(2.0, about=q.center)
        assert t.center == (1.0,)
        assert t.side == 2.0

    def test_contains_half_open(self):
        q = Cube((0.5,), 1.0)
        pts = np.array([[0.0], [0.5], [1.0 - 1e-12], [1.0]])
        assert list(q.contains(pts)) == [True, True, True, False]

    def test_indicator_mass_exact_when_grid_aligned(self):
        # [0,1] holds exactly 64 cells of h=2^-6: mass is exact in fp
        q = Cube((0.5,), 1.0)
        ind = q.indicator(BOX1, H)
        assert integrate(ind) == 1.0

    def test_indicator_mass_2d(self):
        q = Cube((0.5, 0.5), 1.0)
        assert integrate(q.indicator(BOX2, H)) == 1.0

    def test_tiling_partition_is_exact(self):
        quarters = [Cube((0.25,), 0.5), Cube((0.75,), 0.5)]
        total = sum(q.indicator(BOX1, H).samples.sum() for q in quarters)
        whole = Cube((0.5,), 1.0).indicator(BOX1, H).samples.sum()
        assert total == whole


class TestGridFunction:
    def test_coords_shape(self):
        g = GridFunction.zeros(BOX2, 0.5)
        assert g.samples.shape == (8, 8)
        assert g.coords().shape == (8, 8, 2)
        assert g.coords()[0, 0, 0] == -1.75

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GridFunction(BOX1, H, np.zeros(7))

    def test_rejects_nonconforming_h(self):
        with pytest.raises(ValueError):
            GridFunction.zeros(((0.0, 1.0),), 0.3)

    def test_samples_read_only(self):
        g = GridFunction.zeros(BOX1, H)
        with pytest.raises(ValueError):
            g.samples[0] = 1.0

    def test_arithmetic_requires_same_grid(self):
        a = GridFunction.zeros(BOX1, H)
        b = GridFunction.zeros(BOX1, H / 2)
        with pytest.raises(GridMismatchError):
            _ = a + b

    def test_affine_integral_exact(self):
        # midpoint rule integrates x + 1/2 exactly; over [0,1] the value is 1
        g = GridFunction.zeros(((0.0, 1.0),), H)
        g = g.with_samples(g.coords()[..., 0] + 0.5)
        assert integrate(g) == 1.0

    def test_odd_integrand_cancels(self):
        g = GridFunction.zeros(BOX1, H)
        g = g.with_samples(g.coords()[..., 0])
        assert integrate(g) == pytest.approx(0.0, abs=1e-14)


def _cells_mask(g, cube):
    mask = np.zeros(g.samples.shape, dtype=bool)
    mask[g.cells(cube)] = True
    return mask


class TestCells:
    @pytest.mark.parametrize("box", [BOX1, BOX2])
    def test_matches_contains_on_random_cubes(self, box):
        g = GridFunction.zeros(box, 0.125)
        rng = np.random.default_rng(7)
        for _ in range(200):
            center = rng.uniform(-3.0, 3.0, size=len(box))
            cube = Cube(tuple(center), float(rng.uniform(0.01, 3.0)))
            assert np.array_equal(_cells_mask(g, cube), cube.contains(g.coords()))

    @pytest.mark.parametrize("box", [BOX1, BOX2])
    def test_half_open_edges_on_cell_centers(self, box):
        # lo and hi both sit on cell centers: lo is owned, hi is not
        g = GridFunction.zeros(box, 0.125)
        dim = len(box)
        cube = Cube((0.0625 + 0.25,) * dim, 0.5)
        assert cube.lo[0] == 0.0625 and cube.hi[0] == 0.5625
        assert g.cells(cube) == (slice(16, 20),) * dim
        assert np.array_equal(_cells_mask(g, cube), cube.contains(g.coords()))

    @pytest.mark.parametrize("box", [BOX1, BOX2])
    def test_cube_clipped_by_box(self, box):
        g = GridFunction.zeros(box, 0.125)
        dim = len(box)
        cube = Cube((1.9,) + (-1.9,) * (dim - 1), 1.0)
        cells = g.cells(cube)
        assert cells[0] == slice(27, 32)
        if dim == 2:
            assert cells[1] == slice(0, 5)
        assert np.array_equal(_cells_mask(g, cube), cube.contains(g.coords()))

    @pytest.mark.parametrize("box", [BOX1, BOX2])
    def test_cube_between_centers_owns_nothing(self, box):
        g = GridFunction.zeros(box, 0.125)
        dim = len(box)
        inside = Cube((0.0,) * dim, 0.1)  # (-0.05, 0.05) misses +-0.0625
        outside = Cube((5.0,) * dim, 1.0)
        for cube in (inside, outside):
            assert g.samples[g.cells(cube)].size == 0
            assert not cube.contains(g.coords()).any()

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            GridFunction.zeros(BOX2, 0.125).cells(Cube((0.0,), 1.0))


class TestNorms:
    def test_indicator_quasinorm_p_half(self):
        # f = indicator of [0,1] on any aligned grid: norm_p == 1 for all p,
        # and (sum h |f|^(1/2))^2 == 1 as well; scaling by 4 gives 4^1 * 1
        f = Cube((0.5,), 1.0).indicator(BOX1, H) * 4.0
        assert weighted_lp_quasinorm(f, 0.5) == pytest.approx(16.0 ** 0.5 * 1.0)
        assert weighted_lp_quasinorm(f, 1.0) == pytest.approx(4.0)
        assert weighted_lp_quasinorm(f, 2.0) == pytest.approx(4.0)

    def test_weighted_norm_indicator(self):
        # weight 3 on the same cube: (3 * 1)^(1/2) == sqrt(3)
        f = Cube((0.5,), 1.0).indicator(BOX1, H)
        w = f * 3.0
        assert weighted_lp_quasinorm(f, 2.0, w) == pytest.approx(math.sqrt(3.0))

    def test_quasinorm_p_additive_on_disjoint_supports(self):
        # for p < 1, ||f+g||^p == ||f||^p + ||g||^p when supports are disjoint
        p = 0.5
        f = Cube((-1.5,), 1.0).indicator(BOX1, H)
        g = Cube((1.5,), 1.0).indicator(BOX1, H) * 2.0
        lhs = weighted_lp_quasinorm(f + g, p) ** p
        rhs = weighted_lp_quasinorm(f, p) ** p + weighted_lp_quasinorm(g, p) ** p
        assert lhs == pytest.approx(rhs)

    def test_rejects_nonpositive_p(self):
        f = GridFunction.zeros(BOX1, H)
        with pytest.raises(ValueError):
            weighted_lp_quasinorm(f, 0.0)

    def test_singular_quadrature_converges(self):
        # integral of |x|^(-1/2) over [-1,1] is 4; the cell at the origin
        # carries the whole error, so the rate is h^(1/2): error halves
        # every two dyadic refinements
        exact = 4.0
        errs = []
        for k in (6, 8, 10):
            h = 2.0 ** -k
            g = GridFunction.zeros(((-1.0, 1.0),), h)
            g = g.with_samples(np.abs(g.coords()[..., 0]) ** -0.5)
            errs.append(abs(integrate(g) - exact))
        assert errs[1] / errs[0] == pytest.approx(0.5, rel=0.02)
        assert errs[2] / errs[1] == pytest.approx(0.5, rel=0.02)
        assert errs[2] < 0.04

    @settings(max_examples=30, deadline=None)
    @given(
        c=st.floats(min_value=0.01, max_value=100.0),
        p=st.floats(min_value=0.3, max_value=4.0),
    )
    def test_homogeneity(self, c, p):
        rng = np.random.default_rng(11)
        f = GridFunction(BOX1, 0.25, rng.standard_normal(16))
        assert weighted_lp_quasinorm(f * c, p) == pytest.approx(
            c * weighted_lp_quasinorm(f, p), rel=1e-9
        )


class TestDyadic:
    def test_levels_and_count(self):
        fam = dyadic_cubes(((0.0, 4.0),), 0, 2)
        # sides 1, 2, 4 tile [0,4] with 4 + 2 + 1 cubes
        assert len(fam.cubes) == 7
        assert len(fam.cubes_at(0)) == 4
        assert len(fam.cubes_at(2)) == 1

    def test_cubes_tile_window(self):
        fam = dyadic_cubes(((0.0, 4.0),), 0, 0)
        h = 2.0 ** -4
        total = sum(integrate(q.indicator(((0.0, 4.0),), h)) for q in fam.cubes_at(0))
        assert total == 4.0

    def test_2d_count(self):
        fam = dyadic_cubes(((0.0, 2.0), (0.0, 2.0)), 0, 1)
        assert len(fam.cubes_at(0)) == 4
        assert len(fam.cubes_at(1)) == 1

    def test_rejects_untiled_window(self):
        with pytest.raises(ValueError):
            dyadic_cubes(((0.0, 3.0),), 1, 1)

    def test_rejects_subgrid_levels(self):
        with pytest.raises(ValueError):
            dyadic_cubes(((0.0, 4.0),), -8, 0, h=2.0 ** -6)
