"""Bounded atoms with vanishing moments, atomic sums, and Hardy quasi-norms.

An atom is a grid function supported in a cube, bounded by 1, whose discrete
moments of total degree up to its order cancel.  ``make_atom`` produces one
from an arbitrary profile by subtracting the least-squares polynomial fit on
the cube's cells and renormalizing; the fit uses the grid inner product, so
the moment cancellation is exact to rounding rather than an O(h^2) artifact
of sampling continuum polynomials.

The Hardy quasi-norm composes the smooth maximal function with the weighted
L^p quasi-norm.  The envelope of a sum replaces each atom by its coefficient
times the cube indicator, a pointwise majorant of the sum; comparing the norms
of the two is the control that makes atomic test functions usable as H^p
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Cube, GridFunction, multi_indices, weighted_lp_quasinorm
from .maximal import Mollifier, grand_maximal

__all__ = [
    "Atom",
    "AtomicSum",
    "make_atom",
    "moment",
    "hardy_quasinorm",
    "random_atomic_family",
    "random_coefficient",
    "random_cube",
]

MOMENT_TOL = 1e-10

# residual sup below this multiple of the profile sup counts as annihilated
_ANNIHILATION_TOL = 1e-12


def moment(f: GridFunction, alpha) -> float:
    """Discrete integral of x^alpha * f over the grid."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.dim:
        raise ValueError("multi-index length does not match the grid dimension")
    coords = f.coords()
    mono = np.ones_like(f.samples)
    for axis, a in enumerate(alpha):
        if a:
            mono = mono * coords[..., axis] ** a
    return float(np.sum(mono * f.samples) * f.cell_volume)


@dataclass(frozen=True)
class Atom:
    """Grid function supported in ``cube``, bounded by 1, with vanishing
    moments of total degree <= ``order``; all three checked on construction."""

    cube: Cube
    order: int
    values: GridFunction

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("moment order must be nonnegative")
        if self.cube.dim != self.values.dim:
            raise ValueError("cube and values dimensions differ")
        v = self.values.samples
        if not np.all(np.isfinite(v)):
            raise ValueError("atom values must be finite")
        if np.max(np.abs(v)) > 1.0:
            raise ValueError("atom values must be bounded by 1")
        inside = self.cube.contains(self.values.coords().reshape(-1, self.values.dim))
        if np.any(v.reshape(-1)[~inside] != 0.0):
            raise ValueError("atom values must vanish outside the cube")
        side = self.cube.side
        for alpha in multi_indices(self.values.dim, self.order):
            bound = MOMENT_TOL * side ** (self.values.dim + sum(alpha))
            if abs(moment(self.values, alpha)) > bound:
                raise ValueError(f"moment {alpha} exceeds the vanishing tolerance")


def _orthonormal_columns(centers: np.ndarray, cube_lo: float, side: float,
                         degree: int) -> np.ndarray:
    # Vandermonde in the centered, scaled coordinate; QR orthonormalizes in
    # the (unweighted) grid inner product, which is all the projection needs
    u = (centers - (cube_lo + side / 2.0)) / (side / 2.0)
    cols = min(degree + 1, centers.size)
    vand = np.vander(u, N=cols, increasing=True)
    q, _ = np.linalg.qr(vand)
    return q


def make_atom(profile: GridFunction, cube: Cube, order: int) -> Atom:
    """Remove polynomial content of total degree <= order, rescale to sup 1.

    The profile must vanish outside the cube.  Raises if the projection
    annihilates it (a profile that is itself such a polynomial).
    """
    if profile.dim != cube.dim:
        raise ValueError("profile and cube dimensions differ")
    if order < 0:
        raise ValueError("moment order must be nonnegative")
    cells = profile.cells(cube)
    if profile.samples[cells].size == 0:
        raise ValueError("cube contains no grid cells")
    mask = np.zeros(profile.samples.shape, dtype=bool)
    mask[cells] = True
    if np.any(profile.samples[~mask] != 0.0):
        raise ValueError("profile must vanish outside the cube")

    qs = [
        _orthonormal_columns(profile.axis_centers(a)[cells[a]], cube.lo[a],
                             cube.side, order)
        for a in range(profile.dim)
    ]
    loc = profile.samples[cells].copy()  # the products read a contiguous block
    # one projection per dimension: a single form with one tensordot per
    # axis rounds differently from these products on random profiles
    if profile.dim == 1:
        coef = qs[0].T @ loc
        resid = loc - qs[0] @ coef
    else:
        coef = qs[0].T @ loc @ qs[1]
        # total-degree cutoff: discard tensor pairs beyond the requested order
        i = np.arange(coef.shape[0])[:, None]
        j = np.arange(coef.shape[1])[None, :]
        coef = np.where(i + j <= order, coef, 0.0)
        resid = loc - qs[0] @ coef @ qs[1].T

    peak = float(np.max(np.abs(resid)))
    ref = float(np.max(np.abs(loc)))
    if ref == 0.0 or peak <= _ANNIHILATION_TOL * ref:
        raise ValueError("projection annihilates the profile")
    out = np.zeros_like(profile.samples)
    out[cells] = resid / peak
    return Atom(cube=cube, order=order, values=profile.with_samples(out))


@dataclass(frozen=True)
class AtomicSum:
    """Finite positive combination of atoms with its realized grid function
    and the indicator envelope that dominates it pointwise."""

    lambdas: tuple
    atoms: tuple
    realized: GridFunction
    envelope: GridFunction

    @classmethod
    def build(cls, lambdas, atoms, *, box=None,
              h: float | None = None) -> "AtomicSum":
        lambdas = tuple(float(lam) for lam in lambdas)
        atoms = tuple(atoms)
        if len(lambdas) != len(atoms):
            raise ValueError("need one coefficient per atom")
        if any(lam <= 0 for lam in lambdas):
            raise ValueError("coefficients must be positive")
        if not atoms:
            if box is None or h is None:
                raise ValueError("empty sum needs an explicit grid")
            zero = GridFunction.zeros(box, h)
            return cls(lambdas, atoms, zero, zero)
        g0 = atoms[0].values
        f = np.zeros_like(g0.samples)
        env = np.zeros_like(g0.samples)
        for lam, atom in zip(lambdas, atoms):
            g0._require_same_grid(atom.values)
            f = f + lam * atom.values.samples
            env = env + lam * atom.cube.indicator(g0.box, g0.h).samples
        if np.any(np.abs(f) > env):
            raise ValueError("realized sum escapes its envelope")
        return cls(lambdas, atoms, g0.with_samples(f), g0.with_samples(env))


def hardy_quasinorm(f: GridFunction, p: float, w: GridFunction | None,
                    mol: Mollifier) -> float:
    """Weighted L^p quasi-norm of the smooth maximal function of f; ``w`` is
    the weight sampled on f's grid, None for w == 1."""
    return weighted_lp_quasinorm(grand_maximal(f, mol), p, w)


def random_cube(rng, box, h: float, side_exponents,
                margin: float | None = None) -> Cube:
    """The corpus placement law: a dyadic side 2**j with j uniform in
    ``side_exponents``, then per axis a grid-aligned corner kept ``margin``
    (default a quarter of the shortest box side) inside the box."""
    if margin is None:
        margin = min(hi - lo for lo, hi in box) / 4.0
    side = 2.0 ** int(rng.integers(side_exponents[0], side_exponents[1] + 1))
    n_side = round(side / h)
    first = math.ceil(margin / h)
    center = []
    for lo, hi in box:
        last = round((hi - lo) / h) - n_side - first
        if last < first:
            raise ValueError("box too small for the cube sides and margin")
        corner = lo + h * int(rng.integers(first, last + 1))
        center.append(corner + side / 2.0)
    return Cube(tuple(center), side)


def random_coefficient(rng, lambda_range) -> float:
    """Log-uniform coefficient in ``lambda_range``."""
    return float(np.exp(rng.uniform(np.log(lambda_range[0]), np.log(lambda_range[1]))))


def random_atomic_family(seed: int, count: int, *, box, h: float,
                         side_exponents=(-2, 1), lambda_range=(0.5, 2.0),
                         order: int = 1, margin: float | None = None) -> AtomicSum:
    """Deterministic random atomic sum: dyadic sides, grid-aligned corners,
    log-uniform coefficients, uniform profiles projected by make_atom.

    ``margin`` keeps every cube that far from the boundary (default a quarter
    of the shortest box side) so the smooth maximal function has room.
    """
    zero = GridFunction.zeros(box, h)
    j_lo, j_hi = int(side_exponents[0]), int(side_exponents[1])
    if j_lo > j_hi:
        raise ValueError("side exponent range is empty")
    if 2.0 ** j_lo < (order + 2) * h:
        raise ValueError("smallest cube side has too few cells for the order")
    if not 0 < lambda_range[0] <= lambda_range[1]:
        raise ValueError("coefficient range must be positive")

    rng = np.random.default_rng(seed)
    atoms = []
    lambdas = []
    for _ in range(count):
        cube = random_cube(rng, zero.box, h, (j_lo, j_hi), margin)
        cells = zero.cells(cube)
        prof = np.zeros_like(zero.samples)
        prof[cells] = rng.uniform(-1.0, 1.0, size=prof[cells].shape)
        atoms.append(make_atom(zero.with_samples(prof), cube, order))
        lambdas.append(random_coefficient(rng, lambda_range))
    return AtomicSum.build(lambdas, atoms, box=box, h=h)
