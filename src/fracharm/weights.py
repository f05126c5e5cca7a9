"""Weights and numerical Muckenhoupt / reverse Holder constants.

A weight is either an analytic power ``mult * |x - x0|^a`` (with ``a > -n``
so it is locally integrable), a positive constant, or a positive sampled
grid function.  Cube averages of power weights use closed forms, so cubes
touching the singularity are handled exactly; sampled weights average the
cell values whose centers fall in the cube.

Class constants (A_p, RH_s, A_{p,q}) are suprema over all cubes.  We bound
them from below by the maximum over a dyadic family together with its
translates by one and two thirds of the side, and report a per-level
breakdown: for weights in the class the per-level maxima saturate as the
family refines, while for weights outside it they blow up, so stability of
the two finest levels is the membership signal.  The reported value is a
max over finitely many cubes, never a certified supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _product

import numpy as np
from scipy.integrate import dblquad, quad

from .grid import Cube, DyadicFamily, GridFunction, dyadic_cubes

__all__ = [
    "Weight",
    "WeightConstantReport",
    "weight_cube_family",
    "ap_constant",
    "rh_constant",
    "apq_constant",
    "rw_estimate",
]


# -- closed-form power integrals ----------------------------------------------


def _antideriv(u: float, b: float) -> float:
    # antiderivative of |u|^b; only called at u == 0 when b > -1
    if u == 0.0:
        return 0.0
    if b == -1.0:
        # signed product, not copysign: log|u| carries its own sign
        return math.log(u) if u > 0 else -math.log(-u)
    return math.copysign(abs(u) ** (b + 1.0), u) / (b + 1.0)


def _interval_power_integral(s: float, t: float, b: float) -> float:
    """Integral of |u|^b over [s, t]; +inf when not integrable."""
    if t < s:
        raise ValueError("interval endpoints out of order")
    if t == s:
        return 0.0
    if s <= 0.0 <= t and b <= -1.0:
        return math.inf
    return _antideriv(t, b) - _antideriv(s, b)


@lru_cache(maxsize=None)
def _corner_box_integral(A: float, B: float, b: float) -> float:
    """Integral of |z|^b over [0,A] x [0,B]; requires b > -2."""
    if A <= 0.0 or B <= 0.0:
        return 0.0
    e = b + 2.0
    theta = math.atan2(B, A)
    i1 = 0.0
    if theta > 0.0:
        i1 = quad(lambda th: (A / math.cos(th)) ** e, 0.0, theta,
                  epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    i2 = 0.0
    if theta < math.pi / 2.0:
        i2 = quad(lambda th: (B / math.sin(th)) ** e, theta, math.pi / 2.0,
                  epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    return (i1 + i2) / e


def _axis_clip(lo: float, hi: float, sign: float):
    a, c = (lo, hi) if sign > 0 else (-hi, -lo)
    a = max(a, 0.0)
    return (a, c) if c > a else None


def _rect_power_integral(lo, hi, b: float) -> float:
    """Integral of |z|^b over [lo0,hi0] x [lo1,hi1] in origin-centered coordinates."""
    total = 0.0
    for sx, sy in _product((1.0, -1.0), repeat=2):
        cx = _axis_clip(lo[0], hi[0], sx)
        cy = _axis_clip(lo[1], hi[1], sy)
        if cx is None or cy is None:
            continue
        (a1, b1), (a2, b2) = cx, cy
        if b > -2.0:
            total += (
                _corner_box_integral(b1, b2, b)
                - _corner_box_integral(a1, b2, b)
                - _corner_box_integral(b1, a2, b)
                + _corner_box_integral(a1, a2, b)
            )
        else:
            if a1 == 0.0 and a2 == 0.0:
                return math.inf
            piece = dblquad(
                lambda y, x: (x * x + y * y) ** (b / 2.0),
                a1, b1, lambda _x: a2, lambda _x: b2,
                epsabs=1e-12, epsrel=1e-10,
            )[0]
            total += piece
    return total


# -- weights -------------------------------------------------------------------


class Weight:
    """Positive weight with exact cube averages where an analytic form exists."""

    def __init__(self, kind: str, *, value: float = 1.0, exponent: float = 0.0,
                 center=(0.0,), multiplier: float = 1.0,
                 samples: GridFunction | None = None, dim: int | None = None):
        self.kind = kind
        if kind == "constant":
            if not (math.isfinite(value) and value > 0):
                raise ValueError("constant weight must be positive and finite")
            self.value = float(value)
            self.dim = int(dim or 1)
        elif kind == "power":
            center = tuple(float(c) for c in center)
            n = len(center)
            if not exponent > -n:
                raise ValueError(
                    f"power weight exponent {exponent} is not locally integrable in dimension {n}"
                )
            if not multiplier > 0:
                raise ValueError("power weight multiplier must be positive")
            self.exponent = float(exponent)
            self.center = center
            self.multiplier = float(multiplier)
            self.dim = n
        elif kind == "sampled":
            if samples is None:
                raise ValueError("sampled weight needs a grid function")
            if not np.all(samples.samples > 0):
                raise ValueError("sampled weight must be strictly positive")
            self.samples = samples
            self.dim = samples.dim
        else:
            raise ValueError(f"unknown weight kind {kind!r}")

    # constructors

    @classmethod
    def constant(cls, value: float, dim: int = 1) -> "Weight":
        return cls("constant", value=value, dim=dim)

    @classmethod
    def power(cls, exponent: float, center=(0.0,), multiplier: float = 1.0) -> "Weight":
        return cls("power", exponent=exponent, center=center, multiplier=multiplier)

    @classmethod
    def sampled(cls, g: GridFunction) -> "Weight":
        return cls("sampled", samples=g)

    def descriptor(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "power":
            return {"kind": "power", "exponent": self.exponent,
                    "center": list(self.center), "multiplier": self.multiplier}
        return {"kind": "sampled", "box": [list(iv) for iv in self.samples.box],
                "h": self.samples.h}

    # algebra

    def pow(self, e: float) -> "Weight":
        """The weight raised to a real exponent (may leave the integrable range)."""
        if self.kind == "constant":
            return Weight.constant(self.value ** e, dim=self.dim)
        if self.kind == "power":
            w = Weight.__new__(Weight)
            w.kind = "power"
            w.exponent = self.exponent * e
            w.center = self.center
            w.multiplier = self.multiplier ** e
            w.dim = self.dim
            return w
        return Weight.sampled(self.samples.power(e))

    # evaluation

    def sample(self, box, h: float) -> GridFunction:
        """Pointwise samples at cell centers; sampled weights must match the grid."""
        if self.kind == "sampled":
            probe = GridFunction.zeros(box, h)
            if not probe.same_grid(self.samples):
                raise ValueError("sampled weight lives on a different grid")
            return self.samples
        probe = GridFunction.zeros(box, h)
        if self.kind == "constant":
            return probe + self.value
        pts = probe.coords()
        d = np.linalg.norm(pts - np.asarray(self.center), axis=-1)
        vals = self.multiplier * d ** self.exponent
        if not np.all(np.isfinite(vals)):
            raise ValueError("power weight singularity falls on a cell center")
        return probe.with_samples(vals)

    def average(self, cube: Cube, power: float = 1.0) -> float:
        """Exact average of w^power over the cube (may be +inf)."""
        if cube.dim != self.dim:
            raise ValueError("cube dimension does not match weight dimension")
        if self.kind == "constant":
            return self.value ** power
        if self.kind == "power":
            b = self.exponent * power
            mult = self.multiplier ** power
            lo = tuple(l - c for l, c in zip(cube.lo, self.center))
            hi = tuple(u - c for u, c in zip(cube.hi, self.center))
            # the interval and the rectangle are different closed forms
            if self.dim == 1:
                raw = _interval_power_integral(lo[0], hi[0], b)
            else:
                raw = _rect_power_integral(lo, hi, b)
            return mult * raw / cube.volume
        # reduce one contiguous run in row-major order, not a strided view,
        # whose mean would sum in another order
        block = self.samples.samples[self.samples.cells(cube)].ravel()
        if block.size == 0:
            raise ValueError("cube contains no sample points")
        with np.errstate(divide="ignore"):
            vals = block ** power
        return float(np.mean(vals))


# -- constant reports ----------------------------------------------------------


@dataclass(frozen=True)
class WeightConstantReport:
    """Per-level maxima of a cube-supremum quantity over a dyadic family."""

    value: float
    per_level: dict
    stable: bool
    metadata: dict

    def to_json_dict(self) -> dict:
        enc = lambda v: v if math.isfinite(v) else "inf"
        return {
            "constant": enc(self.value),
            "per_level": [{"level": j, "constant": enc(v)}
                          for j, v in sorted(self.per_level.items())],
            "stable": self.stable,
            **self.metadata,
        }


def weight_cube_family(window, j_min: int, j_max: int, h: float | None = None) -> DyadicFamily:
    """Dyadic cubes plus their one-third and two-thirds side translates.

    Translates that stick out of the window are dropped.  The shifted grids
    place a fixed point of the window at fractional positions 0, 1/3, 2/3 of
    a cube, which is what makes the finite supremum comparable to the full
    one for the weights in scope.
    """
    base = dyadic_cubes(window, j_min, j_max, h)
    window_t = base.window
    cubes = list(base.cubes)
    shifts = (0.0, 1.0 / 3.0, 2.0 / 3.0)
    for q in base.cubes:
        tol = 1e-9 * q.side
        for combo in _product(shifts, repeat=q.dim):
            if all(s == 0.0 for s in combo):
                continue
            t = q.translated(tuple(s * q.side for s in combo))
            inside = all(
                t.lo[k] >= window_t[k][0] - tol and t.hi[k] <= window_t[k][1] + tol
                for k in range(q.dim)
            )
            if inside:
                cubes.append(t)
    return DyadicFamily(window_t, j_min, j_max, tuple(cubes))


def _sup_report(w: Weight, family: DyadicFamily, cube_value, params: dict) -> WeightConstantReport:
    per_level = {}
    for j in family.levels():
        level_cubes = family.cubes_at(j)
        if not level_cubes:
            continue
        per_level[j] = max(cube_value(q) for q in level_cubes)
    levels = sorted(per_level)
    finest = [per_level[j] for j in levels[:2]]
    if len(finest) == 2:
        a, b = finest
        stable = (math.isfinite(a) and math.isfinite(b)
                  and abs(a - b) <= 0.1 * max(abs(a), abs(b)))
    else:
        stable = math.isfinite(finest[0])
    return WeightConstantReport(
        value=max(per_level.values()),
        per_level=per_level,
        stable=stable,
        metadata={"family": family.descriptor(),
                  "weight_descriptor": w.descriptor(),
                  **params},
    )


def _scale_free(w: Weight) -> Weight:
    """w, or 1 in place of a constant weight.  The cube constants below do
    not change under w -> c w, while a constant's own powers can leave the
    float range: 4^(1-p') underflows and 0.25^(1-p') overflows at p' = 1e6."""
    return Weight.constant(1.0, dim=w.dim) if w.kind == "constant" else w


def ap_constant(w: Weight, p: float, family: DyadicFamily) -> WeightConstantReport:
    """Max over the family of avg(w) * avg(w^(1-p'))^(p-1); at least 1 by Jensen."""
    if not p > 1:
        raise ValueError(f"ap_constant needs p > 1, got {p}")
    conj = p / (p - 1.0)
    u = _scale_free(w)

    def val(q: Cube) -> float:
        a1 = u.average(q)
        a2 = u.average(q, power=1.0 - conj)
        if not (math.isfinite(a1) and math.isfinite(a2)):
            return math.inf
        return a1 * a2 ** (p - 1.0)

    return _sup_report(w, family, val, {"p": p, "quantity": "Ap"})


def rh_constant(w: Weight, s: float, family: DyadicFamily) -> WeightConstantReport:
    """Max over the family of (avg w^s)^(1/s) / avg(w); at least 1 by Jensen."""
    if not s > 1:
        raise ValueError(f"rh_constant needs s > 1, got {s}")
    u = _scale_free(w)

    def val(q: Cube) -> float:
        num = u.average(q, power=s)
        den = u.average(q)
        if not math.isfinite(num):
            return math.inf
        return num ** (1.0 / s) / den

    return _sup_report(w, family, val, {"s": s, "quantity": "RH"})


def apq_constant(w: Weight, p: float, q: float, family: DyadicFamily) -> WeightConstantReport:
    """Max over the family of (avg w^q)^(1/q) * (avg w^(-p'))^(1/p').

    The off-diagonal exponent pair is the caller's responsibility; pairs with
    q <= p or p <= 1 are computed anyway and flagged in the metadata.
    """
    if not (p > 1 and q > 0):
        raise ValueError(f"apq_constant needs p > 1 and q > 0, got p={p}, q={q}")
    conj = p / (p - 1.0)
    u = _scale_free(w)

    def val(cube: Cube) -> float:
        a1 = u.average(cube, power=q)
        a2 = u.average(cube, power=-conj)
        if not (math.isfinite(a1) and math.isfinite(a2)):
            return math.inf
        return a1 ** (1.0 / q) * a2 ** (1.0 / conj)

    return _sup_report(w, family, val,
                       {"p": p, "q": q, "quantity": "Apq",
                        "consistent": bool(p > 1 and q > p)})


# an A_p constant at or above this counts as no membership in rw_estimate
_RW_CAP = 1e6


def rw_estimate(w: Weight, family: DyadicFamily, p_grid) -> float:
    """Smallest p in the grid whose A_p report is stable with value below 1e6.

    Brackets inf{p : w in A_p} from above on the supplied grid; +inf when no
    grid point qualifies.
    """
    p_grid = [float(p) for p in p_grid]
    if any(b <= a for a, b in zip(p_grid, p_grid[1:])):
        raise ValueError("p_grid must be strictly increasing")
    if any(p <= 1 for p in p_grid):
        raise ValueError("p_grid entries must exceed 1")
    for p in p_grid:
        rep = ap_constant(w, p, family)
        if rep.stable and rep.value < _RW_CAP:
            return p
    return math.inf
