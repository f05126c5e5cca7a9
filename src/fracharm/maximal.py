"""Discretized Hardy-Littlewood, fractional, iterated, and smooth maximal operators.

The supremum over all cubes containing a point is approximated by a maximum
over a geometric ladder of side lengths (default ratio 2^(1/4), floor at the
grid spacing, cap at the window side).  Every ladder length is a whole number
of cells, so cube averages are plain window sums; outside the box the
function counts as zero, consistent with the package-wide compact-support
convention, which also makes every in-window value exact rather than
boundary-clipped.

Exactness notes relied on by tests: with the floor at one cell the maximal
function dominates |f| sample by sample, and for indicator data whose cube is
grid aligned the maximizing windows are realized exactly whenever their cell
count lands on the ladder (powers of two always do).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import convolve as _ndimage_convolve

from .grid import GridFunction

__all__ = [
    "MaximalConfig",
    "Mollifier",
    "hl_maximal",
    "frac_maximal",
    "iterated_maximal",
    "grand_maximal",
]


@dataclass(frozen=True)
class MaximalConfig:
    """Ladder of cube side lengths ell_min * ratio^k, capped at ell_max."""

    ell_min: float
    ell_max: float
    ratio: float = 2.0 ** 0.25

    def __post_init__(self):
        if not (0 < self.ell_min <= self.ell_max):
            raise ValueError("need 0 < ell_min <= ell_max")
        if not self.ratio > 1:
            raise ValueError("ladder ratio must exceed 1")

    @classmethod
    def for_grid(cls, f: GridFunction, **kw) -> "MaximalConfig":
        ell_max = min(hi - lo for lo, hi in f.box)
        return cls(ell_min=f.h, ell_max=ell_max, **kw)

    def cell_lengths(self, h: float) -> tuple[int, ...]:
        """Ladder in cells; always includes the cap length."""
        if self.ell_min < h * (1 - 1e-9):
            raise ValueError(f"ell_min={self.ell_min} is below grid spacing {h}")
        lo = max(1, round(self.ell_min / h))
        hi = int(math.floor(self.ell_max / h + 1e-9))
        if hi < lo:
            raise ValueError("ladder cap below its floor at this spacing")
        lengths = {hi}
        k = 0
        while True:
            L = round(lo * self.ratio ** k)
            if L > hi:
                break
            lengths.add(L)
            k += 1
        return tuple(sorted(lengths))


def _window_sums_1d(arr: np.ndarray, L: int) -> np.ndarray:
    # sums over every length-L window intersecting the array, zeros outside
    G = arr.shape[0]
    cs = np.concatenate(([0.0], np.cumsum(arr)))
    s = np.arange(-(L - 1), G)
    return cs[np.clip(s + L, 0, G)] - cs[np.clip(s, 0, G)]


def _window_sums_2d(arr: np.ndarray, L: int) -> np.ndarray:
    G1, G2 = arr.shape
    cs = np.zeros((G1 + 1, G2 + 1))
    cs[1:, 1:] = np.cumsum(np.cumsum(arr, axis=0), axis=1)
    s1 = np.arange(-(L - 1), G1)
    s2 = np.arange(-(L - 1), G2)
    a1, b1 = np.clip(s1, 0, G1), np.clip(s1 + L, 0, G1)
    a2, b2 = np.clip(s2, 0, G2), np.clip(s2 + L, 0, G2)
    return (cs[np.ix_(b1, b2)] - cs[np.ix_(a1, b2)]
            - cs[np.ix_(b1, a2)] + cs[np.ix_(a1, a2)])


def _ladder_pass(f: GridFunction, scale_of_length, cfg: MaximalConfig) -> GridFunction:
    absf = np.abs(f.samples)
    best = None
    for L in cfg.cell_lengths(f.h):
        if L == 1:
            # bypass the cumsum path so the one-cell cube is the sample
            # itself, making M f >= |f| exact rather than within rounding
            cand = absf * scale_of_length(f.h)
            best = cand if best is None else np.maximum(best, cand)
            continue
        if f.dim == 1:
            vals = sliding_window_view(_window_sums_1d(absf, L), L).max(-1)
        else:
            W = _window_sums_2d(absf, L)
            part = sliding_window_view(W, L, axis=0).max(-1)
            vals = sliding_window_view(part, L, axis=1).max(-1)
        cand = vals * (scale_of_length(L * f.h) / float(L) ** f.dim)
        best = cand if best is None else np.maximum(best, cand)
    return f.with_samples(best)


def hl_maximal(f: GridFunction, cfg: MaximalConfig | None = None) -> GridFunction:
    """Uncentered Hardy-Littlewood maximal function on the configured ladder."""
    cfg = cfg or MaximalConfig.for_grid(f)
    return _ladder_pass(f, lambda _ell: 1.0, cfg)


def _support_touches_boundary(f: GridFunction) -> bool:
    s = f.samples
    if f.dim == 1:
        return bool(s[0] != 0 or s[-1] != 0)
    return bool(np.any(s[0, :]) or np.any(s[-1, :]) or np.any(s[:, 0]) or np.any(s[:, -1]))


def frac_maximal(f: GridFunction, gamma: float, cfg: MaximalConfig | None = None) -> GridFunction:
    """Fractional maximal function: max over cubes of side^gamma times the average."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    cfg = cfg or MaximalConfig.for_grid(f)
    if gamma > 0 and _support_touches_boundary(f):
        warnings.warn(
            "function is supported up to the box boundary; the fractional "
            "maximal value is then set by the ladder cap ell_max",
            RuntimeWarning,
            stacklevel=2,
        )
    return _ladder_pass(f, lambda ell: ell ** gamma, cfg)


def iterated_maximal(f: GridFunction, j: int, cfg: MaximalConfig | None = None) -> GridFunction:
    """j-fold composition of the Hardy-Littlewood maximal operator."""
    if j < 0 or j != int(j):
        raise ValueError("iteration count must be a nonnegative integer")
    out = f
    for _ in range(int(j)):
        out = hl_maximal(out, cfg)
    return out


@dataclass(frozen=True)
class Mollifier:
    """Polynomial bump (1 - |x|^2)^4 swept over a fixed set of scales.

    Each scale's sampled kernel is normalized to unit discrete mass, so the
    smooth maximal function never exceeds sup|f|.
    """

    scales: tuple[float, ...]

    def __post_init__(self):
        scales = tuple(sorted(float(t) for t in self.scales))
        if not scales or scales[0] <= 0:
            raise ValueError("scales must be positive")
        object.__setattr__(self, "scales", scales)

    @classmethod
    def dyadic(cls, j_min: int, j_max: int) -> "Mollifier":
        return cls(tuple(2.0 ** j for j in range(j_min, j_max + 1)))

    def kernel(self, t: float, h: float, dim: int) -> np.ndarray:
        m = int(math.floor(t / h + 1e-9))
        off = np.arange(-m, m + 1) * (h / t)
        if dim == 1:
            prof = np.clip(1.0 - off ** 2, 0.0, None) ** 4
        else:
            r2 = off[:, None] ** 2 + off[None, :] ** 2
            prof = np.clip(1.0 - r2, 0.0, None) ** 4
        return prof / (prof.sum() * h ** dim)


def _support_margin_cells(f: GridFunction) -> int:
    nz = np.nonzero(f.samples)
    if nz[0].size == 0:
        return -1
    margins = []
    for axis, idx in enumerate(nz):
        margins.append(int(idx.min()))
        margins.append(f.samples.shape[axis] - 1 - int(idx.max()))
    return min(margins)


def grand_maximal(f: GridFunction, mol: Mollifier) -> GridFunction:
    """Max over scales of |smoothed f|, a one-bump stand-in for the full
    smooth maximal function taken over a family of test functions."""
    margin = _support_margin_cells(f)
    if margin < 0:
        return f.with_samples(np.zeros_like(f.samples))
    t_max = mol.scales[-1]
    need = int(math.ceil(t_max / f.h - 1e-9))
    if margin < need:
        raise ValueError(
            f"support needs a margin of {need} cells for scale {t_max}, has {margin}"
        )
    best = None
    for t in mol.scales:
        ker = mol.kernel(t, f.h, f.dim)
        if f.dim == 1:
            conv = np.convolve(f.samples, ker, mode="same") * f.h
        else:
            conv = _ndimage_convolve(f.samples, ker, mode="constant", cval=0.0) * f.h ** 2
        cand = np.abs(conv)
        best = cand if best is None else np.maximum(best, cand)
    return f.with_samples(best)
