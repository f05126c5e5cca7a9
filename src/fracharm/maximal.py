"""Discretized Hardy-Littlewood, fractional, iterated, and smooth maximal operators.

The supremum over all cubes containing a point is approximated by a maximum
over a geometric ladder of side lengths (default ratio 2^(1/4), floor at the
grid spacing, cap at the window side).  Every ladder length is a whole number
of cells, so cube averages are plain window sums; outside the box the
function counts as zero, consistent with the package-wide compact-support
convention, which also makes every in-window value exact rather than
boundary-clipped.

Each rung costs O(size): its window sums are basic slices of one summed-area
table, built and edge-padded once per pass, and the max over the windows
holding a cell is a running max (van Herk / Gil-Werman, as in
``scipy.ndimage.maximum_filter1d``) along each axis in turn.

Exactness notes relied on by tests: with the floor at one cell the maximal
function dominates |f| sample by sample, and for indicator data whose cube is
grid aligned the maximizing windows are realized exactly whenever their cell
count lands on the ladder (powers of two always do).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve as _ndimage_convolve
from scipy.ndimage import maximum_filter1d

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


def _summed_area_table(arr: np.ndarray) -> np.ndarray:
    # table[i0, i1, ...] = arr[:i0, :i1, ...].sum(), the summed-area table
    # of Crow (1984); cumsum runs axis by axis, first axis first
    cs = arr
    for axis in range(arr.ndim):
        cs = np.cumsum(cs, axis=axis)
    table = np.zeros(tuple(s + 1 for s in arr.shape))
    table[(slice(1, None),) * arr.ndim] = cs
    return table


def _window_sums(table: np.ndarray, pad: int, L: int) -> np.ndarray:
    # sums over every L^n window intersecting the array, zeros outside, read
    # at the window corners (0 = lower, 1 = upper) by inclusion-exclusion,
    # first axis fastest: one fixed term order for every n.  The table is
    # edge-padded by pad >= L - 1 cells, so a corner outside the array reads
    # table[0] = 0 below or table[size] above, the clipped corner, and every
    # corner is a basic slice
    ends = []
    for size in table.shape:
        cells = size - 2 * pad - 1
        ends.append((slice(pad - L + 1, pad + cells), slice(pad + 1, pad + cells + L)))
    out = 0.0
    for corner in itertools.product((1, 0), repeat=table.ndim):
        corner = corner[::-1]
        term = table[tuple(e[c] for e, c in zip(ends, corner))]
        out = out - term if (table.ndim - sum(corner)) % 2 else out + term
    return out


def _ladder_pass(f: GridFunction, scale_of_length, cfg: MaximalConfig) -> GridFunction:
    absf = np.abs(f.samples)
    lengths = cfg.cell_lengths(f.h)
    pad = lengths[-1] - 1
    table = np.pad(_summed_area_table(absf), pad, mode="edge")
    best = None
    for L in lengths:
        if L == 1:
            # bypass the table so the one-cell cube is the sample itself,
            # making M f >= |f| exact rather than within rounding
            cand = absf * scale_of_length(f.h)
            best = cand if best is None else np.maximum(best, cand)
            continue
        vals = _window_sums(table, pad, L)
        for axis, cells in enumerate(absf.shape):
            # running max over L consecutive window sums; output L // 2 + i
            # is the max of sums i .. i + L - 1, the windows holding cell i
            vals = maximum_filter1d(vals, L, axis=axis)
            vals = vals[(slice(None),) * axis + (slice(L // 2, L // 2 + cells),)]
        cand = vals * (scale_of_length(L * f.h) / float(L) ** f.dim)
        best = cand if best is None else np.maximum(best, cand)
    return f.with_samples(best)


def hl_maximal(f: GridFunction, cfg: MaximalConfig | None = None) -> GridFunction:
    """Uncentered Hardy-Littlewood maximal function on the configured ladder."""
    cfg = cfg or MaximalConfig.for_grid(f)
    return _ladder_pass(f, lambda _ell: 1.0, cfg)


def frac_maximal(f: GridFunction, gamma: float, cfg: MaximalConfig | None = None) -> GridFunction:
    """Fractional maximal function: max over cubes of side^gamma times the average."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    cfg = cfg or MaximalConfig.for_grid(f)
    if gamma > 0 and _support_margin_cells(f) == 0:
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
        """The read-only bump at scale t on a grid of step h.  It depends on
        (t, h, dim) only, so each is built once and shared by every trial."""
        return _bump(t, h, dim)


# a run sweeps about 7 grid steps with about 10 scales each; the bound keeps
# every pair of a run cached, so a trial loop never cycles through misses
@functools.lru_cache(maxsize=256)
def _bump(t: float, h: float, dim: int) -> np.ndarray:
    m = int(math.floor(t / h + 1e-9))
    off = np.arange(-m, m + 1) * (h / t)
    r2 = sum(np.ix_(*[off ** 2] * dim))
    prof = np.clip(1.0 - r2, 0.0, None) ** 4
    ker = prof / (prof.sum() * h ** dim)
    ker.flags.writeable = False
    return ker


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
        # np.convolve has no 2-D form, and in 1-D it is ~20x faster than
        # ndimage at G = 4096 and rounds differently, so it keeps its branch
        if f.dim == 1:
            conv = np.convolve(f.samples, ker, mode="same") * f.h
        else:
            conv = _ndimage_convolve(f.samples, ker, mode="constant", cval=0.0) * f.h ** 2
        cand = np.abs(conv)
        best = cand if best is None else np.maximum(best, cand)
    return f.with_samples(best)
