"""Axis-parallel cubes, uniformly sampled functions, and midpoint quadrature.

Conventions shared by the whole package:

* A box is a tuple of per-axis ``(lo, hi)`` intervals.  Dimensions 1 and 2
  are supported; the geometry below is written once for any n, and the cap
  is enforced in ``_as_box`` and ``Cube``.
* Samples live at cell centers ``lo + (i + 1/2) h`` with one spacing ``h``
  for every axis.  Quadrature is the midpoint rule, which is exact for
  functions that are constant on cells and for affine functions.
* Cell membership in a cube is half-open per axis (``[lo, hi)``), so that
  tilings by disjoint cubes are exact at the sample level.  The cells a cube
  owns form one index range per axis, ``GridFunction.cells``.
* Two grid functions combine only when box and spacing agree exactly.
  There is no implicit resampling anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridMismatchError",
    "Cube",
    "GridFunction",
    "DyadicFamily",
    "integrate",
    "weighted_lp_quasinorm",
    "tile_count",
    "dyadic_cubes",
    "multi_indices",
]

_SUPPORTED_DIMS = (1, 2)


class GridMismatchError(ValueError):
    """Raised when two grid functions with different box or spacing are combined."""


def _as_box(box) -> tuple[tuple[float, float], ...]:
    out = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(out) not in _SUPPORTED_DIMS:
        raise ValueError(f"only dimensions {_SUPPORTED_DIMS} are supported, got {len(out)}")
    for lo, hi in out:
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError(f"degenerate box interval ({lo}, {hi})")
    return out


@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube given by its center and side length."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "side", float(self.side))
        if len(self.center) not in _SUPPORTED_DIMS:
            raise ValueError(f"cube dimension must be one of {_SUPPORTED_DIMS}")
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError("cube side must be positive and finite")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("cube center must be finite")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def lo(self) -> tuple[float, ...]:
        return tuple(c - self.side / 2 for c in self.center)

    @property
    def hi(self) -> tuple[float, ...]:
        return tuple(c + self.side / 2 for c in self.center)

    @property
    def volume(self) -> float:
        return self.side ** self.dim

    def star(self) -> "Cube":
        """The concentric enlargement by 2*sqrt(dim)."""
        return Cube(self.center, self.side * (2.0 * math.sqrt(self.dim)))

    def scaled(self, factor: float) -> "Cube":
        """Rescale side and center about the origin by a positive factor.

        This is plain coordinate scaling, so shrinking is allowed; it is the
        primitive used for dilation sweeps, and runs in plain floats because
        sweeps call it once per cube and scale.
        """
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        # 0.0 + maps a -0.0 coordinate to 0.0, so no descriptor shows -0.0
        return Cube(tuple(0.0 + factor * x for x in self.center), self.side * factor)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership test for points of shape (..., dim)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValueError("point dimension does not match cube dimension")
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts < hi), axis=-1)

    def indicator(self, box, h: float) -> "GridFunction":
        """Sample the indicator of this cube on the given grid."""
        zero = GridFunction.zeros(box, h)
        vals = np.zeros_like(zero.samples)
        vals[zero.cells(self)] = 1.0
        return zero.with_samples(vals)

    def descriptor(self) -> dict:
        return {"center": list(self.center), "side": self.side}


def _axis_counts(box, h) -> tuple[int, ...]:
    counts = []
    for lo, hi in box:
        cnt = tile_count(hi - lo, h)
        if not cnt:
            raise ValueError(f"box extent ({lo}, {hi}) is not an integer multiple of h={h}")
        counts.append(cnt)
    return tuple(counts)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled at the cell centers of a uniform grid."""

    box: tuple[tuple[float, float], ...]
    h: float
    samples: np.ndarray

    def __post_init__(self):
        box = _as_box(self.box)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "h", float(self.h))
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError("grid spacing must be positive and finite")
        arr = np.array(self.samples, dtype=float, copy=True)
        if arr.shape != _axis_counts(box, self.h):
            raise ValueError(
                f"sample shape {arr.shape} does not match box {box} at h={self.h}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, box, h: float) -> "GridFunction":
        return cls(_as_box(box), float(h), np.zeros(_axis_counts(_as_box(box), float(h))))

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(self.box, self.h, samples)

    # -- geometry ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_centers(self, axis: int) -> np.ndarray:
        lo, hi = self.box[axis]
        cnt = self.samples.shape[axis]
        return lo + (np.arange(cnt) + 0.5) * self.h

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        return tuple(self.axis_centers(a) for a in range(self.dim))

    @cached_property
    def _coords(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self._axes, indexing="ij"), axis=-1)

    def cells(self, cube: Cube) -> tuple[slice, ...]:
        """The cells whose centers ``cube`` contains, as one half-open index
        range per axis (possibly empty); ``samples[g.cells(cube)]`` is the
        block.  Same comparisons as ``Cube.contains``: lo <= center < hi."""
        if cube.dim != self.dim:
            raise ValueError("cube dimension does not match the grid")
        return tuple(slice(*np.searchsorted(c, (lo, hi)).tolist())
                     for c, lo, hi in zip(self._axes, cube.lo, cube.hi))

    def cell_ranges(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``cells`` for k boxes at once, by the same comparisons: lo and hi
        are (k, dim) corners, and the result is the first and the
        one-past-last cell index of each box per axis, two (k, dim) integer
        arrays."""
        return tuple(np.stack([np.searchsorted(c, x[:, a]) for a, c in enumerate(self._axes)],
                              axis=-1)
                     for x in (lo, hi))

    def coords(self) -> np.ndarray:
        """Cell-center coordinates, shape ``samples.shape + (dim,)``."""
        return self._coords

    def same_grid(self, other: "GridFunction") -> bool:
        return self.box == other.box and self.h == other.h

    def _require_same_grid(self, other: "GridFunction"):
        if not self.same_grid(other):
            raise GridMismatchError(
                f"grids differ: {self.box}@{self.h} vs {other.box}@{other.h}"
            )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._require_same_grid(other)
            return self.with_samples(self.samples + other.samples)
        return self.with_samples(self.samples + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._require_same_grid(other)
            return self.with_samples(self.samples - other.samples)
        return self.with_samples(self.samples - float(other))

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._require_same_grid(other)
            return self.with_samples(self.samples * other.samples)
        return self.with_samples(self.samples * float(other))

    __rmul__ = __mul__

    def __abs__(self):
        return self.with_samples(np.abs(self.samples))

    def power(self, p: float) -> "GridFunction":
        return self.with_samples(np.power(self.samples, p))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.samples)))


# -- quadrature and norms ----------------------------------------------------


def integrate(f: GridFunction) -> float:
    """Midpoint-rule integral over the box: ``h^dim * sum(samples)``."""
    return float(f.cell_volume * np.sum(f.samples))


# the smallest normal float: an integral of |f|^p below it has lost digits
_TINY = np.finfo(float).tiny


def weighted_lp_quasinorm(f: GridFunction, p: float, w: GridFunction | None = None) -> float:
    """``(integral of |f|^p w)^(1/p)`` for any p > 0; w omitted means w == 1.
    An integral that underflows is taken again on |f| 2^-e, 2^e the binade
    of max |f|, and the root scaled back: both scalings are exact."""
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if w is not None:
        f._require_same_grid(w)
        if np.any(w.samples < 0):
            raise ValueError("weight samples must be nonnegative")

    def integral(a):
        fp = a ** p
        return f.cell_volume * np.sum(fp if w is None else fp * w.samples)

    a = np.abs(f.samples)
    total = integral(a)
    if total < _TINY and np.any(a):
        e = int(np.frexp(np.max(a))[1])
        return float(np.ldexp(integral(np.ldexp(a, -e)) ** (1.0 / p), e))
    return float(total ** (1.0 / p))


# -- dyadic families ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DyadicFamily:
    """Cubes of side 2^j, j_min <= j <= j_max, within a window.

    Each level is one (k, n) array of cube centres, ``centres[j - j_min]``.
    Its first ``tiles[j - j_min]`` rows are the dyadic cubes that tile the
    window, in product order; any rows after them are translates of those
    cubes (``weights.weight_cube_family``), grouped by the cube they come
    from.  The weight constants read the arrays a level at a time, with the
    float operations of ``Cube``; their powers and logarithms stay Python
    floats, whose last bit numpy's vectorized ones do not always match (see
    ``weights``).
    """

    window: tuple[tuple[float, float], ...]
    j_min: int
    j_max: int
    centres: tuple[np.ndarray, ...]
    tiles: tuple[int, ...]

    def __post_init__(self):
        for c in self.centres:
            c.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.window)

    def levels(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def descriptor(self) -> dict:
        return {"window": [list(iv) for iv in self.window],
                "levels": [self.j_min, self.j_max]}


def tile_count(extent: float, side: float) -> int:
    """How many cubes (or grid cells) of this side tile an interval of this
    extent, to a relative 1e-9; 0 when they do not."""
    raw = extent / side
    if not math.isfinite(raw):
        return 0
    cnt = round(raw)
    return cnt if cnt >= 1 and abs(raw - cnt) <= 1e-9 * max(1.0, raw) else 0


def dyadic_cubes(window, j_min: int, j_max: int, h: float | None = None) -> DyadicFamily:
    """All dyadic cubes of sides 2^j, j_min <= j <= j_max, tiling the window.

    Each level must tile the window exactly, so the window sides have to be
    integer multiples of the largest cube side.  When ``h`` is given, levels
    finer than the grid spacing are rejected.
    """
    window = _as_box(window)
    if j_min > j_max:
        raise ValueError(f"empty level range [{j_min}, {j_max}]")
    if h is not None and 2.0 ** j_min < h:
        raise ValueError(f"level 2^{j_min} is finer than grid spacing h={h}")
    centres = []
    for j in range(j_min, j_max + 1):
        side = 2.0 ** j
        axes = []
        for lo, hi in window:
            cnt = tile_count(hi - lo, side)
            if not cnt:
                raise ValueError(
                    f"window extent ({lo}, {hi}) is not tiled by side 2^{j}"
                )
            axes.append(lo + (np.arange(cnt) + 0.5) * side)
        grid = np.meshgrid(*axes, indexing="ij")
        centres.append(np.stack([g.ravel() for g in grid], axis=-1))
    return DyadicFamily(window, j_min, j_max, tuple(centres),
                        tuple(len(c) for c in centres))


def multi_indices(dim: int, max_total: int) -> list[tuple[int, ...]]:
    """Multi-indices of length ``dim`` and total degree <= ``max_total``,
    by total degree, then lexicographically."""
    every = itertools.product(range(max_total + 1), repeat=dim)
    return sorted((b for b in every if sum(b) <= max_total), key=sum)
