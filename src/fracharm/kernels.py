"""Fractional integral kernels, their defining conditions, and desk quadrature.

The model kernel K(x, y_1..y_m) = t^(gamma - mn) is a profile of
t = sum_i |x - y_i| alone.  The operator applies K against m grid functions
by midpoint quadrature over input cell-center tuples.  Exactly singular
tuples (every y_i in the cell of x) are re-integrated once on a 3^(mn)-fold
subdivision of the cell tuple with the still-singular center dropped; the
dropped mass is O(h^gamma) because the singularity is integrable.

On a 1-D grid the midpoint sum is not formed tuple by tuple.  The profile
is a sum of exponentials, t^(-s) ~ sum_j w_j exp(-u_j t) on [h, m G h]
(the trapezoid rule in log u; Beylkin-Monzon 2005, Trefethen-Weideman
2014), and exp(-u t) is a product over the slots, so each node costs one
exponential smoothing per slot: O(J m G) for J nodes in place of the
(cell x product of supports) tensor.  The nodes are built in absolute units
at every grid, so dilation covariance is tested on the operator itself.  On
atoms with vanishing moments the result is within 2e-15 of the long-double
dense sum in max norm.  The dense tensor stays for 2-D grids, for off-grid
points, and for a profile other than the model's.

Derivative-based checks (smoothness condition, Taylor remainder) use central
finite differences with step equal to 1/16 of the distance to the diagonal,
so truncation error stays a sub-percent effect at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _product

import numpy as np

from .grid import Cube, GridFunction, multi_indices

__all__ = [
    "KenigSteinKernel",
    "TaylorData",
    "apply_frac_operator",
    "kernel_size_check",
    "kernel_smoothness_check",
    "taylor_polynomial",
    "taylor_remainder_check",
    "local_product_bound_check",
]


def _fast_power(t: np.ndarray, e: float) -> np.ndarray:
    """t^e for positive t with shortcuts for the half-integer exponents the
    model kernel produces; they serve the dense operator path, the kernel
    checks and the subdivision correction."""
    if e == -0.5:
        return 1.0 / np.sqrt(t)
    if e == -1.0:
        return 1.0 / t
    if e == -1.5:
        return 1.0 / (t * np.sqrt(t))
    if e == -2.0:
        return 1.0 / (t * t)
    if e == -2.5:
        return 1.0 / (t * t * np.sqrt(t))
    if e == -3.0:
        return 1.0 / (t * t * t)
    if e == -3.5:
        return 1.0 / (t * t * t * np.sqrt(t))
    return np.power(t, e)


@dataclass(frozen=True)
class KenigSteinKernel:
    """The model kernel (sum of slot distances)^(gamma - mn): m-linear in
    dimension n with fractional order gamma in (0, mn).

    ``evaluate`` is derived from ``profile``, a function of the summed slot
    distances.  ``order`` records the smoothness order the harness intends
    to use.
    """

    m: int
    n: int
    gamma: float
    order: int = 1

    def __post_init__(self):
        if self.m < 1 or self.n not in (1, 2):
            raise ValueError("need m >= 1 and n in {1, 2}")
        if not 0 < self.gamma < self.m * self.n:
            raise ValueError(f"gamma must lie in (0, {self.m * self.n})")
        if self.order < 1:
            raise ValueError("smoothness order must be at least 1")

    def profile(self, t: np.ndarray) -> np.ndarray:
        return _fast_power(t, self.gamma - self.m * self.n)

    def evaluate(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """K at x (..., n) against slot points ys (..., m, n)."""
        x = np.asarray(x, dtype=float)
        ys = np.asarray(ys, dtype=float)
        t = np.linalg.norm(x[..., None, :] - ys, axis=-1).sum(axis=-1)
        return self.profile(t)

    def descriptor(self) -> dict:
        return {"kind": "kenig-stein", "m": self.m, "n": self.n,
                "gamma": self.gamma, "N": self.order, "params": {}}


# -- operator application -----------------------------------------------------


_EINSUM = {1: "ca,a->c", 2: "cab,a,b->c", 3: "cabd,a,b,d->c", 4: "cabde,a,b,d,e->c"}

# Sum-of-exponentials quadrature of t^(-s): the trapezoid rule in x = log u
# on t^(-s) = Gamma(s)^(-1) int exp(s x - e^x t) dx, with relative error far
# below 1e-13 uniformly for t in [h, t_max].  The step sets the discretization
# error (a step of 0.28 already costs 1.2e-12 on the trilinear and
# quadrilinear atoms of the accuracy test); the range drops at most 1e-15 of
# the mass at t_max below and e^(-45) at t = h above.
_SOE_STEP = 0.2
_SOE_LOW_MASS = 1e-15
_SOE_HIGH_EXP = 45.0
# prefix sums weight a hull cell by up to e^(alpha S): rates past e^600 take
# neighbour sums instead
_PREFIX_MAX_EXP = 600.0
# neighbour terms below e^(-50) of the nearest one are dropped
_NEGLIGIBLE = math.exp(-50.0)


def _soe_nodes(s: float, h: float, reach: int):
    """Nodes u_j and weights w_j, in absolute units, with
    t^(-s) ~ sum_j w_j exp(-u_j t) for h <= t <= reach * h.  The node count
    depends on s and reach alone, so a dilated grid gets the same count and
    the dilated nodes."""
    x_lo = math.log(_SOE_LOW_MASS) / s - math.log(reach * h) - 1.0
    span = math.log(_SOE_HIGH_EXP * reach) + 1.0 - math.log(_SOE_LOW_MASS) / s
    x = x_lo + _SOE_STEP * np.arange(math.ceil(span / _SOE_STEP) + 1)
    return np.exp(x), _SOE_STEP * np.exp(s * x) / math.gamma(s)


def _exp_smooth(v: np.ndarray, alpha: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """E v(a) = sum over b != a of exp(-alpha_j |a - b|) v_b for the
    increasing rates alpha_j (in cells), as a (J, G) array, given the table
    decay[j, d - 1] = exp(-alpha_j d); exact up to rounding and the dropped
    e^(-50) tail, in O(J G) work.

    Inside the hull of v's support (S cells), the rates with alpha S below
    600 take prefix sums of e^(alpha b) v_b from either end; past that the
    weights would leave the float range, and the larger rates, whose terms
    die within a few cells, take neighbour sums.  Outside the hull E v
    decays geometrically from the hull's end cell."""
    nz = np.flatnonzero(v)
    lo, hi = nz[0], nz[-1] + 1
    S = hi - lo
    # a power of two brings the data to unit size exactly, so e^(alpha b) v_b
    # stays finite for any finite data
    scale = 2.0 ** np.frexp(np.max(np.abs(v[lo:hi])))[1]
    f = v[lo:hi] / scale
    left = np.zeros((alpha.size, S))   # sum over b < a, inside the hull
    right = np.zeros((alpha.size, S))  # sum over b > a
    n_pre = int(np.searchsorted(alpha * S, _PREFIX_MAX_EXP))
    if S > 1 and n_pre:
        shrink = decay[:n_pre, : S - 1]
        grow = np.ones((n_pre, S))
        grow[:, 1:] = 1.0 / shrink
        left[:n_pre, 1:] = np.cumsum(grow * f, axis=1)[:, :-1] * shrink
        right[:n_pre, -2::-1] = np.cumsum(grow * f[::-1], axis=1)[:, :-1] * shrink
    for d in range(1, S):
        col = decay[n_pre:, d - 1]
        n_d = int(np.count_nonzero(col > _NEGLIGIBLE))
        if not n_d:
            break
        left[n_pre : n_pre + n_d, d:] += col[:n_d, None] * f[:-d]
        right[n_pre : n_pre + n_d, :-d] += col[:n_d, None] * f[d:]
    left *= scale
    right *= scale
    out = np.empty((alpha.size, v.size))
    np.add(left, right, out=out[:, lo:hi])
    np.multiply(decay[:, :lo][:, ::-1], v[lo] + right[:, :1], out=out[:, :lo])
    np.multiply(decay[:, : v.size - hi], v[hi - 1] + left[:, -1:], out=out[:, hi:])
    return out


def _soe_tuple_sum(kernel: KenigSteinKernel, flat, h: float) -> np.ndarray:
    """sum over non-singular tuples of t^(gamma - m) prod_i f_i(b_i) at every
    cell of a 1-D grid, by the factorization exp(-u t) = prod_i
    exp(-u |x - y_i|): sum_j w_j (prod_i (f_i + E_j f_i) - prod_i f_i)."""
    m, G = kernel.m, flat[0].size
    u, w = _soe_nodes(m - kernel.gamma, h, m * G)
    total = np.zeros(G)
    # nodes go in blocks of about 2^15 (node, cell) values, whose (J, G)
    # temporaries stay in cache; arrays over all nodes cost page faults on
    # every call
    step = max(16, (1 << 15) // G)
    for j0 in range(0, u.size, step):
        total += _soe_block(flat, u[j0 : j0 + step] * h, w[j0 : j0 + step])
    return total


def _soe_block(flat, alpha: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One block's share sum_j w_j (prod_i (f_i + E_j f_i) - prod_i f_i),
    for the rates alpha_j = u_j h."""
    G = flat[0].size
    # exp(-alpha d) = exp(-alpha B q) exp(-alpha r) for d = B q + r: two
    # short tables of exponentials and one product, not J * G exponentials
    B = 16
    coarse = np.exp(-alpha[:, None] * (B * np.arange(-(-G // B))))
    fine = np.exp(-alpha[:, None] * np.arange(B))
    decay = (coarse[:, :, None] * fine[:, None, :]).reshape(alpha.size, -1)[:, 1:G]
    # acc is prod over the slots so far minus its all-singular term; each
    # slot extends it without ever adding that term in
    acc, diag = _exp_smooth(flat[0], alpha, decay), flat[0]
    for v in flat[1:-1]:
        e = _exp_smooth(v, alpha, decay)
        acc = acc * (v + e) + diag * e
        diag = diag * v
    if len(flat) == 1:
        return w @ acc
    v = flat[-1]
    e = _exp_smooth(v, alpha, decay)
    # the last slot's extension, applied after the sum over nodes
    return v * (w @ acc) + w @ (acc * e) + diag * (w @ e)


def _dense_tuple_sum(kernel: KenigSteinKernel, X, cells, flat, sup, on_grid: bool,
                     sing_cells) -> np.ndarray:
    """The same sum at the points X by the dense (point x tuple) tensor of
    profile values, chunked over the points."""
    out = np.empty(X.shape[0])
    Y = [cells[idx] for idx in sup]
    V = [flat[i][sup[i]] for i in range(kernel.m)]
    sing_pos = [np.searchsorted(sup[i], sing_cells) for i in range(kernel.m)]
    tuples_per_x = int(np.prod([idx.size for idx in sup]))
    chunk = max(1, (1 << 22) // max(tuples_per_x, 1))
    spec = _EINSUM[kernel.m]
    for c0 in range(0, X.shape[0], chunk):
        xb = X[c0 : c0 + chunk]
        D = [np.linalg.norm(xb[:, None, :] - Yi[None, :, :], axis=-1) for Yi in Y]
        t = D[0]
        for i in range(1, kernel.m):
            shape = [t.shape[0]] + [1] * i + [D[i].shape[1]]
            t = t[..., None] + D[i].reshape(shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            W = kernel.profile(t)
        if not on_grid:
            # off-grid points may collide exactly with an input center;
            # such zero-measure tuples carry no quadrature mass
            W[~np.isfinite(W)] = 0.0
        if on_grid and sing_cells.size:
            # zero the exactly singular tuples in this chunk
            inside = (sing_cells >= c0) & (sing_cells < c0 + xb.shape[0])
            if np.any(inside):
                locs = tuple(pos[inside] for pos in sing_pos)
                W[(sing_cells[inside] - c0,) + locs] = 0.0
        out[c0 : c0 + xb.shape[0]] = np.einsum(spec, W, *V, optimize=True)
    return out


def _subdivision_profile_sum(kernel: KenigSteinKernel, h: float) -> float:
    """Sum of profile over the once-subdivided singular cell tuple, with the
    still-singular center dropped."""
    offsets = (-h / 3.0, 0.0, h / 3.0)
    mn = kernel.m * kernel.n
    total = 0.0
    for combo in _product(offsets, repeat=mn):
        t = 0.0
        for i in range(kernel.m):
            t += math.hypot(*combo[i * kernel.n : (i + 1) * kernel.n])
        if t > 0.0:
            total += float(kernel.profile(np.asarray(t)))
    return total


def apply_frac_operator(kernel: KenigSteinKernel, fs, points=None):
    """Midpoint-quadrature application of the m-linear fractional operator.

    With ``points=None`` evaluates at every cell center and returns a
    GridFunction; otherwise returns the value array at the given points of
    shape (P, n).  On a 1-D grid the model kernel factorizes over a
    sum-of-exponentials quadrature of its profile, at O(J m G) cost for J
    nodes (about 100 to 400) and G cells.  Off-grid points, 2-D grids and a
    profile other than the model's take the dense tensor, whose cost grows
    with the product of slot support sizes, so the multilinearity times
    dimension is capped at 4.
    """
    fs = list(fs)
    if len(fs) != kernel.m:
        raise ValueError(f"kernel expects {kernel.m} inputs, got {len(fs)}")
    g0 = fs[0]
    for f in fs[1:]:
        g0._require_same_grid(f)
    if g0.dim != kernel.n:
        raise ValueError("grid dimension does not match the kernel")
    mn = kernel.m * kernel.n
    if mn > 4:
        raise ValueError("m * n above 4 is outside the desk-scale cost cap")
    h = g0.h
    cells = g0.coords().reshape(-1, g0.dim)
    flat = [f.samples.reshape(-1) for f in fs]
    sup = [np.nonzero(v)[0] for v in flat]

    on_grid = points is None
    X = cells if on_grid else np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[-1] != g0.dim:
        raise ValueError("points have the wrong dimension")
    out = np.zeros(X.shape[0])

    if all(idx.size for idx in sup):
        # cells where every slot can collide with x (supports all overlap)
        sing_cells = sup[0]
        for i in range(1, kernel.m):
            sing_cells = np.intersect1d(sing_cells, sup[i])
        if (on_grid and kernel.n == 1
                and type(kernel).profile is KenigSteinKernel.profile):
            out = _soe_tuple_sum(kernel, flat, h)
        else:
            out = _dense_tuple_sum(kernel, X, cells, flat, sup, on_grid, sing_cells)

        if on_grid and sing_cells.size:
            # one-shot subdivision correction at the singular cells
            s_corr = _subdivision_profile_sum(kernel, h)
            prods = np.ones(sing_cells.size)
            for v in flat:
                prods *= v[sing_cells]
            out[sing_cells] += s_corr * prods / 3.0 ** mn

    out *= h ** mn
    if on_grid:
        return g0.with_samples(out.reshape(g0.samples.shape))
    return out


# -- kernel condition checks ---------------------------------------------------


# the kernel checks draw x and every y_i uniformly from [-2, 2]^n
_SAMPLE_RADIUS = 2.0


def _sample_configurations(kernel: KenigSteinKernel, count: int, seed: int,
                           min_t: float, per_slot: bool = False):
    """Uniform configurations with t = sum_i |x - y_i| above min_t; with
    per_slot=True every individual slot distance must clear min_t instead,
    which is the right admissible set for derivative estimates (the kernel
    has a kink on each slot diagonal, not only at t = 0)."""
    if count < 1:
        raise ValueError("need at least one sample configuration")
    rng = np.random.default_rng(seed)
    xs = np.empty((0, kernel.n))
    ys = np.empty((0, kernel.m, kernel.n))
    while xs.shape[0] < count:
        draw = max(count, 64)
        x = rng.uniform(-_SAMPLE_RADIUS, _SAMPLE_RADIUS, size=(draw, kernel.n))
        y = rng.uniform(-_SAMPLE_RADIUS, _SAMPLE_RADIUS,
                        size=(draw, kernel.m, kernel.n))
        d = np.linalg.norm(x[:, None, :] - y, axis=-1)
        keep = (d.min(axis=-1) if per_slot else d.sum(axis=-1)) > min_t
        xs = np.concatenate([xs, x[keep]])
        ys = np.concatenate([ys, y[keep]])
    xs, ys = xs[:count], ys[:count]
    d = np.linalg.norm(xs[:, None, :] - ys, axis=-1)
    return xs, ys, d.sum(axis=-1), d.min(axis=-1)


def kernel_size_check(kernel: KenigSteinKernel, sample_count: int = 400, *,
                      seed: int = 0, min_t: float = 1e-3) -> float:
    """Max over random off-diagonal configurations of |K| * t^(mn - gamma)."""
    x, ys, t, _ = _sample_configurations(kernel, sample_count, seed, min_t)
    vals = np.abs(kernel.evaluate(x, ys))
    return float(np.max(vals * _fast_power(t, kernel.m * kernel.n - kernel.gamma)))


def _axis_stencil(order: int):
    # central iterated-difference coefficients and node offsets in step units
    coeffs = [(-1.0) ** j * math.comb(order, j) for j in range(order + 1)]
    nodes = [order / 2.0 - j for j in range(order + 1)]
    return coeffs, nodes


def _difference(kernel: KenigSteinKernel, x, ys, slot: int, beta, step):
    """Central iterated difference of K in slot ``slot`` along the
    multi-index beta, vectorized over the sample axis; divide by
    step^|beta| for the derivative estimate."""
    acc = np.zeros(x.shape[0])
    per_axis = [_axis_stencil(b) for b in beta]
    for parts in _product(*(range(b + 1) for b in beta)):
        coef = np.ones(x.shape[0])
        offset = np.zeros((x.shape[0], kernel.n))
        for axis, j in enumerate(parts):
            c, nodes = per_axis[axis]
            coef = coef * c[j]
            offset[:, axis] += nodes[j] * step
        shifted = ys.copy()
        shifted[:, slot, :] += offset
        acc += coef * kernel.evaluate(x, shifted)
    return acc


def _derivative_sum(kernel: KenigSteinKernel, x, ys, order: int, step):
    """Sum over slots and |beta| = order of |FD estimate of the slot
    derivative|, vectorized over the sample axis."""
    total = np.zeros(x.shape[0])
    for slot in range(kernel.m):
        for beta in multi_indices(kernel.n, order):
            if sum(beta) == order:
                diff = _difference(kernel, x, ys, slot, beta, step)
                total += np.abs(diff) / step ** order
    return total


def kernel_smoothness_check(kernel: KenigSteinKernel, order: int, sample_count: int = 200,
                            *, seed: int = 0, min_t: float = 1e-2) -> float:
    """Max over samples of (sum of slot derivatives of order N, estimated by
    central differences) * t^(mn + N - gamma); order 0 is the size check."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order == 0:
        return kernel_size_check(kernel, sample_count, seed=seed, min_t=min_t)
    x, ys, t, dmin = _sample_configurations(kernel, sample_count, seed, min_t,
                                            per_slot=True)
    # the step must clear the nearest slot kink, not just the full diagonal:
    # with m >= 2 a slot can sit much closer to x than t/16
    deriv = _derivative_sum(kernel, x, ys, order, dmin / 16.0)
    power = _fast_power(t, kernel.m * kernel.n + order - kernel.gamma)
    return float(np.max(deriv * power))


# -- Taylor machinery ----------------------------------------------------------


@dataclass(frozen=True)
class TaylorData:
    """Degree-(order-1) Taylor expansion of the kernel in one slot about a
    cube center; coefficients are finite-difference values computed per
    evaluation configuration since they depend on x and the other slots."""

    kernel: KenigSteinKernel
    slot: int
    center: tuple
    order: int

    def coefficients(self, x: np.ndarray, ys: np.ndarray) -> dict:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ys = np.asarray(ys, dtype=float).reshape(x.shape[0], self.kernel.m, self.kernel.n)
        base = ys.copy()
        base[:, self.slot, :] = np.asarray(self.center)
        # step relative to the expansion slot's own distance from x, so the
        # stencil never reaches the kink at y_slot = x even when other slots
        # dominate the total distance
        step = np.linalg.norm(x - np.asarray(self.center), axis=-1) / 16.0
        # the zeroth difference is the kernel itself, exactly: its one
        # stencil node has weight 1 and offset 0
        return {beta: _difference(self.kernel, x, base, self.slot, beta, step)
                / step ** sum(beta)
                for beta in multi_indices(self.kernel.n, self.order - 1)}

    def evaluate(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ys = np.asarray(ys, dtype=float).reshape(x.shape[0], self.kernel.m, self.kernel.n)
        coeffs = self.coefficients(x, ys)
        dy = ys[:, self.slot, :] - np.asarray(self.center)
        val = np.zeros(x.shape[0])
        for beta, c in coeffs.items():
            mono = np.ones(x.shape[0])
            fact = 1.0
            for axis, b in enumerate(beta):
                mono = mono * dy[:, axis] ** b
                fact *= math.factorial(b)
            val += c * mono / fact
        return val


def taylor_polynomial(kernel: KenigSteinKernel, slot: int, center, order: int) -> TaylorData:
    if not 0 <= slot < kernel.m:
        raise ValueError("slot out of range")
    if order < 1:
        raise ValueError("order must be at least 1")
    center = tuple(float(c) for c in np.atleast_1d(center))
    if len(center) != kernel.n:
        raise ValueError("center has the wrong dimension")
    return TaylorData(kernel=kernel, slot=slot, center=center, order=order)


# x and the other slots sit at infinity-norm distance 1.01 to 4 times
# side * sqrt(n) from the cube center, outside its star
_TAYLOR_SPAN = (1.01, 4.0)


def taylor_remainder_check(kernel: KenigSteinKernel, td: TaylorData, cube: Cube, *,
                           n_samples: int = 200, seed: int = 0) -> float:
    """Max over samples of |K - P| * t^(mn + N - gamma) / side^N with the
    expansion slot in the cube and x outside its star."""
    if cube.dim != kernel.n:
        raise ValueError("cube dimension does not match the kernel")
    if tuple(td.center) != cube.center:
        raise ValueError("expansion center must be the cube center")
    rng = np.random.default_rng(seed)
    n, m, side = kernel.n, kernel.m, cube.side
    c = np.asarray(cube.center)
    star = cube.star()

    def annulus(count):
        # infinity-norm annulus strictly outside the star
        r = side * math.sqrt(n) * rng.uniform(*_TAYLOR_SPAN, size=count)
        u = rng.uniform(-1.0, 1.0, size=(count, n))
        amax = np.max(np.abs(u), axis=1, keepdims=True)
        return c + r[:, None] * u / amax

    x = annulus(n_samples)
    if np.any(star.contains(x)):
        raise ValueError("sampled x fell inside the star of the cube")
    ys = np.empty((n_samples, m, n))
    for i in range(m):
        if i == td.slot:
            ys[:, i, :] = c + side * rng.uniform(-0.5, 0.5, size=(n_samples, n))
        else:
            ys[:, i, :] = annulus(n_samples)
    t = np.linalg.norm(x[:, None, :] - ys, axis=-1).sum(axis=-1)
    rem = np.abs(kernel.evaluate(x, ys) - td.evaluate(x, ys))
    power = _fast_power(t, m * n + td.order - kernel.gamma)
    return float(np.max(rem * power / side ** td.order))


# -- pointwise product bound ----------------------------------------------------


def local_product_bound_check(kernel: KenigSteinKernel, cubes, gamma_split, x, *,
                              box, h: float) -> float:
    """|T(indicators)(x)| / prod side_i^gamma_i for x in every star.

    The stars must intersect and contain x; the gamma split must be positive
    and sum to the kernel's gamma.
    """
    cubes = list(cubes)
    gamma_split = [float(g) for g in gamma_split]
    if len(cubes) != kernel.m or len(gamma_split) != kernel.m:
        raise ValueError("need one cube and one gamma share per slot")
    if any(g <= 0 for g in gamma_split):
        raise ValueError("gamma shares must be positive")
    if abs(sum(gamma_split) - kernel.gamma) > 1e-12:
        raise ValueError("gamma shares must sum to the kernel gamma")
    pt = np.atleast_2d(np.asarray(x, dtype=float))
    for q in cubes:
        if not q.star().contains(pt)[0]:
            raise ValueError("x must lie in the star of every cube")
    fs = [q.indicator(box, h) for q in cubes]
    val = apply_frac_operator(kernel, fs, points=pt)[0]
    denom = 1.0
    for q, g in zip(cubes, gamma_split):
        denom *= q.side ** g
    return float(abs(val) / denom)
