"""Fractional integral kernels, their defining conditions, and desk quadrature.

The model kernel K(x, y_1..y_m) = t^(gamma - mn) is a profile of
t = sum_i |x - y_i| alone.  The operator applies K against m grid functions
by midpoint quadrature over input cell-center tuples; a tuple at t = 0
carries no mass.  At cell centers (not at points off the grid) the singular
cell tuple is added back on a 3^(mn)-fold subdivision with the still-singular
center dropped; the dropped mass is O(h^gamma), the singularity integrable.

On a 1-D grid the midpoint sum is not formed tuple by tuple.  The profile
is a sum of exponentials, t^(-s) ~ sum_j w_j exp(-u_j t) on [h, m G h]
(the trapezoid rule in log u; Beylkin-Monzon 2005, Trefethen-Weideman
2014), and exp(-u t) is a product over the slots, so each of J nodes costs
one exponential smoothing per slot, not a (cell x product of supports)
tensor.  It runs on the window of the slots' hulls: O(J S C) per hull of
S cells in chunks of C = 64 and O(J W) over W window cells; outside, the
far field is closed-form, (G/16 x J) @ (J x 32) in products of 64 nodes.
The nodes are built in absolute units at every grid, so dilation
covariance is tested on the operator itself.  On atoms with vanishing
moments the result is within 2e-15 of the long-double dense sum in max
norm.  The dense tensor stays for 2-D grids, for off-grid points, and for a
profile other than the model's.

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
    "apply_frac_operator",
    "kernel_size_check",
    "kernel_smoothness_check",
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
# cells per chunk of a slot's hull, whose product's shape is data-free
_CHUNK = 64
# cells per row of the fine exponential tables
_DECAY_SPLIT = 16


def _soe_nodes(s: float, h: float, reach: int):
    """Nodes u_j and weights w_j, in absolute units, with
    t^(-s) ~ sum_j w_j exp(-u_j t) for h <= t <= reach * h.  The node count
    depends on s and reach alone, so a dilated grid gets the same count and
    the dilated nodes."""
    x_lo = math.log(_SOE_LOW_MASS) / s - math.log(reach * h) - 1.0
    span = math.log(_SOE_HIGH_EXP * reach) + 1.0 - math.log(_SOE_LOW_MASS) / s
    x = x_lo + _SOE_STEP * np.arange(math.ceil(span / _SOE_STEP) + 1)
    return np.exp(x), _SOE_STEP * np.exp(s * x) / math.gamma(s)


def _decay_factors(rate: np.ndarray, cells: int):
    """exp(-rate_j d) for d < cells (in whole rows) as exp(-rate_j B q) times
    exp(-rate_j r), d = B q + r: two short tables, not J * cells exponentials."""
    B = _DECAY_SPLIT
    return (np.exp(-rate[:, None] * (B * np.arange(-(-cells // B)))),
            np.exp(-rate[:, None] * np.arange(B)))


def _chunked(v: np.ndarray):
    """(first cell of v's hull, ``_exp_smooth``'s matrix per chunk of it)."""
    C, nz = _CHUNK, np.flatnonzero(v)
    K = -(-(nz[-1] + 1 - nz[0]) // C)
    data = np.zeros((K, 3 * C))   # each chunk between C zeros either side
    seg = v[nz[0] : nz[0] + K * C]
    data[:, C : 2 * C].flat[: seg.size] = seg
    shifted = np.lib.stride_tricks.sliding_window_view(data, C, axis=1)
    mats = np.concatenate((shifted[:, C : 2 * C] + shifted[:, C:0:-1], data[:, C : 2 * C, None],
                           data[:, 2 * C - 1 : C - 1 : -1, None]), axis=2)
    mats[:, 0, :C] = 0.0
    return nz[0], mats


def _exp_smooth(lo: int, mats: np.ndarray, decay: np.ndarray,
                out: np.ndarray, size: int) -> None:
    """E v(a) = sum over b != a of exp(-alpha_j |a - b|) v_b on v's first
    ``size`` cells, into out[:, :size] (which has room for C more), from
    v's ``_chunked`` form and decay[j, d] = exp(-alpha_j d).  Each chunk of
    C hull cells is one product of decay[:, :C] with the Toeplitz-plus-Hankel
    entries v[a - d] + v[a + d] (row d = 0 zeroed) and the chunk forwards
    and backwards, whose products are its edge moments.  Geometric carries
    bring in the other chunks; past the hull E v is its edge moment times
    exp(-alpha d).  No weight exceeds 1 and every term is kept."""
    C, J, K = _CHUNK, decay.shape[0], mats.shape[0]
    moments = decay[:, :C] @ mats
    # carries by a doubling scan: seen[0, k] is chunks 0..k from the cell
    # after chunk k, seen[1, k] chunks K-1-k.. from the cell before K-1-k
    seen = decay[:, 1] * np.stack((moments[:, :, C + 1], moments[::-1, :, C]))
    rho, s = decay[:, C], 1
    while s < K:
        seen[:, s:] += rho * seen[:, :-s]
        rho, s = rho * rho, 2 * s
    end = lo + K * C
    hull = out[:, lo:end].reshape(J, K, C)
    hull[...] = moments[:, :, :C].transpose(1, 0, 2)
    hull[:, 1:] += seen[0, :-1].T[:, :, None] * decay[:, None, :C]
    hull[:, :-1] += seen[1, -2::-1].T[:, :, None] * decay[:, None, C - 1 :: -1]
    out[:, :lo] = seen[1, -1, :, None] * decay[:, :lo][:, ::-1]
    out[:, end:size] = seen[0, -1, :, None] * decay[:, : max(size - end, 0)]


def _soe_tuple_sum(kernel: KenigSteinKernel, flat, h: float) -> np.ndarray:
    """sum over non-singular tuples of t^(gamma - m) prod_i f_i(b_i) at every
    cell of a 1-D grid, by the factorization exp(-u t) = prod_i
    exp(-u |x - y_i|): sum_j w_j (prod_i (f_i + E_j f_i) - prod_i f_i), on
    the window of the slots' hulls and one cell of zeros past each end.
    Beyond that end cell each E_j f_i decays as exp(-alpha_j d), so the sum
    is sum_j w_j P_j exp(-m alpha_j d), P_j the slot product at the cell."""
    m, G = kernel.m, flat[0].size
    u, w = _soe_nodes(m - kernel.gamma, h, m * G)
    hulls = np.array([np.flatnonzero(v)[[0, -1]] for v in flat])
    lo, hi = max(hulls[:, 0].min() - 1, 0), min(hulls[:, 1].max() + 2, G)
    window = [v[lo:hi] for v in flat]
    chunks = [_chunked(v) for v in window]
    total = np.zeros(G)
    edges = np.empty((2, u.size))
    # blocks of at least 64 nodes and about 2^15 (node, cell) values share
    # one workspace: new arrays per block cost page faults on freed pages
    step = max(64, (1 << 15) // (hi - lo))
    J = min(step, u.size)
    work = np.empty((3, J, hi - lo + _CHUNK))
    table = np.empty((J, -(-max(hi - lo, _CHUNK + 1) // _DECAY_SPLIT), _DECAY_SPLIT))
    for j0 in range(0, u.size, step):
        nodes = slice(j0, j0 + step)
        total[lo:hi] += _soe_block(window, chunks, u[nodes] * h, w[nodes],
                                   work, table, edges[:, nodes])
    # the far field at d = B q + r from both end cells, C nodes per product:
    # a longer inner dimension gives bits that depend on BLAS's thread count
    coarse, fine = _decay_factors(m * u * h, max(lo, G - hi) + 1)
    near = ((w * edges).T[:, :, None] * fine[:, None]).reshape(u.size, -1)
    far = sum(coarse[j : j + _CHUNK].T @ near[j : j + _CHUNK]
              for j in range(0, u.size, _CHUNK))
    far = far.reshape(-1, 2, _DECAY_SPLIT).transpose(1, 0, 2).reshape(2, -1)
    total[:lo], total[hi:] = far[0, lo:0:-1], far[1, 1 : G - hi + 1]
    return total


def _soe_block(window, chunks, alpha: np.ndarray, w: np.ndarray,
               work: np.ndarray, table: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """One block's share of the window's sum for the rates alpha_j = u_j h, in
    rows of ``work`` and ``table``; slot products at the end cells go to ``edges``."""
    J, W = alpha.size, window[0].size
    coarse, fine = _decay_factors(alpha, table.shape[1] * _DECAY_SPLIT)
    decay = np.multiply(coarse[:, :, None], fine[:, None], out=table[:J]).reshape(J, -1)
    full = work[:, :J]
    acc, e, tmp = full[:, :, :W]
    # acc is prod over the slots so far minus its all-singular term; each
    # slot extends it, acc (v + e) + diag e, without ever adding that term in
    _exp_smooth(*chunks[0], decay, full[0], W)
    diag = window[0]
    for v, chunked in zip(window[1:-1], chunks[1:-1]):
        _exp_smooth(*chunked, decay, full[1], W)
        acc *= np.add(v, e, out=tmp)
        acc += np.multiply(diag, e, out=tmp)
        diag = diag * v
    if len(window) == 1:
        edges[:] = acc[:, [0, -1]].T
        return w @ acc
    v = window[-1]
    _exp_smooth(*chunks[-1], decay, full[1], W)
    # the last slot's extension, applied after the sum over nodes
    np.multiply(acc, e, out=tmp)
    edges[:] = tmp[:, [0, -1]].T
    return v * (w @ acc) + w @ tmp + diag * (w @ e)


def _dense_tuple_sum(kernel: KenigSteinKernel, X, cells, flat, sup) -> np.ndarray:
    """The same sum at the points X by the dense (point x tuple) tensor of
    profile values, chunked over the points.  The profile is not finite at
    t = 0 (a cell center's singular tuple, or a point on an input center):
    those tuples are zeroed."""
    out = np.empty(X.shape[0])
    Y = [cells[idx] for idx in sup]
    V = [flat[i][sup[i]] for i in range(kernel.m)]
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
        W[~np.isfinite(W)] = 0.0
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
    sum-of-exponentials quadrature of its profile (J of 100 to 400 nodes)
    on the window of the slots' hulls: O(J S 64) per hull of S cells and
    O(J m W) over W window cells, with a closed-form far field outside.
    Off-grid points, 2-D grids and a profile other than the model's take
    the dense tensor, whose cost grows with the product of slot support
    sizes, so the multilinearity times dimension is capped at 4.  Tuples at
    t = 0 are dropped; only cell centers get the subdivision term.
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
        if (on_grid and kernel.n == 1
                and type(kernel).profile is KenigSteinKernel.profile):
            out = _soe_tuple_sum(kernel, flat, h)
        else:
            out = _dense_tuple_sum(kernel, X, cells, flat, sup)
        if on_grid:
            # one-shot subdivision correction at the cells where every
            # slot is nonzero; the product vanishes everywhere else
            prods = np.prod(flat, axis=0)
            if np.any(prods):
                out += _subdivision_profile_sum(kernel, h) * prods / 3.0 ** mn

    out *= h ** mn
    if on_grid:
        return g0.with_samples(out.reshape(g0.samples.shape))
    return out


# -- kernel condition checks ---------------------------------------------------


# the kernel checks draw x and every y_i uniformly from [-2, 2]^n
_SAMPLE_RADIUS = 2.0
# configurations kept: t above the first (size), every slot distance above
# the second (smoothness)
_SIZE_MIN_T = 1e-3
_SMOOTHNESS_MIN_T = 1e-2


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
                      seed: int = 0) -> float:
    """Max over random off-diagonal configurations of |K| * t^(mn - gamma)."""
    x, ys, t, _ = _sample_configurations(kernel, sample_count, seed, _SIZE_MIN_T)
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
                            *, seed: int = 0) -> float:
    """Max over samples of (sum of slot derivatives of order N >= 1,
    estimated by central differences) * t^(mn + N - gamma); the size
    constant is ``kernel_size_check``'s."""
    if order < 1:
        raise ValueError("smoothness order must be at least 1")
    x, ys, t, dmin = _sample_configurations(kernel, sample_count, seed,
                                            _SMOOTHNESS_MIN_T, per_slot=True)
    # the step must clear the nearest slot kink, not just the full diagonal:
    # with m >= 2 a slot can sit much closer to x than t/16
    deriv = _derivative_sum(kernel, x, ys, order, dmin / 16.0)
    power = _fast_power(t, kernel.m * kernel.n + order - kernel.gamma)
    return float(np.max(deriv * power))


# -- Taylor machinery ----------------------------------------------------------


def _taylor_polynomial(kernel: KenigSteinKernel, x: np.ndarray, ys: np.ndarray,
                       slot: int, center: np.ndarray, order: int) -> np.ndarray:
    """Degree-(order-1) Taylor polynomial of the kernel in one slot about
    center, at each row of (x, ys); its coefficients depend on x and the
    other slots, so they are finite differences taken per row."""
    base = ys.copy()
    base[:, slot, :] = center
    # step relative to the expansion slot's own distance from x, so the
    # stencil never reaches the kink at y_slot = x even when other slots
    # dominate the total distance
    step = np.linalg.norm(x - center, axis=-1) / 16.0
    dy = ys[:, slot, :] - center
    val = np.zeros(x.shape[0])
    for beta in multi_indices(kernel.n, order - 1):
        # the zeroth difference is the kernel itself, exactly: its one
        # stencil node has weight 1 and offset 0
        c = _difference(kernel, x, base, slot, beta, step) / step ** sum(beta)
        mono = np.ones(x.shape[0])
        fact = 1.0
        for axis, b in enumerate(beta):
            mono = mono * dy[:, axis] ** b
            fact *= math.factorial(b)
        val += c * mono / fact
    return val


# x and the other slots sit at infinity-norm distance 1.01 to 4 times
# side * sqrt(n) from the cube center, outside its star
_TAYLOR_SPAN = (1.01, 4.0)


def taylor_remainder_check(kernel: KenigSteinKernel, cube: Cube, slot: int, order: int, *,
                           n_samples: int = 200, seed: int = 0) -> tuple:
    """(remainder, kernel_term): the max over samples of |K - P| and of |K|,
    each times t^(mn + N - gamma) / side^N, where P is the order-N Taylor
    polynomial of K in ``slot`` about the cube center, that slot is drawn in
    the cube and x outside its star.  Near gamma = mn the remainder is mostly
    the cancellation K - P, so the kernel term is the scale of its rounding."""
    if cube.dim != kernel.n:
        raise ValueError("cube dimension does not match the kernel")
    if not 0 <= slot < kernel.m:
        raise ValueError("slot out of range")
    if order < 1:
        raise ValueError("order must be at least 1")
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
        if i == slot:
            ys[:, i, :] = c + side * rng.uniform(-0.5, 0.5, size=(n_samples, n))
        else:
            ys[:, i, :] = annulus(n_samples)
    t = np.linalg.norm(x[:, None, :] - ys, axis=-1).sum(axis=-1)
    k = kernel.evaluate(x, ys)
    rem = np.abs(k - _taylor_polynomial(kernel, x, ys, slot, c, order))
    power = _fast_power(t, m * n + order - kernel.gamma)
    return (float(np.max(rem * power / side ** order)),
            float(np.max(np.abs(k) * power / side ** order)))


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
