"""Variable exponents, Luxemburg norms, and the extrapolation exponent algebra.

An exponent function carries a pointwise evaluator together with recorded
essential bounds; all derived exponents propagate conservative bounds through
interval arithmetic.  The Luxemburg norm is the closed form
(h^n sum |f|^p)^(1/p) where the sampled exponent is one value p on the
support of f.  Otherwise it is Newton's method on the logarithm of the
modular as a function of log lambda, which is convex and decreasing; it
stops when the modular of f/lambda is within 1e-12 of 1, and each step
costs one exp per cell.

``derive_system`` builds the full family of exponents used to transfer a
weighted-norm inequality to variable-exponent targets: slot splits of the
fractional order, pointwise targets, normalized exponents and their duals,
and the auxiliary convex coefficients whose pointwise sum telescopes to 1.
Every identity is sampled and the residuals are returned as a certificate
rather than trusted.

The Rubio de Francia iteration is implemented truncated, with the geometric
tail quantified instead of appealing to the infinite series.  The property
check builds one maximal orbit h, Mh, ..., M^(depth+1) h and hands the
extrapolation chain A, the iterate, the tail and their norms in its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import Cube, GridFunction
from .maximal import hl_maximal
from .weights import Weight, WeightConstantReport, rh_constant, weight_cube_family

__all__ = [
    "ExponentFunction",
    "ExtrapolationExponentSystem",
    "LogHolderReport",
    "RubioReport",
    "modular",
    "luxemburg_norm",
    "log_holder_estimate",
    "derive_system",
    "target_exponent",
    "rubio_iterate",
    "rubio_properties_check",
    "maximal_opnorm_estimate",
    "dual_witness",
]


@dataclass(frozen=True)
class ExponentFunction:
    """Pointwise exponent with recorded essential bounds.

    ``fn`` maps an array of points of shape (..., dim) to exponent values of
    shape (...).  The recorded bounds are exact for the built-in kinds and
    conservative (outer) for derived combinations.
    """

    kind: str
    dim: int
    p_minus: float
    p_plus: float
    fn: Callable = field(repr=False)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not (0 < self.p_minus <= self.p_plus < math.inf):
            raise ValueError("need 0 < p_minus <= p_plus < inf")

    @classmethod
    def constant(cls, value: float, dim: int = 1) -> "ExponentFunction":
        value = float(value)
        return cls("constant", dim, value, value,
                   lambda x: np.full(np.shape(x)[:-1], value),
                   {"value": value})

    @classmethod
    def log_decay(cls, limit: float, amplitude: float, center=None,
                  dim: int = 1) -> "ExponentFunction":
        """limit + amplitude / log(e + |x - center|): tends to ``limit`` at
        infinity, equals limit + amplitude at the center."""
        limit, amplitude = float(limit), float(amplitude)
        c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

        def fn(x):
            d = np.linalg.norm(np.asarray(x, dtype=float) - c, axis=-1)
            return limit + amplitude / np.log(math.e + d)

        lo = min(limit, limit + amplitude)
        hi = max(limit, limit + amplitude)
        return cls("log-decay", dim, lo, hi, fn,
                   {"limit": limit, "amplitude": amplitude, "center": list(c)})

    def descriptor(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "params": dict(self.params)}

    def evaluate(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.dim:
            raise ValueError("points have the wrong dimension")
        return np.asarray(self.fn(points), dtype=float)

    def conjugate(self) -> "ExponentFunction":
        """Pointwise dual exponent p/(p-1); requires p_minus > 1."""
        if self.p_minus <= 1.0:
            raise ValueError("dual exponent needs p_minus > 1")
        base = self

        def fn(x):
            p = base.evaluate(x)
            return p / (p - 1.0)

        return ExponentFunction(
            "derived", self.dim,
            self.p_plus / (self.p_plus - 1.0), self.p_minus / (self.p_minus - 1.0),
            fn, {"label": "conjugate"})

    def scaled(self, c: float) -> "ExponentFunction":
        c = float(c)
        if c <= 0:
            raise ValueError("scale must be positive")
        base = self
        return ExponentFunction("derived", self.dim, c * self.p_minus,
                                c * self.p_plus, lambda x: c * base.evaluate(x),
                                {"label": "scaled"})


# -- modular and Luxemburg norm --------------------------------------------------


def modular(f: GridFunction, p: ExponentFunction) -> float:
    """Quadrature of |f(x)|^p(x) over the grid."""
    if f.dim != p.dim:
        raise ValueError("grid and exponent dimensions differ")
    pex = p.evaluate(f.coords())
    return float(np.sum(np.abs(f.samples) ** pex) * f.cell_volume)


_NEWTON_TOL = 2.0 ** -46      # |log modular| at which Newton stops
_NEWTON_MAX_ITER = 64


def luxemburg_norm(f: GridFunction, p: ExponentFunction) -> float:
    """inf over lam of modular(f/lam) <= 1.

    |f| is first scaled by 2^-e, with e the binary exponent of max|f|, and
    the result scaled back by 2^e; both scalings are exact, so subnormal and
    huge samples need no bracket.  Where the sampled exponent is one value p
    on the support, the norm is the closed form (h^n sum |f|^p)^(1/p).
    Otherwise Newton's method solves g(l) = log modular(f/e^l) = 0.  g is a
    log-sum-exp of affine functions of l, so it is convex and decreasing
    with slope between -p_+ and -p_-: every Newton step lands at or left of
    the root, and from there the steps climb to it monotonically.  It stops at
    |g| <= 2^-46, which puts modular(f/lam) within 1e-12 of 1.  ValueError if
    Newton has not stopped after 64 steps or the norm is not a positive
    finite float.
    """
    if f.dim != p.dim:
        raise ValueError("grid and exponent dimensions differ")
    absf = np.abs(f.samples)
    if not np.all(np.isfinite(absf)):
        raise ValueError("samples must be finite")
    support = absf > 0
    if not np.any(support):
        return 0.0
    _, e = np.frexp(np.max(absf))
    a = np.ldexp(absf[support], -e)
    pex = p.evaluate(f.coords())[support]
    try:
        if np.all(pex == pex[0]):
            p0 = float(pex[0])
            root = float(np.sum(a ** p0) * f.cell_volume) ** (1.0 / p0)
        else:
            root = math.exp(_newton_log_norm(np.log(a), pex,
                                             math.log(f.cell_volume)))
        lam = math.ldexp(root, int(e))
    except OverflowError:
        lam = math.inf
    if not 0.0 < lam < math.inf:
        raise ValueError(f"Luxemburg norm {lam} is not a positive finite float")
    return lam


def _newton_log_norm(log_a, pex, log_vol: float) -> float:
    """The root l of log(vol * sum exp(p * (log_a - l))) by Newton from 0,
    each step one exp per cell, shifted by the largest exponent."""
    ell = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        s = pex * (log_a - ell)
        top = float(np.max(s))
        w = np.exp(s - top)
        total = float(np.sum(w))
        g = log_vol + top + math.log(total)
        if abs(g) <= _NEWTON_TOL:
            return ell
        ell += g * total / float(np.sum(pex * w))
    raise ValueError(
        f"Luxemburg norm: Newton did not converge in {_NEWTON_MAX_ITER} steps")


# -- log-Hoelder diagnostics ------------------------------------------------------


@dataclass(frozen=True)
class LogHolderReport:
    c0: float
    c_inf: float
    p_inf: float
    stable: bool

    def to_json_dict(self) -> dict:
        return {"C0": self.c0, "C_inf": self.c_inf, "p_inf": self.p_inf,
                "stable": self.stable}


def log_holder_estimate(p: ExponentFunction, pairs=None, *, window=None,
                        count: int = 2000, seed: int = 0) -> LogHolderReport:
    """Empirical moduli of the two continuity conditions.

    c0 is the sup of |p(x)-p(y)| * (-log|x-y|) over pairs at separations down
    to 1e-6; the report is flagged unstable when the closest decades push the
    sup more than 25% above the moderate-separation value, which is what a
    jump discontinuity does.  c_inf is the sup of |p(x)-p_inf| * log(e+|x|)
    with p_inf read off far samples.
    """
    rng = np.random.default_rng(seed)
    if window is None:
        window = tuple((-8.0, 8.0) for _ in range(p.dim))
    lo = np.array([w[0] for w in window])
    hi = np.array([w[1] for w in window])
    if pairs is None:
        x = rng.uniform(lo, hi, size=(count, p.dim))
        u = rng.normal(size=(count, p.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = np.exp(rng.uniform(np.log(1e-6), np.log(0.499), size=count))
        pairs = np.stack([x, x + r[:, None] * u], axis=1)
    pairs = np.asarray(pairs, dtype=float)
    sep = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=-1)
    good = (sep > 0) & (sep < 0.5)
    diff = np.abs(p.evaluate(pairs[:, 0]) - p.evaluate(pairs[:, 1]))[good]
    weight = -np.log(sep[good])
    prods = diff * weight
    c0 = float(np.max(prods, initial=0.0))
    near = sep[good] < 1e-4
    c0_near = float(np.max(prods[near], initial=0.0))
    c0_far = float(np.max(prods[~near], initial=0.0))
    stable = c0_near <= 1.25 * c0_far + 1e-12

    # decay at infinity, probed on a logarithmic radius ladder
    rr = np.exp(rng.uniform(np.log(1.0), np.log(1e8), size=count))
    uu = rng.normal(size=(count, p.dim))
    uu /= np.linalg.norm(uu, axis=1, keepdims=True)
    far = rr[:, None] * uu
    vals = p.evaluate(far)
    p_inf = float(np.mean(vals[rr > 1e7]))
    c_inf = float(np.max(np.abs(vals - p_inf) * np.log(math.e + rr)))
    return LogHolderReport(c0=c0, c_inf=c_inf, p_inf=p_inf, stable=stable)


# -- the extrapolation exponent system --------------------------------------------


@dataclass(frozen=True)
class ExtrapolationExponentSystem:
    """All exponents derived from (p_i(.), p_i, gamma), with a sampled
    certificate of the pointwise identities they must satisfy."""

    inputs: tuple
    hardy_exponents: tuple
    gamma: float
    dim: int
    gammas: tuple
    slot_scalars: tuple           # q_i
    target_scalar: float          # q
    slot_targets: tuple           # q_i(.)
    target: "ExponentFunction"    # q(.)
    target_bar: "ExponentFunction"
    p_bars: tuple
    sigmas: tuple
    thetas: tuple
    certificate: dict

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "dim": self.dim,
            "hardy_exponents": list(self.hardy_exponents),
            "inputs": [p.descriptor() for p in self.inputs],
            "gammas": list(self.gammas),
            "slot_scalars": list(self.slot_scalars),
            "target_scalar": self.target_scalar,
            "certificate": self.certificate,
        }


def _reciprocal_target(exponents, gamma_over_n, lo, hi, label):
    def fn(x):
        acc = np.zeros(np.shape(x)[:-1])
        for p in exponents:
            acc = acc + 1.0 / p.evaluate(x)
        return 1.0 / (acc - gamma_over_n)

    return ExponentFunction("derived", exponents[0].dim, lo, hi, fn,
                            {"label": label})


def target_exponent(exponents, gamma: float) -> ExponentFunction:
    """The target q(.) = 1 / (sum 1/p_i(.) - gamma/n), with its bounds;
    refused unless sum 1/[p_i(.)]_+ exceeds gamma/n."""
    dim = exponents[0].dim
    room = sum(1.0 / p.p_plus for p in exponents) - gamma / dim
    if room <= 0:
        raise ValueError("sum of 1/[p_i(.)]_+ must exceed gamma/n")
    return _reciprocal_target(
        exponents, gamma / dim,
        1.0 / (sum(1.0 / p.p_minus for p in exponents) - gamma / dim),
        1.0 / room, "q")


def derive_system(exponents, scalars, gamma: float, *, window=None,
                  samples: int = 1000, seed: int = 0) -> ExtrapolationExponentSystem:
    """Split gamma across slots, build every derived exponent, and certify
    the pointwise identities on a random sample.

    The split is gamma_i = gamma * s_i / sum(s_j) with s_i = n / [p_i(.)]_+,
    which leaves every slot the same relative room under its cap n/gamma_i;
    admissibility is re-checked rather than assumed.
    """
    exponents = tuple(exponents)
    scalars = tuple(float(s) for s in scalars)
    if not exponents or len(exponents) != len(scalars):
        raise ValueError("need one scalar exponent per exponent function")
    dim = exponents[0].dim
    if any(p.dim != dim for p in exponents):
        raise ValueError("mixed exponent dimensions")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    for p, s in zip(exponents, scalars):
        if not 0 < s < p.p_minus:
            raise ValueError("each scalar must sit strictly below [p_i(.)]_-")
    target = target_exponent(exponents, gamma)

    shares = [dim / p.p_plus for p in exponents]
    total = sum(shares)
    gammas = tuple(gamma * s / total for s in shares)
    for p, g in zip(exponents, gammas):
        if not p.p_plus < dim / g:
            raise ValueError("no admissible gamma split: slot cap violated")

    slot_scalars = tuple(1.0 / (1.0 / s - g / dim)
                         for s, g in zip(scalars, gammas))
    inv_q = sum(1.0 / s for s in scalars) - gamma / dim
    if inv_q <= 0:
        raise ValueError("scalar target exponent is not positive")
    target_scalar = 1.0 / inv_q

    slot_targets = tuple(
        _reciprocal_target([p], g / dim,
                           1.0 / (1.0 / p.p_minus - g / dim),
                           1.0 / (1.0 / p.p_plus - g / dim), f"q_{i}")
        for i, (p, g) in enumerate(zip(exponents, gammas))
    )
    target_bar = target.scaled(1.0 / target_scalar)

    p_bars = tuple(p.scaled(1.0 / s) for p, s in zip(exponents, scalars))
    sigmas = tuple(
        pb.conjugate().scaled(s / qi)
        for pb, s, qi in zip(p_bars, scalars, slot_scalars)
    )

    tbar_conj = target_bar.conjugate()
    thetas = []
    for pb, s in zip(p_bars, scalars):
        pbc = pb.conjugate()

        def fn(x, _pbc=pbc, _s=s):
            return target_scalar * tbar_conj.evaluate(x) / (_s * _pbc.evaluate(x))

        lo = target_scalar * tbar_conj.p_minus / (s * pbc.p_plus)
        hi = target_scalar * tbar_conj.p_plus / (s * pbc.p_minus)
        thetas.append(ExponentFunction("derived", dim, lo, hi, fn,
                                       {"label": "theta"}))
    thetas = tuple(thetas)

    # sampled certificate of the pointwise identities
    rng = np.random.default_rng(seed)
    if window is None:
        window = tuple((-8.0, 8.0) for _ in range(dim))
    pts = rng.uniform([w[0] for w in window], [w[1] for w in window],
                      size=(samples, dim))
    theta_sum = sum(t.evaluate(pts) for t in thetas)
    inv_target = 1.0 / target.evaluate(pts)
    inv_direct = sum(1.0 / p.evaluate(pts) for p in exponents) - gamma / dim
    dual_resid = 0.0
    for pb in p_bars:
        pbc = pb.conjugate()
        dual_resid = max(dual_resid, float(np.max(np.abs(
            1.0 / pb.evaluate(pts) + 1.0 / pbc.evaluate(pts) - 1.0))))
    sigma_minima = [float(np.min(s.evaluate(pts))) for s in sigmas]

    def rng_pair(e):
        v = e.evaluate(pts)
        return [float(np.min(v)), float(np.max(v))]

    certificate = {
        "samples": samples,
        "window": [list(w) for w in window],
        "gammas": list(gammas),
        "gamma_total_residual": abs(sum(gammas) - gamma),
        "max_theta_residual": float(np.max(np.abs(theta_sum - 1.0))),
        "max_target_identity_residual": float(np.max(np.abs(inv_target - inv_direct))),
        "max_dual_residual": dual_resid,
        "sigma_sampled_min": sigma_minima,
        "sigma_bound_min": [s.p_minus for s in sigmas],
        "slots": [
            {"p_plus": p.p_plus, "cap": dim / g, "admissible": p.p_plus < dim / g}
            for p, g in zip(exponents, gammas)
        ],
        "sampled_ranges": {
            "target": rng_pair(target),
            "target_bar": rng_pair(target_bar),
            "slot_targets": [rng_pair(e) for e in slot_targets],
            "p_bars": [rng_pair(e) for e in p_bars],
            "sigmas": [rng_pair(e) for e in sigmas],
            "thetas": [rng_pair(e) for e in thetas],
        },
    }
    return ExtrapolationExponentSystem(
        inputs=exponents, hardy_exponents=scalars, gamma=float(gamma), dim=dim,
        gammas=gammas, slot_scalars=slot_scalars, target_scalar=target_scalar,
        slot_targets=slot_targets, target=target, target_bar=target_bar,
        p_bars=p_bars, sigmas=sigmas, thetas=thetas, certificate=certificate)


# -- Rubio de Francia iteration ---------------------------------------------------


def _maximal_orbit(h: GridFunction, sigma: ExponentFunction, depth: int) -> list:
    """h, Mh, ..., M^depth h: depth ladder calls."""
    if np.any(h.samples < 0):
        raise ValueError("input must be nonnegative")
    if sigma.p_minus <= 1.0:
        raise ValueError("the iteration exponent needs [sigma]_- > 1")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    orbit = [h]
    for _ in range(depth):
        orbit.append(hl_maximal(orbit[-1]))
    return orbit


def _series(orbit, opnorm: float) -> GridFunction:
    """sum_j orbit[j] / (2 * opnorm)^j, summed in orbit order."""
    acc, scale = orbit[0].samples.copy(), 1.0
    for g in orbit[1:]:
        scale /= 2.0 * opnorm
        acc = acc + scale * g.samples
    return orbit[0].with_samples(acc)


def rubio_iterate(h: GridFunction, sigma: ExponentFunction, opnorm: float,
                  depth: int) -> GridFunction:
    """Truncated series sum_{j<=depth} M^j h / (2 * opnorm)^j; depth 0 is h."""
    if opnorm <= 0:
        raise ValueError("operator norm estimate must be positive")
    return _series(_maximal_orbit(h, sigma, depth), opnorm)


def _interior_family(g: GridFunction):
    # central half of the box; the clipped boundary windows of the discrete
    # maximal operator would bias an A1 quotient measured near the edge
    window = tuple((lo + (hi - lo) / 4.0, hi - (hi - lo) / 4.0) for lo, hi in g.box)
    length = min(hi - lo for lo, hi in window)
    j_min = math.ceil(math.log2(8.0 * g.h))
    j_max = math.floor(math.log2(length / 2.0))
    if j_max < j_min:
        raise ValueError("grid too coarse for an interior cube family")
    return weight_cube_family(window, j_min, j_max)


@dataclass(frozen=True)
class RubioReport:
    domination_margin: float
    domination_ok: bool
    norm_ratio: float
    a1_estimate: float
    a1_bound: float
    a1_ok: bool
    rh_report: WeightConstantReport
    metadata: dict
    opnorm: float                 # A, from the orbit's first links
    input_norm: float             # ||h||_sigma
    iterate_norm: float           # ||R h||_sigma
    next_power_norm: float        # ||M^(depth+1) h||_sigma
    iterate: GridFunction = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "domination_margin": self.domination_margin,
            "domination_ok": self.domination_ok,
            "norm_ratio": self.norm_ratio,
            "a1_estimate": self.a1_estimate,
            "a1_bound": self.a1_bound,
            "a1_ok": self.a1_ok,
            "rh": self.rh_report.to_json_dict(),
            "metadata": self.metadata,
        }


def rubio_properties_check(h: GridFunction, sigma: ExponentFunction, depth: int = 8,
                           *, power: float = 0.5, rh_order: float = 2.0) -> RubioReport:
    """Measure the four advertised properties of the truncated iteration on
    the orbit h, Mh, ..., M^(depth+1) h: A from its first links, the iterate
    from its first depth + 1 powers, the tail from the last.

    (1) pointwise domination of h; (2) Luxemburg norm inflation, at most 2
    when A really dominates the maximal operator; (3) an A1 quotient over
    interior cubes against 2A plus the quantified truncation tail; (4)
    reverse-Hoelder behaviour of the ``power`` of the output.
    """
    orbit = _maximal_orbit(h, sigma, depth)
    orbit.append(hl_maximal(orbit[-1]))
    opnorm, (nf, *_) = maximal_opnorm_estimate(sigma, orbit[:3])
    rk = _series(orbit[:-1], opnorm)
    margin = float(np.min(rk.samples - h.samples))
    rk_norm = luxemburg_norm(rk, sigma)
    tail = orbit[-1].samples / (2.0 * opnorm) ** (depth + 1)

    family = _interior_family(h)
    tiling, translates = [], []
    for i, (c, t) in enumerate(zip(family.centres, family.tiles)):
        side = 2.0 ** (family.j_min + i)
        first, last = rk.cell_ranges(c - side / 2, c + side / 2)
        level = [(side, *row) for row in zip(c.tolist(), first.tolist(), last.tolist())]
        tiling += level[:t]
        translates += level[t:]
    est = 0.0
    bound = math.inf
    worst = None
    all_ok = True
    # the tiling cubes of every level, then the translates: of several
    # equally worst cubes, the first is the one reported
    for side, centre, a, b in tiling + translates:
        # reduce contiguous copies: a strided view sums in another order
        cells = tuple(map(slice, a, b))
        block = rk.samples[cells].copy()
        if block.size == 0:
            continue
        tb = tail[cells]
        quot = float(block.mean() / block.min())
        # avg over the cube is realized by a ladder window, and the maximal
        # function of the truncated series obeys the pointwise recursion
        # M(R_K h) <= 2A (R_K h + tail), so every cube must satisfy this cap
        cap = 2.0 * opnorm + float(tb.max()) * 2.0 * opnorm / float(block.min())
        if quot > cap * (1.0 + 1e-9):
            all_ok = False
        if quot > est:
            est, bound, worst = quot, cap, Cube(tuple(centre), side).descriptor()
    rh = rh_constant(Weight.sampled(rk.power(power)), rh_order, family)
    return RubioReport(
        domination_margin=margin,
        domination_ok=margin >= 0.0,
        norm_ratio=rk_norm / nf,
        a1_estimate=est,
        a1_bound=bound,
        a1_ok=all_ok,
        rh_report=rh,
        metadata={"opnorm": opnorm, "depth": depth, "power": power,
                  "rh_order": rh_order, "worst_cube": worst,
                  "tail_sup": float(np.max(tail))},
        opnorm=opnorm,
        input_norm=nf,
        iterate_norm=rk_norm,
        next_power_norm=luxemburg_norm(orbit[-1], sigma),
        iterate=rk,
    )


def maximal_opnorm_estimate(sigma: ExponentFunction, orbit) -> tuple[float, list]:
    """Empirical bound for the maximal operator on L^sigma: the worst quotient
    ||Mg|| / ||g|| of Luxemburg norms over the links of a maximal orbit f, Mf,
    M^2 f, ..., inflated by a safety factor of 1.5; and the orbit's norms."""
    if sigma.p_minus <= 1.0:
        raise ValueError("need [sigma]_- > 1")
    if len(orbit) < 2:
        raise ValueError("need a probe function and its maximal function")
    norms = [luxemburg_norm(g, sigma) for g in orbit]
    worst = max((b / a for a, b in zip(norms, norms[1:]) if a), default=0.0)
    if worst == 0.0:
        raise ValueError("all probes were identically zero")
    return 1.5 * worst, norms


def dual_witness(f: GridFunction, qbar: ExponentFunction) -> tuple[GridFunction, float]:
    """Unit-norm function in the dual Luxemburg space that nearly norms f.

    Returns h = c * (f/|f|_qbar)^(qbar(x)-1), with c fixed by the dual
    Luxemburg norm itself (its Newton solve is the normalizing search), and
    |f|_qbar; the pairing with f recovers at least half the norm of f.
    """
    if np.any(f.samples < 0):
        raise ValueError("witness construction expects a nonnegative input")
    if not np.any(f.samples):
        raise ValueError("witness construction needs a nonzero input")
    if qbar.p_minus <= 1.0:
        raise ValueError("dual witness needs [qbar]_- > 1")
    norm = luxemburg_norm(f, qbar)
    scaled = f * (1.0 / norm)
    pex = qbar.evaluate(f.coords())
    raw = scaled.with_samples(scaled.samples ** (pex - 1.0))
    c = luxemburg_norm(raw, qbar.conjugate())
    return raw * (1.0 / c), norm
