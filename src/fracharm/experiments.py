"""Experiment registry: measure both sides of each bound over deterministic corpora.

Every run draws its random data once at base scale and then dilates grid,
cubes, data and power-weight centres jointly by 2**k across the sweep.
Joint dilation keeps the cell count fixed (cost linear in sweep length) and
makes the ratio of any homogeneous bound exactly scale-covariant, so a
nonzero log-log trend slope signals a mismatched exponent relation rather
than a resolution artifact.
No run gates resolution: only the unit tests
``tests/test_experiments.py::TestStarSum::test_halving_h_stable`` and
``::TestTailSum::test_halving_h_stable`` halve h and compare max ratios
(ROADMAP item 3(c) plans a run-time gate).

Hypothesis checks (exponent relations, weight-constant stability, decay
thresholds) always run before any heavy computation and raise a
HypothesisError; a config that violates them never produces a report.

Weights are dilated and sampled once per sweep scale, before the trials
(``_weight_grids``), and every trial at that scale reads the same grid.

Every ratio run hands ``_ratio_report``, the one loop over trials and sweep
scales, a ``draw(t)`` that builds trial t's data once at base scale and a
``measure`` that returns its rows at one sweep scale.  Trials run in trial
order, each through the sweep in order, in one thread, so reports and CSV
files are byte-deterministic for a given config and seed.  A trial whose
side overflows to inf or nan is refused with a HypothesisError naming the
trial and scale, never scored.
"""

from __future__ import annotations

import math

import numpy as np

from .atoms import (
    corpus_margin,
    hardy_quasinorm,
    random_atomic_family,
    random_coefficient,
    random_cube,
)
from .config import ExperimentConfig
from .grid import Cube, GridFunction, integrate, weighted_lp_quasinorm
from .kernels import KenigSteinKernel, apply_frac_operator
from .maximal import Mollifier, frac_maximal, grand_maximal, hl_maximal
from .reports import AnnuliReport, ChainReport, ChainStep, Gate, RatioReport, TrialRow
from .varexp import (
    derive_system,
    dual_witness,
    log_holder_estimate,
    luxemburg_norm,
    maximal_opnorm_estimate,
    modular,
    rubio_properties_check,
    target_exponent,
)
from .weights import (
    Weight,
    ap_constant,
    apq_constant,
    rh_constant,
    rw_estimate,
    weight_cube_family,
)

__all__ = [
    "HypothesisError",
    "run_star_sum",
    "run_tail_sum",
    "run_annuli",
    "run_fefferman_stein",
    "run_frac_hardy",
    "run_bounded_slots",
    "run_var_frac_hardy",
    "run_extrapolation",
    "run_experiment",
    "EXPERIMENTS",
    "EXPERIMENT_SUMMARIES",
]


class HypothesisError(RuntimeError):
    """A run's stated hypotheses fail, or a measured side is not finite; no
    report is produced."""


# -- shared machinery ------------------------------------------------------------


def _dilated(obj, k: int):
    """A box, cube, grid function or weight dilated by 2**k about the origin.

    A power weight's centre moves with the grid, so |x - c|^b stays
    homogeneous under the sweep; constant and sampled weights are kept."""
    if k == 0:
        return obj
    s = 2.0 ** k
    if isinstance(obj, Cube):
        return obj.scaled(s)
    if isinstance(obj, GridFunction):
        return GridFunction(_dilated(obj.box, k), obj.h * s, obj.samples)
    if isinstance(obj, Weight):
        if obj.kind != "power":
            return obj
        return Weight.power(obj.exponent, tuple(c * s for c in obj.center),
                            obj.multiplier)
    return tuple((lo * s, hi * s) for lo, hi in obj)


def _sweep(cfg: ExperimentConfig):
    """(k, box_k, h_k) for each dilation exponent of the configured sweep."""
    for k in cfg.sweep:
        yield k, _dilated(cfg.box, k), cfg.h * 2.0 ** k


def _mollifier_for(box, h: float) -> Mollifier:
    """Dyadic bump ladder from two cells up to the corpus margin, derived
    from the grid so the ladder shifts exactly under joint dilation."""
    j_hi = int(math.floor(math.log2(corpus_margin(box)) + 1e-9))
    j_lo = int(math.ceil(math.log2(2.0 * h) - 1e-9))
    if j_lo > j_hi:
        raise HypothesisError("grid too coarse for the smooth maximal ladder")
    return Mollifier.dyadic(j_lo, j_hi)


def _weight_family(box, h: float):
    """Dyadic-plus-shifts cube family spanning ~6 levels of the box."""
    length = min(hi - lo for lo, hi in box)
    j_max = int(math.floor(math.log2(length) + 1e-9)) - 1
    j_min = max(int(math.ceil(math.log2(8.0 * h) - 1e-9)), j_max - 5)
    j_min = min(j_min, j_max)
    return weight_cube_family(box, j_min, j_max, h)


def _subseed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _atom_count(cfg: ExperimentConfig, rng) -> int:
    return int(rng.integers(cfg.corpus.atoms_per_trial[0],
                            cfg.corpus.atoms_per_trial[1] + 1))


def _indicator_corpus(cfg: ExperimentConfig, rng, count: int | None = None):
    """Cubes and coefficients under the atomic placement law; the count is
    drawn from atoms_per_trial unless given.  Refused before any draw when
    the smallest side owns no grid cell."""
    _require(round(2.0 ** cfg.corpus.side_exponents[0] / cfg.h) >= 1,
             "the smallest cube side owns no grid cell")
    if count is None:
        count = _atom_count(cfg, rng)
    cubes, lambdas = [], []
    for _ in range(count):
        cubes.append(random_cube(rng, cfg.box, cfg.h, cfg.corpus.side_exponents))
        lambdas.append(random_coefficient(rng, cfg.corpus.lambda_range))
    return cubes, lambdas


def _indicator_sum(cubes, lambdas, box, h: float, *, star: bool = False,
                   side_power: float = 0.0) -> GridFunction:
    zero = GridFunction.zeros(box, h)
    acc = np.zeros_like(zero.samples)
    for q, lam in zip(cubes, lambdas):
        acc[zero.cells(q.star() if star else q)] += lam * q.side ** side_power
    return zero.with_samples(acc)


def _require(cond: bool, message: str):
    if not cond:
        raise HypothesisError(message)


def _single_weight(cfg: ExperimentConfig) -> Weight:
    if not cfg.weights:
        return Weight.constant(1.0, dim=cfg.n)
    _require(len(cfg.weights) == 1, "this run takes a single weight")
    return cfg.weights[0]


def _weight_grids(cfg: ExperimentConfig, *factors) -> dict:
    """For each sweep scale k, the sampled product over ``factors`` (w, e)
    of the dilated weight to the power e, multiplied in factor order from
    1.0; None at every k when every w is the unit constant.  Runs once,
    before the trials, which all read the same grids."""
    if all(w.kind == "constant" and w.value == 1.0 for w, _ in factors):
        return dict.fromkeys(cfg.sweep)
    grids = {}
    for k, box_k, h_k in _sweep(cfg):
        acc = 1.0
        for w, e in factors:
            g = _dilated(w, k).pow(e).sample(box_k, h_k)
            acc = acc * g.samples
        grids[k] = g.with_samples(acc)
    return grids


def _lebesgue_pair(cfg: ExperimentConfig):
    """Resolve (p, q) with 1/q = 1/p - gamma/n, checking any explicit q."""
    _require(cfg.gamma is not None and cfg.gamma > 0, "gamma must be positive")
    _require(cfg.p is not None, "this run needs the scalar exponent p")
    q = 1.0 / _inv_target(cfg, (cfg.p,), cfg.gamma, cfg.n)
    return cfg.p, q if cfg.q is None else cfg.q


def _dilation_drift(rows) -> float:
    """Max over trials of the relative spread of the ratio across the sweep,
    against each trial's ratio at k = 0, which every sweep contains."""
    base = {r.trial: r.ratio for r in rows if r.scale_k == 0}
    worst = 0.0
    for r in rows:
        b = base[r.trial]
        if 0 < b < math.inf and math.isfinite(r.ratio):
            worst = max(worst, abs(r.ratio / b - 1.0))
    return worst


def _ratio_report(name: str, cfg: ExperimentConfig, draw, measure,
                  metadata) -> RatioReport:
    """The one loop over trials and sweep scales of every ratio run.  For
    each trial t in order, ``draw(t)`` builds the trial's data at base scale
    once, and ``measure(t, data, k, box_k, h_k)`` returns the rows of scale
    k as (trial, lhs, rhs) triples, for each k in sweep order.  Once a trial
    is measured, its first row with a non-finite side refuses the run;
    otherwise the rows are scored.  ``metadata()`` runs once every trial is
    done, so it can read the side-records that ``measure`` fills in."""
    rows = []
    for t in range(cfg.corpus.count):
        data = draw(t)
        trial = [TrialRow.make(i, k, lhs, rhs)
                 for k, box_k, h_k in _sweep(cfg)
                 for i, lhs, rhs in measure(t, data, k, box_k, h_k)]
        for r in trial:
            if not (math.isfinite(r.lhs) and math.isfinite(r.rhs)):
                raise HypothesisError(
                    f"overflow: a side is not finite at trial {r.trial}, "
                    f"scale k={r.scale_k} (lhs={r.lhs!r}, rhs={r.rhs!r})")
        rows += trial
    meta = dict(metadata(), dilation_drift=_dilation_drift(rows))
    return RatioReport.from_rows(name, rows, cfg.slope_tol, meta)


def _slots(cfg: ExperimentConfig, *, bounded: int | None = None,
           constant: bool = True):
    """Check the slot structure the operator runs share: m, the m*n cost cap,
    0 < gamma < (m - l) * n over the l = ``bounded`` sup-norm slots, one
    exponent per atomic slot, and constant exponents when asked.  Returns
    (m, n, gamma)."""
    _require(cfg.m is not None and cfg.m >= 1, "this run needs m")
    m, n = cfg.m, cfg.n
    _require(m * n <= 4, "m*n above 4 is outside the desk-scale cost cap")
    l = 0
    if bounded is not None:
        l = bounded
        _require(1 <= l < m, "need 1 <= bounded_slots < m")
    cap = (m - l) * n
    _require(cfg.gamma is not None and 0 < cfg.gamma < cap,
             "need 0 < gamma < (m - l) * n, l the number of bounded slots")
    _require(len(cfg.exponents) == m - l, "need one exponent per atomic slot")
    if constant:
        _require(all(e.kind == "constant" for e in cfg.exponents),
                 "this run needs constant exponents")
    return m, n, cfg.gamma


def _inv_target(cfg: ExperimentConfig, ps, gamma: float, n: int) -> float:
    """1/q = sum(1/p_i) - gamma/n, checked positive and against any given q."""
    inv_q = sum(1.0 / v for v in ps) - gamma / n
    _require(inv_q > 0, "gamma must stay below n * sum(1/p_i)")
    if cfg.q is not None:
        _require(abs(1.0 / cfg.q - inv_q) <= 1e-12,
                 "q must satisfy 1/q = sum(1/p_i) - gamma/n")
    return inv_q


# -- cube-sum bound: dilated indicators with a side-power gain ---------------------


def run_star_sum(cfg: ExperimentConfig) -> RatioReport:
    """|| sum lam_j side_j^gamma chi_{Q_j*} ||_{L^q(w^{q/p})}
    against || sum lam_j chi_{Q_j} ||_{L^p(w)}."""
    p, q = _lebesgue_pair(cfg)
    n, gamma = cfg.n, cfg.gamma
    w = _single_weight(cfg)
    family = _weight_family(cfg.box, cfg.h)
    rh = rh_constant(w, q / p, family)
    _require(rh.stable, "weight fails reverse-Hoelder stability at order q/p")

    side_max = 2.0 ** cfg.corpus.side_exponents[1]
    tau = 2.0 * math.sqrt(n)
    _require(side_max * (tau - 1.0) / 2.0 <= corpus_margin(cfg.box),
             "largest cube star escapes the box margin")

    w_qp = _weight_grids(cfg, (w, q / p))
    w_p = _weight_grids(cfg, (w, 1.0))

    def draw(t: int):
        return _indicator_corpus(cfg, np.random.default_rng([cfg.corpus.seed, 1, t]))

    def measure(t: int, corpus, k: int, box_k, h_k: float):
        cubes, lambdas = corpus
        cubes_k = [_dilated(c, k) for c in cubes]
        f_lhs = _indicator_sum(cubes_k, lambdas, box_k, h_k,
                               star=True, side_power=gamma)
        f_rhs = _indicator_sum(cubes_k, lambdas, box_k, h_k)
        return [(t, weighted_lp_quasinorm(f_lhs, q, w_qp[k]),
                 weighted_lp_quasinorm(f_rhs, p, w_p[k]))]

    return _ratio_report("star-sum", cfg, draw, measure, lambda: {
        "p": p, "q": q, "gamma": gamma, "n": n,
        "weight": w.descriptor(),
        "rh": rh.to_json_dict(),
    })


# -- tail-sum bound: off-star power tails with an analytic remainder ---------------


def _power_tail_integral(dist: float, a: float) -> float:
    """Integral of u^(-a) over u > dist, for a > 1."""
    return dist ** (1.0 - a) / (a - 1.0)


def run_tail_sum(cfg: ExperimentConfig) -> RatioReport:
    """|| sum lam_j side_j^eps |x-c_j|^(gamma-eps) chi_{(Q_j*)^c} ||_{L^q(w^{q/p})}
    against the plain indicator sum in L^p(w); the part of the left integral
    beyond the box is added as a closed-form power-tail bound."""
    p, q = _lebesgue_pair(cfg)
    n, gamma = cfg.n, cfg.gamma
    _require(n == 1, "the analytic tail bound is implemented in dimension one")
    _require(cfg.epsilon is not None, "this run needs the tail exponent epsilon")
    _require(cfg.r_order is not None, "this run needs the Muckenhoupt order r")
    eps, r = cfg.epsilon, cfg.r_order
    _require(r >= 1.0, "the Muckenhoupt order must be at least 1")
    threshold = max(n * r / p, float(n))
    _require(eps > threshold + 1e-12,
             "epsilon must exceed max(n*r/p, n)")

    w = _single_weight(cfg)
    family = _weight_family(cfg.box, cfg.h)
    ap = ap_constant(w, max(r, 1.0 + 1e-6), family)
    _require(ap.stable, "weight fails Muckenhoupt stability at order r")

    desc = w.descriptor()
    _require(desc["kind"] in ("constant", "power"),
             "the tail bound needs a constant or power weight")
    b_eff = 0.0
    if desc["kind"] == "power":
        _require(desc["exponent"] >= 0.0,
                 "the tail bound needs a nonnegative power exponent")
        _require(tuple(desc["center"]) == (0.0,),
                 "the tail bound assumes the weight is centered at the origin")
        b_eff = desc["exponent"] * q / p
    a = (eps - gamma) * q
    _require(a - b_eff > n, "the weighted tail integral must converge")
    lo_box, hi_box = cfg.box[0]
    if b_eff > 0.0:
        _require(lo_box < 0.0 < hi_box,
                 "the weighted tail bound assumes the origin is inside the box")
    mult = desc["value"] if desc["kind"] == "constant" else desc["multiplier"]
    w_gain = mult ** (q / p)

    w_qp = _weight_grids(cfg, (w, q / p))
    w_p = _weight_grids(cfg, (w, 1.0))
    tail_shares = [0.0] * cfg.corpus.count

    def draw(t: int):
        return _indicator_corpus(cfg, np.random.default_rng([cfg.corpus.seed, 2, t]))

    def measure(t: int, corpus, k: int, box_k, h_k: float):
        cubes, lambdas = corpus
        cubes_k = [_dilated(c, k) for c in cubes]
        zero = GridFunction.zeros(box_k, h_k)
        x = zero.coords()[..., 0]
        acc = np.zeros_like(x)
        for cube, lam in zip(cubes_k, lambdas):
            outside = ~cube.star().contains(zero.coords())
            d = np.where(outside, np.abs(x - cube.center[0]), 1.0)
            acc = acc + (lam * cube.side ** eps) * outside * d ** (gamma - eps)
        lhs_win = weighted_lp_quasinorm(zero.with_samples(acc), q, w_qp[k])

        # beyond the box: per-cube closed-form bound, using
        # |x|^b <= theta^b * |x - c|^b on each side of the box
        lo_k, hi_k = box_k[0]
        tail_terms = []
        for cube, lam in zip(cubes_k, lambdas):
            c = cube.center[0]
            amp = lam * cube.side ** eps
            for dist, edge in ((hi_k - c, abs(hi_k)), (c - lo_k, abs(lo_k))):
                theta = max(1.0, edge / dist)
                integral = (w_gain * theta ** b_eff
                            * _power_tail_integral(dist, a - b_eff))
                tail_terms.append(amp ** q * integral)
        # the tails live beyond the box, disjoint from the window part,
        # so the q-th-power modulars add exactly for every q > 0
        total = (lhs_win ** q + sum(tail_terms)) ** (1.0 / q)
        if k == 0 and total > 0:
            tail_shares[t] = (total - lhs_win) / total

        f_rhs = _indicator_sum(cubes_k, lambdas, box_k, h_k)
        return [(t, total, weighted_lp_quasinorm(f_rhs, p, w_p[k]))]

    return _ratio_report("tail-sum", cfg, draw, measure, lambda: {
        "p": p, "q": q, "gamma": gamma, "epsilon": eps, "r": r,
        "weight": w.descriptor(),
        "ap": ap.to_json_dict(),
        "tail_decay": a,
        "max_tail_share": max(tail_shares),
    })


# -- annular tiling of a cube-star complement --------------------------------------


def _annuli_pieces(cube: Cube, box) -> list:
    """Rings between successive 3-fold dilates of the star, each split into
    the two side translates; every listed dilate must sit inside the box."""
    c = cube.center[0]
    lo, hi = box[0]
    pieces = []
    level = 0
    while True:
        side = cube.star().side * 3.0 ** level
        nxt = side * 3.0
        if c - nxt / 2.0 < lo or c + nxt / 2.0 > hi:
            break
        pieces.append((level, Cube((c - side,), side)))
        pieces.append((level, Cube((c + side,), side)))
        level += 1
    return pieces


def _annuli_scan(cube: Cube, box, h: float, s: float):
    """Per-piece min/max of |x-c|^(-s) against (3^l ell)^(-s), plus the
    exact-partition flag for the tiling of the largest ring stack."""
    zero = GridFunction.zeros(box, h)
    coords = zero.coords()
    x = coords[..., 0]
    c = cube.center[0]
    ell = cube.side
    pieces = _annuli_pieces(cube, box)
    if not pieces:
        raise HypothesisError("cube too large for an annular tiling in this box")
    levels = 1 + max(l for l, _ in pieces)
    cover = np.zeros_like(zero.samples)
    out = []
    for level, piece in pieces:
        mask = piece.contains(coords)
        cover = cover + np.where(mask, 1.0, 0.0)
        vals = np.abs(x[mask] - c) ** (-s) * (3.0 ** level * ell) ** s
        if vals.size == 0:
            raise HypothesisError("an annular piece contains no grid cells")
        out.append((level, float(vals.min()), float(vals.max())))
    inner = cube.star()
    outer = Cube((c,), inner.side * 3.0 ** levels)
    expected = outer.indicator(box, h).samples - inner.indicator(box, h).samples
    partition_ok = bool(np.array_equal(cover, expected))
    return out, partition_ok


def run_annuli(cfg: ExperimentConfig) -> AnnuliReport:
    """Two-sided constants for |x-c|^(-s) vs (3^l ell)^(-s) on the ring
    tiling of a star complement, with partition and scale-drift checks."""
    _require(cfg.n == 1, "the annular band is exact only in dimension one")
    _require(not cfg.weights, "this run takes no weights")
    _require(cfg.s is not None and cfg.s > 0, "this run needs a decay s > 0")
    s = cfg.s
    _require(2.0 ** cfg.corpus.side_exponents[0] >= 4.0 * cfg.h,
             "smallest cube side needs at least four cells")

    rows = []
    per_level: dict = {}
    per_cube: dict = {}
    inexact = 0  # tilings that are not an exact partition
    per_k_bounds: dict = {}

    cubes, _ = _indicator_corpus(cfg, np.random.default_rng([cfg.corpus.seed, 3]),
                                 cfg.corpus.count)

    def fold(store, key, lo, hi):
        cur = store.get(key)
        store[key] = (lo, hi) if cur is None else (min(cur[0], lo), max(cur[1], hi))

    for j, cube in enumerate(cubes):
        for k, box_k, h_k in _sweep(cfg):
            pieces, part_ok = _annuli_scan(_dilated(cube, k), box_k, h_k, s)
            inexact += not part_ok
            for level, lo, hi in pieces:
                rows.append(TrialRow.make(j, k, lo, hi))
                fold(per_level, level, lo, hi)
                fold(per_cube, j, lo, hi)
                fold(per_k_bounds, k, lo, hi)
    partition_all = inexact == 0

    lower = min(v[0] for v in per_cube.values())
    upper = max(v[1] for v in per_cube.values())
    base_lo, base_hi = per_k_bounds[0]
    scale_drift = max(
        max(abs(lo / base_lo - 1.0), abs(hi / base_hi - 1.0))
        for lo, hi in per_k_bounds.values()
    )

    # fixed-grid doubling: same box and h, cubes twice the side
    dbl_lo, dbl_hi = math.inf, -math.inf
    for cube in cubes:
        big = Cube(cube.center, cube.side * 2.0)
        try:
            pieces, part_ok = _annuli_scan(big, cfg.box, cfg.h, s)
        except HypothesisError:
            continue
        inexact += not part_ok
        for _, lo, hi in pieces:
            dbl_lo, dbl_hi = min(dbl_lo, lo), max(dbl_hi, hi)
    doubling_drift = (
        max(abs(dbl_lo / lower - 1.0), abs(dbl_hi / upper - 1.0))
        if math.isfinite(dbl_lo) else 0.0
    )

    band = (3.0 ** -s, 3.0 ** s)
    tol = 1e-9
    gates = (Gate("partition", inexact, "<=", 0),
             Gate("band_lower", lower, ">=", band[0] * (1 - tol)),
             Gate("band_upper", upper, "<=", band[1] * (1 + tol)),
             Gate("scale_drift", scale_drift, "<=", 0.02),
             Gate("doubling_drift", doubling_drift, "<=", 0.02))
    metadata = {
        "cubes": [c.descriptor() for c in cubes],
        "doubling_drift": doubling_drift,
        "per_scale": {str(k): list(v) for k, v in sorted(per_k_bounds.items())},
    }
    return AnnuliReport("annuli", s, band, lower, upper, per_level, per_cube,
                        partition_all, scale_drift, gates, tuple(rows), metadata)


# -- vector-valued maximal bounds --------------------------------------------------


def run_fefferman_stein(cfg: ExperimentConfig) -> RatioReport:
    """||(sum M f_j^r)^{1/r}||_{L^p(w)} vs ||(sum f_j^r)^{1/r}||_{L^p(w)},
    plus the off-diagonal fractional pairing L^p(w^p) -> L^q(w^q)."""
    _require(cfg.p is not None and cfg.p > 1, "need 1 < p < inf")
    _require(cfg.vector_r is not None and cfg.vector_r > 1, "need 1 < r < inf")
    p, r = cfg.p, cfg.vector_r
    K = cfg.vector_count or 8
    w = _single_weight(cfg)
    family = _weight_family(cfg.box, cfg.h)
    ap = ap_constant(w, p, family)
    _require(ap.stable, "weight fails Muckenhoupt stability at order p")

    offdiag = cfg.gamma is not None
    if offdiag:
        gamma = cfg.gamma
        _, q = _lebesgue_pair(cfg)
        apq = apq_constant(w, p, q, family)
        _require(apq.stable, "weight fails off-diagonal stability")
        w_qg = _weight_grids(cfg, (w, q))
        w_pg = _weight_grids(cfg, (w, p))

    wg = _weight_grids(cfg, (w, 1.0))
    count = cfg.corpus.count

    def draw(t: int):
        return [_indicator_corpus(cfg, np.random.default_rng([cfg.corpus.seed, 4, t, j]))
                for j in range(K)]

    def measure(t: int, fams, k: int, box_k, h_k: float):
        fs = [_indicator_sum([_dilated(c, k) for c in cubes], lambdas, box_k, h_k)
              for cubes, lambdas in fams]
        zero = GridFunction.zeros(box_k, h_k)
        lhs_stack = sum(hl_maximal(f).samples ** r for f in fs)
        rhs_stack = sum(np.abs(f.samples) ** r for f in fs)
        lhs = weighted_lp_quasinorm(zero.with_samples(lhs_stack ** (1.0 / r)), p, wg[k])
        rhs = weighted_lp_quasinorm(zero.with_samples(rhs_stack ** (1.0 / r)), p, wg[k])
        rows = [(t, lhs, rhs)]
        if offdiag:
            # the pairing's row comes right after the diagonal row of (t, k)
            f0 = fs[0]
            rows.append((count + t, weighted_lp_quasinorm(frac_maximal(f0, gamma), q, w_qg[k]),
                         weighted_lp_quasinorm(f0, p, w_pg[k])))
        return rows

    metadata = {
        "p": p, "r": r, "components": K,
        "weight": w.descriptor(),
        "ap": ap.to_json_dict(),
        "diagonal_trials": count,
        "offdiagonal_trials": count if offdiag else 0,
    }
    if offdiag:
        metadata.update(gamma=gamma, q=q, apq=apq.to_json_dict())
    return _ratio_report("fefferman-stein", cfg, draw, measure, lambda: metadata)


# -- the fractional operator on weighted Hardy products ----------------------------


def _atomic_slots(cfg: ExperimentConfig, t: int, m: int, N: int):
    fams = []
    for i in range(m):
        cnt = _atom_count(cfg, np.random.default_rng([cfg.corpus.seed, 5, t, i]))
        fams.append(random_atomic_family(
            _subseed(cfg.corpus.seed, 5, t, i), cnt, box=cfg.box, h=cfg.h,
            side_exponents=cfg.corpus.side_exponents,
            lambda_range=cfg.corpus.lambda_range, order=N))
    return fams


def _bounded_slot(cfg: ExperimentConfig, t: int, j: int) -> GridFunction:
    """Bounded slot j of trial t: indicator-law cubes carrying uniform noise
    in [-lam, lam] per cell."""
    rng = np.random.default_rng([cfg.corpus.seed, 7, t, j])
    cubes, lambdas = _indicator_corpus(cfg, rng)
    zero = GridFunction.zeros(cfg.box, cfg.h)
    acc = np.zeros_like(zero.samples)
    for cube, lam in zip(cubes, lambdas):
        # a full-grid draw keeps the stream independent of the cube
        vals = lam * rng.uniform(-1.0, 1.0, size=zero.samples.shape)
        cells = zero.cells(cube)
        acc[cells] += vals[cells]
    return zero.with_samples(acc)


def _operator_report(name: str, cfg: ExperimentConfig, N: int, lhs_norm,
                     slot_norm, metadata, *, bounded: int = 0) -> RatioReport:
    """The three operator runs, on the kernel of cfg's m, n and gamma.  Each
    trial draws the atomic slots (moment order N) and ``bounded`` sup-norm
    slots; at every sweep scale k the operator is applied once to the
    dilated data: the lhs is ``lhs_norm(T, k)``, and the rhs is the product
    of the sup norms times ``slot_norm(i, f_i, k, mollifier)`` over the
    atomic slots, in slot order."""
    kernel = KenigSteinKernel(cfg.m, cfg.n, cfg.gamma)

    def draw(t: int):
        fams = _atomic_slots(cfg, t, cfg.m - bounded, N)
        gs = [_bounded_slot(cfg, t, j) for j in range(bounded)]
        return fams, gs, math.prod(g.sup_norm() for g in gs)

    def measure(t: int, data, k: int, box_k, h_k: float):
        fams, gs, rhs = data
        fs = [_dilated(f, k) for f in fams]
        T = apply_frac_operator(kernel, fs + [_dilated(g, k) for g in gs])
        lhs = lhs_norm(T, k)
        mol = _mollifier_for(box_k, h_k)
        for i, f in enumerate(fs):
            rhs *= slot_norm(i, f, k, mol)
        return [(t, lhs, rhs)]

    return _ratio_report(name, cfg, draw, measure, metadata)


def run_frac_hardy(cfg: ExperimentConfig) -> RatioReport:
    """||T(f_1..f_m)||_{L^q(wbar)} against prod_i ||f_i||_{H^{p_i}(w_i)} over
    atomic corpora.  The kernel's pointwise product bound and Taylor
    remainder are properties of the kernel alone; ``fracharm kernel-check``
    measures and gates them."""
    m, n, gamma = _slots(cfg)
    ps = tuple(e.p_minus for e in cfg.exponents)
    inv_p = sum(1.0 / v for v in ps)
    if cfg.p is not None:
        _require(abs(1.0 / cfg.p - inv_p) <= 1e-12,
                 "p must satisfy 1/p = sum(1/p_i)")
    inv_q = _inv_target(cfg, ps, gamma, n)
    q = 1.0 / inv_q
    p = 1.0 / inv_p

    if cfg.target_exponents is not None:
        _require(len(cfg.target_exponents) == m, "need one target exponent per slot")
        qs = tuple(cfg.target_exponents)
        _require(abs(sum(1.0 / v for v in qs) - inv_q) <= 1e-10,
                 "target exponents must satisfy sum(1/q_i) = 1/q")
        _require(all(qi > pi for qi, pi in zip(qs, ps)),
                 "each q_i must exceed its p_i")
    else:
        qs = tuple((q / p) * pi for pi in ps)

    weights = cfg.weights or tuple(Weight.constant(1.0, dim=n) for _ in range(m))
    _require(len(weights) == m, "need one weight per slot")
    family = _weight_family(cfg.box, cfg.h)
    rh_reports = []
    for i, (wi, pi, qi) in enumerate(zip(weights, ps, qs)):
        rep = rh_constant(wi, qi / pi, family)
        _require(rep.stable,
                 f"weight {i} fails reverse-Hoelder stability at order q_i/p_i")
        rh_reports.append(rep)

    p_grid = (1.0625, 1.125, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
    rws = [rw_estimate(wi, family, p_grid) for wi in weights]
    _require(all(math.isfinite(v) for v in rws),
             "a weight has no stable Muckenhoupt constant on the probe grid")
    need = max(m * n * (rv / pi - 1.0) for rv, pi in zip(rws, ps))
    N = max(1, int(math.floor(need)) + 1 if need >= 0 else 1)

    gsplit = [n * (1.0 / pi - 1.0 / qi) for pi, qi in zip(ps, qs)]
    gsplit[-1] = gamma - sum(gsplit[:-1])  # kill rounding in the sum
    wbar = _weight_grids(cfg, *((wi, q / pi) for wi, pi in zip(weights, ps)))
    w_slots = [_weight_grids(cfg, (wi, 1.0)) for wi in weights]

    return _operator_report(
        "frac-hardy", cfg, N,
        lambda T, k: weighted_lp_quasinorm(T, q, wbar[k]),
        lambda i, f, k, mol: hardy_quasinorm(f, ps[i], w_slots[i][k], mol),
        lambda: {
            "p_slots": list(ps), "p": p, "q": q, "q_slots": list(qs),
            "gamma": gamma, "gamma_split": list(gsplit), "moment_order": N,
            "weights": [w.descriptor() for w in weights],
            "rh": [r.to_json_dict() for r in rh_reports],
            "rw": rws,
        })


# -- sup-norm slots at the integrability endpoint ----------------------------------


def run_bounded_slots(cfg: ExperimentConfig) -> RatioReport:
    """||T(f_1..f_{m-l}, g_1..g_l)||_{L^q} against
    prod ||f_i||_{H^{p_i}} * prod sup|g_j| for bounded g_j."""
    l = cfg.bounded_slots
    _, n, gamma = _slots(cfg, bounded=l)
    _require(not cfg.weights, "this run takes no weights")
    ps = tuple(e.p_minus for e in cfg.exponents)
    q = 1.0 / _inv_target(cfg, ps, gamma, n)
    N = 1

    return _operator_report(
        "bounded-slots", cfg, N,
        lambda T, k: weighted_lp_quasinorm(T, q),
        lambda i, f, k, mol: hardy_quasinorm(f, ps[i], None, mol),
        lambda: {
            "p_slots": list(ps), "q": q, "gamma": gamma,
            "bounded_slots": l, "moment_order": N,
        }, bounded=l)


# -- variable-exponent targets -----------------------------------------------------


def run_var_frac_hardy(cfg: ExperimentConfig) -> RatioReport:
    """Luxemburg norm of T(f_1..f_m) in L^{q(.)} against the product of
    Luxemburg norms of the smooth maximal functions in L^{p_i(.)}.  The
    paper truncates T before extrapolating only to make the left side
    finite; on a finite grid it already is, so T is taken as it is."""
    _, _, gamma = _slots(cfg, constant=False)
    _require(not cfg.weights, "this run takes no weights")
    exponents = cfg.exponents
    target = target_exponent(exponents, gamma)
    lh_reports = []
    for i, pex in enumerate(exponents):
        if pex.kind == "constant":
            lh_reports.append(None)
            continue
        rep = log_holder_estimate(pex, window=cfg.box)
        _require(rep.stable, f"exponent {i} fails log-Hoelder stability")
        lh_reports.append(rep)

    N = 1

    return _operator_report(
        "var-frac-hardy", cfg, N,
        lambda T, k: luxemburg_norm(T, target),
        lambda i, f, k, mol: luxemburg_norm(grand_maximal(f, mol), exponents[i]),
        lambda: {
            "gamma": gamma, "moment_order": N,
            "exponents": [e.descriptor() for e in cfg.exponents],
            "target_band": [target.p_minus, target.p_plus],
            "log_holder": [r.to_json_dict() if r else None for r in lh_reports],
        })


# -- the constructive extrapolation chain ------------------------------------------


def run_extrapolation(cfg: ExperimentConfig) -> ChainReport:
    """Execute the dual-witness / iteration pipeline on one concrete tuple
    and record every link of the chain as a measured constant."""
    m, n, gamma = _slots(cfg, constant=False)
    _require(not cfg.weights, "this run takes no weights")
    scalars = tuple(0.75 * p.p_minus for p in cfg.exponents)
    system = derive_system(cfg.exponents, scalars, gamma,
                           window=cfg.box, seed=cfg.corpus.seed)

    q = system.target_scalar
    qbar = system.target_bar
    qbar_c = qbar.conjugate()
    kernel = KenigSteinKernel(m=m, n=n, gamma=gamma)

    fs = [
        random_atomic_family(_subseed(cfg.corpus.seed, 8, i),
                             cfg.corpus.atoms_per_trial[1], box=cfg.box,
                             h=cfg.h, side_exponents=cfg.corpus.side_exponents,
                             lambda_range=cfg.corpus.lambda_range, order=1)
        for i in range(m)
    ]
    F = abs(apply_frac_operator(kernel, fs))
    _require(F.sup_norm() > 0, "the operator output vanished for this tuple")
    G = F.power(q)
    coords = F.coords()

    steps = []

    def step(name, lhs, rhs, bound=None, check=None):
        # a link gates constant <= bound, or else its (value, relation,
        # limit) check, such as an identity's residual against a tolerance
        constant = lhs / rhs if rhs > 0 else math.inf
        value, relation, limit = check or (constant, "<=", bound)
        steps.append(ChainStep(name, float(lhs), float(rhs), float(constant), bound,
                               Gate(name, float(value), relation, limit)))
        return constant

    # ||F||_{q(.)}^q realizes ||F^q||_{qbar}
    norm_F = luxemburg_norm(F, system.target)
    norm_G = luxemburg_norm(G, qbar)
    step("power_rescale", norm_F ** q, norm_G,
         check=(abs(norm_F ** q / norm_G - 1.0), "<=", 1e-5))

    # the dual witness pairs to within a factor 2
    h_fn = dual_witness(G, qbar)
    pairing = integrate(G * h_fn)
    step("dual_norming", norm_G, pairing, 2.0 + 1e-9)
    rho_h = modular(h_fn, qbar_c)
    step("witness_modular", rho_h, 1.0, check=(abs(rho_h - 1.0), "<=", 1e-5))

    # splitting h by the theta exponents is exact
    theta_prod = np.ones_like(h_fn.samples)
    for th in system.thetas:
        theta_prod = theta_prod * h_fn.samples ** th.evaluate(coords)
    split_res = float(np.max(np.abs(theta_prod - h_fn.samples)))
    sup_h = float(h_fn.sup_norm())
    step("theta_split", split_res, 1.0 + sup_h,
         check=(split_res, "<=", 1e-12 * (1.0 + sup_h)))

    # per-slot iteration: unit norms, truncated-series norm bound, weights
    depth = 8
    slot_weights = []
    iterate_norms = []
    rubio_meta = []
    D = np.ones_like(h_fn.samples)
    for i in range(m):
        s_i, q_i = scalars[i], system.slot_scalars[i]
        sigma = system.sigmas[i]
        pbar_c = system.p_bars[i].conjugate()
        expo = qbar_c.evaluate(coords) * q_i / (pbar_c.evaluate(coords) * s_i)
        u = F.with_samples(h_fn.samples ** expo)
        unit = luxemburg_norm(u, sigma)
        step(f"slot_unit_norm_{i}", unit, 1.0, check=(abs(unit - 1.0), "<=", 1e-4))
        A = maximal_opnorm_estimate(sigma, [u, hl_maximal(u)])
        props = rubio_properties_check(u, sigma, A, depth=depth,
                                       power=s_i / q_i, rh_order=q_i / s_i)
        R = props.iterate
        tail = (luxemburg_norm(props.next_power, sigma)
                / (2.0 * A) ** (depth + 1))
        surr = luxemburg_norm(R, sigma) ** (s_i / q_i)
        step(f"rdf_norm_{i}", surr, 1.0,
             2.0 ** (s_i / q_i) * (1.0 + tail) * (1.0 + 1e-9))
        rubio_meta.append(dict(props.to_json_dict(), opnorm=A, tail=tail))
        iterate_norms.append(surr)
        slot_weights.append(R.power(s_i / q_i))
        D = D * R.samples ** (q / q_i)

    # h <= R_i(...) pointwise lifts to the pairing
    D_fn = F.with_samples(D)
    dominated = integrate(G * D_fn)
    step("iteration_domination", pairing, dominated, 1.0 + 1e-12)

    # the weighted hypothesis side: its measured constant is gated as finite
    mol = _mollifier_for(cfg.box, cfg.h)
    maximal_fns = [grand_maximal(f, mol) for f in fs]
    hyp_rhs = 1.0
    slot_integrals = []
    for mf, W, s_i in zip(maximal_fns, slot_weights, scalars):
        val = integrate(mf.power(s_i) * W)
        slot_integrals.append(val)
        hyp_rhs *= val ** (1.0 / s_i)
    hypothesis_constant = dominated ** (1.0 / q) / hyp_rhs
    step("weighted_hypothesis", dominated ** (1.0 / q), hyp_rhs,
         check=(hypothesis_constant, "<", math.inf))

    # per-slot Hoelder, rescaling, and weight-norm accounting
    final = norm_F
    for i, (mf, W, val, lux_r) in enumerate(zip(maximal_fns, slot_weights,
                                                slot_integrals, iterate_norms)):
        s_i = scalars[i]
        pbar = system.p_bars[i]
        pbar_c = pbar.conjugate()
        lux_ms = luxemburg_norm(mf.power(s_i), pbar)
        lux_w = luxemburg_norm(W, pbar_c)
        step(f"slot_hoelder_{i}", val, lux_ms * lux_w, 4.0)
        lux_m = luxemburg_norm(mf, cfg.exponents[i])
        step(f"slot_rescale_{i}", lux_m ** s_i, lux_ms,
             check=(abs(lux_m ** s_i / lux_ms - 1.0), "<=", 1e-5))
        final /= lux_m
        step(f"weight_norm_{i}", lux_w, lux_r,
             check=(abs(lux_w / lux_r - 1.0), "<=", 1e-5))

    metadata = {
        "system": system.to_json_dict(),
        "rubio": rubio_meta,
        "tuple": {"atoms_per_slot": cfg.corpus.atoms_per_trial[1],
                  "seed": cfg.corpus.seed},
    }
    return ChainReport.from_steps("extrapolation", steps, final,
                                  hypothesis_constant, metadata)


# -- registry ----------------------------------------------------------------------

EXPERIMENTS = {
    "star-sum": run_star_sum,
    "tail-sum": run_tail_sum,
    "annuli": run_annuli,
    "fefferman-stein": run_fefferman_stein,
    "frac-hardy": run_frac_hardy,
    "bounded-slots": run_bounded_slots,
    "var-frac-hardy": run_var_frac_hardy,
    "extrapolation": run_extrapolation,
}

EXPERIMENT_SUMMARIES = {
    "star-sum": "dilated-indicator sums with a side-power gain, L^q(w^{q/p}) vs L^p(w)",
    "tail-sum": "off-star power tails with an analytic beyond-the-box remainder",
    "annuli": "two-sided constants for the ring tiling of a star complement",
    "fefferman-stein": "vector-valued maximal bound and the off-diagonal pairing",
    "frac-hardy": "the fractional operator on weighted Hardy products",
    "bounded-slots": "sup-norm slots at the integrability endpoint",
    "var-frac-hardy": "variable-exponent targets: Luxemburg norms of the operator and of the smooth maximal functions",
    "extrapolation": "the constructive dual-witness / iteration proof chain",
}


def run_experiment(cfg: ExperimentConfig):
    fn = EXPERIMENTS.get(cfg.experiment)
    if fn is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise HypothesisError(
            f"unknown experiment {cfg.experiment!r} (known: {known})")
    try:
        return fn(cfg)
    except ValueError as e:
        # a library precondition the hypothesis checks did not reach is
        # still a config the run cannot take: exit 2, never a traceback
        raise HypothesisError(str(e)) from e
    except ArithmeticError as e:
        # so is a Python float overflow on the config's numbers
        raise HypothesisError(f"{type(e).__name__} on this config: {e}") from e
