"""Closed-form oracles, one set per workload, built from public functions.

Each oracle is deterministic (fixed inputs, not the workload seed), so
``oracle_rel_err`` repeats exactly between runs of the same code and moves
only when a change alters the numbers.  The tolerances are the ones the
acceptance tests pin, except for the maximal ladder, whose geometric ratio
2^(1/4) bounds its error against the continuous maximal function.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from fracharm.config import ExperimentConfig
from fracharm.experiments import run_experiment
from fracharm.grid import Cube, weighted_lp_quasinorm
from fracharm.kernels import KenigSteinKernel, apply_frac_operator
from fracharm.maximal import hl_maximal
from fracharm.varexp import ExponentFunction, luxemburg_norm
from fracharm.weights import Weight

ROOT = Path(__file__).resolve().parent.parent


def _result(parts: dict, tolerance: float) -> dict:
    parts = {k: float(v) for k, v in parts.items()}
    return {"oracle_rel_err": max(parts.values()), "tolerance": tolerance,
            "parts": parts}


def maximal_oracle() -> dict:
    """hl_maximal of the indicator of [0, 1] against M chi(x) = 1 on [0, 1],
    1/x right of it and 1/(1 - x) left of it, for |x - 1/2| <= 4."""
    box, h = ((-8.0, 8.0),), 2.0 ** -8
    f = Cube((0.5,), 1.0).indicator(box, h)
    x = f.coords()[:, 0]
    exact = np.where(x > 1.0, 1.0 / np.maximum(x, 1e-300),
                     np.where(x < 0.0, 1.0 / (1.0 - x), 1.0))
    near = np.abs(x - 0.5) <= 4.0
    rel = np.abs(hl_maximal(f).samples - exact) / exact
    return _result({"hl_indicator": float(rel[near].max())}, 2.0 ** 0.25 - 1.0)


def operator_oracle() -> dict:
    """One-slot value 2 and two-slot value 2 log 2 at the origin."""
    box = ((-2.0, 2.0),)
    f = Cube((0.5,), 1.0).indicator(box, 2.0 ** -10)
    one = apply_frac_operator(KenigSteinKernel(m=1, n=1, gamma=0.5), [f],
                              points=[[0.0]])
    f = Cube((0.5,), 1.0).indicator(box, 2.0 ** -8)
    two = apply_frac_operator(KenigSteinKernel(m=2, n=1, gamma=1.0), [f, f],
                              points=[[0.0]])
    target = 2.0 * math.log(2.0)
    return _result({"one_slot": abs(float(one[0]) - 2.0) / 2.0,
                    "two_slot": abs(float(two[0]) - target) / target}, 1e-2)


def varexp_oracle() -> dict:
    """Luxemburg norms at constant exponents against the closed-form Lp norm
    of two disjoint dyadic blocks."""
    box, h = ((-4.0, 4.0),), 2.0 ** -7
    rng = np.random.default_rng(20240819)
    exps = [0.5, 2.0 / 3.0, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0]
    worst = 0.0
    for i in range(20):
        p = exps[i % len(exps)]
        l1 = 2.0 ** int(rng.integers(-3, 2))
        l2 = 2.0 ** int(rng.integers(-3, 2))
        c1, c2 = rng.uniform(0.2, 5.0, size=2)
        b1 = Cube((-3.0,), l1).indicator(box, h)
        b2 = Cube((1.0,), l2).indicator(box, h)
        f = b1.with_samples(c1 * b1.samples + c2 * b2.samples)
        closed = (c1 ** p * l1 + c2 ** p * l2) ** (1.0 / p)
        lux = luxemburg_norm(f, ExponentFunction.constant(p))
        worst = max(worst, abs(lux - closed) / closed)
    return _result({"luxemburg_two_block": worst}, 1e-6)


def mixed_oracle() -> dict:
    """The single-cube star-sum ratio sqrt(2) at the shipped config, and the
    power-weighted norm ||chi_[0,1]||_{L^1(|x|^(1/4))} = 4/5 that the
    power-weight cube sums rest on."""
    d = json.loads((ROOT / "configs" / "star_sum_single.json").read_text())
    report = run_experiment(ExperimentConfig.from_dict(d))
    root2 = math.sqrt(2.0)
    dev = max(abs(r.ratio - root2) / root2 for r in report.rows)
    box, h = ((-8.0, 8.0),), 2.0 ** -8
    f = Cube((0.5,), 1.0).indicator(box, h)
    norm = weighted_lp_quasinorm(f, 1.0, Weight.power(0.25).sample(box, h))
    return _result({"star_single_root2": dev,
                    "power_weight_norm": abs(norm - 0.8) / 0.8}, 2e-2)


ORACLES = {
    "maximal-serial": maximal_oracle,
    "operator-serial": operator_oracle,
    "varexp-serial": varexp_oracle,
    "mixed-serial": mixed_oracle,
}
