"""Command-line front end.

Subcommands:
  verify <id> --config FILE [--seed S] [--out DIR]
      run one registered experiment; writes <id>.report.json and
      <id>.trials.csv into DIR and prints a one-line verdict.
  norm CSV --p P | --p-limit L --p-amplitude A  [--lo LO] [--h H] [--power-weight E]
      Lebesgue or Luxemburg norm of a sampled 1D function (one value per line).
  weight-const --kind K [...] (--ap P | --rh S | --apq P Q)...
      Muckenhoupt / reverse-Hoelder constants with stability verdicts, as JSON.
  kernel-check --m M --n N --gamma G [--order N0]
      measured size and smoothness constants of the model kernel, and its
      pointwise product bound and Taylor remainder on seeded cube layouts
      with their drift under dilation, as JSON; exit 1 when a drift gate fails.
  list
      registered experiment ids with one-line summaries.

Exit codes: 0 all requested checks passed, 1 a report failed its gates,
2 usage, config, or hypothesis errors, or an argument the library rejects.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import ExperimentConfig
from .experiments import EXPERIMENTS, HypothesisError, lookup, run_experiment
from .grid import Cube, GridFunction, tile_count, weighted_lp_quasinorm
from .kernels import (
    KenigSteinKernel,
    kernel_size_check,
    kernel_smoothness_check,
    local_product_bound_check,
    taylor_remainder_check,
)
from .reports import Gate, json_safe, verdict, write_report_json, write_trials_csv
from .varexp import ExponentFunction, luxemburg_norm
from .weights import Weight, ap_constant, apq_constant, rh_constant, weight_cube_family

__all__ = ["cli_main", "main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracharm",
        description="numerical checks for fractional-operator norm inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one registered experiment")
    p_verify.add_argument("experiment", help="registered experiment id")
    p_verify.add_argument("--config", required=True, help="JSON config file")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="override the corpus seed")
    p_verify.add_argument("--out", default=".", help="output directory")

    p_norm = sub.add_parser("norm", help="norm of a sampled 1D function")
    p_norm.add_argument("csv", help="file with one sample value per line")
    p_norm.add_argument("--p", type=float, default=None,
                        help="constant Lebesgue exponent")
    p_norm.add_argument("--p-limit", type=float, default=None,
                        help="log-decay exponent: limit at infinity")
    p_norm.add_argument("--p-amplitude", type=float, default=None,
                        help="log-decay exponent: amplitude at the origin")
    p_norm.add_argument("--lo", type=float, default=-8.0,
                        help="left endpoint of the sample box")
    p_norm.add_argument("--h", type=float, default=2.0 ** -8, help="grid step")
    p_norm.add_argument("--power-weight", type=float, default=None,
                        help="weight |x|^E on the constant-exponent norm")

    p_w = sub.add_parser("weight-const", help="weight constants with stability")
    p_w.add_argument("--kind", choices=("constant", "power"), default="power")
    p_w.add_argument("--value", type=float, default=1.0,
                     help="constant weight value")
    p_w.add_argument("--exponent", type=float, default=0.0,
                     help="power weight exponent")
    p_w.add_argument("--multiplier", type=float, default=1.0)
    p_w.add_argument("--ap", type=float, default=None, metavar="P",
                     help="Muckenhoupt constant at order P")
    p_w.add_argument("--rh", type=float, default=None, metavar="S",
                     help="reverse-Hoelder constant at order S")
    p_w.add_argument("--apq", type=float, nargs=2, default=None,
                     metavar=("P", "Q"), help="off-diagonal constant at (P, Q)")
    p_w.add_argument("--lo", type=float, default=-8.0)
    p_w.add_argument("--hi", type=float, default=8.0)
    p_w.add_argument("--h", type=float, default=2.0 ** -8)

    p_k = sub.add_parser("kernel-check", help="model-kernel decay constants")
    p_k.add_argument("--m", type=int, required=True)
    p_k.add_argument("--n", type=int, required=True)
    p_k.add_argument("--gamma", type=float, required=True)
    p_k.add_argument("--order", type=int, default=1,
                     help="derivative order for the smoothness constant")
    p_k.add_argument("--samples", type=int, default=400)
    p_k.add_argument("--seed", type=int, default=0)

    sub.add_parser("list", help="registered experiment ids")
    return parser


def _print_json(payload: dict):
    print(json.dumps(json_safe(payload), indent=2, sort_keys=True))


def _cmd_verify(args) -> int:
    lookup(args.experiment)
    cfg = ExperimentConfig.from_json(args.config)
    if cfg.experiment != args.experiment:
        raise ValueError(f"config file is for {cfg.experiment!r}, "
                         f"asked to verify {args.experiment!r}")
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    # an unusable output directory fails before the run, not after it
    os.makedirs(args.out, exist_ok=True)
    report = run_experiment(cfg)

    report_path = os.path.join(args.out, f"{args.experiment}.report.json")
    csv_path = os.path.join(args.out, f"{args.experiment}.trials.csv")
    write_report_json(report_path, report)
    write_trials_csv(csv_path, report.trial_rows())

    verdict = "PASS" if report.passed else "FAIL"
    print(f"{args.experiment}: {verdict} {report.summary()} -> {report_path}")
    return 0 if report.passed else 1


def _cmd_norm(args) -> int:
    try:
        samples = np.loadtxt(args.csv, dtype=float, ndmin=1)
    except (OSError, ValueError) as e:
        raise ValueError(f"{args.csv}: {e}") from e
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("expected a nonempty single-column file")
    box = ((args.lo, args.lo + args.h * samples.size),)
    f = GridFunction(box, args.h, samples)
    variable = args.p_limit is not None or args.p_amplitude is not None
    if variable == (args.p is not None):
        raise ValueError("give either --p or both --p-limit and --p-amplitude")
    if variable:
        if args.p_limit is None or args.p_amplitude is None:
            raise ValueError("--p-limit and --p-amplitude go together")
        if args.power_weight is not None:
            raise ValueError("--power-weight applies to constant exponents only")
        pex = ExponentFunction.log_decay(args.p_limit, args.p_amplitude)
        value = luxemburg_norm(f, pex)
    else:
        wg = None
        if args.power_weight is not None:
            wg = Weight.power(args.power_weight).sample(box, args.h)
        value = weighted_lp_quasinorm(f, args.p, wg)
    print(f"{value!r}")
    return 0


def _cmd_weight_const(args) -> int:
    if args.kind == "constant":
        w = Weight.constant(args.value)
    else:
        w = Weight.power(args.exponent, multiplier=args.multiplier)
    if args.ap is None and args.rh is None and args.apq is None:
        raise ValueError("request at least one of --ap, --rh, --apq")
    extent = args.hi - args.lo
    if not (-math.inf < args.lo < args.hi < math.inf and extent < math.inf
            and 0 < 8.0 * args.h < math.inf):
        raise ValueError("need finite --lo < --hi and a finite --h > 0")
    # the top cube level is the largest j <= floor(log2(hi - lo)) - 1 whose
    # side 2^j tiles the window, the finest is ceil(log2(8 h))
    j_min = int(np.ceil(np.log2(8.0 * args.h)))
    top = int(np.floor(np.log2(extent))) - 1
    j_max = next((j for j in range(top, j_min - 1, -1) if tile_count(extent, 2.0 ** j)),
                 None)
    if j_max is None:
        raise ValueError(
            f"empty level range: no side 2^j with ceil(log2(8 h)) = {j_min} <= j <= "
            f"floor(log2(hi - lo)) - 1 = {top} tiles the window ({args.lo}, {args.hi})")
    family = weight_cube_family(((args.lo, args.hi),), j_min, j_max, args.h)
    payload: dict = {"weight": w.descriptor()}
    all_stable = True
    for name, fn in (("ap", lambda: ap_constant(w, args.ap, family)),
                     ("rh", lambda: rh_constant(w, args.rh, family)),
                     ("apq", lambda: apq_constant(w, args.apq[0], args.apq[1],
                                                  family))):
        if getattr(args, name) is None:
            continue
        rep = fn()
        payload[name] = rep.to_json_dict()
        all_stable = all_stable and rep.stable
    _print_json(payload)
    return 0 if all_stable else 1


# kernel-check's pointwise diagnostics: seeded cube layouts, each measured at
# base scale and dilated by 2, where both sides of either check scale alike, so
# a drift is rounding.  Near gamma = mn the Taylor remainder R = K - P is mostly
# cancellation, and K's rounding (< 10 ulp of the term |K| t^(mn+N-gamma)/side^N)
# over R is unbounded; so R's drift is over max(R, TAYLOR_FLOOR term): 100 ulp
# stays under DRIFT_TOL, and R clears the floor for gamma <= 3/4 mn (README).
DIAGNOSTIC_CONFIGS = 20
TAYLOR_SAMPLES = 120
DRIFT_TOL = 1e-8
TAYLOR_FLOOR = 100 * float(np.finfo(float).eps) / DRIFT_TOL


def _drift(base: float, dilated: float) -> float:
    """Relative change under dilation; inf unless both values are positive
    and finite, so such a value fails the drift gate."""
    if not (0.0 < base < math.inf and 0.0 < dilated < math.inf):
        return math.inf
    return abs(dilated / base - 1.0)


def _pointwise_diagnostics(kernel: KenigSteinKernel, order: int, seed: int) -> dict:
    """Product bounds with the even split gamma/m of gamma, and Taylor
    remainders of the given order in the last slot.  Each layout has m cubes
    of side 2^j (j in {-3, -2, -1}), each x1 or x2, centred within a quarter
    side of the origin, and a point x in every star; the grid step is an
    eighth of the smallest side, so the dense off-grid sum stays small."""
    m, n = kernel.m, kernel.n
    split = [kernel.gamma / m] * m
    split[-1] = kernel.gamma - sum(split[:-1])
    prod_vals, prod_drift = [], 0.0
    tay_vals, tay_drift = [], 0.0
    for c in range(DIAGNOSTIC_CONFIGS):
        rng = np.random.default_rng([seed, c])
        side = 2.0 ** int(rng.integers(-3, 0))
        cubes = [Cube(tuple(side / 4.0 * rng.uniform(-1.0, 1.0, size=n)),
                      side * 2.0 ** int(rng.integers(0, 2))) for _ in range(m)]
        x = side / 8.0 * rng.uniform(-1.0, 1.0, size=n)
        h = min(q.side for q in cubes) / 8.0
        half = 2.0 * max(q.side for q in cubes)
        tay_seed = int(rng.integers(1 << 31))
        prod, tay = [], []
        for s in (1.0, 2.0):
            cubes_s = [q.scaled(s) for q in cubes]
            prod.append(local_product_bound_check(
                kernel, cubes_s, split, x * s, box=((-half * s, half * s),) * n,
                h=h * s))
            tay.append(taylor_remainder_check(kernel, cubes_s[-1], m - 1, order,
                                              n_samples=TAYLOR_SAMPLES, seed=tay_seed))
        (r1, term), (r2, _) = tay
        prod_vals.append(prod[0])
        prod_drift = max(prod_drift, _drift(*prod))
        tay_vals.append(r1)
        ok = all(0.0 < v < math.inf for v in (r1, r2, term))
        tay_drift = max(tay_drift, abs(r2 - r1) / max(r1, TAYLOR_FLOOR * term) if ok else math.inf)
    return {"configs": DIAGNOSTIC_CONFIGS, "drift_tol": DRIFT_TOL,
            "product_bound": prod_vals, "product_drift": prod_drift,
            "taylor_remainder": tay_vals, "taylor_drift": tay_drift}


def _cmd_kernel_check(args) -> int:
    kernel = KenigSteinKernel(m=args.m, n=args.n, gamma=args.gamma)
    size = kernel_size_check(kernel, args.samples, seed=args.seed)
    smooth = kernel_smoothness_check(kernel, args.order,
                                     max(100, args.samples // 2),
                                     seed=args.seed)
    diag = _pointwise_diagnostics(kernel, args.order, args.seed)
    gates = [Gate(name, diag[name], "<=", DRIFT_TOL) for name in ("product_drift", "taylor_drift")]
    _print_json({"kernel": dict(kernel.descriptor(), N=args.order),
                 "size_constant": size,
                 "smoothness_constant": smooth,
                 "diagnostics": diag,
                 "gates": gates})
    return 0 if verdict(gates) else 1


def _cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {EXPERIMENTS[name].summary}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return int(code) if code is not None else 0
    handlers = {
        "verify": _cmd_verify,
        "norm": _cmd_norm,
        "weight-const": _cmd_weight_const,
        "kernel-check": _cmd_kernel_check,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, HypothesisError, MemoryError) as e:
        # bad input, ConfigError, library preconditions and a grid too large
        # to allocate included: exit 2
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():  # console-script entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
