"""End-to-end acceptance sweep.

One test per numbered criterion: quadrature oracles with closed-form values,
norm algebra on variable-exponent spaces, iteration properties of the A1
majorant construction, and the experiment registry at its shipped
configurations.  Every test registers a one-line verdict that the terminal
summary replays, and tolerances live in the pinned constants below.  Where a
criterion carries a wall-clock cap the elapsed time is asserted too.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from fracharm.cli import DRIFT_TOL, cli_main
from fracharm.config import ExperimentConfig
from fracharm.experiments import run_experiment
from fracharm.grid import Cube, GridFunction
from fracharm.kernels import KenigSteinKernel, apply_frac_operator
from fracharm.varexp import (
    ExponentFunction,
    derive_system,
    luxemburg_norm,
    modular,
    rubio_properties_check,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ORACLE_REL_TOL = 1e-2          # closed-form operator values
ORACLE_CAP_S = 30.0
LUX_MATCH_TOL = 1e-12          # Luxemburg vs closed-form Lp
MODULAR_BAND = 1e-12           # modular at the normalized function
LUX_CAP_S = 10.0
THETA_TOL = 1e-12              # pointwise partition-of-unity residual
SYSTEMS_CAP_S = 5.0
RUBIO_NORM_BOUND = 2.0
RUBIO_CAP_S = 60.0
CORPUS_SLOPE_TOL = 0.1
SINGLE_CUBE_TOL = 2e-2         # closed-form sqrt(2) ratio
STAR_TAIL_CAP_S = 300.0
SINGLE_ATOM_DRIFT_TOL = 5e-2   # dilation invariance of one-atom ratios
ATOMIC_CAP_S = 900.0
TARGET_SUM_TOL = 1e-10
DEGENERATION_TOL = 1e-12       # variable-exponent run at constant exponents
VAR_CAP_S = 1200.0
ANNULI_DRIFT_TOL = 0.02


def _config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json")


def _run(name: str):
    cfg = _config(name)
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - t0


def _ratio_gates(name: str, report, checks: dict, trials: int | None = None):
    """The three gates every corpus report must clear, spelled out."""
    checks[f"{name}.passed"] = report.passed
    checks[f"{name}.max_ratio_finite"] = math.isfinite(report.max_ratio)
    checks[f"{name}.slope"] = abs(report.slope) <= CORPUS_SLOPE_TOL
    checks[f"{name}.rhs_positive"] = all(r.rhs > 0.0 for r in report.rows)
    if trials is not None:
        seen = {r.trial for r in report.rows}
        checks[f"{name}.trials"] = len(seen) == trials


def _indicator(box, h: float) -> GridFunction:
    return Cube((0.5,), 1.0).indicator(box, h)


def test_criterion_01_quadrature_oracles(criteria):
    with criteria.guard(1) as g:
        box = ((-2.0, 2.0),)

        t0 = time.perf_counter()
        f = _indicator(box, 2.0 ** -10)
        one = apply_frac_operator(
            KenigSteinKernel(m=1, n=1, gamma=0.5), [f], points=[[0.0]])
        t_one = time.perf_counter() - t0
        rel_one = abs(float(one[0]) - 2.0) / 2.0

        t0 = time.perf_counter()
        f = _indicator(box, 2.0 ** -8)
        two = apply_frac_operator(
            KenigSteinKernel(m=2, n=1, gamma=1.0), [f, f], points=[[0.0]])
        t_two = time.perf_counter() - t0
        target = 2.0 * math.log(2.0)
        rel_two = abs(float(two[0]) - target) / target

        g.finish_checks(
            {
                "one_slot_value": rel_one <= ORACLE_REL_TOL,
                "two_slot_value": rel_two <= ORACLE_REL_TOL,
                "one_slot_time": t_one < ORACLE_CAP_S,
                "two_slot_time": t_two < ORACLE_CAP_S,
            },
            f"one-slot err {rel_one:.3e}, two-slot err {rel_two:.3e}, "
            f"{t_one:.1f}s/{t_two:.1f}s",
        )


def test_criterion_02_luxemburg_vs_closed_form(criteria):
    with criteria.guard(2) as g:
        t0 = time.perf_counter()
        box, h = ((-4.0, 4.0),), 2.0 ** -7
        rng = np.random.default_rng(20240819)
        exps = [0.5, 2.0 / 3.0, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0]
        worst_match = 0.0
        worst_mod = 0.0
        for i in range(20):
            p = exps[i % len(exps)]
            # two disjoint dyadic blocks: the Lp norm has a closed form and
            # the midpoint quadrature resolves the blocks exactly
            l1 = 2.0 ** int(rng.integers(-3, 2))
            l2 = 2.0 ** int(rng.integers(-3, 2))
            c1, c2 = rng.uniform(0.2, 5.0, size=2)
            b1 = Cube((-3.0,), l1).indicator(box, h)
            b2 = Cube((1.0,), l2).indicator(box, h)
            f = b1.with_samples(c1 * b1.samples + c2 * b2.samples)
            closed = (c1 ** p * l1 + c2 ** p * l2) ** (1.0 / p)

            pe = ExponentFunction.constant(p)
            lux = luxemburg_norm(f, pe)
            worst_match = max(worst_match, abs(lux - closed) / closed)
            rho = modular(f.with_samples(f.samples / lux), pe)
            worst_mod = max(worst_mod, abs(rho - 1.0))
        elapsed = time.perf_counter() - t0

        g.finish_checks(
            {
                "norm_match": worst_match <= LUX_MATCH_TOL,
                "modular_band": worst_mod <= MODULAR_BAND,
                "time": elapsed < LUX_CAP_S,
            },
            f"20 functions, worst norm mismatch {worst_match:.3e}, "
            f"worst modular deviation {worst_mod:.3e}",
        )


def test_criterion_03_exponent_systems(criteria):
    with criteria.guard(3) as g:
        t0 = time.perf_counter()
        E = ExponentFunction
        systems = [
            ([E.constant(2.0), E.constant(3.0)], 0.5),
            ([E.constant(1.2), E.constant(1.2)], 0.25),
            ([E.log_decay(1.2, 0.3), E.log_decay(1.2, 0.3)], 0.5),
            ([E.constant(2.0), E.log_decay(1.4, 0.4)], 0.75),
            ([E.log_decay(2.2, 0.4), E.constant(3.0), E.constant(2.5)], 1.0),
        ]
        checks = {}
        worst_theta = 0.0
        for i, (slots, gamma) in enumerate(systems):
            scalars = [0.75 * p.p_minus for p in slots]
            system = derive_system(slots, scalars, gamma,
                                   window=((-8.0, 8.0),), samples=1000, seed=3)
            cert = system.certificate
            rng = np.random.default_rng(101 + i)
            pts = rng.uniform(-8.0, 8.0, size=(1000, 1))
            resid = float(np.max(np.abs(
                sum(t.evaluate(pts) for t in system.thetas) - 1.0)))
            worst_theta = max(worst_theta, resid,
                              cert["max_theta_residual"])
            checks[f"sys{i}.theta_certificate"] = (
                cert["max_theta_residual"] <= THETA_TOL)
            checks[f"sys{i}.theta_fresh_sample"] = resid <= THETA_TOL
            checks[f"sys{i}.sigma_minus_above_one"] = (
                min(cert["sigma_bound_min"]) > 1.0
                and min(cert["sigma_sampled_min"]) > 1.0)
        elapsed = time.perf_counter() - t0
        checks["time"] = elapsed < SYSTEMS_CAP_S

        g.finish_checks(
            checks,
            f"5 systems, worst partition residual {worst_theta:.3e}",
        )


def test_criterion_04_majorant_iteration(criteria):
    with criteria.guard(4) as g:
        t0 = time.perf_counter()
        box, h = ((-8.0, 8.0),), 2.0 ** -5
        f = GridFunction.zeros(box, h)
        x = f.coords()[..., 0]
        f = f.with_samples(np.exp(-x * x / 4.0))
        sigma = ExponentFunction.log_decay(1.5, 0.5)
        report = rubio_properties_check(f, sigma, depth=8,
                                        power=0.5, rh_order=2.0)
        elapsed = time.perf_counter() - t0

        g.finish_checks(
            {
                "pointwise_domination": (report.domination_ok
                                         and report.domination_margin >= 0.0),
                "norm_inflation": report.norm_ratio <= RUBIO_NORM_BOUND,
                "a1_constant": (report.a1_ok
                                and report.a1_estimate <= report.a1_bound),
                "time": elapsed < RUBIO_CAP_S,
            },
            f"margin {report.domination_margin:.3e}, "
            f"norm ratio {report.norm_ratio:.4f}, "
            f"A1 {report.a1_estimate:.3f} <= {report.a1_bound:.3f}",
        )


def test_criterion_05_star_and_tail_corpora(criteria):
    with criteria.guard(5) as g:
        checks = {}
        total = 0.0
        for name in ("star_sum_unit", "star_sum_power",
                     "tail_sum_unit", "tail_sum_power"):
            report, dt = _run(name)
            total += dt
            _ratio_gates(name, report, checks, trials=100)

        single, dt = _run("star_sum_single")
        total += dt
        root2 = math.sqrt(2.0)
        dev = max(abs(r.ratio - root2) / root2 for r in single.rows)
        checks["single_cube_root2"] = dev <= SINGLE_CUBE_TOL
        checks["time"] = total < STAR_TAIL_CAP_S

        g.finish_checks(
            checks,
            f"4 corpora + closed form, sqrt(2) deviation {dev:.3e}, "
            f"{total:.1f}s",
        )


def test_criterion_06_two_slot_atomic(criteria, frac_hardy_unit_run):
    with criteria.guard(6) as g:
        checks = {}
        unit, total = frac_hardy_unit_run
        _ratio_gates("unit", unit, checks, trials=100)

        power, dt = _run("frac_hardy_power")
        total += dt
        _ratio_gates("power", power, checks, trials=100)

        wide, dt = _run("frac_hardy_gamma15")
        total += dt
        _ratio_gates("gamma_above_n", wide, checks)

        single, dt = _run("frac_hardy_single")
        total += dt
        by_trial = {}
        for r in single.rows:
            by_trial.setdefault(r.trial, {})[r.scale_k] = r.ratio
        drift = 0.0
        for ks in by_trial.values():
            base = ks[0]
            drift = max(drift, max(abs(v / base - 1.0) for v in ks.values()))
        checks["single_atom_dilation"] = drift <= SINGLE_ATOM_DRIFT_TOL
        checks["time"] = total < ATOMIC_CAP_S

        g.finish_checks(
            checks,
            f"unit/power/gamma=1.5 corpora, one-atom drift {drift:.3e}, "
            f"{total:.1f}s",
        )


def test_criterion_07_asymmetric_targets(criteria):
    with criteria.guard(7) as g:
        cfg = _config("frac_hardy_asym")
        report, _ = _run("frac_hardy_asym")
        checks = {}
        _ratio_gates("asym", report, checks, trials=100)

        q1, q2 = cfg.target_exponents
        inv_q = sum(1.0 / p.p_minus for p in cfg.exponents) - cfg.gamma / cfg.n
        checks["targets_differ"] = q1 != q2
        checks["target_sum"] = abs(1.0 / q1 + 1.0 / q2 - inv_q) <= TARGET_SUM_TOL

        g.finish_checks(
            checks,
            f"targets ({q1:g}, {q2:g}), slope {report.slope:.3e}",
        )


def test_criterion_08_variable_exponents(criteria, frac_hardy_unit_run,
                                         var_frac_hardy_const_run):
    with criteria.guard(8) as g:
        checks = {}
        var, total = _run("var_frac_hardy")
        _ratio_gates("log_decay", var, checks, trials=100)

        const, dt = var_frac_hardy_const_run
        total += dt
        unit, _ = frac_hardy_unit_run

        ref = {(r.trial, r.scale_k): r for r in unit.rows}
        got = {(r.trial, r.scale_k): r for r in const.rows}
        checks["degeneration_keys"] = set(ref) == set(got)
        worst = math.inf
        if set(ref) == set(got):
            worst = 0.0
            for key, r0 in ref.items():
                r1 = got[key]
                worst = max(worst,
                            abs(r1.ratio - r0.ratio) / r0.ratio,
                            abs(r1.lhs - r0.lhs) / r0.lhs)
        checks["degeneration_match"] = worst <= DEGENERATION_TOL
        checks["time"] = total < VAR_CAP_S

        g.finish_checks(
            checks,
            f"log-decay corpus slope {var.slope:.3e}, "
            f"constant-exponent mismatch {worst:.3e}",
        )


def test_criterion_09_pointwise_diagnostics(criteria, capsys):
    with criteria.guard(9) as g:
        # the kernel of frac_hardy_unit: m = 2, n = 1, gamma = 1/2, order 2
        code = cli_main(["kernel-check", "--m", "2", "--n", "1",
                         "--gamma", "0.5", "--order", "2"])
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        vals = diag["product_bound"] + diag["taylor_remainder"]
        checks = {
            "diag.exit": code == 0,
            "diag.configs": diag["configs"] == 20,
            "diag.bounded": all(math.isfinite(v) and v > 0.0 for v in vals),
            "diag.product_drift": diag["product_drift"] <= DRIFT_TOL,
            "diag.taylor_drift": diag["taylor_drift"] <= DRIFT_TOL,
        }

        ann, _ = _run("annuli")
        lo, hi = ann.band
        level_ok = all(lo <= pair[0] and pair[1] <= hi
                       for pair in ann.per_level.values())
        cube_ok = all(lo <= pair[0] and pair[1] <= hi
                      for pair in ann.per_cube.values())
        checks.update({
            "annuli.passed": ann.passed,
            "annuli.partition": ann.partition_ok,
            "annuli.band": lo <= ann.lower and ann.upper <= hi,
            "annuli.level_independent": level_ok,
            "annuli.cube_independent": cube_ok,
            "annuli.scale_drift": ann.scale_drift <= ANNULI_DRIFT_TOL,
            "annuli.doubling_drift": (
                ann.metadata["doubling_drift"] <= ANNULI_DRIFT_TOL),
        })

        g.finish_checks(
            checks,
            f"drifts {diag['product_drift']:.2e}/{diag['taylor_drift']:.2e}, "
            f"annuli [{ann.lower:.4f}, {ann.upper:.4f}] in "
            f"[{lo:.4f}, {hi:.4f}]",
        )


def test_criterion_10_determinism(criteria, tmp_path):
    with criteria.guard(10) as g:
        checks = {}
        for name, experiment in (("star_sum_single", "star-sum"),
                                 ("tail_sum_single", "tail-sum")):
            blobs = []
            for rep in range(2):
                out = tmp_path / f"{name}-{rep}"
                out.mkdir()
                code = cli_main(["verify", experiment,
                                 "--config", str(CONFIG_DIR / f"{name}.json"),
                                 "--out", str(out)])
                checks[f"{name}.exit{rep}"] = code == 0
                blobs.append((
                    (out / f"{experiment}.trials.csv").read_bytes(),
                    (out / f"{experiment}.report.json").read_bytes()))
            checks[f"{name}.csv_bytes"] = blobs[0][0] == blobs[1][0]
            checks[f"{name}.json_bytes"] = blobs[0][1] == blobs[1][1]

        g.finish_checks(checks, "repeat runs byte-identical on two registries")
