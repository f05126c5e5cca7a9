import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fracharm.experiments
import fracharm.maximal
import fracharm.varexp
from fracharm.config import ExperimentConfig
from fracharm.experiments import (
    EXPERIMENTS,
    HypothesisError,
    _mollifier_for,
    run_experiment,
)
from fracharm.grid import Cube, GridFunction, integrate
from fracharm.kernels import KenigSteinKernel, apply_frac_operator
from fracharm.maximal import _bump, hl_maximal
from fracharm.varexp import derive_system, luxemburg_norm, rubio_iterate
from fracharm.weights import Weight


def make(d=None, **kw):
    base = {}
    base.update(d or {})
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def small_sweep(k=1):
    return {"k_min": -k, "k_max": k}


ROOT = Path(__file__).resolve().parent.parent

SINGLE_CUBE = {"count": 4, "atoms_per_trial": [1, 1], "lambda_range": [1.0, 1.0]}


class TestStarSum:
    def test_single_cube_ratio_is_sqrt2(self):
        # gamma 1/2, p 1, q 2: LHS = side^(1/2) * |2*side|^(1/2) = sqrt(2)*side
        cfg = make(experiment="star-sum", gamma=0.5, p=1.0,
                   corpus=dict(SINGLE_CUBE, seed=3), sweep=small_sweep())
        rep = run_experiment(cfg)
        assert rep.passed
        for row in rep.rows:
            assert row.ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_corpus_run_passes_with_flat_slope(self):
        cfg = make(experiment="star-sum", gamma=0.5, p=1.0,
                   corpus={"seed": 3, "count": 8}, sweep=small_sweep())
        rep = run_experiment(cfg)
        assert rep.passed and abs(rep.slope) < 1e-9
        assert rep.metadata["dilation_drift"] < 1e-9

    def test_explicit_q_must_match_relation(self):
        with pytest.raises(HypothesisError, match="1/q"):
            run_experiment(make(experiment="star-sum", gamma=0.5, p=1.0, q=3.0,
                                corpus={"seed": 3, "count": 2}))

    def test_unstable_weight_rejected(self):
        # |x|^(-0.3) at reverse-Hoelder order 4 integrates x^(-1.2): blows up
        cfg = make(experiment="star-sum", gamma=0.75, p=1.0,
                   weights=[{"kind": "power", "exponent": -0.3}],
                   corpus={"seed": 3, "count": 2})
        with pytest.raises(HypothesisError, match="reverse-Hoelder"):
            run_experiment(cfg)

    def test_halving_h_stable(self):
        base = make(experiment="star-sum", gamma=0.5, p=1.0,
                    corpus={"seed": 3, "count": 6}, sweep={"ks": [0]})
        fine = dataclasses.replace(base, h=base.h / 2.0)
        r0, r1 = run_experiment(base), run_experiment(fine)
        assert abs(r1.max_ratio / r0.max_ratio - 1.0) <= 0.10


# Off-origin power weights: the centre moves with the grid, so |x - c|^b
# stays homogeneous and every run that samples it is exactly scale-covariant.
OFF_ORIGIN = {"kind": "power", "exponent": 0.3, "center": [0.7]}


@pytest.mark.parametrize("cfg", [
    dict(experiment="star-sum", gamma=0.5, p=1.5,
         weights=[dict(OFF_ORIGIN, exponent=0.5, center=[3.0])],
         corpus={"seed": 3, "count": 8}, sweep=small_sweep()),
    dict(experiment="fefferman-stein", p=2.0, vector_r=2.0, vector_count=2,
         weights=[OFF_ORIGIN], corpus={"seed": 3, "count": 3},
         sweep=small_sweep()),
    dict(experiment="frac-hardy", m=2, gamma=0.5, exponents=[1.0, 1.0],
         weights=[OFF_ORIGIN, OFF_ORIGIN],
         grid={"box": [[-2, 2]], "h": 0.03125},
         corpus={"seed": 11, "count": 3, "side_exponents": [-3, -1]},
         sweep=small_sweep()),
], ids=lambda d: d["experiment"])
def test_off_origin_weight_dilates_with_grid(cfg):
    rep = run_experiment(make(cfg))
    assert abs(rep.slope) <= 1e-12
    assert rep.metadata["dilation_drift"] <= 1e-12


@pytest.mark.parametrize("stem", [
    "star_sum_unit", "tail_sum_unit", "fefferman_stein_offdiag",
    "frac_hardy_unit", "bounded_slots", "var_frac_hardy"])
def test_rows_are_trial_major_in_sweep_order(stem):
    # the trials CSV lists the rows in this order: every scale of trial 0 in
    # sweep order, then trial 1; the off-diagonal Fefferman-Stein row of
    # trial t (numbered count + t) comes right after the diagonal row (t, k)
    payload = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
    payload["corpus"]["count"] = 2
    payload["sweep"] = {"ks": [0, -1]}  # unsorted, so sweep order shows
    rep = run_experiment(make(payload))
    expected = [(t, k) for t in range(2) for k in (0, -1)]
    if stem == "fefferman_stein_offdiag":
        expected = [row for t, k in expected for row in ((t, k), (2 + t, k))]
    assert [(r.trial, r.scale_k) for r in rep.rows] == expected


# Weighted runs at small corpora: fefferman-stein with its off-diagonal pairing.
WEIGHTED_RUNS = [
    dict(experiment="star-sum", gamma=0.5, p=1.0,
         corpus={"seed": 3, "count": 3}, sweep=small_sweep()),
    dict(experiment="tail-sum", gamma=0.5, p=1.0, epsilon=3.0, r=1.0,
         corpus={"seed": 3, "count": 3}, sweep=small_sweep()),
    dict(experiment="fefferman-stein", p=4.0 / 3.0, vector_r=2.0,
         vector_count=2, gamma=0.5, corpus={"seed": 3, "count": 2},
         sweep=small_sweep()),
    dict(experiment="frac-hardy", m=2, gamma=0.5, exponents=[1.0, 1.0],
         grid={"box": [[-2, 2]], "h": 0.03125},
         corpus={"seed": 11, "count": 2, "side_exponents": [-3, -1]},
         sweep=small_sweep()),
]


@pytest.mark.parametrize("cfg", WEIGHTED_RUNS, ids=lambda d: d["experiment"])
def test_constant_weight_leaves_ratios(cfg):
    # both sides scale by the same power of a constant weight, so every
    # ratio matches the unit run, the closed-form tail of tail-sum included
    unit = run_experiment(make(cfg))
    four = {"kind": "constant", "value": 4.0}
    scaled = run_experiment(make(cfg, weights=[four] * cfg.get("m", 1)))
    assert len(scaled.rows) == len(unit.rows)
    for a, b in zip(unit.rows, scaled.rows):
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("cfg", [WEIGHTED_RUNS[0], WEIGHTED_RUNS[3]],
                         ids=lambda d: d["experiment"])
def test_weight_samples_shared_by_trials(cfg, monkeypatch):
    # weights are sampled once per sweep scale, not once per trial
    calls = []
    real = Weight.sample

    def counting(self, box, h):
        calls.append(1)
        return real(self, box, h)

    monkeypatch.setattr(Weight, "sample", counting)
    power = {"kind": "power", "exponent": 0.25}
    counts = []
    for count in (2, 4):
        calls.clear()
        corpus = dict(cfg["corpus"], count=count)
        run_experiment(make(cfg, weights=[power] * cfg.get("m", 1),
                            corpus=corpus))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("cfg", [
    WEIGHTED_RUNS[3],
    dict(experiment="var-frac-hardy", m=2, gamma=0.5,
         exponents=[{"kind": "log-decay", "limit": 1.5, "amplitude": 0.5}] * 2,
         grid={"box": [[-2, 2]], "h": 0.03125},
         corpus={"seed": 11, "count": 2, "side_exponents": [-3, -1]},
         sweep=small_sweep()),
], ids=lambda d: d["experiment"])
def test_mollifier_bumps_shared_by_trials(cfg):
    # each (scale, grid step) bump is built once per run, not once per trial
    builds = []
    for count in (2, 4):
        _bump.cache_clear()
        run_experiment(make(cfg, corpus=dict(cfg["corpus"], count=count)))
        builds.append(_bump.cache_info().misses)
    assert builds[0] == builds[1] > 0


class TestTailSum:
    def test_single_cube_closed_form(self):
        # gamma 1/2, eps 3, q 2: ratio = 1/sqrt(2) for any single unit-lambda cube
        cfg = make(experiment="tail-sum", gamma=0.5, p=1.0, epsilon=3.0,
                   r=1.0, corpus=dict(SINGLE_CUBE, seed=3),
                   sweep=small_sweep())
        rep = run_experiment(cfg)
        assert rep.passed
        for row in rep.rows:
            assert row.ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=2e-2)

    def test_epsilon_below_threshold_rejected(self):
        with pytest.raises(HypothesisError, match="epsilon"):
            run_experiment(make(experiment="tail-sum", gamma=0.5, p=1.0,
                                epsilon=1.2, r=1.5,
                                corpus={"seed": 3, "count": 2}))

    def test_tail_share_recorded(self):
        cfg = make(experiment="tail-sum", gamma=0.5, p=1.0, epsilon=3.0,
                   r=1.0, corpus={"seed": 3, "count": 4}, sweep={"ks": [0]})
        rep = run_experiment(cfg)
        assert 0.0 < rep.metadata["max_tail_share"] < 0.5

    def test_halving_h_stable(self):
        base = make(experiment="tail-sum", gamma=0.5, p=1.0, epsilon=3.0,
                    r=1.0, corpus={"seed": 3, "count": 6}, sweep={"ks": [0]})
        fine = dataclasses.replace(base, h=base.h / 2.0)
        r0, r1 = run_experiment(base), run_experiment(fine)
        assert abs(r1.max_ratio / r0.max_ratio - 1.0) <= 0.10

    def test_weighted_needs_origin_weight(self):
        cfg = make(experiment="tail-sum", gamma=0.5, p=1.0, epsilon=3.0,
                   r=1.5, corpus={"seed": 3, "count": 2},
                   weights=[{"kind": "power", "exponent": 0.25,
                             "center": [1.0]}])
        with pytest.raises(HypothesisError, match="origin"):
            run_experiment(cfg)


class TestAnnuli:
    def run(self, **kw):
        cfg = make(experiment="annuli", s=2.0,
                   corpus={"seed": 3, "count": 6, "side_exponents": [-2, 0]},
                   sweep=small_sweep(), **kw)
        return run_experiment(cfg)

    def test_partition_and_band(self):
        rep = self.run()
        assert rep.passed and rep.partition_ok
        lo, hi = rep.band
        assert lo == pytest.approx(3.0 ** -2) and hi == pytest.approx(3.0 ** 2)
        assert lo < rep.lower <= rep.upper < hi

    def test_per_level_intervals_uniform(self):
        # every level interval sits inside the global one
        rep = self.run()
        for lo, hi in rep.per_level.values():
            assert rep.lower <= lo <= hi <= rep.upper

    def test_scale_and_doubling_drift_tiny(self):
        rep = self.run()
        assert rep.scale_drift <= 0.02
        assert rep.metadata["doubling_drift"] <= 0.02

    def test_rows_carry_piece_extremes(self):
        rep = self.run()
        for row in rep.rows:
            assert 0.0 < row.lhs <= row.rhs
            assert row.ratio == pytest.approx(row.lhs / row.rhs)

    def test_dimension_two_rejected(self):
        with pytest.raises(HypothesisError, match="dimension one"):
            run_experiment(make(experiment="annuli", n=2, s=1.0,
                                corpus={"seed": 3, "count": 2}))


class TestFeffermanStein:
    def test_diagonal_and_offdiagonal_pass(self):
        cfg = make(experiment="fefferman-stein", p=4.0 / 3.0, vector_r=2.0,
                   vector_count=3, gamma=0.5,
                   corpus={"seed": 3, "count": 3}, sweep={"ks": [0, 1]})
        rep = run_experiment(cfg)
        assert rep.passed
        assert rep.metadata["offdiagonal_trials"] == 3
        assert rep.metadata["q"] == pytest.approx(4.0)
        trials = {r.trial for r in rep.rows}
        assert trials == {0, 1, 2, 3, 4, 5}  # 3 diagonal + 3 shifted by count

    def test_maximal_dominates_identity(self):
        # diagonal ratios are at least 1: M f >= f at cell centers
        cfg = make(experiment="fefferman-stein", p=2.0, vector_r=2.0,
                   vector_count=2, corpus={"seed": 3, "count": 3},
                   sweep={"ks": [0]})
        rep = run_experiment(cfg)
        assert all(r.ratio >= 1.0 - 1e-12 for r in rep.rows)

    def test_pairing_needs_room(self):
        with pytest.raises(HypothesisError, match="gamma"):
            run_experiment(make(experiment="fefferman-stein", p=2.0,
                                vector_r=2.0, gamma=0.5,
                                corpus={"seed": 3, "count": 2}))


FH_GRID = {"box": [[-2, 2]], "h": 0.015625}


def fh_config(**kw):
    d = dict(experiment="frac-hardy", m=2, gamma=0.5, exponents=[1.0, 1.0],
             grid=FH_GRID,
             corpus={"seed": 11, "count": 4, "side_exponents": [-3, -1]},
             sweep=small_sweep())
    d.update(kw)
    return make(d)


class TestFracHardy:
    def test_small_corpus_passes(self):
        rep = run_experiment(fh_config())
        assert rep.passed
        assert rep.metadata["p"] == pytest.approx(0.5)
        assert rep.metadata["q"] == pytest.approx(2.0 / 3.0)
        assert rep.metadata["dilation_drift"] <= 1e-6

    def test_gamma_split_sums_exactly(self):
        meta = run_experiment(fh_config()).metadata
        assert sum(meta["gamma_split"]) == meta["gamma"]

    def test_weighted_moment_order_raised(self):
        rep = run_experiment(fh_config(
            weights=[{"kind": "power", "exponent": 0.25},
                     {"kind": "power", "exponent": 0.25}]))
        assert rep.passed
        assert rep.metadata["moment_order"] >= 2
        assert rep.metadata["rw"] == [1.5, 1.5]

    def test_asymmetric_targets(self):
        rep = run_experiment(fh_config(
            target_exponents=[1.25, 1.4285714285714286]))
        assert rep.passed
        g1, g2 = rep.metadata["gamma_split"]
        assert g1 == pytest.approx(0.2) and g1 + g2 == 0.5

    def test_bad_target_sum_rejected(self):
        with pytest.raises(HypothesisError, match="target"):
            run_experiment(fh_config(target_exponents=[1.25, 1.25]))

    def test_gamma_above_range_rejected(self):
        with pytest.raises(HypothesisError, match="gamma"):
            run_experiment(fh_config(gamma=2.5))

    def test_variable_exponent_slot_rejected(self):
        with pytest.raises(HypothesisError, match="constant"):
            run_experiment(fh_config(
                exponents=[1.0, {"kind": "log-decay", "limit": 1.2,
                                 "amplitude": 0.3}]))


class TestBoundedSlots:
    def config(self, **kw):
        d = dict(experiment="bounded-slots", m=2, gamma=0.5, bounded_slots=1,
                 exponents=[1.0], grid=FH_GRID,
                 corpus={"seed": 11, "count": 4, "side_exponents": [-3, -1]},
                 sweep=small_sweep())
        d.update(kw)
        return make(d)

    def test_small_corpus_passes(self):
        rep = run_experiment(self.config())
        assert rep.passed and rep.metadata["q"] == pytest.approx(2.0)

    def test_gamma_at_endpoint_rejected(self):
        with pytest.raises(HypothesisError, match="m - l"):
            run_experiment(self.config(gamma=1.5))

    def test_slot_count_bounds(self):
        with pytest.raises(HypothesisError, match="bounded_slots"):
            run_experiment(self.config(bounded_slots=2, exponents=[]))

    def test_explicit_q_checked(self):
        with pytest.raises(HypothesisError,
                           match=r"1/q = sum\(1/p_i\) - gamma/n"):
            run_experiment(self.config(q=123))

    def test_operator_linear_in_bounded_slot(self):
        # doubling g doubles T(f, g): the ratio against sup|g| is invariant
        box, h = ((-2.0, 2.0),), 2.0 ** -5
        kernel = KenigSteinKernel(m=2, n=1, gamma=0.5)
        f = Cube((0.25,), 0.5).indicator(box, h)
        g = Cube((-0.5,), 0.25).indicator(box, h)
        g2 = g.with_samples(2.0 * g.samples)
        t1 = apply_frac_operator(kernel, [f, g])
        t2 = apply_frac_operator(kernel, [f, g2])
        assert np.allclose(t2.samples, 2.0 * t1.samples, rtol=1e-13, atol=0.0)


class TestVarFracHardy:
    def test_log_decay_run_passes(self):
        cfg = make(experiment="var-frac-hardy", m=2, gamma=0.5,
                   exponents=[{"kind": "log-decay", "limit": 1.2,
                               "amplitude": 0.3}] * 2,
                   grid=FH_GRID,
                   corpus={"seed": 5, "count": 4, "side_exponents": [-3, -1]},
                   sweep=small_sweep())
        rep = run_experiment(cfg)
        assert rep.passed
        lo, hi = rep.metadata["target_band"]
        assert 0 < lo < hi

    def test_constant_exponents_match_frac_hardy(self):
        corpus = {"seed": 11, "count": 4, "side_exponents": [-3, -1]}
        a = run_experiment(make(experiment="frac-hardy", m=2, gamma=0.5,
                                exponents=[1.0, 1.0], grid=FH_GRID,
                                corpus=corpus, sweep=small_sweep()))
        b = run_experiment(make(experiment="var-frac-hardy", m=2, gamma=0.5,
                                exponents=[1.0, 1.0], grid=FH_GRID,
                                corpus=corpus, sweep=small_sweep()))
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.trial, ra.scale_k) == (rb.trial, rb.scale_k)
            assert rb.ratio == pytest.approx(ra.ratio, rel=1e-12)

    def test_no_room_rejected(self):
        with pytest.raises(HypothesisError, match="gamma/n"):
            run_experiment(make(experiment="var-frac-hardy", m=1, gamma=0.9,
                                exponents=[1.2], grid=FH_GRID,
                                corpus={"seed": 5, "count": 2}))


EXTRAP_BASE = dict(experiment="extrapolation", m=2, gamma=0.25,
                   exponents=[4.0, 4.0],
                   grid={"box": [[-8, 8]], "h": 0.03125},
                   corpus={"seed": 7, "count": 1, "atoms_per_trial": [2, 2]})
EXTRAP_CONST = json.loads((ROOT / "configs" / "extrapolation_const.json").read_text())
EXTRAP_DISTINCT = dict(EXTRAP_CONST, exponents=[4.0, 3.0])


class TestExtrapolation:
    def test_chain_passes_with_modest_constants(self):
        rep = run_experiment(make(EXTRAP_BASE))
        assert rep.passed
        names = [s.name for s in rep.steps]
        assert names[0] == "power_rescale" and "iteration_domination" in names
        gated = [s for s in rep.steps if s.name != "weighted_hypothesis"]
        assert all(s.constant <= 4.0 for s in gated)
        assert math.isfinite(rep.hypothesis_constant)

    def test_domination_step_holds(self):
        rep = run_experiment(make(EXTRAP_BASE))
        dom = next(s for s in rep.steps if s.name == "iteration_domination")
        assert dom.gate.passed and dom.constant <= 1.0 + 1e-9

    def test_witness_modular_is_one(self):
        rep = run_experiment(make(EXTRAP_BASE))
        wm = next(s for s in rep.steps if s.name == "witness_modular")
        assert wm.lhs == pytest.approx(1.0, abs=1e-5)

    def test_rubio_metadata_per_slot(self):
        rep = run_experiment(make(EXTRAP_BASE))
        assert len(rep.metadata["rubio"]) == 2
        for entry in rep.metadata["rubio"]:
            assert entry["opnorm"] > 0 and entry["tail"] >= 0

    def test_ladder_runs_once_per_slot(self, monkeypatch):
        # one orbit of depth + 1 = 9 ladder calls per distinct slot.  Norms:
        # ||F||, the witness's two; per distinct slot ||u||, ||Mu||, ||M^2 u||,
        # ||R||, ||M^9 u|| and ||W||; per slot the two of its maximal function
        counts = {}

        def counting(name, real):
            def fn(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return fn

        for name in ("hl_maximal", "luxemburg_norm"):
            real = getattr(fracharm.varexp, name)
            for mod in (fracharm.maximal, fracharm.varexp, fracharm.experiments):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting(name, real))
        for base, ladders, norms in ((EXTRAP_CONST, 9, 13), (EXTRAP_DISTINCT, 18, 19)):
            counts.update(hl_maximal=0, luxemburg_norm=0)
            assert run_experiment(make(base)).passed
            assert counts["hl_maximal"] == ladders
            assert counts["luxemburg_norm"] <= norms

    @pytest.mark.parametrize("base", [EXTRAP_CONST, EXTRAP_DISTINCT],
                             ids=["equal-slots", "distinct-slots"])
    def test_slots_match_a_pass_per_slot(self, monkeypatch, base):
        # every slot recomputed on its own from the standalone functions,
        # with A written out as 1.5 times the worst of the quotients
        # ||Mu||/||u|| and ||M^2 u||/||Mu||: a pass shared by equal slots
        # must give each slot exactly these bits.  The A1 and RH fields of a
        # rubio entry are measured on R and the tail, which are checked here
        seen = {}
        honest = fracharm.experiments.dual_witness

        def spy(G, qbar):
            seen["G"] = G
            seen["h"], norm = honest(G, qbar)
            return seen["h"], norm

        monkeypatch.setattr(fracharm.experiments, "dual_witness", spy)
        cfg = make(base)
        rep = run_experiment(cfg)
        assert rep.passed
        steps = {s.name: s for s in rep.steps}
        rubio = rep.metadata["rubio"]
        scalars = tuple(0.75 * p.p_minus for p in cfg.exponents)
        system = derive_system(cfg.exponents, scalars, cfg.gamma,
                               window=cfg.box, seed=cfg.corpus.seed)
        G, h_fn = seen["G"], seen["h"]
        coords = G.coords()
        qbar_c = system.target_bar.conjugate()
        D = np.ones_like(h_fn.samples)
        for i, (s_i, q_i) in enumerate(zip(scalars, system.slot_scalars)):
            sigma = system.sigmas[i]
            pbar_c = system.p_bars[i].conjugate()
            expo = qbar_c.evaluate(coords) * q_i / (pbar_c.evaluate(coords) * s_i)
            u = G.with_samples(h_fn.samples ** expo)
            Mu = hl_maximal(u)
            A = 1.5 * max(luxemburg_norm(Mu, sigma) / luxemburg_norm(u, sigma),
                          luxemburg_norm(hl_maximal(Mu), sigma)
                          / luxemburg_norm(Mu, sigma))
            R = rubio_iterate(u, sigma, A, 8)
            nxt = u
            for _ in range(9):
                nxt = hl_maximal(nxt)
            tail = luxemburg_norm(nxt, sigma) / (2.0 * A) ** 9
            surr = luxemburg_norm(R, sigma) ** (s_i / q_i)
            lux_w = luxemburg_norm(R.power(s_i / q_i), pbar_c)
            unit = steps[f"slot_unit_norm_{i}"]
            assert (unit.lhs, unit.rhs) == (luxemburg_norm(u, sigma), 1.0)
            rdf = steps[f"rdf_norm_{i}"]
            assert (rdf.lhs, rdf.rhs) == (surr, 1.0)
            assert rdf.bound == 2.0 ** (s_i / q_i) * (1.0 + tail) * (1.0 + 1e-9)
            wn = steps[f"weight_norm_{i}"]
            assert (wn.lhs, wn.rhs) == (lux_w, surr)
            entry = rubio[i]
            assert (entry["opnorm"], entry["tail"]) == (A, tail)
            assert entry["domination_margin"] == float(np.min(R.samples - u.samples))
            assert entry["norm_ratio"] == (luxemburg_norm(R, sigma)
                                           / luxemburg_norm(u, sigma))
            assert entry["metadata"] == dict(
                entry["metadata"], opnorm=A, depth=8, power=s_i / q_i,
                rh_order=q_i / s_i,
                tail_sup=float(np.max(nxt.samples / (2.0 * A) ** 9)))
            D = D * R.samples ** (system.target_scalar / q_i)
        dom = steps["iteration_domination"]
        assert dom.lhs == integrate(G * h_fn)
        assert dom.rhs == integrate(G * G.with_samples(D))
        # the pass key separates slots that differ
        assert (rubio[0] == rubio[1]) == (base is EXTRAP_CONST)


class TestHarness:
    @pytest.mark.parametrize("base", [
        dict(experiment="annuli", s=2.0, corpus={"seed": 3, "count": 2}),
        dict(experiment="bounded-slots", m=2, gamma=0.5, bounded_slots=1,
             exponents=[1.0], grid=FH_GRID, corpus={"seed": 11, "count": 2}),
        dict(experiment="var-frac-hardy", m=2, gamma=0.5,
             exponents=[1.0, 1.0], grid=FH_GRID,
             corpus={"seed": 5, "count": 2}),
        EXTRAP_BASE,
    ], ids=["annuli", "bounded-slots", "var-frac-hardy", "extrapolation"])
    def test_weights_refused_where_unused(self, base):
        # these runs have no weighted side; an unread weight would report
        # an unweighted run as if it were weighted
        power = {"kind": "power", "exponent": 0.5}
        cfg = make(dict(base, weights=[power] * base.get("m", 1)))
        with pytest.raises(HypothesisError, match="takes no weights"):
            run_experiment(cfg)

    def test_unknown_experiment(self):
        with pytest.raises(HypothesisError, match="unknown experiment"):
            run_experiment(make(experiment="mystery"))

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "star-sum", "tail-sum", "annuli", "fefferman-stein",
            "frac-hardy", "bounded-slots", "var-frac-hardy", "extrapolation"}

    def test_runs_are_deterministic(self):
        cfg = make(experiment="star-sum", gamma=0.5, p=1.0,
                   corpus={"seed": 3, "count": 5}, sweep=small_sweep())
        assert run_experiment(cfg).rows == run_experiment(cfg).rows

    def test_thread_count_does_not_change_rows(self, monkeypatch):
        # trials run serially in trial order: FRACHARM_THREADS is not read,
        # so any value, even a malformed one, leaves the rows unchanged
        cfg = fh_config()
        monkeypatch.delenv("FRACHARM_THREADS", raising=False)
        serial = run_experiment(cfg).rows
        monkeypatch.setenv("FRACHARM_THREADS", "many")
        assert run_experiment(cfg).rows == serial

    def test_seed_changes_rows(self):
        cfg = make(experiment="star-sum", gamma=0.5, p=1.0,
                   corpus={"seed": 3, "count": 5}, sweep={"ks": [0]})
        other = cfg.with_seed(4)
        assert run_experiment(cfg).rows != run_experiment(other).rows

    def test_mollifier_ladder_needs_room(self):
        with pytest.raises(HypothesisError, match="ladder"):
            _mollifier_for(((-1.0, 1.0),), 0.5)
