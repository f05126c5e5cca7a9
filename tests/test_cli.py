import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracharm
import fracharm.cli
from fracharm.cli import DIAGNOSTIC_CONFIGS, DRIFT_TOL, cli_main

STAR = {
    "experiment": "star-sum",
    "gamma": 0.5,
    "p": 1.0,
    "corpus": {"seed": 3, "count": 4},
    "sweep": {"k_min": -1, "k_max": 1},
}
ANNULI = {
    "experiment": "annuli", "s": 2.0,
    "corpus": {"seed": 3, "count": 6, "side_exponents": [-2, 0]},
    "sweep": {"k_min": -1, "k_max": 1},
}
CHAIN = {
    "experiment": "extrapolation", "m": 2, "gamma": 0.25,
    "exponents": [4.0, 4.0],
    "grid": {"box": [[-8, 8]], "h": 0.03125},
    "corpus": {"seed": 7, "count": 1, "atoms_per_trial": [2, 2]},
}


def run_python(*argv, timeout):
    """``python ARGV`` in a child process that imports this fracharm, killed
    after ``timeout`` seconds, so a hang fails the test instead of the suite."""
    env = dict(os.environ)
    src = str(Path(fracharm.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


def run_module(*argv, timeout):
    """``python -m fracharm.cli ARGV`` in a child process."""
    return run_python("-m", "fracharm.cli", *argv, timeout=timeout)


def write_config(tmp_path, payload, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def tightest(report):
    """The suffix a passing verdict line carries: the gate with the least
    margin, read from the written report."""
    g = min((g for g in report["gates"] if g["margin"] is not None),
            key=lambda g: g["margin"])
    return f"tightest={g['name']} margin={g['margin']:.3g}"


class TestVerify:
    def test_pass_writes_files_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STAR)
        out = tmp_path / "out"
        code = cli_main(["verify", "star-sum", "--config", cfg,
                         "--out", str(out)])
        assert code == 0
        assert (out / "star-sum.report.json").exists()
        assert (out / "star-sum.trials.csv").exists()
        stdout = capsys.readouterr().out
        assert "star-sum: PASS" in stdout
        report = json.loads((out / "star-sum.report.json").read_text())
        assert report["passed"] is True and report["kind"] == "ratio"

    def test_csv_shape(self, tmp_path):
        cfg = write_config(tmp_path, STAR)
        cli_main(["verify", "star-sum", "--config", cfg, "--out",
                  str(tmp_path)])
        lines = (tmp_path / "star-sum.trials.csv").read_text().splitlines()
        assert lines[0] == "trial,scale_k,lhs,rhs,ratio"
        assert len(lines) == 1 + 4 * 3  # 4 trials, sweep of 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "-1"
        assert float(first[4]) == float(first[2]) / float(first[3])

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, STAR)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["verify", "star-sum", "--config", cfg,
                         "--out", str(a)]) == 0
        assert cli_main(["verify", "star-sum", "--config", cfg,
                         "--out", str(b)]) == 0
        assert ((a / "star-sum.trials.csv").read_bytes()
                == (b / "star-sum.trials.csv").read_bytes())

    def test_seed_override_changes_trials(self, tmp_path):
        cfg = write_config(tmp_path, STAR)
        a, b = tmp_path / "a", tmp_path / "b"
        cli_main(["verify", "star-sum", "--config", cfg, "--out", str(a)])
        cli_main(["verify", "star-sum", "--config", cfg, "--seed", "99",
                  "--out", str(b)])
        assert ((a / "star-sum.trials.csv").read_bytes()
                != (b / "star-sum.trials.csv").read_bytes())

    def test_failing_gate_exits_one(self, tmp_path, capsys):
        # variable exponents are not dilation-homogeneous; an absurdly tight
        # slope gate turns the small measured trend into a FAIL verdict
        payload = {
            "experiment": "var-frac-hardy", "m": 2, "gamma": 0.5,
            "exponents": [{"kind": "log-decay", "limit": 1.2,
                           "amplitude": 0.3}] * 2,
            "grid": {"box": [[-2, 2]], "h": 0.03125},
            "corpus": {"seed": 5, "count": 3, "side_exponents": [-3, -1]},
            "tolerances": {"slope_tol": 1e-9},
        }
        cfg = write_config(tmp_path, payload)
        code = cli_main(["verify", "var-frac-hardy", "--config", cfg,
                         "--out", str(tmp_path)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "var-frac-hardy.report.json")
                            .read_text())
        assert report["passed"] is False

    def test_unknown_experiment_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STAR)
        assert cli_main(["verify", "mystery", "--config", cfg]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_config_experiment_mismatch_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STAR)
        assert cli_main(["verify", "annuli", "--config", cfg]) == 2
        assert "star-sum" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "experiment": "star-sum",\n}\n')
        assert cli_main(["verify", "star-sum", "--config", str(path)]) == 2
        assert "3:1" in capsys.readouterr().err

    def test_overflowed_side_exits_two(self, tmp_path, capsys):
        # coefficients near the float limit overflow |f|^p to inf: that is
        # bad input, not a failed gate, and no report is written
        corpus = dict(STAR["corpus"], lambda_range=[1e300, 1e300])
        cfg = write_config(tmp_path, dict(STAR, corpus=corpus))
        out = tmp_path / "out"
        code = cli_main(["verify", "star-sum", "--config", cfg,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip().splitlines()[-1].startswith("error: overflow")
        assert not (out / "star-sum.report.json").exists()
        assert not (out / "star-sum.trials.csv").exists()

    @pytest.mark.parametrize("value", [4.0, 0.25])
    def test_constant_weight_is_a1_with_constant_one(self, tmp_path, capsys, value):
        # tail-sum checks A_p at p = 1 + 1e-6, where a constant's own power
        # v^(1-p') leaves the float range; A_p is scale-invariant, so it is 1
        shipped = Path(__file__).resolve().parent.parent / "configs" / "tail_sum_unit.json"
        payload = dict(json.loads(shipped.read_text()),
                       weights=[{"kind": "constant", "value": value}])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli_main(["verify", "tail-sum", "--config", cfg,
                         "--out", str(out)]) == 0
        report = json.loads((out / "tail-sum.report.json").read_text())
        assert report["metadata"]["ap"]["constant"] == 1.0

    def test_hypothesis_rejection_exits_two(self, tmp_path, capsys):
        payload = dict(STAR, experiment="tail-sum", epsilon=1.2, r=1.5)
        cfg = write_config(tmp_path, payload)
        assert cli_main(["verify", "tail-sum", "--config", cfg]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_chain_report_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CHAIN)
        assert cli_main(["verify", "extrapolation", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        path = tmp_path / "extrapolation.report.json"
        report = json.loads(path.read_text())
        assert report["kind"] == "chain" and report["passed"] is True
        assert capsys.readouterr().out == (
            f"extrapolation: PASS final={report['final_constant']:.6g} "
            f"steps={len(report['steps'])} {tightest(report)} -> {path}\n")

    def test_ratio_report_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STAR)
        assert cli_main(["verify", "star-sum", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        path = tmp_path / "star-sum.report.json"
        report = json.loads(path.read_text())
        assert report["kind"] == "ratio"
        assert capsys.readouterr().out == (
            f"star-sum: PASS max_ratio={report['max_ratio']:.6g} "
            f"mean_ratio={report['mean_ratio']:.6g} "
            f"slope={report['trend_slope']:.3g} rows=12 {tightest(report)} "
            f"-> {path}\n")

    def test_annuli_report_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ANNULI)
        assert cli_main(["verify", "annuli", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        path = tmp_path / "annuli.report.json"
        report = json.loads(path.read_text())
        assert report["kind"] == "annuli"
        assert capsys.readouterr().out == (
            f"annuli: PASS lower={report['lower']:.6g} "
            f"upper={report['upper']:.6g} partition=True {tightest(report)} "
            f"-> {path}\n")

    @pytest.mark.parametrize("payload, message", [
        (dict(STAR, weights=[{"kind": "power", "exponent": -0.25,
                              "center": [0.001953125]}]),
         "power weight singularity falls on a cell center"),
        ({"experiment": "frac-hardy", "m": 2, "gamma": 0.5,
          "exponents": [1.0, 1.0], "grid": {"box": [[-2, 2]], "h": 0.25},
          "corpus": {"seed": 11, "count": 2, "side_exponents": [-3, -1]}},
         "smallest cube side has too few cells for the order"),
        # a spacing longer than the box tiles it with no cell; refused when
        # the config is parsed, not by the weight family the run builds
        (dict(STAR, grid={"box": [[-2, 2]], "h": 1e10}),
         "config field 'grid.box[0]': axis length is not a multiple of h"),
    ], ids=["star-sum-weight-on-cell-center", "frac-hardy-side-below-order",
            "star-sum-spacing-beyond-box"])
    def test_library_precondition_exits_two(self, tmp_path, capsys,
                                            payload, message):
        cfg = write_config(tmp_path, payload)
        code = cli_main(["verify", payload["experiment"], "--config", cfg,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err


class TestNorm:
    def samples(self, tmp_path, values):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        return str(path)

    def test_constant_exponent_matches_quadrature(self, tmp_path, capsys):
        vals = [1.0, 2.0, 2.0, 1.0]
        path = self.samples(tmp_path, vals)
        assert cli_main(["norm", path, "--p", "2.0", "--h", "0.25"]) == 0
        printed = float(capsys.readouterr().out)
        expect = math.sqrt(sum(v * v for v in vals) * 0.25)
        assert printed == pytest.approx(expect, rel=1e-12)

    def test_variable_exponent_norm(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = self.samples(tmp_path, rng.uniform(0.0, 2.0, size=64))
        assert cli_main(["norm", path, "--p-limit", "1.5",
                         "--p-amplitude", "0.5", "--h", "0.25",
                         "--lo", "-8.0"]) == 0
        assert float(capsys.readouterr().out) > 0

    def test_power_weight(self, tmp_path, capsys):
        path = self.samples(tmp_path, [1.0] * 8)
        assert cli_main(["norm", path, "--p", "1.0", "--h", "1.0",
                         "--lo", "0.0", "--power-weight", "1.0"]) == 0
        # integral of x over [0,8] at cell centers: sum (i+1/2) = 32
        assert float(capsys.readouterr().out) == pytest.approx(32.0)

    def test_exponent_flags_are_exclusive(self, tmp_path, capsys):
        path = self.samples(tmp_path, [1.0])
        assert cli_main(["norm", path, "--p", "2.0", "--p-limit", "1.5",
                         "--p-amplitude", "0.2"]) == 2
        assert cli_main(["norm", path]) == 2

    def test_missing_file(self, tmp_path):
        assert cli_main(["norm", str(tmp_path / "nope.csv"), "--p", "2"]) == 2

    def test_subnormal_variable_exponent_returns(self, tmp_path):
        # a bracket that halves toward 1e-320 underflows and never closes;
        # the norm must come back positive and finite within seconds
        path = self.samples(tmp_path, [1e-320, 0.0])
        res = run_module("norm", path, "--p-limit", "1.5", "--p-amplitude",
                         "1.0", "--h", "0.25", timeout=60)
        assert res.returncode == 0, res.stderr
        assert 0.0 < float(res.stdout) < math.inf

    def test_subnormal_constant_exponent_matches_luxemburg(self, tmp_path, capsys):
        # |f|^2.5 underflows to 0 on these samples; the Lp norm keeps their
        # digits and agrees with the Luxemburg norm at the constant exponent
        path = self.samples(tmp_path, [1e-320, 0.0])
        assert cli_main(["norm", path, "--p", "2.5", "--h", "0.25"]) == 0
        lp = float(capsys.readouterr().out)
        assert cli_main(["norm", path, "--p-limit", "2.5", "--p-amplitude",
                         "0.0", "--h", "0.25"]) == 0
        assert lp == float(capsys.readouterr().out) == 5.74e-321

    def test_overflowing_variable_exponent_exits_two(self, tmp_path, capsys):
        path = self.samples(tmp_path, [1e300, 1e300])
        assert cli_main(["norm", path, "--p-limit", "0.1", "--p-amplitude",
                         "1.0", "--h", "1e10"]) == 2
        assert "not a positive finite float" in capsys.readouterr().err


class TestWeightConst:
    def test_stable_power_weight(self, capsys):
        code = cli_main(["weight-const", "--kind", "power", "--exponent",
                         "0.25", "--ap", "2.0", "--rh", "2.0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ap"]["stable"] and payload["rh"]["stable"]
        assert payload["ap"]["constant"] >= 1.0

    def test_unstable_exits_one(self, capsys):
        code = cli_main(["weight-const", "--kind", "power", "--exponent",
                         "-0.3", "--rh", "4.0"])
        assert code == 1
        assert not json.loads(capsys.readouterr().out)["rh"]["stable"]

    def test_offdiagonal_constant(self, capsys):
        code = cli_main(["weight-const", "--kind", "power", "--exponent",
                         "0.125", "--apq", "1.3333333333333333", "4.0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["apq"]["constant"] > 0

    def test_no_request_exits_two(self, capsys):
        assert cli_main(["weight-const", "--kind", "constant"]) == 2

    def test_invalid_order_exits_two(self, capsys):
        assert cli_main(["weight-const", "--ap", "1.0"]) == 2

    def test_top_level_tiles_the_window(self, capsys):
        # 9 is no multiple of 2^2 or 2^1, so the top level falls to 2^0
        code = cli_main(["weight-const", "--exponent", "0.5", "--ap", "2",
                         "--lo", "-8", "--hi", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ap"]["family"]["levels"] == [-5, 0]

    def test_window_no_level_tiles_exits_two(self, capsys):
        # 0.3 is no multiple of any side 2^-5 .. 2^-3
        code = cli_main(["weight-const", "--exponent", "0.5", "--ap", "2",
                         "--lo", "0", "--hi", "0.3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no side 2^j with ceil(log2(8 h)) = -5 <= j <=" in err
        assert "= -3 tiles the window (0.0, 0.3)" in err


class TestFailedGateNamed:
    """One forced failure per report kind: exit 1, and the verdict line
    names exactly the gates the written report says failed."""

    def failed(self, tmp_path, capsys, payload):
        experiment = payload["experiment"]
        cfg = write_config(tmp_path, payload)
        assert cli_main(["verify", experiment, "--config", cfg,
                         "--out", str(tmp_path)]) == 1
        line = capsys.readouterr().out
        assert line.startswith(f"{experiment}: FAIL ")
        report = json.loads((tmp_path / f"{experiment}.report.json").read_text())
        named = line.split(" failed=")[1].split(" -> ")[0].split(",")
        assert report["passed"] is False
        assert named == [g["name"] for g in report["gates"] if not g["passed"]]
        return named

    def test_ratio_slope(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fracharm.reports, "trend_slope", lambda rows: 1.0)
        assert self.failed(tmp_path, capsys, STAR) == ["slope"]

    def test_annuli_band_lower(self, tmp_path, capsys, monkeypatch):
        honest = fracharm.experiments._annuli_scan

        def low(*args):
            pieces, exact = honest(*args)
            return [(level, 0.99 * lo, hi) for level, lo, hi in pieces], exact

        monkeypatch.setattr(fracharm.experiments, "_annuli_scan", low)
        assert self.failed(tmp_path, capsys, ANNULI) == ["band_lower"]

    def test_chain_witness_modular(self, tmp_path, capsys, monkeypatch):
        honest = fracharm.experiments.dual_witness

        def tripled(G, qbar):
            wit, norm = honest(G, qbar)
            return wit * 3.0, norm

        monkeypatch.setattr(fracharm.experiments, "dual_witness", tripled)
        assert "witness_modular" in self.failed(tmp_path, capsys, CHAIN)


class TestKernelCheck:
    def test_model_kernel_constants(self, capsys):
        code = cli_main(["kernel-check", "--m", "2", "--n", "1",
                         "--gamma", "0.5", "--samples", "100"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size_constant"] == pytest.approx(1.0, rel=1e-6)
        assert payload["smoothness_constant"] > 0

    def test_bad_gamma_exits_two(self, capsys):
        assert cli_main(["kernel-check", "--m", "1", "--n", "1",
                         "--gamma", "1.5"]) == 2

    def test_diagnostics_attached_and_ok(self, capsys):
        # frac_hardy_unit's kernel: m = 2, n = 1, gamma = 1/2, order N + 1 = 2
        code = cli_main(["kernel-check", "--m", "2", "--n", "1",
                         "--gamma", "0.5", "--order", "2", "--seed", "11"])
        payload = json.loads(capsys.readouterr().out)
        diag = payload["diagnostics"]
        assert code == 0
        # the kernel needs no order; the JSON's N is the --order it ran at
        assert payload["kernel"] == {"kind": "kenig-stein", "m": 2, "n": 1,
                                     "gamma": 0.5, "N": 2, "params": {}}
        assert [(g["name"], g["value"], g["relation"], g["bound"], g["passed"])
                for g in payload["gates"]] == [
            ("product_drift", diag["product_drift"], "<=", DRIFT_TOL, True),
            ("taylor_drift", diag["taylor_drift"], "<=", DRIFT_TOL, True)]
        assert diag["configs"] == DIAGNOSTIC_CONFIGS == 20
        assert diag["drift_tol"] == DRIFT_TOL
        assert diag["product_drift"] <= DRIFT_TOL
        assert diag["taylor_drift"] <= DRIFT_TOL
        for key in ("product_bound", "taylor_remainder"):
            assert len(diag[key]) == 20
            assert all(math.isfinite(v) and v > 0 for v in diag[key])

    @pytest.mark.parametrize("argv", [
        ["--m", "4", "--n", "1", "--gamma", "1.5"],
        ["--m", "2", "--n", "2", "--gamma", "1.0", "--order", "3"],
    ], ids=["m4-n1", "m2-n2-order3"])
    def test_largest_shapes_pass(self, capsys, argv):
        assert cli_main(["kernel-check", *argv]) == 0

    def test_gamma_near_mn_passes(self, capsys):
        # a valid kernel whose Taylor remainder is mostly cancellation, so
        # the kernel's rounding is large against the remainder itself
        assert cli_main(["kernel-check", "--m", "4", "--n", "1",
                         "--gamma", "3.999", "--order", "3"]) == 0
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["taylor_drift"] <= DRIFT_TOL / 10

    @pytest.mark.parametrize("argv, skew", [
        (["--m", "2", "--n", "1", "--gamma", "0.5", "--order", "1"], 1e-3),
        (["--m", "4", "--n", "1", "--gamma", "3", "--order", "3"], 1e-4),
    ], ids=["gamma-quarter-mn", "gamma-three-quarters-mn"])
    def test_scale_dependent_taylor_remainder_exits_one(self, capsys, monkeypatch,
                                                        argv, skew):
        # a remainder that grows by a factor 1 + skew per dilation by 2; up to
        # gamma = 3/4 mn the remainder clears the rounding floor, so the
        # drift is the skew itself
        honest = fracharm.cli.taylor_remainder_check

        def skewed(kernel, cube, slot, order, **kwargs):
            rem, term = honest(kernel, cube, slot, order, **kwargs)
            return rem * cube.side ** math.log2(1.0 + skew), term

        monkeypatch.setattr(fracharm.cli, "taylor_remainder_check", skewed)
        code = cli_main(["kernel-check", *argv])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["diagnostics"]["taylor_drift"] == pytest.approx(skew, rel=1e-6)
        assert [g["name"] for g in payload["gates"] if not g["passed"]] == [
            "taylor_drift"]

    def test_scale_dependent_product_bound_exits_one(self, capsys, monkeypatch):
        # a product bound that grows with the grid step is not dilation
        # covariant: the drift gate must see it
        honest = fracharm.cli.local_product_bound_check

        def skewed(kernel, cubes, gamma_split, x, *, box, h):
            return honest(kernel, cubes, gamma_split, x, box=box, h=h) * (1.0 + h)

        monkeypatch.setattr(fracharm.cli, "local_product_bound_check", skewed)
        code = cli_main(["kernel-check", "--m", "2", "--n", "1",
                         "--gamma", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        diag = payload["diagnostics"]
        assert code == 1
        assert diag["product_drift"] > DRIFT_TOL
        assert diag["taylor_drift"] <= DRIFT_TOL
        assert [g["name"] for g in payload["gates"] if not g["passed"]] == [
            "product_drift"]

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_product_bound_not_positive_finite_exits_one(self, capsys, monkeypatch,
                                                         value):
        monkeypatch.setattr(fracharm.cli, "local_product_bound_check",
                            lambda *args, **kwargs: value)
        assert cli_main(["kernel-check", "--m", "2", "--n", "1",
                         "--gamma", "0.5"]) == 1

    def test_mn_above_cost_cap_exits_two(self, capsys):
        assert cli_main(["kernel-check", "--m", "3", "--n", "2",
                         "--gamma", "1.0"]) == 2
        assert "cost cap" in capsys.readouterr().err


class TestLibraryPreconditions:
    """A library precondition is bad input: exit 2 with one error line,
    never exit 1 (a failed gate) and never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["norm", "{csv}", "--p", "2", "--h", "0"], "degenerate box interval"),
        (["norm", "{csv}", "--p", "-1"], "exponent p must be positive"),
        (["weight-const", "--exponent", "-2", "--ap", "2"],
         "not locally integrable"),
        (["weight-const", "--exponent", "0.5", "--ap", "2", "--lo", "0",
          "--hi", "0.01"], "empty level range"),
        (["weight-const", "--exponent", "0.5", "--ap", "2", "--lo", "1",
          "--hi", "0"], "need finite --lo < --hi"),
        (["weight-const", "--exponent", "0.5", "--ap", "2", "--h", "0"],
         "a finite --h > 0"),
        (["weight-const", "--exponent", "0.5", "--ap", "2", "--lo=-1e308",
          "--hi", "1e308"], "need finite --lo < --hi"),
        (["weight-const", "--exponent", "0.5", "--ap", "2", "--h", "1e308"],
         "a finite --h > 0"),
        (["weight-const", "--exponent", "0.5", "--ap", "2", "--lo", "-8",
          "--hi", "1", "--h", "5e-324"], "not tiled by side 2^-1071"),
        (["kernel-check", "--m", "2", "--n", "1", "--gamma", "0.5",
          "--samples", "0"], "at least one sample"),
        (["kernel-check", "--m", "2", "--n", "1", "--gamma", "0.5",
          "--order", "0"], "smoothness order must be at least 1"),
        (["verify", "star-sum", "--config", "{config}", "--out", "{csv}"],
         "File exists"),
        (["verify", "star-sum", "--config", "{config}", "--seed", "-1"],
         "config field 'corpus.seed': must be at least 0"),
    ], ids=["norm-zero-step", "norm-negative-p", "weight-nonintegrable",
            "weight-window-too-small", "weight-reversed-window",
            "weight-zero-step", "weight-window-overflows", "weight-step-overflows",
            "weight-subnormal-step", "kernel-zero-samples", "kernel-order-zero",
            "verify-out-is-a-file", "verify-negative-seed"])
    def test_exits_two_with_one_line(self, tmp_path, capsys, monkeypatch,
                                     argv, message):
        def must_not_run(cfg):
            raise AssertionError("the experiment ran before the input was checked")

        monkeypatch.setattr("fracharm.cli.run_experiment", must_not_run)
        csv = tmp_path / "v.csv"
        csv.write_text("1\n2\n3\n")
        config = write_config(tmp_path, STAR)
        code = cli_main([a.format(csv=csv, config=config) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


    def test_grid_too_large_to_allocate_exits_two(self, tmp_path, capsys):
        # h = 2^-46 on the default box asks for 2^50 cells, 8 PiB of floats:
        # numpy refuses the request before allocating anything
        payload = json.loads((CONFIG_DIR / "star_sum_single.json").read_text())
        config = write_config(tmp_path, dict(payload, grid={"h": 2.0 ** -46}))
        code = cli_main(["verify", "star-sum", "--config", config,
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Unable to allocate" in err

    @pytest.mark.parametrize("side", [-10, -9])
    def test_cubes_without_a_cell_exit_two(self, tmp_path, capsys, side):
        # at h = 2^-8 a side of 2^-10 or 2^-9 rounds to no cell: a bad
        # config, refused before any draw, not a failed gate
        corpus = dict(STAR["corpus"], side_exponents=[side, side])
        config = write_config(tmp_path, dict(STAR, corpus=corpus))
        code = cli_main(["verify", "star-sum", "--config", config,
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "owns no grid cell" in err


@pytest.fixture(scope="module")
def samples_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "v.csv"
    path.write_text("0.5\n2.0\n0.0\n1.5\n")
    return str(path)


# numeric CLI arguments, including zero, negative and reversed values; grid
# steps come from a short list so no draw asks for a huge cube family
_reals = st.floats(min_value=-3.0, max_value=5.0, allow_nan=False)
_steps = st.sampled_from(["-0.5", "0", "0.0625", "0.25", "1", "4"])
_ends = st.sampled_from(["-8", "-1", "0", "0.01", "1", "8"])


def _num(x: float) -> str:
    # plain decimals: argparse would read "-1e-05" as an option, not a value
    return f"{x:.9f}"


class TestExitCodeContract:
    """cli_main never raises and returns 0, 1 or 2 on any numbers."""

    def check(self, argv):
        code = cli_main(argv)
        assert code in (0, 1, 2), argv

    @settings(max_examples=60, deadline=None)
    @given(p=_reals, h=_steps, lo=_ends, weight=st.none() | _reals,
           variable=st.booleans(), amplitude=_reals)
    def test_norm(self, samples_csv, p, h, lo, weight, variable, amplitude):
        argv = ["norm", samples_csv, "--h", h, "--lo", lo]
        if variable:
            argv += ["--p-limit", _num(p), "--p-amplitude", _num(amplitude)]
        else:
            argv += ["--p", _num(p)]
        if weight is not None:
            argv += ["--power-weight", _num(weight)]
        self.check(argv)

    @settings(max_examples=60, deadline=None)
    @given(exponent=_reals, order=_reals, lo=_ends, hi=_ends, h=_steps,
           request=st.sampled_from(["--ap", "--rh", "--apq"]), q=_reals)
    def test_weight_const(self, exponent, order, lo, hi, h, request, q):
        argv = ["weight-const", "--exponent", _num(exponent), "--lo", lo,
                "--hi", hi, "--h", h, request, _num(order)]
        if request == "--apq":
            argv.append(_num(q))
        self.check(argv)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(-1, 3), n=st.integers(-1, 3), gamma=_reals,
           order=st.integers(-1, 3), samples=st.integers(-5, 40))
    def test_kernel_check(self, m, n, gamma, order, samples):
        self.check(["kernel-check", "--m", str(m), "--n", str(n),
                    "--gamma", _num(gamma), "--order", str(order),
                    "--samples", str(samples)])


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# shipped configs the verify fuzz mutates; every base also states the two
# corpus ranges it leaves at their defaults, so each has a pair to reverse
_FUZZ_BASES = {}
for _stem in ("star_sum_unit", "tail_sum_unit", "annuli"):
    _base = json.loads((CONFIG_DIR / f"{_stem}.json").read_text())
    _base["corpus"].setdefault("side_exponents", [-2, 1])
    _base["corpus"].setdefault("lambda_range", [0.5, 2.0])
    _FUZZ_BASES[_stem] = _base


def _numeric_paths(d, prefix=()):
    """Paths of the numeric leaves and number pairs of a config, leaving out
    the corpus count, which the fuzz draws on its own."""
    for key, value in d.items():
        path = prefix + (key,)
        if isinstance(value, dict):
            yield from _numeric_paths(value, path)
        elif isinstance(value, list):
            yield path
            for i in range(len(value)):
                yield path + (i,)
        elif isinstance(value, (int, float)) and path != ("corpus", "count"):
            yield path


def _mutated(value, kind):
    # reversal swaps the ends of a pair and leaves a single number as it is
    if kind == "reversed":
        return value[::-1] if isinstance(value, list) else value
    if isinstance(value, list):
        return [_mutated(v, kind) for v in value]
    if kind == "zero":
        return type(value)(0)
    if kind == "negative":
        return -abs(value) if value else type(value)(-1)
    return 10 ** 18 if isinstance(value, int) else 1e300  # huge


@st.composite
def _fuzzed_configs(draw):
    stem = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    cfg = json.loads(json.dumps(_FUZZ_BASES[stem]))
    paths = sorted(_numeric_paths(cfg), key=str)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        kind = draw(st.sampled_from(["zero", "negative", "reversed", "huge"]))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _mutated(node[path[-1]], kind)
    cfg["corpus"]["count"] = draw(st.integers(1, 2))
    return cfg


class TestVerifyConfigFuzz:
    """verify on mutated shipped configs: never a traceback, only 0, 1 or 2,
    and 1 exactly when the written report failed."""

    @settings(max_examples=100, deadline=None)
    @given(cfg=_fuzzed_configs())
    def test_exit_code_matches_report(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "c.json")
            with open(config, "w") as fh:
                json.dump(cfg, fh)
            out = os.path.join(tmp, "out")
            code = cli_main(["verify", cfg["experiment"], "--config", config,
                             "--out", out])
            assert code in (0, 1, 2), cfg
            report = os.path.join(out, f"{cfg['experiment']}.report.json")
            if code == 2:
                assert not os.path.exists(report), cfg
            else:
                with open(report) as fh:
                    assert json.load(fh)["passed"] is (code == 0), cfg


class TestMisc:
    def test_list_names_every_experiment(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("star-sum", "tail-sum", "annuli", "fefferman-stein",
                     "frac-hardy", "bounded-slots", "var-frac-hardy",
                     "extrapolation"):
            assert name in out

    def test_usage_error_exits_two(self, capsys):
        assert cli_main([]) == 2
        assert cli_main(["verify"]) == 2

    def test_module_entry_point(self):
        res = run_module("list", timeout=120)
        assert res.returncode == 0, res.stderr
        assert "frac-hardy" in res.stdout

    def test_import_leaves_quadrature_unloaded(self):
        # scipy.integrate serves 2-D power weights only and loads on first use
        res = run_python("-c", "import fracharm, sys; "
                         "print('scipy.integrate' in sys.modules)", timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"
