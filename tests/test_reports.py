import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracharm.reports import (
    CSV_HEADER,
    AnnuliReport,
    ChainReport,
    ChainStep,
    Gate,
    RatioReport,
    TrialRow,
    json_safe,
    trend_slope,
    verdict,
    write_report_json,
    write_trials_csv,
)


def rows_with_slope(a: float, ks=(-2, -1, 0, 1, 2)):
    # ratio = 2^(a*k) gives a log-log slope of exactly a
    return [TrialRow.make(0, k, 2.0 ** (a * k), 1.0) for k in ks]


def bounded_step(name, constant, bound):
    return ChainStep(name, constant, 1.0, constant, bound,
                     Gate(name, constant, "<=", bound))


def gate(report, name):
    return next(g for g in report.gates if g.name == name)


class TestGate:
    @pytest.mark.parametrize("relation, value, bound, margin", [
        ("<=", 1.5, 2.0, 0.25),
        ("<", 3.0, 2.0, -0.5),
        (">=", 0.12, 0.1, 0.2),
        (">", 0.5, -1.0, 1.5),
    ])
    def test_margin_is_relative_slack(self, relation, value, bound, margin):
        g = Gate("g", value, relation, bound)
        assert g.margin == pytest.approx(margin)
        assert g.passed is (margin > 0)

    @pytest.mark.parametrize("bound", [0.0, math.inf])
    def test_margin_null_at_zero_or_infinite_bound(self, bound):
        assert Gate("g", 1.0, "<", bound).margin is None

    @pytest.mark.parametrize("relation", ["<", "<=", ">", ">="])
    def test_nan_fails_every_relation(self, relation):
        assert not Gate("g", math.nan, relation, 1.0).passed

    def test_no_gates_never_passes(self):
        assert verdict(()) is False
        rep = AnnuliReport("ann", 2.0, (1 / 9, 9.0), 0.2, 0.9, {}, {}, True, 0.0, ())
        assert not rep.passed and rep.summary().endswith(" failed=(no gates)")


class TestTrialRow:
    def test_ratio_regular(self):
        r = TrialRow.make(3, -1, 6.0, 2.0)
        assert (r.trial, r.scale_k, r.ratio) == (3, -1, 3.0)

    def test_zero_rhs_positive_lhs_is_inf(self):
        assert TrialRow.make(0, 0, 1.0, 0.0).ratio == math.inf

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(TrialRow.make(0, 0, 0.0, 0.0).ratio)


class TestTrendSlope:
    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_exact_power_law_recovered(self, a):
        assert trend_slope(rows_with_slope(a)) == pytest.approx(a, abs=1e-9)

    def test_single_scale_slope_zero(self):
        rows = [TrialRow.make(t, 0, 1.0 + t, 1.0) for t in range(4)]
        assert trend_slope(rows) == 0.0

    def test_nonfinite_rows_ignored(self):
        rows = rows_with_slope(0.5) + [TrialRow.make(9, 0, 1.0, 0.0)]
        assert trend_slope(rows) == pytest.approx(0.5, abs=1e-9)


class TestRatioReport:
    def test_pass_requires_small_slope(self):
        good = RatioReport.from_rows("x", rows_with_slope(0.05), 0.1)
        bad = RatioReport.from_rows("x", rows_with_slope(0.5), 0.1)
        assert good.passed and not bad.passed

    def test_pass_requires_positive_rhs(self):
        rows = rows_with_slope(0.0) + [TrialRow.make(9, 0, 1.0, 0.0)]
        rep = RatioReport.from_rows("x", rows, 0.1)
        assert not rep.passed and rep.max_ratio == math.inf

    def test_nan_ratio_poisons_max(self):
        rows = rows_with_slope(0.0) + [TrialRow.make(9, 0, 0.0, 0.0)]
        rep = RatioReport.from_rows("x", rows, 0.1)
        assert math.isnan(rep.max_ratio) and not rep.passed

    @pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
    def test_nan_rhs_fails_wherever_it_sits(self, where):
        # min over a list holding a nan depends on where the nan sits
        rows = rows_with_slope(0.0)
        rows[where] = TrialRow.make(0, rows[where].scale_k, 1.0, math.nan)
        rep = RatioReport.from_rows("x", rows, 0.1)
        assert math.isnan(gate(rep, "rhs_positive").value)
        assert not gate(rep, "rhs_positive").passed and not rep.passed
        assert "rhs_positive" in rep.summary().split("failed=")[1].split(",")

    def test_summary_names_the_tightest_gate(self):
        rep = RatioReport.from_rows("x", rows_with_slope(0.05), 0.1)
        assert [g.name for g in rep.gates] == ["rhs_positive", "max_ratio_finite",
                                               "slope"]
        assert rep.summary().endswith(" tightest=slope margin=0.5")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            RatioReport.from_rows("x", [], 0.1)

    def test_json_dict_shape(self):
        rep = RatioReport.from_rows("x", rows_with_slope(0.0), 0.1, {"p": 2.0})
        d = rep.to_json_dict()
        assert d["kind"] == "ratio" and d["experiment"] == "x"
        assert d["passed"] is True and d["metadata"] == {"p": 2.0}
        json.dumps(d)  # serializable as-is


class TestChainReport:
    def test_pass_needs_every_step_ok(self):
        ok = bounded_step("a", 1.0, 2.0)
        bad = bounded_step("b", 3.0, 2.0)
        assert ok.to_json_dict()["ok"] is True and bad.to_json_dict()["ok"] is False
        assert ChainReport.from_steps("x", [ok], 1.0, 1.0).passed
        failed = ChainReport.from_steps("x", [ok, bad], 1.0, 1.0)
        assert not failed.passed and failed.summary().endswith(" failed=b")
        assert not ChainReport.from_steps("x", [], 1.0, 1.0).passed

    def test_nonfinite_constant_fails(self):
        ok = bounded_step("a", 1.0, 2.0)
        rep = ChainReport.from_steps("x", [ok], math.inf, 1.0)
        assert not rep.passed and rep.summary().endswith(" failed=final_finite")
        # the hypothesis constant is gated by its own chain step, as the
        # extrapolation run builds it
        hyp = ChainStep("weighted_hypothesis", math.nan, 1.0, math.nan, None,
                        Gate("weighted_hypothesis", math.nan, "<", math.inf))
        rep = ChainReport.from_steps("x", [ok, hyp], 1.0, math.nan)
        assert not rep.passed
        assert rep.summary().endswith(" failed=weighted_hypothesis")

    def test_trial_rows_mirror_steps(self):
        steps = [bounded_step("a", 2.0, 4.0),
                 ChainStep("b", 3.0, 2.0, 1.5, None, Gate("b", 1.5, "<=", 4.0))]
        rows = ChainReport.from_steps("x", steps, 1.0, 1.0).trial_rows()
        assert [(r.trial, r.lhs, r.rhs, r.ratio) for r in rows] == [
            (0, 2.0, 1.0, 2.0), (1, 3.0, 2.0, 1.5)]


class TestJsonSafe:
    def test_nonfinite_floats_become_strings(self):
        out = json_safe({"a": math.inf, "b": -math.inf, "c": math.nan})
        assert out == {"a": "inf", "b": "-inf", "c": "nan"}

    def test_numpy_scalars_unwrapped(self):
        import numpy as np

        out = json_safe({"x": np.float64(0.5), "n": np.int64(3),
                         "b": np.bool_(True)})
        assert out == {"x": 0.5, "n": 3, "b": True}
        json.dumps(out)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            json_safe(object())


class TestFileEmission:
    def test_csv_bytes_are_stable(self, tmp_path):
        rows = [TrialRow.make(0, -1, 1.0 / 3.0, 2.0),
                TrialRow.make(1, 2, 5.0, 7.0)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(p1, rows)
        write_trials_csv(p2, list(rows))
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text().splitlines()
        assert text[0] == CSV_HEADER
        # repr round-trip: parsing a cell reproduces the float exactly
        cell = text[1].split(",")[2]
        assert float(cell) == 1.0 / 3.0

    def test_report_json_sorted_and_terminated(self, tmp_path):
        rep = RatioReport.from_rows("x", rows_with_slope(0.0), 0.1)
        path = tmp_path / "r.json"
        write_report_json(path, rep)
        raw = path.read_text()
        assert raw.endswith("\n")
        assert json.loads(raw)["experiment"] == "x"

    def test_annuli_report_json(self, tmp_path):
        rep = AnnuliReport("ann", 2.0, (1 / 9, 9.0), 0.2, 0.9,
                           {0: (0.2, 0.9)}, {0: (0.2, 0.9)},
                           True, 0.0, (Gate("band_lower", 0.2, ">=", 1 / 9),))
        d = rep.to_json_dict()
        assert d["kind"] == "annuli" and d["per_level"] == {"0": [0.2, 0.9]}
        assert d["passed"] is True and d["gates"][0]["margin"] == pytest.approx(0.8)
        write_report_json(tmp_path / "a.json", rep)
