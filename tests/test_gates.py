"""One verdict rule for every run, and README kept in sync with the runs.

A small run of each experiment (its shipped config with at most two trials
and two sweep scales) must pass exactly when all of its gates pass, write
its gates and margins unchanged into the report file, and report the gate
names that README's "What each run gates" table lists.  Each ratio id's
registry plan must draw and measure its last trial alone, bit for bit as in
the full small run.  README's quick-start verdict line must be the one the
shipped unit-weight frac-hardy run prints.
"""

import json
import re
from pathlib import Path

import pytest

from fracharm.config import ExperimentConfig
from fracharm.experiments import EXPERIMENTS, _sweep, run_experiment
from fracharm.reports import TrialRow, json_safe, write_report_json

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "star-sum": "star_sum_unit",
    "tail-sum": "tail_sum_unit",
    "annuli": "annuli",
    "fefferman-stein": "fefferman_stein_diag",
    "frac-hardy": "frac_hardy_unit",
    "bounded-slots": "bounded_slots",
    "var-frac-hardy": "var_frac_hardy",
    "extrapolation": "extrapolation_const",
}


def small_config(stem: str) -> ExperimentConfig:
    payload = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
    payload["corpus"]["count"] = min(payload["corpus"]["count"], 2)
    if payload["experiment"] != "extrapolation":
        payload["sweep"] = {"k_min": 0, "k_max": 1}
    return ExperimentConfig.from_dict(payload)


# the plan check takes Fefferman-Stein's off-diagonal config, so that the
# pairing's rows at trial count + t are drawn alone too
PLANNED = {**{name: stem for name, stem in SMALL.items() if EXPERIMENTS[name].plan},
           "fefferman-stein": "fefferman_stein_offdiag"}


@pytest.fixture(scope="module")
def small_runs():
    return {name: run_experiment(small_config(stem)) for name, stem in SMALL.items()}


def readme_gates() -> dict:
    """Experiment id -> the gate names in the gates column of README's
    "What each run gates" table, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### What each run gates", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        found = re.fullmatch(r"`([a-z-]+)`", cells[0]) if line.startswith("|") else None
        if found:
            table[found.group(1)] = re.findall(r"`([^`]+)`", cells[1])
    return table


def test_every_experiment_has_a_small_run():
    assert sorted(SMALL) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_passed_is_the_conjunction_of_gates(small_runs, experiment, tmp_path):
    report = small_runs[experiment]
    assert report.gates
    assert report.passed is all(g.passed for g in report.gates)
    written = json.loads(write_report_json(tmp_path / "r.json", report).read_text())
    assert written["passed"] is report.passed
    assert written["gates"] == [json_safe(g.to_json_dict()) for g in report.gates]
    assert [g["margin"] for g in written["gates"]] == [g.margin for g in report.gates]


def test_readme_gates_table_matches_the_runs(small_runs):
    # per-slot gates end in the slot index; README writes it as {i}
    reported = {
        name: list(dict.fromkeys(re.sub(r"_\d+$", "_{i}", g.name) for g in rep.gates))
        for name, rep in small_runs.items()
    }
    assert readme_gates() == reported


def _bits(rows):
    return [(r.trial, r.scale_k, r.lhs.hex(), r.rhs.hex()) for r in rows]


@pytest.mark.parametrize("experiment", sorted(PLANNED))
def test_plan_measures_one_trial_alone(small_runs, experiment):
    stem = PLANNED[experiment]
    cfg = small_config(stem)
    full = (small_runs[experiment] if stem == SMALL[experiment]
            else run_experiment(cfg)).rows
    t = cfg.corpus.count - 1
    paired = (t, cfg.corpus.count + t)
    plan = EXPERIMENTS[experiment].plan(cfg)
    data = plan.draw(t)
    for k, box_k, h_k in _sweep(cfg):
        alone = [TrialRow.make(i, k, lhs, rhs)
                 for i, lhs, rhs in plan.measure(t, data, k, box_k, h_k)]
        expected = [r for r in full if r.scale_k == k and r.trial in paired]
        assert _bits(alone) == _bits(expected)
    assert any(r.trial == paired[1] for r in full) == stem.endswith("offdiag")


def test_readme_quick_start_line_matches_the_run(frac_hardy_unit_run):
    report, _ = frac_hardy_unit_run
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    line = next(ln for ln in section.splitlines() if ln.startswith("frac-hardy: "))
    found = re.fullmatch(r"frac-hardy: PASS (.*) -> /tmp/run/frac-hardy\.report\.json", line)
    assert found and found.group(1) == report.summary()
